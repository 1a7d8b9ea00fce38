"""Command-line front end.

Subcommands:
  atoms    decompose a distribution and print the atom table
  check    run property checks and report verdicts
  lattice  emit the antichain lattice as text, JSON, or DOT
  table2   property matrix for every registered measure over the gate corpus

Exit codes: 0 success/expected, 1 unexpected verdict, 2 input error,
3 resource cap exceeded, 141 stdout closed by its reader (128 + SIGPIPE).

Each command imports the modules it uses when it runs, so ``lattice``
loads only :mod:`partinfo.lattice`; the full parser (``--help``, or an
option before the command) loads every command's modules for their flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

from .lattice import LARGE_N, LatticeSizeError, redundancy_lattice

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141

#: the most ``--trials`` that ``check`` and ``table2`` take.  For imin and
#: isx the rei scan counts each relabelling without drawing or building it,
#: so ``check --gate xor_source_copy --noise 1/8 --property rei --trials
#: 4096`` runs in 0.036-0.065 s (median 0.040 s) at 22 MiB peak RSS with
#: imin and 0.036-0.060 s (median 0.038 s) with isx (``cli.main`` alone, 10
#: runs each, Python 3.11, 2 vCPUs), against medians of 0.57 s at 52 MiB
#: when every relabelled table was built.  Any other measure keeps a table
#: and a decomposition per distinct relabelling until the call returns.
MAX_TRIALS = 4096

_MEASURE_LABELS = {
    "imin": "I_min",
    "isx": "I^sx",
    "broja": "BROJA",
    "rmin": "R_min",
    "ired": "I_red",
    "iunion_blackwell": "I_union^<",
}
_MARKS = {"pass": "✓", "fail": "✗", "vacuous": "n/a"}


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan        # rejected below
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _trials(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1              # rejected below
    if not 0 <= value <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 0 to {MAX_TRIALS}, got {text!r}")
    return value


def _tol_help() -> str:
    from .engine import DEFAULT_TOL
    from .properties import DEFAULT_REI_TOL

    return "tolerance of every check (default: %s, and %s for rei's atom comparisons)" % tuple(
        f"{tol:.0e}".replace("e-0", "e-") for tol in (DEFAULT_TOL, DEFAULT_REI_TOL))


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or one that builds the flags of
    ``command`` alone; the others keep their names and help lines, so help,
    usage and errors for ``command`` read as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="partinfo",
        description="Partial information decomposition of discrete joint distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help_text):    # None for a command whose flags are not built
        p = sub.add_parser(name, help=help_text, add_help=command in (None, name))
        return p if p.add_help else None

    def add_input_flags(p):
        from .gates import gate_ids

        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--gate", choices=gate_ids(), help="built-in gate distribution")
        group.add_argument("--input", metavar="FILE", help="distribution JSON file")
        p.add_argument("--noise", help="gate noise level (rational, e.g. 1/8; default 0)")
        p.add_argument("--emit", metavar="FILE", help="write the distribution JSON and continue")

    if p_atoms := add_parser("atoms", "compute the information atoms"):
        from .engine import DEFAULT_TOL

        add_input_flags(p_atoms)
        p_atoms.add_argument("--measure", required=True, help="registered measure id")
        p_atoms.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        p_atoms.add_argument("--format", choices=("text", "json"), default="text")

    if p_check := add_parser("check", "run property checks"):
        from .properties import PROPERTY_IDS, SCAN_PROPERTIES

        add_input_flags(p_check)
        p_check.add_argument("--measure", required=True)
        p_check.add_argument("--property", default="all",
                             help="property id (%s) or 'all'" % ",".join(PROPERTY_IDS))
        p_check.add_argument("--tol", type=_tolerance, help=_tol_help())
        scan = ", ".join(SCAN_PROPERTIES)
        p_check.add_argument("--seed", type=int, help=f"seed of the rei scan of {scan} or all (default: 0)")
        p_check.add_argument("--trials", type=_trials, help=f"trials of the rei scan of {scan} "
                             f"or all (default: 32, at most {MAX_TRIALS})")
        p_check.add_argument("--expect", metavar="FILE",
                             help="JSON mapping property -> expected verdict")
        p_check.add_argument("--format", choices=("text", "json"), default="text")

    if p_lattice := add_parser("lattice", "emit the antichain lattice"):
        p_lattice.add_argument("--n", type=int, default=3)
        p_lattice.add_argument("--allow-large", action="store_true",
                               help="permit n=5 (text and DOT only)")
        p_lattice.add_argument("--format", choices=("text", "json", "dot"), default="text")

    if p_table := add_parser("table2", "property matrix over the gate corpus"):
        p_table.add_argument("--tol", type=_tolerance, help=_tol_help())
        p_table.add_argument("--seed", type=int, default=0)
        p_table.add_argument("--trials", type=_trials, default=32,
                             help=f"trials of each rei scan (default: 32, at most {MAX_TRIALS})")
        p_table.add_argument("--expect", metavar="FILE",
                             help="expectations JSON (default: packaged table)")
        p_table.add_argument("--format", choices=("text", "json"), default="text")

    return parser


@lru_cache(maxsize=None)
def _parser(command: str | None) -> argparse.ArgumentParser:
    """:func:`build_parser`, once per command per process: a build costs
    several times what a parse does, and leaves reference cycles behind."""
    return build_parser(command)


def _require_served(n: int, allow_large: bool = False) -> None:
    """The size rule: n < ``LARGE_N``, and n = ``LARGE_N`` for ``lattice --allow-large``."""
    if n > LARGE_N or (n == LARGE_N and not allow_large):
        raise LatticeSizeError(f"lattice too large: n={n} (the CLI serves n < {LARGE_N}, "
                               f"and n = {LARGE_N} to lattice --allow-large)")


def _load_distribution(args):
    from .gates import GateSpec, make_gate
    from .prob import JointDistribution

    if args.gate:
        d = make_gate(GateSpec(args.gate, "0" if args.noise is None else args.noise))
    elif args.noise is not None:
        raise ValueError("--noise applies to --gate only, not to --input")
    else:
        d = JointDistribution.load(args.input)
    if args.emit:
        d.dump(args.emit)
    if d.target_arity == 0:
        raise ValueError("target_arity is 0: atoms and check need a target")
    return d


def _cmd_atoms(args) -> int:
    from .engine import atoms_from_redundancy, consistency_check
    from .measures import get_measure

    d = _load_distribution(args)
    measure = get_measure(args.measure)
    _require_served(d.n_sources)
    result = atoms_from_redundancy(d, measure)
    report = consistency_check(result, d, args.tol)
    payload = result.to_json_dict()
    if args.format == "json":
        payload["consistency"] = report.to_json_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"measure: {measure.id}   sources: {d.n_sources}   digest: {d.digest[:16]}")
        width = max(map(len, payload["atoms"]))
        for label, value in payload["atoms"].items():
            print(f"  {label:<{width}}  {value: .12f}")
        print(f"consistency: max residual {report.max_residual:.3e} over "
              f"{len(report.entries)} subsets (tol {report.tolerance:g})")
    return EXIT_OK if report.passed else EXIT_UNEXPECTED


def _render_report(report) -> str:
    line = f"[{report.verdict}] {report.property_id}  measure={report.measure_id}  tol={report.tolerance:g}"
    if report.witness:
        line += f"\n    witness: {json.dumps(report.witness, sort_keys=True, default=str)}"
    if report.details:
        line += f"\n    details: {json.dumps(report.details, sort_keys=True, default=str)}"
    return line


def _cmd_check(args) -> int:
    from .measures import get_measure
    from .properties import PROPERTY_IDS, SCAN_PROPERTIES, run_all_checks, run_property

    expected = _read_json(args.expect) if args.expect else {}
    if not isinstance(expected, dict) or not all(
        k in PROPERTY_IDS and isinstance(v, str) and v in _MARKS for k, v in expected.items()
    ):
        raise ValueError(
            f"{args.expect}: expected a JSON object of property id -> pass, fail or vacuous"
        )
    d = _load_distribution(args)
    measure = get_measure(args.measure)
    if args.property != "all" and args.property not in PROPERTY_IDS:
        raise ValueError(
            f"unknown property {args.property!r}; known: {', '.join(PROPERTY_IDS)} or 'all'"
        )
    not_run = [p for p in expected if args.property not in ("all", p)]
    if not_run:
        raise ValueError(f"{args.expect}: expects verdicts of properties that "
                         f"--property {args.property} does not run: {', '.join(not_run)}")
    # flags not given keep the checks' own defaults (seed 0, 32 trials)
    scan = {name: value for name, value in (("seed", args.seed), ("trials", args.trials))
            if value is not None}
    if scan and args.property not in ("all", *SCAN_PROPERTIES):
        raise ValueError(f"--{next(iter(scan))} applies to the rei scan of "
                         f"{', '.join(SCAN_PROPERTIES)} or all; "
                         f"--property {args.property} does not run it")
    _require_served(d.n_sources)
    if args.property == "all":
        reports = run_all_checks(d, measure, tol=args.tol, **scan)
    else:
        reports = (run_property(args.property, d, measure, tol=args.tol, **scan),)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for report in reports:
            print(_render_report(report))
    if args.expect:
        mismatches = [
            (r.property_id, expected[r.property_id], r.verdict)
            for r in reports
            if r.property_id in expected and expected[r.property_id] != r.verdict
        ]
        for prop, want, got in mismatches:
            print(f"unexpected verdict for {prop}: expected {want}, got {got}", file=sys.stderr)
        return EXIT_UNEXPECTED if mismatches else EXIT_OK
    return EXIT_OK


def _cmd_lattice(args) -> int:
    if args.format == "json" and args.n == LARGE_N:
        raise LatticeSizeError(
            f"lattice too large for JSON: n={LARGE_N} has 7,813,193 Möbius rows; "
            "--allow-large works with --format text or dot"
        )
    if args.allow_large and args.n < LARGE_N:
        raise ValueError(f"--allow-large applies to n = {LARGE_N} only; "
                         f"--n {args.n} does not need it")
    _require_served(args.n, args.allow_large)
    lattice = redundancy_lattice(args.n)
    if args.format == "dot":
        sys.stdout.write(lattice.to_dot())
    elif args.format == "json":
        print(json.dumps(lattice.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(f"antichain lattice for n={args.n}: {len(lattice)} nodes, "
              f"{len(lattice.cover_pairs)} cover relations")
        for label in lattice.labels:
            print(f"  {label}")
    return EXIT_OK


def _read_json(path) -> object:
    from pathlib import Path

    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def _default_expectations() -> dict:
    from importlib import resources

    return json.loads(resources.files("partinfo").joinpath("table2_expected.json").read_text())


def _cmd_table2(args) -> int:
    from .measures import UNIMPLEMENTED_MEASURES, available_measures, get_measure
    from .properties import TABLE_PROPERTIES, property_matrix

    expected = _read_json(args.expect) if args.expect else _default_expectations()
    if not (
        isinstance(expected, dict)
        and isinstance(expected.get("measures"), dict)
        and all(isinstance(row, dict) for row in expected["measures"].values())
        and isinstance(expected.get("not_implemented", []), list)
        and all(isinstance(mid, str) for mid in expected.get("not_implemented", []))
    ):
        raise ValueError(f"{args.expect}: expected an object with \"measures\" "
                         "as an object of objects")
    measures = [get_measure(mid) for mid in available_measures()]
    matrix = property_matrix(measures, tol=args.tol, trials=args.trials, seed=args.seed)

    if args.format == "json":
        print(json.dumps({"computed": matrix, "expected": expected["measures"]},
                         indent=2, sort_keys=True))
    else:
        header = "Measure".ljust(12) + "".join(p.upper().ljust(6) for p in TABLE_PROPERTIES)
        print(header)
        for mid in sorted(matrix):
            label = _MEASURE_LABELS.get(mid, mid)
            row = "".join(_MARKS[matrix[mid][p]].ljust(6) for p in TABLE_PROPERTIES)
            print(label.ljust(12) + row)
        for mid in expected.get("not_implemented", UNIMPLEMENTED_MEASURES):
            print(_MEASURE_LABELS.get(mid, mid).ljust(12) + "n/a (not implemented)")
        print("(✓ = no violation found on the gate corpus, ✗ = violation witnessed)")

    drift = []
    for mid, want in expected["measures"].items():
        got = matrix.get(mid)
        if got is None:
            drift.append((mid, "missing measure"))
            continue
        for prop, verdict in want.items():
            if got.get(prop) != verdict:
                drift.append((mid, f"{prop}: expected {verdict}, got {got.get(prop)}"))
    for mid, message in drift:
        print(f"matrix drift for {mid}: {message}", file=sys.stderr)
    return EXIT_UNEXPECTED if drift else EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first argument names the command, unless it is an option or absent
    named = argv[0] if argv and argv[0] in ("atoms", "check", "lattice", "table2") else None
    args = _parser(named).parse_args(argv)
    run = globals()[f"_cmd_{args.command}"]    # read per call, as the parser is kept
    try:
        return run(args)
    except LatticeSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so the
        # flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:   # DistributionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
