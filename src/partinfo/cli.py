"""Command-line front end.

Subcommands:
  atoms    decompose a distribution and print the atom table
  check    run property checks and report verdicts
  lattice  emit the antichain lattice as text, JSON, or DOT
  table2   property matrix for every registered measure over the gate corpus

Exit codes: 0 success/expected, 1 unexpected verdict, 2 input error,
3 resource cap exceeded, 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from .engine import atoms_from_redundancy, consistency_check
from .gates import GateSpec, gate_ids, make_gate
from .lattice import LARGE_N, LatticeSizeError, redundancy_lattice
from .measures import UNIMPLEMENTED_MEASURES, available_measures, get_measure
from .prob import DistributionError, JointDistribution
from .properties import (
    PROPERTY_IDS,
    TABLE_PROPERTIES,
    property_matrix,
    run_all_checks,
    run_property,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141

_MEASURE_LABELS = {
    "imin": "I_min",
    "isx": "I^sx",
    "broja": "BROJA",
    "rmin": "R_min",
    "ired": "I_red",
    "iunion_blackwell": "I_union^<",
}
_MARKS = {"pass": "✓", "fail": "✗", "vacuous": "n/a"}
_TOL_HELP = "tolerance of every check (default: 1e-9, and 1e-12 for rei's atom comparisons)"


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan        # rejected below
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1              # rejected below
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partinfo",
        description="Partial information decomposition of discrete joint distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--gate", choices=gate_ids(), help="built-in gate distribution")
        group.add_argument("--input", metavar="FILE", help="distribution JSON file")
        p.add_argument("--noise", help="gate noise level (rational, e.g. 1/8; default 0)")
        p.add_argument("--emit", metavar="FILE", help="write the distribution JSON and continue")

    p_atoms = sub.add_parser("atoms", help="compute the information atoms")
    add_input_flags(p_atoms)
    p_atoms.add_argument("--measure", required=True, help="registered measure id")
    p_atoms.add_argument("--tol", type=_tolerance, default=1e-9)
    p_atoms.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="run property checks")
    add_input_flags(p_check)
    p_check.add_argument("--measure", required=True)
    p_check.add_argument("--property", default="all",
                         help="property id (%s) or 'all'" % ",".join(PROPERTY_IDS))
    p_check.add_argument("--tol", type=_tolerance, help=_TOL_HELP)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=_count, default=32)
    p_check.add_argument("--expect", metavar="FILE",
                         help="JSON mapping property -> expected verdict")
    p_check.add_argument("--format", choices=("text", "json"), default="text")

    p_lattice = sub.add_parser("lattice", help="emit the antichain lattice")
    p_lattice.add_argument("--n", type=int, default=3)
    p_lattice.add_argument("--allow-large", action="store_true",
                           help="permit n=5 (text and DOT only)")
    p_lattice.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p_table = sub.add_parser("table2", help="property matrix over the gate corpus")
    p_table.add_argument("--tol", type=_tolerance, help=_TOL_HELP)
    p_table.add_argument("--seed", type=int, default=0)
    p_table.add_argument("--trials", type=_count, default=32)
    p_table.add_argument("--expect", metavar="FILE",
                         help="expectations JSON (default: packaged table)")
    p_table.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _load_distribution(args) -> JointDistribution:
    if args.gate:
        d = make_gate(GateSpec(args.gate, "0" if args.noise is None else args.noise))
    elif args.noise is not None:
        raise DistributionError("--noise applies to --gate only, not to --input")
    else:
        d = JointDistribution.load(args.input)
    if args.emit:
        d.dump(args.emit)
    return d


def _cmd_atoms(args) -> int:
    d = _load_distribution(args)
    measure = get_measure(args.measure)
    result = atoms_from_redundancy(d, measure)
    report = consistency_check(result, d, args.tol)
    if args.format == "json":
        payload = result.to_json_dict()
        payload["consistency"] = report.to_json_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"measure: {measure.id}   sources: {d.n_sources}   digest: {d.digest[:16]}")
        width = max(len(a.label) for a in result.atoms)
        for antichain, value in result.atoms.items():
            print(f"  {antichain.label:<{width}}  {value: .12f}")
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
    expected = _read_json(args.expect) if args.expect else {}
    if not isinstance(expected, dict) or not all(
        k in PROPERTY_IDS and isinstance(v, str) and v in _MARKS for k, v in expected.items()
    ):
        raise DistributionError(
            f"{args.expect}: expected a JSON object of property id -> pass, fail or vacuous"
        )
    d = _load_distribution(args)
    measure = get_measure(args.measure)
    if args.property == "all":
        reports = run_all_checks(d, measure, tol=args.tol, trials=args.trials, seed=args.seed)
    else:
        if args.property not in PROPERTY_IDS:
            raise DistributionError(
                f"unknown property {args.property!r}; known: {', '.join(PROPERTY_IDS)} or 'all'"
            )
        reports = (run_property(args.property, d, measure,
                                tol=args.tol, trials=args.trials, seed=args.seed),)
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
    lattice = redundancy_lattice(args.n, allow_large=args.allow_large)
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
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DistributionError(f"cannot parse {path}: {exc}") from exc


def _default_expectations() -> dict:
    return json.loads(resources.files("partinfo").joinpath("table2_expected.json").read_text())


def _cmd_table2(args) -> int:
    expected = _read_json(args.expect) if args.expect else _default_expectations()
    if not (
        isinstance(expected, dict)
        and isinstance(expected.get("measures"), dict)
        and all(isinstance(row, dict) for row in expected["measures"].values())
        and isinstance(expected.get("not_implemented", []), list)
        and all(isinstance(mid, str) for mid in expected.get("not_implemented", []))
    ):
        raise DistributionError(f"{args.expect}: expected an object with \"measures\" "
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
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "atoms": _cmd_atoms,
        "check": _cmd_check,
        "lattice": _cmd_lattice,
        "table2": _cmd_table2,
    }
    try:
        return handlers[args.command](args)
    except LatticeSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so the
        # flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (DistributionError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
