"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed alone, runs one op
at a time through the public ``partinfo`` API or CLI entry point, and
checks every op's output against code in this directory (``oracle.py``),
outside the timed region.  The package under test is looked up at call
time, so the tracing shim's patches apply.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from fractions import Fraction

import oracle

PROPERTY_IDS = ("lp", "rei", "tcr", "lm", "sm", "id", "iid",
                "l1", "l2", "c1", "l3", "l4", "t1", "t2")
# lemma, corollary and theorem checks: a "fail" would contradict a proof
THEOREM_IDS = ("l1", "l2", "c1", "l3", "l4", "t1", "t2")
MEASURES = ("imin", "isx")
GATES = ("xor", "and", "copy2", "xor_source_copy")
NOISE_LEVELS = ("1/16", "1/8", "3/16", "1/4")
ATOM_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_cli(argv) -> tuple:
    """``partinfo.cli.main(argv)`` with stdout and stderr captured."""
    from partinfo import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return argv, rc, out.getvalue(), err.getvalue()


def require_exit_zero(call) -> None:
    argv, rc, _out, err = call
    require(rc == 0, f"{' '.join(argv)} exited {rc}: {err.strip()[:200]}")


class Workload:
    name = ""
    lattice_ns = ()        # lattices set-up builds and makes invert-ready
    trace_ops = 1          # ops per pass of the traced run

    def steps(self, i: int) -> list:
        """Op ``i`` as a list of calls, each returning one part of its
        result.  The timed run takes a calibration pass between them."""
        raise NotImplementedError

    def op(self, i: int) -> list:
        return [step() for step in self.steps(i)]

    def check(self, i: int, result) -> None:
        raise NotImplementedError

    def output_bytes(self, result) -> int:
        """Bytes the CLI wrote to stdout during one op."""
        return sum(len(out.encode()) for _argv, _rc, out, _err in result)


class AtomsN4(Workload):
    """Atoms of seeded n=4 distributions (ternary sources, binary target,
    64 support points of the 162-cell grid, integer weights 1..6), once
    per measure."""

    name = "atoms-n4"
    lattice_ns = (4,)
    pool = 48              # distinct distributions; ops cycle through them
    sample = 6             # antichains checked against the oracle, plus bottom and top

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.order = oracle.Order(4)
        grid = list(itertools.product(range(3), range(3), range(3), range(3), range(2)))
        self.tables, self.paths = [], []
        for k in range(self.pool):
            rng = random.Random(f"atoms-n4:{seed}:{k}")
            cells = rng.sample(grid, 64)
            weights = [rng.randint(1, 6) for _ in cells]
            total = sum(weights)
            table = oracle.Table([(c[:4], c[4:]) for c in cells], weights)
            path = workdir / f"atoms-n4-{seed}-{k}.json"
            path.write_text(json.dumps({
                "n_sources": 4,
                "target_arity": 1,
                "outcomes": [{"s": list(c[:4]), "t": list(c[4:]), "p": f"{w}/{total}"}
                             for c, w in zip(cells, weights)],
            }))
            self.tables.append(table)
            self.paths.append(str(path))

    def steps(self, i):
        path = self.paths[i % self.pool]
        return [functools.partial(run_cli, ["atoms", "--input", path, "--measure", m,
                                            "--format", "json"])
                for m in MEASURES]

    def check(self, i, result):
        table = self.tables[i % self.pool]
        nodes = self.order.nodes
        rng = random.Random(f"atoms-n4-check:{self.seed}:{i}")
        bottom = frozenset(frozenset({k}) for k in range(1, 5))
        top = frozenset({frozenset(range(1, 5))})
        sample = [bottom, top] + rng.sample(nodes, self.sample)
        for measure, call in zip(MEASURES, result):
            require_exit_zero(call)
            payload = json.loads(call[2])
            require(payload["measure"] == measure and payload["n"] == 4, "wrong header")
            require(payload["consistency"]["passed"] is True, "consistency check failed")
            atoms = {oracle.parse_label(k): v for k, v in payload["atoms"].items()}
            require(set(atoms) == set(nodes), f"{len(atoms)} atoms, expected {len(nodes)}")
            redundancy = self.order.down_sum(atoms)
            reference = table.imin if measure == "imin" else table.isx
            for antichain in sample:
                want = reference(antichain)
                got = redundancy[antichain]
                require(abs(got - want) <= ATOM_TOL,
                        f"{measure} on {oracle.label(antichain)}: atoms sum to {got}, oracle {want}")


class Verdicts(Workload):
    """One sweep of the property checks over the gate corpus at one noise
    level, then the Table 2 verdict matrix."""

    name = "verdicts"
    lattice_ns = (2, 3)

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def params(self, i: int) -> tuple:
        """Op ``i`` of seed ``s`` uses noise level ``(s + i) mod 4`` and
        check seed ``s + i``, so any four consecutive ops cover each level."""
        k = self.seed + i
        return NOISE_LEVELS[k % len(NOISE_LEVELS)], k

    def steps(self, i):
        noise, check_seed = self.params(i)
        calls = [
            ["check", "--gate", gate, "--noise", noise, "--measure", measure,
             "--property", "all", "--seed", str(check_seed), "--format", "json"]
            for gate in GATES for measure in MEASURES
        ]
        calls.append(["table2", "--format", "json"])
        return [functools.partial(run_cli, argv) for argv in calls]

    def check(self, i, result):
        *checks, table2 = result
        for call in checks:
            require_exit_zero(call)
            argv = call[0]
            where = f"{argv[argv.index('--gate') + 1]}/{argv[argv.index('--measure') + 1]}"
            reports = {r["property"]: r for r in json.loads(call[2])}
            require(tuple(sorted(reports)) == tuple(sorted(PROPERTY_IDS)),
                    f"{where}: got property ids {sorted(reports)}")
            for pid in THEOREM_IDS:
                require(reports[pid]["verdict"] != "fail", f"{where}: theorem check {pid} failed")
            require(reports["rei"]["verdict"] == "pass",
                    f"{where}: rei is {reports['rei']['verdict']}")
        require_exit_zero(table2)
        payload = json.loads(table2[2])
        for measure, row in payload["expected"].items():
            require(payload["computed"].get(measure) == row, f"table2 drift for {measure}")


class LatticeN4(Workload):
    """Build the n=4 redundancy lattice, export it as the CLI does, and
    invert exact rational value vectors."""

    name = "lattice-n4"
    pool = 16              # distinct value vectors; op i inverts three of them
    per_op = 3
    trace_ops = 5
    scale = 27720          # lcm(1..12): every value and atom times this is an integer

    def __init__(self, seed: int, workdir):
        from partinfo import Antichain, lattice

        # A CLI process enumerates the antichains afresh, so each op does too.
        self.clear_enumeration = getattr(lattice.enumerate_antichains, "cache_clear", None)
        self.order = oracle.Order(4)
        self.own = {oracle.label(a): a for a in self.order.nodes}
        self.vectors = []
        for k in range(self.pool):
            rng = random.Random(f"lattice-n4:{seed}:{k}")
            self.vectors.append({
                Antichain.from_label(label): Fraction(rng.randint(-64, 64), rng.randint(1, 12))
                for label in self.own
            })

    def steps(self, i):
        return [functools.partial(self.build_and_invert, i)]

    def build_and_invert(self, i):
        import partinfo

        if self.clear_enumeration is not None:
            self.clear_enumeration()
        built = partinfo.RedundancyLattice(4)
        text = json.dumps(built.to_json_dict(), indent=2, sort_keys=True)
        dot = built.to_dot()
        inversions = []
        for j in range(self.per_op):
            values = self.vectors[(i * self.per_op + j) % self.pool]
            atoms = partinfo.atoms_from_values(built, values)
            inversions.append((values, atoms, partinfo.redundancy_from_atoms(built, atoms)))
        return text, dot, inversions

    def check(self, i, result):
        (text, dot, inversions), = result
        data = json.loads(text)
        require(len(data["nodes"]) == 166 and set(data["nodes"]) == set(self.own),
                f"lattice has {len(data['nodes'])} nodes, expected the 166 antichains")
        require(len(data["moebius"]) == self.order.comparable_pairs,
                f"{len(data['moebius'])} Moebius entries, expected {self.order.comparable_pairs}")
        require(dot.count(" -> ") == len(data["covers"]) > 0, "DOT edges differ from covers")
        for values, atoms, roundtrip in inversions:
            scaled = {}
            for node, atom in atoms.items():
                exact = atom * self.scale
                require(isinstance(atom, (int, Fraction)) and exact.denominator == 1,
                        f"atom {atom!r} at {node.label} is not exact")
                scaled[self.own[node.label]] = int(exact)
            sums = self.order.down_sum(scaled)
            for node, value in values.items():
                require(sums[self.own[node.label]] == value * self.scale,
                        f"down-sum differs at {node.label}")
                require(roundtrip[node] == value, f"redundancy_from_atoms differs at {node.label}")

    def output_bytes(self, result) -> int:
        return 0


WORKLOADS = {w.name: w for w in (AtomsN4, Verdicts, LatticeN4)}
