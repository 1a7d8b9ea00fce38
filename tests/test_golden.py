"""Byte-identity of CLI output against recorded digests.

``golden_digests.json`` holds the sha256 of stdout for a fixed command set:
``check --property all`` on the four corpus gates at two noise levels and
on a seeded n=3 table whose first target component is ternary, for both
measures, ``atoms`` on two seeded n=4 tables, ``table2`` and ``lattice --n
3``, all in JSON, plus ``lattice --n 4`` in JSON and DOT and ``lattice --n 5
--allow-large`` in DOT.  One more ``check --property all`` runs at
``--tol 1e-17``, so a last-bit change in the rei atoms flips a verdict.
Any change to an atom, a verdict or a formatting detail shows up here.
When an output change is intended, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and say in the change log
why the output moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from partinfo.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
GATES = ("xor", "copy2", "and", "xor_source_copy")
MEASURES = ("imin", "isx")
TABLES = ("plain", "aux")
SPLIT = "split"


def _write_tables(directory: Path) -> dict:
    """Two seeded n=4 tables (ternary sources, binary target, 64 rows with
    weights over their sum): a plain one, and one with an aux column whose
    rows may share (sources, target) and may carry zero probability."""
    grid = list(itertools.product(range(3), range(3), range(3), range(3), range(2)))
    paths = {}
    for name, aux in zip(TABLES, ((), ("a", "b"))):
        rng = random.Random(f"golden:{name}")
        cells = rng.sample([c + (z,) for c in grid for z in aux] if aux else grid, 64)
        weights = [rng.randint(0 if aux else 1, 6) for _ in cells]
        total = sum(weights)
        outcomes = []
        for cell, w in zip(cells, weights):
            entry = {"s": list(cell[:4]), "t": [cell[4]], "p": f"{w}/{total}"}
            if aux:
                entry["z"] = cell[5]
            outcomes.append(entry)
        path = directory / f"golden-{name}.json"
        path.write_text(json.dumps({"n_sources": 4, "target_arity": 1, "outcomes": outcomes}))
        paths[name] = str(path)
    paths[SPLIT] = str(_write_split_table(directory))
    return paths


def _write_split_table(directory: Path) -> Path:
    """A seeded n=3 table over binary sources whose target is (S1+S2+S3 mod
    3, S1*S2 mod 2), so the chain-rule checks split along a ternary first
    component."""
    rng = random.Random("golden:split")
    sources = list(itertools.product(range(2), repeat=3))
    weights = [rng.randint(1, 6) for _ in sources]
    total = sum(weights)
    outcomes = [
        {"s": list(s), "t": [sum(s) % 3, s[0] * s[1] % 2], "p": f"{w}/{total}"}
        for s, w in zip(sources, weights)
    ]
    path = directory / "golden-split.json"
    path.write_text(json.dumps({"n_sources": 3, "target_arity": 2, "outcomes": outcomes}))
    return path


def golden_commands(tables: dict) -> dict:
    """Command name -> argv, given the path of each n=4 table."""
    commands = {}
    for gate, noise, measure in itertools.product(GATES, ("0", "1/8"), MEASURES):
        commands[f"check {gate} q={noise} {measure}"] = [
            "check", "--gate", gate, "--noise", noise, "--measure", measure,
            "--property", "all", "--seed", "5", "--format", "json",
        ]
    commands["check xor_source_copy q=1/8 imin tol=1e-17"] = [
        "check", "--gate", "xor_source_copy", "--noise", "1/8", "--measure", "imin",
        "--property", "all", "--tol", "1e-17", "--trials", "4", "--format", "json",
    ]
    for measure in MEASURES:
        commands[f"check {SPLIT} {measure}"] = [
            "check", "--input", tables[SPLIT], "--measure", measure,
            "--property", "all", "--seed", "5", "--format", "json",
        ]
    for name, measure in itertools.product(TABLES, MEASURES):
        commands[f"atoms {name} {measure}"] = [
            "atoms", "--input", tables[name], "--measure", measure, "--format", "json",
        ]
    commands["table2"] = ["table2", "--format", "json"]
    commands["lattice n=3"] = ["lattice", "--n", "3", "--format", "json"]
    commands["lattice n=4 json"] = ["lattice", "--n", "4", "--format", "json"]
    commands["lattice n=4 dot"] = ["lattice", "--n", "4", "--format", "dot"]
    commands["lattice n=5 dot"] = ["lattice", "--n", "5", "--allow-large", "--format", "dot"]
    return commands


def stdout_digest(argv) -> tuple:
    """Exit code and sha256 of what ``partinfo`` writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    return golden_commands(_write_tables(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_command_has_a_recorded_digest(commands, recorded):
    assert sorted(recorded) == sorted(commands)


@pytest.mark.parametrize("name", sorted(golden_commands(dict.fromkeys(TABLES + (SPLIT,), "-"))))
def test_output_matches_recorded_digest(commands, recorded, name):
    assert stdout_digest(commands[name]) == (0, recorded[name])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name, argv in golden_commands(_write_tables(Path(tmp))).items():
            code, digest = stdout_digest(argv)
            if code != 0:
                sys.exit(f"{name} exited {code}")
            digests[name] = digest
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
