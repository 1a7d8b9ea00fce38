"""Packaging contracts that no behavioural test would notice breaking."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partinfo

SOURCES = sorted(Path(partinfo.__file__).parent.glob("*.py"))


def test_the_runtime_imports_only_the_standard_library():
    # numpy and scipy may be installed alongside, but the package must not
    # import them or anything else outside the standard library
    assert len(SOURCES) >= 8
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside


# the names the package re-exported before they were loaded on first access
PUBLIC_NAMES = [
    "Antichain", "ConditioningError", "ConsistencyReport", "DistributionError",
    "EncodingError", "GateSpec", "JointDistribution", "LatticeSizeError",
    "MeasureEvaluationError", "Outcome", "ParthoodDistribution", "PidResult",
    "PropertyReport", "RedundancyLattice", "RedundancyMeasure", "TheoremWitness",
    "antichain_to_parthood", "as_fraction", "atoms_from_redundancy", "atoms_from_values",
    "available_measures", "c_information", "c_order_leq", "check_corollary1", "check_id",
    "check_iid", "check_lemma1", "check_lemma2", "check_lemma3", "check_lemma4_equivalents",
    "check_lm", "check_lp", "check_rei", "check_sm", "check_tcr", "check_theorem1",
    "check_theorem2", "conditional_atoms", "conformance_suite", "consistency_check",
    "degree_of_redundancy", "enumerate_antichains", "enumerate_parthood", "gate_ids",
    "get_measure", "i_min", "i_sx", "lattice_leq", "make_gate", "parthood_to_antichain",
    "property_matrix", "redundancy_from_atoms", "redundancy_lattice", "register_measure",
    "rsi", "rsi_decomposition_check", "run_all_checks", "run_property",
    "specific_information", "theorem_witness",
]


def test_the_namespace_re_exports_each_name_from_its_defining_module():
    assert len(PUBLIC_NAMES) == 60
    assert sorted(partinfo.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(partinfo, name)
        assert value.__module__.startswith("partinfo."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(PUBLIC_NAMES) <= set(dir(partinfo))
    namespace = {}
    exec("from partinfo import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(PUBLIC_NAMES)
    assert partinfo.__version__ == "0.1.0"
    assert partinfo.prob is sys.modules["partinfo.prob"]
    with pytest.raises(AttributeError, match="no_such_name"):
        partinfo.no_such_name


def new_modules(body: str) -> list:
    """The modules a fresh interpreter imports while running ``body``, with
    the package imported from the same source tree as these tests."""
    src = str(Path(partinfo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import json, sys\nbefore = set(sys.modules)\n" + body
            + "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_lattice_path_of_the_library_loads_only_lattice_and_engine():
    new = new_modules(
        "import partinfo\n"
        "from fractions import Fraction\n"
        "lattice = partinfo.redundancy_lattice(4)\n"
        "values = {node: Fraction(k, 7) for k, node in enumerate(lattice.nodes)}\n"
        "atoms = partinfo.atoms_from_values(lattice, values)\n"
        "assert partinfo.redundancy_from_atoms(lattice, atoms) == values\n"
    )
    assert [m for m in new if m.partition(".")[0] == "partinfo"] == [
        "partinfo", "partinfo.engine", "partinfo.lattice"]
    assert "hashlib" not in new


def test_the_lattice_command_loads_neither_measures_tables_checks_nor_gates():
    new = new_modules(
        "import contextlib, io\n"
        "from partinfo import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert cli.main(['lattice', '--n', '3', '--format', 'json']) == 0\n"
        "assert len(json.loads(out.getvalue())['nodes']) == 18\n"
    )
    assert "partinfo.cli" in new and "partinfo.lattice" in new
    unused = ["partinfo.measures", "partinfo.prob", "partinfo.properties", "partinfo.gates",
              "hashlib"]
    assert [m for m in unused if m in new] == []
