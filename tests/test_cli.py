"""CLI behavior: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from partinfo import JointDistribution
from partinfo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atoms_copy_gate_imin(capsys):
    code, out, _ = run_cli(capsys, "atoms", "--gate", "copy2", "--measure", "imin")
    assert code == 0
    assert "{1}{2}" in out and "1.000000000000" in out
    assert "consistency" in out


def test_atoms_xor_isx_shows_negative_redundancy(capsys):
    code, out, _ = run_cli(capsys, "atoms", "--gate", "xor", "--measure", "isx")
    assert code == 0
    assert "-0.584962500721" in out


def test_atoms_xor_source_copy_has_eighteen_rows(capsys):
    code, out, _ = run_cli(
        capsys, "atoms", "--gate", "xor_source_copy", "--measure", "imin", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["atoms"]) == 18
    assert payload["consistency"]["passed"] is True


def test_check_tcr_on_xor_source_copy(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--gate", "xor_source_copy", "--measure", "imin",
        "--property", "tcr",
    )
    assert code == 0
    assert "[fail] tcr" in out
    assert "witness" in out


def test_check_id_on_copy_gate(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--gate", "copy2", "--measure", "imin",
        "--property", "id", "--format", "json",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["verdict"] == "fail"
    assert abs(report["details"]["redundancy"] - 1.0) <= 1e-9
    assert abs(report["details"]["source_mutual_information"]) <= 1e-9


def test_check_lp_on_xor_imin(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--gate", "xor", "--measure", "imin", "--property", "lp"
    )
    assert code == 0
    assert "[pass] lp" in out


def test_check_against_expectations(tmp_path, capsys):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"lp": "pass", "tcr": "fail"}))
    code, _, _ = run_cli(
        capsys, "check", "--gate", "copy2", "--measure", "imin",
        "--property", "all", "--trials", "4", "--expect", str(expect),
    )
    assert code == 0

    expect.write_text(json.dumps({"tcr": "pass"}))
    code, _, err = run_cli(
        capsys, "check", "--gate", "copy2", "--measure", "imin",
        "--property", "tcr", "--expect", str(expect),
    )
    assert code == 1
    assert "unexpected verdict" in err


def test_check_unknown_property_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "check", "--gate", "xor", "--measure", "imin", "--property", "bogus"
    )
    assert code == 2
    assert "unknown property" in err


def test_unknown_measure_is_input_error(capsys):
    code, _, err = run_cli(capsys, "atoms", "--gate", "xor", "--measure", "nope")
    assert code == 2
    assert "unknown measure" in err


def test_lattice_counts_and_formats(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--n", "2")
    assert code == 0 and "4 nodes" in out

    code, out, _ = run_cli(capsys, "lattice", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and len(payload["nodes"]) == 18
    assert len(payload["covers"]) == 30

    code, out, _ = run_cli(capsys, "lattice", "--n", "2", "--format", "dot")
    assert code == 0 and out.count("->") == 4


def test_lattice_n4_has_166_nodes(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--n", "4")
    assert code == 0 and "166 nodes" in out


def test_lattice_resource_cap(capsys):
    code, _, err = run_cli(capsys, "lattice", "--n", "5")
    assert code == 3 and "lattice too large" in err
    code, _, err = run_cli(capsys, "lattice", "--n", "6", "--allow-large")
    assert code == 3


def test_lattice_n5_json_is_refused_before_the_build(capsys, monkeypatch):
    from partinfo import cli

    monkeypatch.setattr(cli, "redundancy_lattice", None)    # a build would fail loudly
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lattice", "--n", "5", "--allow-large", "--format", "json")
    assert code == 3 and out == ""
    assert "too large for JSON" in err and "text" in err and "dot" in err
    assert time.perf_counter() - start < 1.0


def test_oversized_distribution_hits_resource_cap(tmp_path, capsys):
    import itertools
    from fractions import Fraction

    from partinfo import JointDistribution as JD, Outcome

    rows = [
        (Outcome(s, (sum(s) % 2,)), Fraction(1, 32))
        for s in itertools.product((0, 1), repeat=5)
    ]
    path = tmp_path / "five.json"
    JD(5, 1, rows).dump(path)
    code, _, err = run_cli(capsys, "atoms", "--input", str(path), "--measure", "imin")
    assert code == 3 and "lattice too large" in err


def test_input_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "atoms", "--input", str(missing), "--measure", "imin")
    assert code == 2

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{oops")
    code, _, err = run_cli(capsys, "atoms", "--input", str(malformed), "--measure", "imin")
    assert code == 2 and "error" in err


def _write_outcomes(path, outcomes):
    path.write_text(json.dumps({"n_sources": 2, "target_arity": 1, "outcomes": outcomes}))
    return str(path)


@pytest.mark.parametrize("outcomes", [
    [{"s": [[0], 1], "t": [0], "p": "1"}],
    [{"s": [True, 1], "t": [0], "p": "1"}],
    [{"s": [0, 1], "t": [1.0], "p": "1"}],
    [{"s": [0, 1], "t": [0], "z": [0], "p": "1"}],
    5,
    [{"s": "01", "t": [0], "p": "1"}],
    [{"s": [0, 1], "t": "0", "p": "1"}],
    [{"s": {"0": 1, "1": 2}, "t": [0], "p": "1"}],
])
def test_bad_outcome_entries_exit_2(tmp_path, capsys, outcomes):
    path = _write_outcomes(tmp_path / "bad.json", outcomes)
    code, _, err = run_cli(capsys, "atoms", "--input", path, "--measure", "imin")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("outcomes", [
    [{"s": [1] * 5000, "t": "x"}],
    [{"s": [1] * 5000, "t": [0], "p": "1"}],
    [{"s": [0, 1], "t": [0], "p": "x" * 5000}],
    [{"s": [0, 1], "t": [0], "p": "9" * 4000}],
])
def test_error_lines_quote_long_entries_briefly(tmp_path, capsys, outcomes):
    path = _write_outcomes(tmp_path / "long.json", outcomes)
    code, _, err = run_cli(capsys, "atoms", "--input", path, "--measure", "imin")
    assert code == 2 and err.startswith("error: ") and err.endswith("\n")
    assert len(err.encode()) < 300


@pytest.mark.parametrize("header", [
    {"n_sources": 2.9},
    {"n_sources": 2.0},
    {"n_sources": "2"},
    {"target_arity": True},
    {"target_arity": None},
])
def test_non_integer_header_fields_exit_2(tmp_path, capsys, header):
    data = {"n_sources": 2, "target_arity": 1,
            "outcomes": [{"s": [0, 1], "t": [0], "p": "1"}], **header}
    path = tmp_path / "header.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "atoms", "--input", str(path), "--measure", "imin")
    assert code == 2 and err.startswith("error: ")


def test_symbols_may_be_ints_or_strings(tmp_path, capsys):
    path = _write_outcomes(tmp_path / "ok.json", [
        {"s": [0, "a"], "t": [0], "z": "x", "p": "1/2"},
        {"s": [1, "b"], "t": [1], "z": "x", "p": "1/2"},
    ])
    code, _, err = run_cli(capsys, "atoms", "--input", path, "--measure", "imin")
    assert code == 0, err


@pytest.mark.parametrize("p", ["1e-10000000", "1e-1_000_000_000", "0." + "0" * 5000 + "1"])
def test_huge_decimal_probability_exits_2_promptly(tmp_path, capsys, p):
    path = _write_outcomes(tmp_path / "huge.json", [
        {"s": [0, 0], "t": [0], "p": p},
        {"s": [1, 1], "t": [1], "p": "1/2"},
    ])
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "atoms", "--input", path, "--measure", "imin")
    assert code == 2 and "4300 digits" in err
    assert time.perf_counter() - start < 1.0


def test_emit_round_trip(tmp_path, capsys):
    emitted = tmp_path / "gate.json"
    code, out_gate, _ = run_cli(
        capsys, "atoms", "--gate", "xor_source_copy", "--measure", "imin",
        "--emit", str(emitted),
    )
    assert code == 0
    loaded = JointDistribution.load(emitted)
    assert loaded.n_sources == 3
    code, out_file, _ = run_cli(
        capsys, "atoms", "--input", str(emitted), "--measure", "imin"
    )
    assert code == 0
    assert out_file == out_gate


def test_noisy_gate_flag(capsys):
    code, out, _ = run_cli(
        capsys, "atoms", "--gate", "xor", "--noise", "1/8", "--measure", "imin"
    )
    assert code == 0


@pytest.mark.parametrize("command", [["atoms"], ["check", "--property", "lp"]])
def test_noise_with_input_exits_2(tmp_path, capsys, command):
    emitted = tmp_path / "xor.json"
    assert run_cli(capsys, "atoms", "--gate", "xor", "--measure", "imin",
                   "--emit", str(emitted))[0] == 0
    code, out, err = run_cli(capsys, *command, "--input", str(emitted),
                             "--noise", "1/8", "--measure", "imin")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--noise" in err


def test_table2_matches_packaged_expectations(capsys):
    code, out, err = run_cli(capsys, "table2", "--trials", "6")
    assert code == 0, err
    assert "I_min" in out and "I^sx" in out
    assert "not implemented" in out


def test_table2_drift_detection(tmp_path, capsys):
    wrong = {
        "properties": ["lp", "tcr", "rei", "id"],
        "measures": {"imin": {"lp": "fail", "tcr": "fail", "rei": "pass", "id": "fail"}},
        "not_implemented": [],
    }
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(wrong))
    code, _, err = run_cli(capsys, "table2", "--trials", "4", "--expect", str(expect))
    assert code == 1
    assert "matrix drift" in err


def test_output_is_deterministic(capsys):
    runs = [
        run_cli(capsys, "check", "--gate", "xor_source_copy", "--measure", "isx",
                "--property", "rei", "--seed", "7", "--trials", "6")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    tables = [run_cli(capsys, "table2", "--trials", "4") for _ in range(2)]
    assert tables[0] == tables[1]


def test_closed_stdout_exits_141_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # about 0.5 MB of JSON, far more than a pipe buffers, so the writer is
    # still writing when the pipe closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "partinfo.cli", "lattice", "--n", "4", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


_DEEP = "[" * 100_000 + "]" * 100_000
_DEEP_AUX = ('{"n_sources": 1, "target_arity": 1, "outcomes": [{"s": [0], "t": [0], "p": "1", "z": '
             + "[" * 5000 + "]" * 5000 + "}]}")
_CHECK_LP = ["check", "--gate", "xor", "--measure", "imin", "--property", "lp"]


@pytest.mark.parametrize("argv, text", [
    (["atoms", "--measure", "imin", "--input"], _DEEP),
    (["atoms", "--measure", "imin", "--input"], _DEEP_AUX),
    (_CHECK_LP + ["--expect"], _DEEP),
    (_CHECK_LP + ["--expect"], '"x"'),
    (_CHECK_LP + ["--expect"], '"lp"'),
    (_CHECK_LP + ["--expect"], '["lp"]'),
    (_CHECK_LP + ["--expect"], '{"lp": 1}'),
    (_CHECK_LP + ["--expect"], '{"lp": ["pass"]}'),
    (_CHECK_LP + ["--expect"], '{"lp": "passed"}'),
    (_CHECK_LP + ["--expect"], '{"lpp": "pass"}'),
    (["table2", "--expect"], _DEEP),
    (["table2", "--expect"], "[1]"),
    (["table2", "--expect"], '{"measures": 3}'),
    (["table2", "--expect"], '{"measures": {"imin": 3}}'),
    (["table2", "--expect"], '{"not_implemented": []}'),
    (["table2", "--expect"], '{"measures": {}, "not_implemented": [[]]}'),
])
def test_malformed_json_files_exit_2(tmp_path, capsys, argv, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and err.startswith("error: ")


_BAD_FLAGS = [("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--tol", "-0.5e-9"),
              ("--tol", "x"), ("--trials", "-3"), ("--trials", "1.5")]


@pytest.mark.parametrize("argv, flag, value", [
    (argv, flag, value)
    for argv in (["check", "--gate", "xor", "--measure", "imin"], ["table2"],
                 ["atoms", "--gate", "xor", "--measure", "imin"])
    for flag, value in _BAD_FLAGS
    if argv[0] != "atoms" or flag == "--tol"          # atoms takes no --trials
])
def test_bad_tol_and_trials_exit_2(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_zero_tol_and_trials_are_valid(capsys):
    code, out, _ = run_cli(capsys, *_CHECK_LP[:-1], "rei", "--tol", "0", "--trials", "0",
                           "--format", "json")
    (report,) = json.loads(out)
    assert code == 0
    assert report["tolerance"] == 0 and report["details"]["trials"] == 0


@pytest.mark.parametrize("extra, rei_tol, lp_tol", [
    ([], 1e-12, 1e-9),
    (["--tol", "1e-20"], 1e-20, 1e-20),
])
def test_rei_honours_tol_only_when_given(capsys, extra, rei_tol, lp_tol):
    for prop, want in (("rei", rei_tol), ("lp", lp_tol)):
        code, out, _ = run_cli(capsys, *_CHECK_LP[:-1], prop, "--format", "json", *extra)
        assert code == 0 and json.loads(out)[0]["tolerance"] == want


@pytest.mark.parametrize("extra, want", [([], None), (["--tol", "0.5"], 0.5)])
def test_table2_hands_tol_to_every_check(capsys, monkeypatch, extra, want):
    from partinfo import properties

    seen = set()
    real = properties.run_property

    def spy(*args, **kwargs):
        seen.add(kwargs["tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(properties, "run_property", spy)
    run_cli(capsys, "table2", "--trials", "1", *extra)
    assert seen == {want}
