"""CLI behavior: output formats, exit codes, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from partinfo import DistributionError, JointDistribution
from partinfo.cli import build_parser, main

try:
    from hypothesis import HealthCheck, Phase, given, settings, strategies as st
except ImportError:  # the generated-input test below is skipped
    st = None


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


def test_check_expectation_for_a_property_not_run_is_input_error(tmp_path, capsys):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"rei": "fail", "lp": "pass", "tcr": "fail"}))
    code, out, err = run_cli(capsys, *_CHECK_LP, "--expect", str(expect))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "rei, tcr" in err and "--property lp" in err


@pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--trials", "4"), ("--seed", "0")])
def test_check_scan_flags_for_a_property_without_the_scan_are_input_errors(capsys, flag, value):
    code, out, err = run_cli(capsys, *_CHECK_LP, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and flag in err and "--property lp" in err


def test_check_scan_defaults_are_seed_0_and_32_trials(capsys):
    argv = [*_CHECK_LP[:-1], "rei", "--format", "json"]
    default = run_cli(capsys, *argv)
    assert default == run_cli(capsys, *argv, "--seed", "0", "--trials", "32")
    assert json.loads(default[1])[0]["details"]["trials"] == 32


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


def _parse(parse, argv) -> tuple:
    """What ``parse(argv)`` returns, or its exit code, and everything it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_PARSE_ARGV = [
    [], ["--help"], ["-h"], ["--help", "atoms"], ["-x"], ["bogus"], ["bogus", "--help"],
    ["-x", "atoms", "--gate", "xor", "--measure", "imin"], ["--", "lattice", "--n", "2"],
    ["atoms"], ["check"], ["lattice", "--n"], ["table2", "extra"],
    *([command, flag] for command in ("atoms", "check", "lattice", "table2")
      for flag in ("--help", "-h")),
    ["atoms", "--gate", "xor", "--measure", "imin"],
    ["atoms", "--input", "t.json", "--measure", "isx", "--format", "json", "--tol", "0", "--emit", "e"],
    ["atoms", "--gate=and", "--noise=1/8", "--meas", "imin"],
    ["atoms", "--gate", "xor", "--input", "t.json", "--measure", "imin"],
    ["atoms", "--gate", "nope", "--measure", "imin"],
    ["atoms", "--gate", "xor", "--measure", "imin", "--extra"],
    ["atoms", "--gate", "xor", "--measure", "imin", "--trials", "3"],
    ["atoms", "--gate", "xor", "--measure", "imin", "--tol", "nan"],
    ["check", "--gate", "and", "--noise", "1/8", "--measure", "isx", "--property", "rei",
     "--seed", "3", "--trials", "4", "--expect", "e.json", "--format", "json", "--tol", "1e-6"],
    ["check", "--gate", "xor", "--measure", "imin", "--trials", "-1"],
    ["check", "--input", "t.json"],
    ["lattice"], ["lattice", "--n", "5", "--allow", "--format", "dot"], ["lattice", "--n", "x"],
    ["lattice", "--format", "svg"],
    ["table2", "--tol", "1e-6", "--seed", "2", "--trials", "3", "--expect", "x.json"],
    ["table2", "--format", "csv"], ["table2", "--seed", "1.5"],
]


@pytest.mark.parametrize("argv", _PARSE_ARGV, ids=" ".join)
def test_main_parses_and_prints_as_the_full_parser(monkeypatch, argv):
    # main builds the flags of the command named first alone, and all of them
    # otherwise; what it parses, prints and exits with is the full parser's
    from partinfo import cli

    commands, built, parsed = ("atoms", "check", "lattice", "table2"), [], []
    for name in commands:
        monkeypatch.setattr(cli, f"_cmd_{name}", parsed.append)
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    cli._parser.cache_clear()       # main builds each command's parser once per process

    def run(argv):
        main(argv)
        return parsed.pop()

    assert _parse(run, argv) == _parse(build_parser().parse_args, argv)
    assert built == [argv[0] if argv and argv[0] in commands else None]


@pytest.mark.parametrize("n", ["1", "3", "4"])
def test_lattice_allow_large_below_n5_is_input_error(capsys, n):
    code, out, err = run_cli(capsys, "lattice", "--n", n, "--allow-large")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--allow-large" in err and f"--n {n}" in err


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
    for prop in ("id", "all"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", "--input", str(path), "--measure", "imin",
                                 "--property", prop)
        assert code == 3 and out == "" and "lattice too large" in err
        assert time.perf_counter() - start < 1.0


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
    [{"s": [0, 1], "t": [0], "p": float("nan")}],
    [{"s": [0, 1], "t": [0], "p": float("inf")}],
])
def test_bad_outcome_entries_exit_2(tmp_path, capsys, outcomes):
    path = _write_outcomes(tmp_path / "bad.json", outcomes)
    code, _, err = run_cli(capsys, "atoms", "--input", path, "--measure", "imin")
    assert code == 2 and err.startswith("error: ")


def _entry(**fields):
    return {"s": [0, 1], "t": [0], "p": "1", **fields}


_OVER_MAX_DIGITS = "1/" + "1" * 4300


@pytest.mark.parametrize("data, message", [
    ({"outcomes": [_entry(s="01")]}, "outcome fields s and t must be arrays: {'s': '01'"),
    ({"outcomes": [_entry(t=0)]}, "outcome fields s and t must be arrays: {'s': [0, 1], 't': 0"),
    ({"outcomes": [_entry(s=[True, 1])]}, "outcome symbols must be ints or strings: {'s': [True, 1]"),
    ({"outcomes": [_entry(t=[1.0])]}, "outcome symbols must be ints or strings"),
    ({"outcomes": [_entry(s=[[0], 1])]}, "outcome symbols must be ints or strings"),
    ({"outcomes": [_entry(z=False)]}, "outcome symbols must be ints or strings"),
    ({"outcomes": [_entry(z=0.5)]}, "outcome symbols must be ints or strings"),
    ({"outcomes": [_entry(z=["a"])]}, "outcome symbols must be ints or strings"),
    ({"outcomes": [_entry(s=[0])]},
     "outcome Outcome(sources=(0,), target=(0,), aux=None) does not have 2 source and 1 target values"),
    ({"outcomes": [_entry(t=[0, 1], z="a")]},
     "outcome Outcome(sources=(0, 1), target=(0, 1), aux='a') does not have 2 source"),
    ({"outcomes": [{"s": [0, 1], "t": [0]}]}, "malformed outcome entry {'s': [0, 1], 't': [0]}"),
    ({"outcomes": [5]}, "malformed outcome entry 5"),
    ({"outcomes": [[0, 1]]}, "malformed outcome entry [0, 1]"),
    ({"outcomes": [_entry(p="1/0")]}, "cannot parse probability '1/0'"),
    ({"outcomes": [_entry(p="-1/4")]}, "probability -1/4 outside [0, 1]"),
    ({"outcomes": [_entry(p="5/4")]}, "probability 5/4 outside [0, 1]"),
    ({"outcomes": [_entry(p="10/8")]}, "probability 5/4 outside [0, 1]"),
    ({"outcomes": [_entry(p=_OVER_MAX_DIGITS)]},
     "probability needs more than 4300 digits: '1/111"),
    ({"outcomes": [_entry(p="1/2"), _entry(p="1/2")]},
     "duplicate outcome Outcome(sources=(0, 1), target=(0,), aux=None)"),
    ({"outcomes": [_entry(p="1/4"), _entry(s=[1, 1], p="1/2")]},
     "probabilities sum to 3/4, expected exactly 1"),
    ({"n_sources": 2.0}, "n_sources and target_arity must be integers: 2.0, 1"),
    ({"n_sources": "2"}, "n_sources and target_arity must be integers: '2', 1"),
    ({"target_arity": True}, "n_sources and target_arity must be integers: 2, True"),
    ({"n_sources": 0}, "need at least one source variable"),
    ({"target_arity": -1}, "target arity cannot be negative"),
    # the first fault in the order the checks run is the one named
    ({"n_sources": 0, "outcomes": [_entry(s=[0]), 5]}, "malformed outcome entry 5"),
    ({"n_sources": 0, "outcomes": [_entry(s=[0])]}, "need at least one source variable"),
    ({"outcomes": [_entry(p="5/4"), _entry(s=[0])]}, "probability 5/4 outside [0, 1]"),
    ({"outcomes": [_entry(s=[0], p="5/4"), _entry(p="1/0")]}, "cannot parse probability '1/0'"),
])
def test_json_input_rejections_name_their_fault(tmp_path, capsys, data, message):
    data = {"n_sources": 2, "target_arity": 1, "outcomes": [_entry()], **data}
    with pytest.raises(DistributionError) as exc:
        JointDistribution.from_json_dict(data)
    assert message in str(exc.value)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with pytest.raises(DistributionError) as exc:
        JointDistribution.load(path)
    assert message in str(exc.value)
    code, out, err = run_cli(capsys, "atoms", "--input", str(path), "--measure", "imin")
    assert code == 2 and out == "" and err.startswith("error: ") and message in err


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


@pytest.mark.parametrize("measure", ["imin", "isx"])
def test_one_source_table_reports_pair_checks_vacuous(tmp_path, capsys, measure):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n_sources": 1, "target_arity": 1, "outcomes": [
        {"s": [0], "t": [0], "p": "1/2"}, {"s": [1], "t": [1], "p": "1/2"}]}))
    code, out, _ = run_cli(capsys, "check", "--input", str(path), "--measure", measure,
                           "--trials", "2", "--format", "json")
    verdicts = {report["property"]: report["verdict"] for report in json.loads(out)}
    assert code == 0
    assert [verdicts[p] for p in ("lm", "l2", "c1")] == ["vacuous"] * 3


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


@pytest.mark.parametrize("argv", [["check", "--gate", "xor_source_copy", "--measure", "imin"],
                                  ["table2"]])
def test_trials_above_the_bound_exit_2_promptly(capsys, argv):
    # every rei trial keeps a table and a decomposition until the call
    # returns, so an unbounded count runs until memory gives out
    from partinfo.cli import MAX_TRIALS

    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"at most {MAX_TRIALS}" in " ".join(capsys.readouterr().out.split())
    for value in ("99999999999999999999", str(MAX_TRIALS + 1)):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trials", value])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --trials" in err and f"from 0 to {MAX_TRIALS}" in err


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


def _drop(key):
    def corrupt(table):
        del table[key]
    return corrupt


def _set(key, value):
    def corrupt(table):
        table[key] = value
    return corrupt


def _set_entry(key, value):
    def corrupt(table):
        table["outcomes"][0][key] = value
    return corrupt


def _toggle_aux_on_a_new_row(table):
    extra = dict(table["outcomes"][0], p="0")
    if extra.pop("z", None) is None:
        extra["z"] = "a"
    table["outcomes"].append(extra)


def _lengthen_sources(table):
    table["outcomes"][0]["s"].append(0)


# each one turns a valid table into one the CLI must refuse with exit code 2
_CORRUPTIONS = (
    _drop("n_sources"), _drop("target_arity"), _drop("outcomes"),
    _set("n_sources", "1"), _set("target_arity", 1.5), _set("outcomes", 7),
    _set_entry("s", "0"), _set_entry("t", 0), _set_entry("p", [1]), _set_entry("p", True),
    _set_entry("p", float("nan")), _set_entry("p", float("inf")), _set_entry("p", "2"),
    _set_entry("z", [0]), _toggle_aux_on_a_new_row, _lengthen_sources,
)


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_generated_input_tables_get_an_exit_code_promptly(tmp_path, capsys):
    """``atoms`` and ``check --property all`` on generated valid edge tables
    (one source, no target, aux, mixed symbols) and on every malformed
    variant of each: each call returns an exit code within a time bound and
    never raises, and a malformed table or one with no target exits 2."""
    symbols = st.one_of(st.integers(0, 2), st.sampled_from(["a", "b"]))
    path = tmp_path / "table.json"

    @st.composite
    def tables(draw):
        n, arity = draw(st.integers(1, 3), label="n"), draw(st.integers(0, 2), label="arity")
        aux = draw(st.booleans(), label="aux")
        cells = draw(st.lists(st.tuples(st.tuples(*[symbols] * n), st.tuples(*[symbols] * arity),
                                        symbols if aux else st.none()),
                              min_size=1, max_size=6, unique=True), label="cells")
        weights = draw(st.lists(st.integers(1, 5), min_size=len(cells), max_size=len(cells)))
        outcomes = []
        for (s, t, z), w in zip(cells, weights):
            entry = {"s": list(s), "t": list(t), "p": f"{w}/{sum(weights)}"}
            if aux:
                entry["z"] = z
            outcomes.append(entry)
        return {"n_sources": n, "target_arity": arity, "outcomes": outcomes}

    @settings(derandomize=True, database=None, max_examples=25, deadline=None,
              phases=(Phase.explicit, Phase.generate), suppress_health_check=list(HealthCheck))
    @given(tables(), st.sampled_from(["imin", "isx"]))
    def check(table, measure):
        for corrupt in (None,) + _CORRUPTIONS:
            variant = copy.deepcopy(table)
            if corrupt is not None:
                corrupt(variant)
            path.write_text(json.dumps(variant))
            for argv in (["atoms"], ["check", "--property", "all", "--trials", "2"]):
                start = time.perf_counter()
                code, _, err = run_cli(capsys, *argv, "--input", str(path), "--measure", measure)
                assert time.perf_counter() - start < 5.0
                assert code in (0, 1, 2, 3)
                assert code == 0 or err.startswith("error: ")
                if corrupt is not None:
                    assert code == 2
                elif table["target_arity"] == 0:
                    assert code == 2 and "target_arity" in err

    check()
