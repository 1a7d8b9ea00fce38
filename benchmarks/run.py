#!/usr/bin/env python3
"""partinfo benchmark: closed loop, one client, one workload at a time.

    python3 benchmarks/run.py --workload atoms-n4 --seed 5 --seconds 35 --trace 0
    python3 benchmarks/run.py                  # every workload, one summary

Run from the repository root.  The package is imported from ``src/`` of
the same checkout.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it runs a fixed set of ops untraced once and
traced twice, asserts that the two traced passes give identical counts,
and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "partinfo"
SETUP_REPS = 8          # fresh interpreters before the ops, and again after
BASELINE_SEED = 5
DEFAULT_SECONDS = 35
# Nominal wall time of one calibration pass: the host speed at which the
# speed-adjusted op times equal wall times (about the pass's median on the
# 2-vCPU reference machine described in README.md).
CALIBRATION_S = 0.080
CALIBRATION_ROUNDS = 60000

# Set-up shared by the fresh interpreters that time it and the benchmark
# process itself: import the package and make the workload's lattices
# invert-ready (order table and every Moebius coefficient computed).
SETUP_CODE = """
import partinfo

def make_ready(ns):
    for n in ns:
        lattice = partinfo.redundancy_lattice(n)
        partinfo.atoms_from_values(lattice, dict.fromkeys(lattice.nodes, 0))
"""


def import_package():
    init = SRC / "partinfo" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import partinfo

    if Path(partinfo.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported partinfo from {partinfo.__file__}, not {init}")


def setup_seconds(lattice_ns) -> tuple:
    """Wall times and speed-adjusted times of fresh interpreters doing the
    workload's set-up, with a calibration pass before and after each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = SETUP_CODE + f"make_ready({tuple(lattice_ns)!r})\n"
    times, adjusted = [], []
    calibration = calibration_pass()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        took = perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up exited {proc.returncode}: {proc.stderr.strip()}")
        before, calibration = calibration, calibration_pass()
        times.append(took)
        adjusted.append(speed_adjusted(took, before, calibration))
    return times, adjusted


def make_ready(lattice_ns) -> None:
    namespace = {}
    exec(SETUP_CODE, namespace)
    namespace["make_ready"](lattice_ns)


def calibration_pass() -> float:
    """Wall time of a fixed pure-Python loop that never touches partinfo.

    It churns the object kinds the package spends its time on (frozenset
    keys in a dict, exact ``Fraction`` sums, float logarithms), so its
    time follows the host's speed for the ops; the cyclic garbage collector
    is off during the pass, so its time does not depend on the package's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        counts, total, x = {}, Fraction(0), 0.0
        for a in range(CALIBRATION_ROUNDS):
            key = frozenset((a % 7, a % 11, a % 13))
            counts[key] = counts.get(key, 0) + 1
            x += math.log1p(a) * counts[key]
            if a % 8 == 0:
                total += Fraction(a % 17 - 8, 1 + a % 12)
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def speed_adjusted(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, rescaled to the host speed at which a
    calibration pass takes ``CALIBRATION_S``, given the passes taken just
    before and just after."""
    return seconds * 2 * CALIBRATION_S / (before + after)


def run_op(workload, i, attempt, failures):
    """Time op ``i``; a raised exception counts as a failed op.  ``failures``
    collects (attempt, message), ``attempt`` naming this execution."""
    t0 = perf_counter()
    try:
        result = workload.op(i)
    except (Exception, SystemExit):
        failures.append((attempt, traceback.format_exc(limit=3)))
        result = None
    return perf_counter() - t0, result


def check_op(workload, i, result, attempt, failures) -> None:
    if result is None:
        return
    try:
        workload.check(i, result)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        failures.append((attempt, f"{type(exc).__name__}: {exc}"))


def report(failures, attempted, metrics) -> int:
    failed_ops = len({attempt for attempt, _ in failures})
    for attempt, message in failures[:5]:
        print(f"op {attempt} failed: {message}", file=sys.stderr)
    print(f"error_rate   {failed_ops / attempted:.4g}   ({failed_ops} of {attempted} ops failed)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def timed_run(workload, seconds: float) -> int:
    """Closed loop for ``seconds`` of wall time.  A calibration pass runs
    before the first op and after every step of every op; each step's wall
    time is scaled by ``CALIBRATION_S`` over the mean of the two passes
    around it, which takes out the host's drift in speed (see README.md)."""
    setups, setups_adjusted = setup_seconds(workload.lattice_ns)
    make_ready(workload.lattice_ns)
    calibrations = [calibration_pass() for _ in range(3)][-1:]  # the first passes warm up
    failures, durations, adjusted = [], [], []
    i = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        duration = adjusted_duration = 0.0
        result = []
        try:
            for step in workload.steps(i):
                t0 = perf_counter()
                result.append(step())
                took = perf_counter() - t0
                calibrations.append(calibration_pass())
                duration += took
                adjusted_duration += speed_adjusted(took, *calibrations[-2:])
        except (Exception, SystemExit):
            failures.append((i, traceback.format_exc(limit=3)))
            result = None
        durations.append(duration)
        adjusted.append(adjusted_duration)
        check_op(workload, i, result, i, failures)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # Sampled on both sides of the ops, so one slow spell of a shared host
    # weighs less on the median.
    more, more_adjusted = setup_seconds(workload.lattice_ns)
    setups += more
    setups_adjusted += more_adjusted
    metrics = {
        "setup_s": (statistics.median(setups_adjusted), "s"),
        "op_p50_ref_s": (statistics.median(adjusted), "s"),
        "ops_per_ref_s": (len(adjusted) / sum(adjusted), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} speed-adjusted fresh set-ups",
        "op_p50_ref_s": f"median of {len(adjusted)} speed-adjusted ops",
        "ops_per_ref_s": f"{len(adjusted)} ops in {sum(adjusted):.2f} s of speed-adjusted op time",
        "peak_rss_mb": "benchmark process, after the timed ops",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<13} {value:<10.4g} {unit:<4} ({notes[name]})")
    print(f"wall time, not adjusted: setup p50 {statistics.median(setups):.4g} s, "
          f"op p50 {statistics.median(durations):.4g} s, "
          f"{len(durations) / sum(durations):.4g} ops/s; calibration pass p50 "
          f"{statistics.median(calibrations):.4g} s (nominal {CALIBRATION_S} s) "
          f"over {len(calibrations)} passes")
    return report(failures, len(durations), metrics)


def traced_run(workload, seed: int) -> int:
    from tracing import Tracer, layer_metrics, traced

    make_ready(workload.lattice_ns)
    failures = []
    ops = range(workload.trace_ops)

    def one_pass(number, tracer=None):
        with traced(tracer) if tracer else contextlib.nullcontext():
            timed = [run_op(workload, i, (number, i), failures) for i in ops]
        for i, (_duration, result) in zip(ops, timed):
            check_op(workload, i, result, (number, i), failures)
        return [d for d, _ in timed], [workload.output_bytes(r or []) for _, r in timed]

    untraced, _ = one_pass(0)      # also fills every cache the traced passes will find
    passes = []
    for number in (1, 2):
        tracer = Tracer()
        durations, out_bytes = one_pass(number, tracer)
        passes.append((tracer, durations, out_bytes))

    counts = [dict(t.counts(), output_bytes=b) for t, _, b in passes]
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                        if counts[0].get(k) != counts[1].get(k))
        failures.append(((2, 0), f"traced passes gave different counts: {differ}"))

    tracers = [t for t, _, _ in passes]
    metrics = layer_metrics(tracers, len(ops))
    metrics["cli.output_bytes"] = (sum(passes[0][2]) / len(ops), "B")
    traced_times = [d for _, durations, _ in passes for d in durations]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(untraced), "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:<12.6g} {unit}")
    distinct = {label: count for label, count in counts[0].items() if label.endswith(".distinct")}
    print(f"distinct inputs over {len(ops)} op(s): {distinct}")
    print(f"(per op, over {len(ops)} op(s) x 2 traced passes; "
          f"counts identical across passes: {counts[0] == counts[1]})")

    path = WORKDIR / f"trace-{workload.name}-seed{seed}.json"
    tracers[-1].write(path, {"workload": workload.name, "seed": seed, "ops": len(ops)})
    print(f"spans written to {path.relative_to(ROOT)}")
    return report(failures, 3 * len(ops), metrics)


def run_all(args) -> int:
    """Run every workload in its own process and print one summary."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="atoms-n4, verdicts, lattice-n4 or all (default)")
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.trace:
        return traced_run(workload, args.seed)
    return timed_run(workload, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
