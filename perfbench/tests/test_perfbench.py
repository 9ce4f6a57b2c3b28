"""Tests of the benchmark itself: metric names, span nesting, checks, smoke runs.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import curlicue  # noqa: E402
import curlicue.cli  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BUSY = (
    "interferometer.busy_s",
    "analysis.detect_busy_s",
    "analysis.report_busy_s",
    "expsum.busy_s",
    "io.write_busy_s",
    "io.read_busy_s",
    "plotting.busy_s",
    "cli.self_s",
    "oracle.busy_s",
    "planner.busy_s",
)


def smoke(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_reports_the_declared_metrics(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert detail["spans_well_formed"]
        assert sum(values[k] for k in BUSY) <= values["trace.wall_s"]
    else:
        assert all(v > 0 for v in values.values()), values
        if workload != "scan":  # every other workload's inputs are noiseless
            assert values["recall"] == 1.0


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_spans_nest_and_busy_time_fits_in_the_timed_body():
    workdir = bench_run.OUT / f"test-spans-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        session = wl.CliSession(5, True, workdir)
        session.warm_up()
        tracer = tracing.Tracer()
        clock = wl.Clock(tracer)
        with tracer:
            session.run_pass(clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = tracer.spans
    assert not clock.failed, clock.errors
    assert tracing.span_problems(spans) == []
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns
    assert min(tracing.self_times(spans)) >= 0
    assert sum(tracing.self_times(spans)) * 1e-9 <= clock.timed_s
    # cli imports simulate by name: the wrapper on curlicue.cli.simulate sees it under main
    sim = [s for s in spans if s.name == "simulate"]
    assert sim and all(spans[s.parent].name == "main" for s in sim)
    # analysis looks detect_peaks and decompose up in its own globals
    names = {s.name for s in spans}
    assert {"detect_peaks", "decompose", "read_interferogram", "interferogram_svg"} <= names


def test_tracer_restores_every_binding():
    before = {(m, n): getattr(__import__(m, fromlist=["_"]), n) for _, m, names in tracing.BINDINGS for n in names}
    with tracing.Tracer():
        assert curlicue.cli.simulate is not before[("curlicue.cli", "simulate")]
    after = {(m, n): getattr(__import__(m, fromlist=["_"]), n) for _, m, names in tracing.BINDINGS for n in names}
    assert after == before


def test_check_catches_a_false_factor_and_a_miss():
    report = curlicue.FactorReport(n=35, q_window=(2, 10), candidates=(), factors=((2, 17),), diagnostics={})
    clock = wl.Clock()
    clock.op_id = 1
    wl.check_report(clock, report, 35, (2, 10), wl.pairs_in_window(35, 2, 10), exact=True)
    assert clock.failed == {1}
    missed = curlicue.FactorReport(n=35, q_window=(2, 10), candidates=(), factors=(), diagnostics={})
    clock = wl.Clock()
    clock.op_id = 2
    assert wl.check_report(clock, missed, 35, (2, 10), ((5, 7), (7, 5)), exact=True) == 0
    assert clock.failed == {2}


def test_tail_percentile_is_fixed_by_the_passes_that_hold_fifty_ops():
    # 28 ops a pass: two passes hold 56 ops, so the tail is p82.1 with ten beyond
    two = [float(i) for i in range(56)]
    assert bench_run.tail_passes(28) == 2
    assert bench_run.latency_stats(two, 28) == (27.5, 45.0, 100.0 * 46 / 56, 10)
    # a longer run keeps the percentile and has more ops beyond it
    median, tail, pct, beyond = bench_run.latency_stats([float(i) for i in range(112)], 28)
    assert (median, tail, pct, beyond) == (55.5, 91.0, 100.0 * 46 / 56, 20)
    # a pass of 256 ops is a block by itself
    assert bench_run.latency_stats([float(i) for i in range(256)], 256)[1:] == (245.0, 100.0 * 246 / 256, 10)


def test_refuses_to_run_without_the_package_sources():
    bare = bench_run.OUT / f"bare-{time.monotonic_ns()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "perfbench" / f.name)
        proc = smoke("oracle", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
