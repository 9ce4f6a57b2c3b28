#!/usr/bin/env python3
"""Benchmark of curlicue's plan -> simulate -> detect -> divide path.

    python3 perfbench/run.py --workload schedule --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in this process; `all` runs each workload in a fresh child
process and prints a table of every metric.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`.  End-to-end times are scaled to a fixed
machine speed (see SpeedProbe).  The line before it holds the details:
machine, input properties, raw times, sample counts and the tail
percentile.  The exit code is 0 only when every output checked correct.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("schedule", "scan", "cli_session", "oracle")
THREAD_VARS = (
    "CURLICUE_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 3
SETUP_PROBES = 15
IMPORT_REPEATS = 5
TAIL_BEYOND = 10
TAIL_MIN_OPS = 50
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def read_first(path: Path, default=None):
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return default


def git_commit():
    head = read_first(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = read_first(ROOT / ".git" / ref)
    if commit is None:
        for line in (read_first(ROOT / ".git" / "packed-refs", "")).splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def machine(thread_env: dict) -> dict:
    import numpy

    model = None
    for line in (read_first(Path("/proc/cpuinfo"), "")).splitlines():
        if line.startswith("model name"):
            model = line.partition(":")[2].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read_first(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "thread_env_given": thread_env,
        "thread_env_used": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tail_passes(ops_per_pass: int) -> int:
    """Fewest whole passes that hold TAIL_MIN_OPS ops; a run measures at least this many."""
    return math.ceil(TAIL_MIN_OPS / ops_per_pass)


def latency_stats(latencies: list[float], ops_per_pass: int) -> tuple[float, float, float, int]:
    """Median and tail of a run's pooled op latencies.

    The tail percentile is the highest with TAIL_BEYOND ops beyond it in
    `tail_passes` passes.  It is the same however many passes a run
    completes, and a run of more passes has more ops beyond it.  Nearest
    rank.  Returns (median, tail, percentile, ops beyond the tail).
    """
    block = tail_passes(ops_per_pass) * ops_per_pass
    ordered = sorted(latencies)
    rank = -(-(block - TAIL_BEYOND) * len(ordered) // block) - 1
    percentile = 100.0 * (block - TAIL_BEYOND) / block
    return statistics.median(ordered), ordered[rank], percentile, len(ordered) - rank - 1


class SpeedProbe:
    """Times a fixed kernel that shares no code with curlicue, to track the host's speed.

    The speed of the 2-vCPU KVM guest this benchmark was built on swings by
    up to 2x over seconds to minutes, as it shares its cores: this kernel
    takes 0.42-0.46 ms in its fast spells and about 0.83 ms in its slow
    ones.  No bound a run-to-run comparison could keep survives that, so
    every end-to-end time is scaled to the speed at which the kernel takes
    NOMINAL_S.  The raw times stay in the detail line.
    """

    NOMINAL_S = 0.0005
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._grid = numpy.linspace(0.0, 1.0, 8192)
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        np = self._np
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(2000):
            table[i & 255] = (i, i * 0.5)
            acc += i * i % 7
        np.abs(np.exp(2j * np.pi * self._grid)).sum()
        self._last = end = time.perf_counter()
        self.samples.append(end - start)

    def maybe_sample(self) -> None:
        """Sample when INTERVAL_S has passed since the last sample; called between ops."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def factor(self, lo: int, hi: int) -> float:
        """NOMINAL_S over the median kernel time of samples lo..hi-1."""
        return self.NOMINAL_S / statistics.median(self.samples[max(lo, 0) : hi])

    def factor_near(self, mark: int) -> float:
        """Speed factor of an op, from the five samples around the one taken after it."""
        return self.factor(mark - 3, mark + 2)


def one_pass(workload, clock) -> tuple[float, list[float]]:
    """One whole pass over the inputs: its timed seconds and its op latencies."""
    gc.collect()
    before, first = clock.timed_s, len(clock.latencies)
    workload.run_pass(clock)
    return clock.timed_s - before, clock.latencies[first:]


def measure(workload, seconds: float, clock) -> tuple[list[float], list[list[float]]]:
    """Whole passes until `seconds` have elapsed and the tail has its ops:
    each pass's timed seconds and op latencies."""
    times, latencies = [], []
    start = time.perf_counter()
    while (
        not times
        or len(times) < tail_passes(len(latencies[0]))
        or time.perf_counter() - start < seconds
    ):
        t, lat = one_pass(workload, clock)
        times.append(t)
        latencies.append(lat)
    return times, latencies


def measure_traced(workload, seconds: float, plain, traced, tracer, probe):
    """Untraced and traced passes in turn, until `seconds` have elapsed.

    Returns the speed-scaled times of the untraced and of the traced passes,
    and the traced passes' raw times and op latencies.
    """
    scaled = ([], [])
    times, latencies = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        for clock, out in zip((plain, traced), scaled):
            first = len(probe.samples)
            with tracer if clock is traced else contextlib.nullcontext():
                t, lat = one_pass(workload, clock)
            probe.sample()
            out.append(t * probe.factor(first, len(probe.samples)))
        times.append(t)
        latencies.append(lat)
    return scaled[0], scaled[1], times, latencies


def retained_bytes_per_pixel(call) -> float:
    """Memory the Interferogram of the largest traced simulate call keeps, per pixel."""
    if call is None:
        return 0.0
    import curlicue

    args, kwargs = call
    window = args[1] if len(args) > 1 else kwargs["window"]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ig = curlicue.simulate(*args, **kwargs)
        retained = tracemalloc.get_traced_memory()[0] - before
        del ig
    finally:
        tracemalloc.stop()
    return retained / window.pixel_count


def fresh_imports() -> tuple[float, float]:
    """Median time to import curlicue (and numpy with it) in a fresh interpreter,
    raw and scaled by a speed probe the child runs right after its import.

    One import per run is too noisy to compare, and a child may run on the
    other CPU at another speed than this process; IMPORT_REPEATS children,
    run one after another and awaited, each scaled by its own probe, give a
    steady median.
    """
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); import curlicue; "
        "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); import run; p = run.SpeedProbe(); "
        "[p.sample() for _ in range(run.SETUP_PROBES)]; print(t, p.factor(0, run.SETUP_PROBES))"
    )
    raw, scaled = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        t, factor = map(float, proc.stdout.split())
        raw.append(t)
        scaled.append(t * factor)
    return statistics.median(raw), statistics.median(scaled)


def as_metrics(values: dict, section: str) -> dict:
    declared = spec()[section]
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError(f"{section} metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_one(args) -> int:
    thread_env = {v: os.environ.get(v) for v in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"  # simulate at its default of one thread; no BLAS pool
    sys.path.insert(0, str(SRC))
    import curlicue
    import tracing
    import workloads as wl

    if Path(curlicue.__file__).resolve().parent != SRC / "curlicue":
        raise RuntimeError(f"imported curlicue from {curlicue.__file__}, not from {SRC}")
    import_s = time.perf_counter() - _STARTED

    cls = wl.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    try:
        repeats, scaled_repeats = [], []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            # each build is scaled by probe samples taken right before and after it
            first = len(probe.samples)
            for _ in range(SETUP_PROBES // 2):
                probe.sample()
            # drop the last build first, so no two input sets are ever held at once
            workload = None
            gc.collect()
            start = time.perf_counter()
            workload = cls(args.seed, args.smoke, workdir)
            workload.warm_up()
            repeats.append(time.perf_counter() - start)
            for _ in range(SETUP_PROBES // 2):
                probe.sample()
            scaled_repeats.append(repeats[-1] * probe.factor(first, len(probe.samples)))
        # the inputs live for the whole run; keep the collector from walking them
        # on every full collection, which a program holding one input never pays
        gc.collect()
        gc.freeze()

        clocks = [wl.Clock()]
        problems: list[str] = []
        if not args.trace:
            import_raw_s, import_scaled_s = fresh_imports()
            clocks[0].probe = probe
            times, passes = measure(workload, args.seconds, clocks[0])
            for _ in range(2):  # the last ops' factors look two samples ahead
                probe.sample()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            tracer = tracing.Tracer()
            clocks.append(wl.Clock(tracer))
            clocks[0].probe = clocks[1].probe = probe
            untraced, traced, times, passes = measure_traced(workload, args.seconds, *clocks, tracer, probe)
            spans = tracer.spans
            problems = tracing.span_problems(spans)[:20]
            per_layer = tracing.layer_metrics(
                spans,
                tracer.counts,
                len(passes),
                curlicue.min_pixels,
                retained_bytes_per_pixel(tracing.largest_simulate_call(spans)),
            )
            per_layer["trace.overhead_pct"] = 100.0 * (
                statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
            )
            per_layer["trace.wall_s"] = statistics.fmean(times)
            per_layer["trace.spans"] = len(spans) / len(passes)
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            tracing.write_spans(spans, span_file)
        properties = workload.properties()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(c.latencies) for c in clocks)
    failed = sum(len(c.failed) for c in clocks)
    errors = [e for c in clocks for e in c.errors] + problems
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(thread_env),
        "inputs": properties,
        "passes": len(passes),
        "ops_per_pass": len(passes[0]),
        "fail_rate": failed / attempted,
        "errors": errors,
    }
    if args.trace:
        detail["span_file"] = str(span_file.relative_to(ROOT))
        detail["spans_well_formed"] = not problems
        metrics = as_metrics(per_layer, "per_layer")
    else:
        per_pass = len(passes[0])
        ops = sum(map(len, passes))
        # each op at the speed measured around it; each pass's time at its ops' mean speed
        marks = iter(clocks[0].marks)
        scaled = [[lat * probe.factor_near(next(marks)) for lat in p] for p in passes]
        factors = [sum(s) / sum(p) for s, p in zip(scaled, passes)]
        median, tail, pct, beyond = latency_stats([lat for p in scaled for lat in p], per_pass)
        values = {
            "setup_s": import_scaled_s + statistics.median(scaled_repeats),
            "wall_s": statistics.fmean(t * f for t, f in zip(times, factors)),
            "op_p50_ms": 1e3 * median,
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": rss_mb,
            "recall": workload.recall.value,
        }
        raw_median, raw_tail, _, _ = latency_stats([lat for p in passes for lat in p], per_pass)
        detail["raw"] = {
            "setup_s": import_raw_s + statistics.median(repeats),
            "wall_s": statistics.fmean(times),
            "op_p50_ms": 1e3 * raw_median,
            "op_tail_ms": 1e3 * raw_tail,
        }
        detail["speed"] = {
            "probe_nominal_s": SpeedProbe.NOMINAL_S,
            "probe_samples": len(probe.samples),
            "setup_repeats_scaled_s": scaled_repeats,
            "pass_factors": factors,
        }
        detail["pass_s"] = times
        detail["import_s"] = {"fresh_interpreters_median": import_raw_s, "this_process": import_s}
        detail["setup_repeats_s"] = repeats
        detail["tail"] = {"percentile": pct, "samples_beyond": beyond, "tail_passes": tail_passes(per_pass)}
        detail["samples"] = {
            "setup_s": len(repeats),
            "wall_s": len(passes),
            "op_p50_ms": ops,
            "op_tail_ms": ops,
            "peak_rss_mb": 1,
            "recall": workload.recall.expected,
        }
        metrics = as_metrics(values, "end_to_end")
    correct = failed == 0 and not problems
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric with unit and samples."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if len(lines) < 2:
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        samples = detail.get("samples", {})
        for metric, m in result["metrics"].items():
            note = samples.get(metric, "")
            if metric == "op_tail_ms":
                note = f"{note} (p{detail['tail']['percentile']:.1f}, {detail['tail']['samples_beyond']} beyond)"
            rows.append((name, metric, f"{m['value']:.6g}", m["unit"], str(note)))
        rows.append((name, "fail_rate", f"{detail['fail_rate']:.6g}", "ratio",
                     f"{result['failed']}/{result['attempted']} ops"))
        rows.append((name, "correct", str(result["correct"]), "", ""))
    header = ("workload", "metric", "value", "unit", "samples")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curlicue" / "__init__.py").is_file():
        print(f"error: no curlicue sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
