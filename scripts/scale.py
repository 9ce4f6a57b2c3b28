"""Measure curlicue at real scale: a million-target scan, v1 round trips and one planned run.

    python scripts/scale.py scan [--src DIR ...] [--rounds R] [--json FILE]
    python scripts/scale.py ladder [--src DIR ...] [--pixels N ...] [--plan-run N:K ...] [--json FILE]
    python scripts/scale.py run --n N [--run K] [--src DIR] [--json FILE]

Every measurement runs in a fresh Python process that imports the package from one
`--src` (default: this checkout's `src`; give two to compare a parent and a change;
`run` uses the first). Every record is printed as one JSON line, and all of them are
written to `--json` when given.

`scan` writes the README quick-start spectrum (`simulate --x 523426.8 --lambda-min
460.36 --lambda-max 463.24 --pixels 2048 --paths 3`) and 10**6 targets drawn by
`random.Random(2011).randrange(4, 10**12)`, one per line, to a temporary directory.
Each of `--rounds` rounds runs two processes for every `--src` (odd rounds take the
sources in reverse order). Each record has `round`, `src`, `path` and `targets`:

- `cli`: `curlicue.cli.main(["scan", "--interferogram", ..., "--targets-file", ...])`
  with stdout sent to a file. It reports main's exit code and wall time, the peak RSS
  (`ru_maxrss`), the stdout bytes and sha256, and a split of the wall time: `parse`
  (from main's start to the spectrum read: argparse, reading and parsing the
  targets), `read` (the spectrum file), `scan` (the one `scan_pairs` call: the target
  check, detection, gating and sieve), `write` (every `sys.stdout.write`, and the last
  flush) and `encode` (the rest: the report template and each target's text).
- `library`: one `scan_targets(ig, targets)` call on the parsed targets, then
  `gc.collect(0)`. It reports their time, the peak RSS and the targets with a pair,
  split into `detect` (`detect_peaks`), `sieve` (`analysis._divisor_pairs`), `reports`
  (the rest of the call: building the FactorReports) and `collect`. A call that pauses
  the collector leaves its reports in the young generation, and the young collection
  it defers would run at the next allocation; `collect` runs it on the clock, so both
  sides pay for the collections their call sets off.

`ladder` builds each spectrum for every `--src` in turn and reports the tracemalloc
peaks of `write_interferogram`, `read_interferogram` and `loads_interferogram` (beyond
the text it is given) as multiples of the samples, with their times under tracemalloc.
A spectrum is either `--pixels N`, the noiseless 3-arm, d = 2 spectrum at x = 2.9e6 nm
over 400-800 nm with N pixels, or `--plan-run N:K`, run K of `plan_single_number(N)`
over 400-800 nm at `min_pixels`. The read-back samples must equal the written ones bit
for bit.

`run` plans `--n` over 400-800 nm with `python -m curlicue plan --emit-configs`, then
runs `curlicue simulate @run_{K+1}.args --out run.csv` (run K of the plan) and `curlicue factor
--interferogram run.csv --n N`, each in a fresh process, and reports each command's
exit code, wall time and peak RSS (`ru_maxrss`). A last process simulates the run
again in the library, hashes its samples, frees them, reads run.csv back and hashes
those. The largest run of a seven-digit plan, run 0, holds about 0.43 GB of samples:
its `factor` needs about twice that.

`tests/test_scripts.py` runs each mode at a small size.
"""

from __future__ import annotations

import json
import os
import sys
import time

# The measurements below run in the child processes, which import the package
# inside each function so that only the --src tree answers, and nothing the parent
# needs adds to their peak RSS.
TARGETS = 10**6
DEMO = ["--x", "523426.8", "--lambda-min", "460.36", "--lambda-max", "463.24", "--pixels", "2048", "--paths", "3"]


def _rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(spans: dict, first: dict, key: str, fn):
    """fn, adding each call's wall time to spans[key] and noting the first start in first[key]."""
    def call(*args, **kwargs):
        start = time.perf_counter()
        first.setdefault(key, start)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[key] = spans.get(key, 0.0) + time.perf_counter() - start

    return call


def scan_cli(spectrum: str, listing: str) -> dict:
    import types
    import curlicue.cli as cli
    import curlicue.io as igio
    spans, first = {}, {}
    igio.read_interferogram = _timed(spans, first, "read", igio.read_interferogram)
    cli.scan_pairs = _timed(spans, first, "scan", cli.scan_pairs)
    raw = sys.stdout
    sys.stdout = types.SimpleNamespace(write=_timed(spans, first, "write", raw.write),
                                       flush=_timed(spans, first, "write", raw.flush))
    start = time.perf_counter()
    code = cli.main(["scan", "--interferogram", spectrum, "--targets-file", listing])
    sys.stdout.flush()
    wall = time.perf_counter() - start
    parse = first["read"] - start
    rest = wall - parse - sum(spans.values())
    split = {"parse": parse, "read": spans["read"], "scan": spans["scan"], "encode": rest, "write": spans["write"]}
    return {"exit": code, "wall_s": wall, "peak_rss_mb": _rss_mb(), "split_s": split}


def scan_library(spectrum: str, listing: str) -> dict:
    import gc
    import curlicue.analysis as analysis
    import curlicue.io as igio
    ig = igio.read_interferogram(spectrum)
    with open(listing, encoding="utf-8") as f:
        targets = [int(line) for line in f]
    spans = {}
    analysis.detect_peaks = _timed(spans, {}, "detect", analysis.detect_peaks)
    analysis._divisor_pairs = _timed(spans, {}, "sieve", analysis._divisor_pairs)
    start = time.perf_counter()
    reports = analysis.scan_targets(ig, targets)
    called = time.perf_counter()
    gc.collect(0)
    wall = time.perf_counter() - start
    split = {"detect": spans["detect"], "sieve": spans["sieve"], "reports": called - start - sum(spans.values())}
    split["collect"] = wall - (called - start)
    found = sum(1 for r in reports if r.factors)
    return {"wall_s": wall, "peak_rss_mb": _rss_mb(), "with_pairs": found, "split_s": split}


def _simulated(kind: str, value: str, **options):
    """The spectrum of `--pixels N` or `--plan-run N:K`, and a record of its size."""
    from curlicue import InterferometerConfig, SpectralWindow, SumSpec, min_pixels, plan_single_number, simulate
    lamp = SpectralWindow(400.0, 800.0)
    n, _, k = value.partition(":")
    x_nm = 2.9e6 if kind == "pixels" else plan_single_number(int(n), lamp).runs[int(k)].x_nm
    config = InterferometerConfig(x_nm, SumSpec(3, 2))
    pixels = int(value) if kind == "pixels" else min_pixels(config, lamp)
    ig = simulate(config, SpectralWindow(400.0, 800.0, pixels), **options)
    return ig, {"pixels": len(ig.samples), "samples_mb": ig.samples.nbytes / 1e6}


def _traced(call):
    """call's result, its tracemalloc peak and its time under tracemalloc."""
    import tracemalloc
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1], time.perf_counter() - start
    finally:
        tracemalloc.stop()


def ladder(kind: str, value: str, path: str) -> dict:
    from curlicue import loads_interferogram, read_interferogram, write_interferogram
    ig, record = _simulated(kind, value, allow_undersampled=True)  # 2.9e6 nm needs 387,987 px
    size = ig.samples.nbytes
    _, peak, took = _traced(lambda: write_interferogram(ig, path))
    record.update(text_mb=os.path.getsize(path) / 1e6, write_peak_x=peak / size, write_s=took)
    back, peak, took = _traced(lambda: read_interferogram(path))
    assert back.samples.tobytes() == ig.samples.tobytes()
    del back
    record.update(read_peak_x=peak / size, read_s=took)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    os.unlink(path)
    back, peak, took = _traced(lambda: loads_interferogram(text))
    assert back.samples.tobytes() == ig.samples.tobytes()
    record.update(loads_peak_x=peak / size, loads_s=took)
    return record


def command(*argv: str) -> dict:
    from curlicue.cli import main
    start = time.perf_counter()
    code = main(list(argv))
    return {"exit": code, "wall_s": time.perf_counter() - start, "peak_rss_mb": _rss_mb()}


def hashes(n: str, k: str, path: str) -> dict:
    import hashlib
    from curlicue import read_interferogram
    ig, record = _simulated("plan", f"{n}:{k}")
    record["simulate_sha256"] = hashlib.sha256(ig.samples.tobytes()).hexdigest()
    del ig
    record["read_back_sha256"] = hashlib.sha256(read_interferogram(path).samples.tobytes()).hexdigest()
    return record


CHILDREN = {fn.__name__: fn for fn in (scan_cli, scan_library, ladder, command, hashes)}


def _python(pythonpath: str, *argv, stdout=None) -> str:
    """The stderr of `python ARGV` in a fresh process under PYTHONPATH; a failure ends the measurement."""
    import subprocess
    env = {**os.environ, "PYTHONPATH": pythonpath}
    argv = [sys.executable, *map(str, argv)]
    done = subprocess.run(argv, stdout=stdout or subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True)
    if done.returncode:
        raise SystemExit(f"python {' '.join(argv[1:])} failed ({done.returncode}):\n{done.stderr}")
    return done.stderr


def _child(src: str, name: str, *args, stdout=None) -> dict:
    """The record of CHILDREN[name](*args), the last line its process writes to stderr."""
    # run as a module: `python scripts/scale.py` keeps the script's syntax tree until the script
    # ends, about 1 MB on every child's peak RSS
    pythonpath = src + os.pathsep + os.path.dirname(os.path.abspath(__file__))
    return json.loads(_python(pythonpath, "-m", "scale", "child", name, *args, stdout=stdout).strip().splitlines()[-1])


def _scan(args, sources: list[str], work: str):
    import hashlib
    import random
    spectrum, listing, out = (os.path.join(work, name) for name in ("demo.csv", "targets.txt", "scan.json"))
    rng = random.Random(2011)
    with open(listing, "w", encoding="ascii") as f:
        f.write("".join(f"{rng.randrange(4, 10**12)}\n" for _ in range(TARGETS)))
    _python(sources[0], "-m", "curlicue", "simulate", *DEMO, "--out", spectrum)
    for round_ in range(args.rounds):
        for src in sources[:: -1 if round_ % 2 else 1]:
            with open(out, "wb") as stdout:
                cli = _child(src, "scan_cli", spectrum, listing, stdout=stdout)
            # read in blocks: a child's ru_maxrss starts from the parent's peak RSS, which it inherits
            digest = hashlib.sha256()
            with open(out, "rb") as f:
                while block := f.read(1 << 20):
                    digest.update(block)
            cli.update(stdout_bytes=os.path.getsize(out), stdout_sha256=digest.hexdigest())
            os.unlink(out)
            library = _child(src, "scan_library", spectrum, listing)
            for kind, record in (("cli", cli), ("library", library)):
                yield {"round": round_, "src": src, "path": kind, "targets": TARGETS, **record}


def _ladder(args, sources: list[str], work: str):
    sizes = [("pixels", str(p)) for p in args.pixels or []] + [("plan", r) for r in args.plan_run or []]
    for kind, value in sizes:
        for src in sources:
            yield {"src": src, kind: value, **_child(src, "ladder", kind, value, os.path.join(work, "ladder.csv"))}


def _run(args, sources: list[str], work: str):
    src, runs, spectrum = sources[0], os.path.join(work, "runs"), os.path.join(work, "run.csv")
    _python(src, "-m", "curlicue", "plan", "--n", args.n, "--lambda-min", "400", "--lambda-max", "800",
            "--emit-configs", runs)
    # plan --emit-configs numbers its files from 1: run K of the plan is run_{K+1}.args
    config = os.path.join(runs, f"run_{args.run + 1:03d}.args")
    record = _child(src, "command", "simulate", f"@{config}", "--out", spectrum)
    yield {"src": src, "command": "simulate", **record, "file_mb": os.path.getsize(spectrum) / 1e6}
    record = _child(src, "command", "factor", "--interferogram", spectrum, "--n", args.n)
    yield {"src": src, "command": "factor", **record}
    yield {"src": src, "command": "sha256", **_child(src, "hashes", args.n, args.run, spectrum)}


def main() -> int:
    import argparse
    import tempfile
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("scan", "ladder", "run"))
    parser.add_argument("--src", action="append", help="a package source directory (repeatable; run uses the first)")
    parser.add_argument("--rounds", type=int, default=1, help="scan: rounds over every --src, alternating")
    parser.add_argument("--pixels", type=int, action="append", help="ladder: a spectrum of this many pixels")
    parser.add_argument("--plan-run", action="append", help="ladder: run K of the plan for N, as N:K")
    parser.add_argument("--n", type=int, help="run: the target to plan")
    parser.add_argument("--run", type=int, default=0, help="run: the planned run to simulate and factor")
    parser.add_argument("--json", help="also write every record here")
    args = parser.parse_args()
    sources = [os.path.abspath(s) for s in args.src or [os.path.join(os.path.dirname(__file__), os.pardir, "src")]]

    measure = {"scan": _scan, "ladder": _ladder, "run": _run}[args.mode]
    records = []
    with tempfile.TemporaryDirectory(prefix="scale-") as work:
        for record in measure(args, sources, work):
            print(json.dumps(record), flush=True)
            records.append(record)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        print(json.dumps(CHILDREN[sys.argv[2]](*sys.argv[3:])), file=sys.stderr)
    else:
        raise SystemExit(main())
