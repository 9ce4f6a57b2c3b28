"""Measure what the v1 writer and reader hold, and run one planned run through the CLI.

    python scripts/io_scale.py ladder [--src DIR ...] [--pixels N ...] [--plan-run N:K ...] [--json FILE]
    python scripts/io_scale.py run --n N --run K [--src DIR] [--json FILE]

`ladder` builds each spectrum in a fresh Python process, for every `--src` in
turn (default: this checkout's `src`; give two to compare a parent and a
change), and reports the tracemalloc peaks of `write_interferogram`,
`read_interferogram` and `loads_interferogram` (beyond the text it is given)
as multiples of the samples, with their times under tracemalloc. A spectrum
is either `--pixels N`, the noiseless 3-arm, d = 2 spectrum at x = 2.9e6 nm
over 400-800 nm with N pixels, or `--plan-run N:K`, run K of
`plan_single_number(N)` over 400-800 nm at `min_pixels`. The read-back samples
must equal the written ones bit for bit.

`run` plans `--n` over 400-800 nm with `curlicue plan --emit-configs`, then
runs `curlicue simulate @run_K.args --out run.csv` and `curlicue factor
--interferogram run.csv --n N`, each in a fresh process, and reports each
command's exit code, wall time and peak RSS (`ru_maxrss`). A last process
simulates the run again in the library, hashes its samples, frees them, reads
run.csv back and hashes those. The largest run of a seven-digit plan holds
about 0.86 GB of samples: its `factor` needs about twice that.

Nothing here runs in the test suite. Every record is printed as one JSON line,
and all of them are written to `--json` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SPECTRUM = r"""
import hashlib, json, os, resource, sys, time, tracemalloc
from curlicue import (InterferometerConfig, SpectralWindow, SumSpec, min_pixels, plan_single_number, simulate,
                      loads_interferogram, read_interferogram, write_interferogram)

def spectrum(kind, value):
    if kind == "pixels":
        return InterferometerConfig(2.9e6, SumSpec(3, 2)), SpectralWindow(400.0, 800.0, int(value))
    n, k = (int(v) for v in value.split(":"))
    run = plan_single_number(n, SpectralWindow(400.0, 800.0)).runs[k]
    config = InterferometerConfig(run.x_nm, SumSpec(3, 2))
    return config, SpectralWindow(400.0, 800.0, min_pixels(config, SpectralWindow(400.0, 800.0)))
"""

_LADDER = _SPECTRUM + r"""
def traced(call):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1], time.perf_counter() - start
    finally:
        tracemalloc.stop()

kind, value, path = sys.argv[1:4]
ig = simulate(*spectrum(kind, value), allow_undersampled=True)  # 2.9e6 nm needs 387,987 px
size = ig.samples.nbytes
record = {"pixels": len(ig.samples), "samples_mb": size / 1e6}
_, peak, took = traced(lambda: write_interferogram(ig, path))
record.update(text_mb=os.path.getsize(path) / 1e6, write_peak_x=peak / size, write_s=took)
back, peak, took = traced(lambda: read_interferogram(path))
assert back.samples.tobytes() == ig.samples.tobytes()
del back
record.update(read_peak_x=peak / size, read_s=took)
with open(path, encoding="utf-8") as f:
    text = f.read()
os.unlink(path)
back, peak, took = traced(lambda: loads_interferogram(text))
assert back.samples.tobytes() == ig.samples.tobytes()
record.update(loads_peak_x=peak / size, loads_s=took)
print(json.dumps(record), file=sys.stderr)
"""

_COMMAND = r"""
import json, resource, sys, time
from curlicue.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - start
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}),
      file=sys.stderr)
"""

_HASHES = _SPECTRUM + r"""
n, k, path = sys.argv[1:4]
ig = simulate(*spectrum("plan", f"{n}:{k}"))
record = {"pixels": len(ig.samples), "samples_mb": ig.samples.nbytes / 1e6}
record["simulate_sha256"] = hashlib.sha256(ig.samples.tobytes()).hexdigest()
del ig
record["read_back_sha256"] = hashlib.sha256(read_interferogram(path).samples.tobytes()).hexdigest()
print(json.dumps(record), file=sys.stderr)
"""


def _child(src: str, code: str, args: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"child failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stderr.strip().splitlines()[-1])


def _ladder(args, sources: list[str], work: Path) -> list[dict]:
    sizes = [("pixels", str(p)) for p in args.pixels or []] + [("plan", r) for r in args.plan_run or []]
    records = []
    for kind, value in sizes:
        for src in sources:
            record = {"src": src, kind: value, **_child(src, _LADDER, [kind, value, str(work / "ladder.csv")])}
            print(json.dumps(record), flush=True)
            records.append(record)
    return records


def _run(args, src: str, work: Path) -> list[dict]:
    runs, spectrum = work / "runs", str(work / "run.csv")
    subprocess.run(
        [sys.executable, "-m", "curlicue", "plan", "--n", str(args.n), "--lambda-min", "400", "--lambda-max", "800",
         "--emit-configs", str(runs)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL, check=True,
    )
    commands = {
        "simulate": ["simulate", f"@{runs / f'run_{args.run:03d}.args'}", "--out", spectrum],
        "factor": ["factor", "--interferogram", spectrum, "--n", str(args.n)],
    }
    records = []
    for name, argv in commands.items():
        record = {"src": src, "command": name, **_child(src, _COMMAND, argv)}
        if name == "simulate":
            record["file_mb"] = os.path.getsize(spectrum) / 1e6
        print(json.dumps(record), flush=True)
        records.append(record)
    record = {"src": src, "command": "sha256", **_child(src, _HASHES, [str(args.n), str(args.run), spectrum])}
    print(json.dumps(record), flush=True)
    return records + [record]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("ladder", "run"))
    parser.add_argument("--src", action="append", help="a package source directory (repeatable for ladder)")
    parser.add_argument("--pixels", type=int, action="append", help="ladder: a spectrum of this many pixels")
    parser.add_argument("--plan-run", action="append", help="ladder: run K of the plan for N, as N:K")
    parser.add_argument("--n", type=int, help="run: the target to plan")
    parser.add_argument("--run", type=int, default=0, help="run: the planned run to simulate and factor")
    parser.add_argument("--json", help="also write every record here")
    args = parser.parse_args()
    sources = [str(Path(s).resolve()) for s in args.src or [ROOT / "src"]]

    with tempfile.TemporaryDirectory(prefix="io-scale-") as tmp:
        if args.mode == "ladder":
            records = _ladder(args, sources, Path(tmp))
        else:
            records = _run(args, sources[0], Path(tmp))
    if args.json:
        Path(args.json).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
