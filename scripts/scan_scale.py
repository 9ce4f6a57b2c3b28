"""Time `curlicue scan` on a million seeded targets, end to end and per stage.

    python scripts/scan_scale.py [--src DIR ...] [--rounds R] [--json FILE]

The inputs are the README quick-start spectrum (`simulate --x 523426.8
--lambda-min 460.36 --lambda-max 463.24 --pixels 2048 --paths 3`) and 10**6
targets drawn by `random.Random(2011).randrange(4, 10**12)`, one per line,
both written to a temporary directory.

Each round runs, for every `--src` in turn (default: this checkout's `src`;
give two to compare a parent and a change; odd rounds take them in reverse
order), two fresh Python processes:

- `cli`: `curlicue.cli.main(["scan", "--interferogram", ..., "--targets-file",
  ...])` with stdout sent to a file. It reports main's wall time, the peak RSS
  (`ru_maxrss`), the stdout bytes and sha256, and a split of the wall time:
  `parse` (from main's start to the spectrum read: argparse, reading and
  parsing the targets), `read` (the spectrum file), `scan` (every
  `scan_targets` call), `write` (every `sys.stdout.write`, and the last
  flush) and `encode` (the rest: the report templates and the target check).
- `library`: one `scan_targets(ig, targets)` call on the parsed targets, then
  `gc.collect(0)`. It reports their time and peak RSS, split into `detect`
  (`detect_peaks`), `sieve` (`analysis._divisor_pairs`), `reports` (the rest
  of the call: building the FactorReports) and `collect`. A call that pauses
  the collector leaves its reports in the young generation, and the young
  collection it defers would run at the next allocation; `collect` runs it
  on the clock, so both sides pay for the collections their call sets off.

Nothing here runs in the test suite. Every figure is printed as one JSON line
per process, and all of them are written to `--json` when given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGETS = 10**6
DEMO = ["--x", "523426.8", "--lambda-min", "460.36", "--lambda-max", "463.24", "--pixels", "2048", "--paths", "3"]

# each child prints one JSON line on stderr; the cli child's stdout is the scan's output
_PRELUDE = r"""
import gc, json, resource, sys, time
import curlicue.analysis as analysis
import curlicue.cli as cli
import curlicue.io as igio

spans = {}
first = {}

def timed(key, fn):
    def call(*args, **kwargs):
        start = time.perf_counter()
        first.setdefault(key, start)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[key] = spans.get(key, 0.0) + time.perf_counter() - start
    return call

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
"""

_CLI = _PRELUDE + r"""
class Out:
    def __init__(self, raw):
        self.write = timed("write", raw.write)
        self.flush = timed("write", raw.flush)

spectrum, listing = sys.argv[1:3]
igio.read_interferogram = timed("read", igio.read_interferogram)
cli.scan_targets = timed("scan", cli.scan_targets)
sys.stdout = Out(sys.stdout)
start = time.perf_counter()
code = cli.main(["scan", "--interferogram", spectrum, "--targets-file", listing])
sys.stdout.flush()
wall = time.perf_counter() - start
parse = first["read"] - start
rest = wall - parse - sum(spans.values())
split = {"parse": parse, "read": spans["read"], "scan": spans["scan"], "encode": rest, "write": spans["write"]}
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mb": rss_mb(), "split_s": split}), file=sys.stderr)
"""

_LIBRARY = _PRELUDE + r"""
spectrum, listing = sys.argv[1:3]
ig = igio.read_interferogram(spectrum)
with open(listing, encoding="utf-8") as f:
    targets = [int(line) for line in f]
analysis.detect_peaks = timed("detect", analysis.detect_peaks)
analysis._divisor_pairs = timed("sieve", analysis._divisor_pairs)
start = time.perf_counter()
reports = analysis.scan_targets(ig, targets)
called = time.perf_counter()
gc.collect(0)
wall = time.perf_counter() - start
split = {"detect": spans["detect"], "sieve": spans["sieve"], "reports": called - start - sum(spans.values())}
split["collect"] = wall - (called - start)
found = sum(1 for r in reports if r.factors)
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss_mb(), "with_pairs": found, "split_s": split}), file=sys.stderr)
"""


def _child(src: str, code: str, args: list[str], stdout) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, check=False
    )
    if done.returncode:
        raise SystemExit(f"child failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stderr.strip().splitlines()[-1])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", help="a package source directory (repeatable)")
    parser.add_argument("--rounds", type=int, default=1, help="rounds over every --src, alternating")
    parser.add_argument("--json", help="also write every record here")
    args = parser.parse_args()
    sources = [str(Path(s).resolve()) for s in args.src or [ROOT / "src"]]

    records = []
    with tempfile.TemporaryDirectory(prefix="scan-scale-") as tmp:
        work = Path(tmp)
        spectrum, listing, out = work / "demo.csv", work / "targets.txt", work / "scan.json"
        rng = random.Random(2011)
        listing.write_text("".join(f"{rng.randrange(4, 10**12)}\n" for _ in range(TARGETS)), encoding="ascii")
        subprocess.run(
            [sys.executable, "-m", "curlicue", "simulate", *DEMO, "--out", str(spectrum)],
            env={**os.environ, "PYTHONPATH": sources[0]},
            check=True,
        )
        for round_ in range(args.rounds):
            for src in sources[:: -1 if round_ % 2 else 1]:
                with open(out, "wb") as stdout:
                    cli = _child(src, _CLI, [str(spectrum), str(listing)], stdout)
                cli.update(stdout_bytes=out.stat().st_size, stdout_sha256=_sha256(out))
                out.unlink()
                library = _child(src, _LIBRARY, [str(spectrum), str(listing)], subprocess.DEVNULL)
                for kind, record in (("cli", cli), ("library", library)):
                    record = {"round": round_, "src": src, "path": kind, "targets": TARGETS, **record}
                    print(json.dumps(record), flush=True)
                    records.append(record)
    if args.json:
        Path(args.json).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
