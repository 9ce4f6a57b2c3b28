"""scripts/scale.py, the harness for real-scale measurements, run at small sizes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from curlicue import read_interferogram, scan_targets, write_interferogram
from curlicue.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCALE = ROOT / "scripts" / "scale.py"
SRC = str(ROOT / "src")

LADDER_KEYS = ["src", "pixels", "samples_mb", "text_mb", "write_peak_x", "write_s", "read_peak_x", "read_s",
               "loads_peak_x", "loads_s"]
COMMAND_KEYS = ["src", "command", "exit", "wall_s", "peak_rss_mb"]
SHA256_KEYS = ["src", "command", "pixels", "samples_mb", "simulate_sha256", "read_back_sha256"]


def _scale(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, str(SCALE), *map(str, args)], env=env, capture_output=True, text=True,
                          check=True)


def _records(tmp_path, *args) -> list[dict]:
    out = tmp_path / "records.json"
    done = _scale(*args, "--json", out)
    records = json.loads(out.read_text(encoding="utf-8"))
    assert [json.loads(line) for line in done.stdout.splitlines()] == records
    return records


def test_ladder_records(tmp_path):
    (record,) = _records(tmp_path, "ladder", "--pixels", 20000)
    assert list(record) == LADDER_KEYS
    assert record["src"] == SRC and record["pixels"] == 20000 and record["samples_mb"] == 0.32


def test_run_records_and_hashes(tmp_path):
    # plans through `python -m curlicue`, then simulates and factors run 5 of 9409 = 97 * 97
    simulate, factor, hashes = _records(tmp_path, "run", "--n", 9409, "--run", 5)
    assert list(simulate) == COMMAND_KEYS + ["file_mb"] and simulate["command"] == "simulate"
    assert list(factor) == COMMAND_KEYS and factor["command"] == "factor"
    assert simulate["exit"] == factor["exit"] == 0
    assert list(hashes) == SHA256_KEYS and hashes["command"] == "sha256"
    assert hashes["simulate_sha256"] == hashes["read_back_sha256"]


def test_scan_children(tmp_path, demo_interferogram, capsys):
    spectrum, listing = tmp_path / "demo.csv", tmp_path / "targets.txt"
    write_interferogram(demo_interferogram, spectrum)
    rng = random.Random(2011)
    targets = [rng.randrange(4, 10**12) for _ in range(100)]
    listing.write_text("".join(f"{n}\n" for n in targets), encoding="ascii")

    cli = _scale("child", "scan_cli", spectrum, listing)
    record = json.loads(cli.stderr.strip().splitlines()[-1])
    code = main(["scan", "--interferogram", str(spectrum), "--targets-file", str(listing)])
    assert cli.stdout == capsys.readouterr().out
    assert list(record) == ["exit", "wall_s", "peak_rss_mb", "split_s"] and record["exit"] == code
    assert list(record["split_s"]) == ["parse", "read", "scan", "encode", "write"]

    library = json.loads(_scale("child", "scan_library", spectrum, listing).stderr.strip().splitlines()[-1])
    assert list(library) == ["wall_s", "peak_rss_mb", "with_pairs", "split_s"]
    assert list(library["split_s"]) == ["detect", "sieve", "reports", "collect"]
    reports = scan_targets(read_interferogram(spectrum), targets)
    assert library["with_pairs"] == sum(1 for r in reports if r.factors)
