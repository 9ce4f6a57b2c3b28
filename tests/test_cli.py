import argparse
import hashlib
import json
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import curlicue.analysis
import curlicue.cli
import curlicue.oracle
from curlicue import (
    FactorReport,
    InterferometerConfig,
    PeakCandidate,
    SpectralWindow,
    SumSpec,
    divisors_in_window,
    extract_factors,
    min_pixels,
    read_interferogram,
    scan_targets,
    trial_division,
)
from curlicue.cli import build_parser, main

DEMO_FLAGS = [
    "simulate",
    "--x", "523426.8",
    "--lambda-min", "460.36",
    "--lambda-max", "463.24",
    "--pixels", "2048",
    "--paths", "3",
]


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "demo.csv"
    assert main(DEMO_FLAGS + ["--out", str(path)]) == 0
    return path


def _no_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out, parse_constant=_no_constant)


class TestSimulate:
    def test_writes_strong_peaks(self, demo_file):
        rows = [
            line for line in demo_file.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("lambda_nm")
        ]
        intensities = [float(line.split(",")[1]) for line in rows]
        assert max(intensities) >= 0.99

    def test_two_path_toy(self, tmp_path):
        out = tmp_path / "toy.csv"
        code = main(
            ["simulate", "--x", "1600", "--lambda-min", "400", "--lambda-max", "800",
             "--paths", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("# curlicue-interferogram v1")

    def test_missing_x_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "curlicue", "simulate", "--lambda-min", "1", "--lambda-max", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_undersampled_exit_and_override(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        argv = ["simulate", "--x", "523426.8", "--lambda-min", "460.36",
                "--lambda-max", "463.24", "--pixels", "100", "--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: pixel_count=100 undersamples the interferogram; need at least 381 pixels "
            "(or pass allow_undersampled=True, or --allow-undersampled on the command line)\n"
        )
        assert not out.exists()
        assert main(argv + ["--allow-undersampled"]) == 0
        assert out.exists()

    def test_output_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(DEMO_FLAGS + ["--seed", "9", "--mirror-sigma", "10", "--out", str(a)])
        main(DEMO_FLAGS + ["--seed", "9", "--mirror-sigma", "10", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_holds_the_bytes_out_writes(self, tmp_path, capsys):
        toy = ["simulate", "--x", "1600", "--lambda-min", "400", "--lambda-max", "800", "--paths", "2",
               "--mirror-sigma", "10", "--seed", "4"]
        out = tmp_path / "toy.csv"
        assert main(toy + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(toy) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_unallocatable_pixel_count_is_exit_two(self, tmp_path, capsys):
        # 10**15 float64 wavelengths are 7.1 PiB, more than any 64-bit address space holds,
        # so the allocation fails before a single page is touched
        out = tmp_path / "x.csv"
        argv = ["simulate", "--x", "523426.8", "--lambda-min", "460.36", "--lambda-max", "463.24",
                "--pixels", str(10**15), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mirror-sigma", "-5"], "mirror_sigma_nm must be a finite number >= 0, got -5.0"),
            (["--mirror-sigma", "nan"], "mirror_sigma_nm must be a finite number >= 0, got nan"),
            (["--detector-sigma", "-0.1"], "detector_sigma must be a finite number >= 0, got -0.1"),
            (["--detector-sigma", "nan"], "detector_sigma must be a finite number >= 0, got nan"),
            (["--seed", "-1"], "seed must be an integer >= 0 and <= 18446744073709551615, got -1"),
            (["--seed", "18446744073709551616"],
             "seed must be an integer >= 0 and <= 18446744073709551615, got 18446744073709551616"),
        ],
        ids=["mirror-negative", "mirror-nan", "detector-negative", "detector-nan", "seed-negative", "seed-2**64"],
    )
    def test_bad_noise_flag_is_exit_two(self, tmp_path, capsys, flags, message):
        # the noise flags go through NoiseModel even where they would add no noise
        out = tmp_path / "bad.csv"
        assert main(DEMO_FLAGS + flags + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("order, what", [("600", "variance"), ("2000", "mean")])
    def test_huge_order_is_exit_two(self, tmp_path, capsys, order, what):
        # the main lobe's width needs the variance of m**d, which leaves float64 from d = 513
        out = tmp_path / "o.csv"
        argv = ["simulate", "--x", "1000", "--lambda-min", "400", "--lambda-max", "800", "--order", order]
        assert main(argv + ["--out", str(out), "--plot", str(tmp_path / "o.svg")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the {what} of the arm coefficients m**d is outside the float64 range\n"
        assert list(tmp_path.iterdir()) == []

    def test_noiseless_run_records_its_seed(self, demo_file, tmp_path):
        out = tmp_path / "seeded.csv"
        assert main(DEMO_FLAGS + ["--seed", "7", "--out", str(out)]) == 0
        want = demo_file.read_text().replace("\n# seed=0\n", "\n# seed=7\n", 1)
        assert out.read_text() == want

    def test_plot_flag_writes_svg(self, tmp_path):
        svg = tmp_path / "toy.svg"
        code = main(
            ["simulate", "--x", "1600", "--lambda-min", "400", "--lambda-max", "800",
             "--paths", "2", "--out", str(tmp_path / "toy.csv"), "--plot", str(svg)]
        )
        assert code == 0
        assert svg.read_text().startswith('<?xml version="1.0"')


    def test_failed_plot_leaves_no_spectrum(self, tmp_path, capsys):
        # the plot is written before the spectrum, so a plot that cannot be written stops the
        # run before any v1 text reaches the file or stdout
        out = tmp_path / "a.csv"
        argv = DEMO_FLAGS + ["--plot", str(tmp_path / "nodir" / "x.svg")]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "x.svg" in captured.err
        assert not out.exists()
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        # the other way round, a spectrum that cannot be written removes the plot it follows
        svg = tmp_path / "b.svg"
        assert main(DEMO_FLAGS + ["--out", str(tmp_path / "nodir" / "a.csv"), "--plot", str(svg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not svg.exists()


class TestFactor:
    def test_demo_number(self, demo_file, capsys):
        code, payload = run_json(capsys, ["factor", "--interferogram", str(demo_file), "--n", "1308567"])
        assert code == 0
        assert payload["factors"] == [[1131, 1157]]
        assert payload["q_window"] == [1130, 1136]
        assert payload["params"] == {"threshold": 0.7, "epsilon": 0.05}
        assert {"lambda_peak", "intensity", "q", "residual"} == set(payload["candidates"][0])

    def test_second_number_same_file(self, demo_file, capsys):
        code, payload = run_json(capsys, ["factor", "--interferogram", str(demo_file), "--n", "1306349"])
        assert code == 0
        assert payload["factors"] == [[1133, 1153]]

    def test_no_find_is_exit_one(self, demo_file, capsys):
        code, payload = run_json(capsys, ["factor", "--interferogram", str(demo_file), "--n", "1308568"])
        assert code == 1
        assert payload["factors"] == []

    def test_text_format(self, demo_file, capsys):
        assert main(["factor", "--interferogram", str(demo_file), "--n", "1308567",
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "factor: 1131 x 1157" in out

    def test_text_format_without_factors_is_exit_one(self, demo_file, capsys):
        assert main(["factor", "--interferogram", str(demo_file), "--n", "1308568",
                     "--format", "text"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["n = 1308568", "q window: [1130, 1136]", "no factors found"]
        assert len(lines) == 3 + 7 and all(line.startswith("peak: q=") for line in lines[3:])

    @pytest.mark.parametrize(
        "n, code, digest",
        [
            ("1308567", 0, "105a799834f52320cf682ce49c499429e588d6d293649c4a8fe5ef00162f2f48"),
            ("1308568", 1, "226d978a8c8ea1d75688096b0c8ff6a62b79f889b156c1151eb1e63b5c0b4c77"),
        ],
    )
    def test_text_bytes(self, demo_file, capsys, n, code, digest):
        # the text report as written from a FactorReport, before factor ran scan_pairs
        assert main(["factor", "--interferogram", str(demo_file), "--n", n, "--format", "text"]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("n", [1308567, 1306349, 1308568, 1131 * 2**63, 2**63 - 1])
    def test_reports_match_the_library(self, demo_file, capsys, n):
        report = extract_factors(read_interferogram(demo_file), n)
        argv = ["factor", "--interferogram", str(demo_file), "--n", str(n)]
        assert main(argv) == (0 if report.factors else 1)
        assert capsys.readouterr().out == _encode(report) + "\n"
        assert main(argv + ["--format", "text"]) == (0 if report.factors else 1)
        lines = [f"n = {report.n}", f"q window: [{report.q_window[0]}, {report.q_window[1]}]"]
        lines += [f"factor: {q} x {c}" for q, c in report.factors] or ["no factors found"]
        lines += [
            f"peak: q={c.q} lambda={c.lambda_peak_nm:.6f} nm "
            f"intensity={c.intensity_peak:.6f} residual={c.residual:+.6f}"
            for c in report.candidates
        ]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_one_pass_and_no_report_objects(self, demo_file, monkeypatch, capsys, fmt):
        # factor is scan with one target: one scan_pairs call, one detection, no FactorReport
        calls = []
        scan, detect = curlicue.cli.scan_pairs, curlicue.analysis.detect_peaks
        monkeypatch.setattr(curlicue.cli, "scan_pairs", lambda *a, **k: calls.append("scan") or scan(*a, **k))
        monkeypatch.setattr(curlicue.analysis, "detect_peaks", lambda *a, **k: calls.append("detect") or detect(*a, **k))
        monkeypatch.setattr(curlicue.analysis, "FactorReport", lambda *a: calls.append("report") or FactorReport(*a))
        assert main(["factor", "--interferogram", str(demo_file), "--n", "1308567", "--format", fmt]) == 0
        assert "1157" in capsys.readouterr().out
        assert calls == ["scan", "detect"]

    def test_json_is_byte_stable(self, demo_file, capsys):
        main(["factor", "--interferogram", str(demo_file), "--n", "1308567"])
        first = capsys.readouterr().out
        main(["factor", "--interferogram", str(demo_file), "--n", "1308567"])
        assert capsys.readouterr().out == first

    def test_corrupt_file_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not an interferogram\n")
        assert main(["factor", "--interferogram", str(bad), "--n", "1308567"]) == 2

    def test_repeated_header_key_is_exit_two(self, demo_file, tmp_path, capsys):
        # the later x_nm is neither kept nor blamed on the geometry
        edited = tmp_path / "repeated.csv"
        edited.write_text(demo_file.read_text().replace("# x_nm=523426.8\n", "# x_nm=523426.8\n# x_nm=1000\n"))
        assert main(["factor", "--interferogram", str(edited), "--n", "1308567"]) == 2
        assert capsys.readouterr().err == "error: header line 3 repeats key 'x_nm'\n"

    def test_precision_ceiling_is_exit_four(self, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text(
            "# curlicue-interferogram v1\n# x_nm=6e14\n# M=3\n# d=2\n"
            "lambda_nm,intensity\n400.0,0.1\n401.0,0.9\n402.0,0.1\n"
        )
        assert main(["factor", "--interferogram", str(huge), "--n", "1308567"]) == 4


class TestScan:
    def test_both_demo_numbers(self, demo_file, capsys):
        code, reports = run_json(
            capsys, ["scan", "--interferogram", str(demo_file), "--targets", "1308567,1306349"]
        )
        assert code == 0
        assert [r["factors"] for r in reports] == [[[1131, 1157]], [[1133, 1153]]]

    def test_targets_file_of_semiprimes(self, demo_file, tmp_path, capsys):
        targets = [str((1130 + i % 7) * (1140 + i)) for i in range(100)]
        listing = tmp_path / "targets.txt"
        listing.write_text("\n".join(targets) + "\n")
        code, reports = run_json(
            capsys, ["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]
        )
        assert code == 0
        assert len(reports) == 100
        for raw, report in zip(targets, reports):
            n = int(raw)
            assert any(q * c == n for q, c in report["factors"])

    def test_all_misses_exit_one(self, demo_file, capsys):
        # primes have no divisors inside the ratio window
        code, reports = run_json(
            capsys, ["scan", "--interferogram", str(demo_file), "--targets", "1308571,1299709"]
        )
        assert code == 1
        assert all(r["factors"] == [] for r in reports)

    def test_empty_targets_exit_two(self, demo_file, tmp_path):
        empty = tmp_path / "none.txt"
        empty.write_text("\n")
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(empty)]) == 2


    @pytest.mark.parametrize("raw, token", [("1e3", "1e3"), ("1308567, 12x", "12x"), ("1308567,,0.5", "0.5")])
    def test_bad_targets_token_is_named(self, demo_file, capsys, raw, token):
        assert main(["scan", "--interferogram", str(demo_file), "--targets", raw]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --targets must hold integers separated by commas or spaces; got {token!r}\n"
        )

    def test_bad_targets_file_token_names_the_file(self, demo_file, tmp_path, capsys):
        listing = tmp_path / "targets.txt"
        listing.write_text("1308567\n1306349\nword\n")
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --targets-file {listing} must hold integers separated by commas or spaces; "
            "got 'word'\n"
        )


def _scan_json(reports) -> str:
    # what one scan_targets call over every target gives, as json.dumps(..., indent=2)
    payload = [
        {
            "n": r.n,
            "q_window": list(r.q_window),
            "factors": [list(pair) for pair in r.factors],
            "candidates": [
                {"lambda_peak": c.lambda_peak_nm, "intensity": c.intensity_peak, "q": c.q, "residual": c.residual}
                for c in r.candidates
            ],
            "params": {"threshold": r.diagnostics["threshold"], "epsilon": r.diagnostics["epsilon"]},
        }
        for r in reports
    ]
    return json.dumps(payload, indent=2) + "\n"


def _encode(report, pad: str = "") -> str:
    # a report's text as the CLI writes it, from the report's fields
    params = report.diagnostics["threshold"], report.diagnostics["epsilon"]
    return curlicue.cli._report_encoder(report.q_window, report.candidates, *params, pad)(report.n, report.factors)


class _Discard:
    """A stdout that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _seeded_targets(path: Path, count: int) -> Path:
    rng = np.random.default_rng(29)
    path.write_text("\n".join(map(str, rng.integers(4, 10**12, size=count).tolist())) + "\n")
    return path


# two targets with a pair among five without; writes of one report put the pairs in the last write
SCAN_MISSES = [1308568, 1308571, 1299709, 1308569, 1308573]
SCAN_PAIRS = [1308567, 1131 * 1000]


class TestScanChunks:
    # `scan` runs one pass over every target and writes its text in chunks of about
    # _WRITE_CHARS characters, a report never split
    @pytest.mark.parametrize("batch", [1, 2, 256])
    @pytest.mark.parametrize("count", [1, 3, 4, 6, 7])
    def test_chunks_write_one_scan(self, demo_file, monkeypatch, capsys, count, batch):
        targets = (SCAN_MISSES + SCAN_PAIRS)[-count:]
        reports = scan_targets(read_interferogram(demo_file), targets)
        # a write ends once its text reaches the bound, and these reports differ in length by
        # less than the shortest one, so batch times the shortest puts batch reports in a write:
        # one, several, or (at 256) every one
        shortest = min(len(_encode(r, "  ")) for r in reports)
        monkeypatch.setattr(curlicue.cli, "_WRITE_CHARS", batch * shortest)
        written, write = [], sys.stdout.write
        monkeypatch.setattr(sys.stdout, "write", lambda text: written.append(text.count('"n": ')) or write(text))
        argv = ["scan", "--interferogram", str(demo_file), "--targets", ",".join(map(str, targets))]
        assert main(argv) == 0
        assert capsys.readouterr().out == _scan_json(reports)
        assert written == [min(batch, count - k) for k in range(0, count, batch)] + [0]

    @pytest.mark.parametrize(
        "first, last, code",
        [(SCAN_MISSES[0], SCAN_PAIRS[0], 0), (SCAN_PAIRS[0], SCAN_MISSES[0], 0), (SCAN_MISSES[0], SCAN_MISSES[0], 1)],
        ids=["last-chunk-pair", "first-chunk-pair", "none"],
    )
    def test_exit_code_reads_every_chunk(self, demo_file, monkeypatch, capsys, first, last, code):
        monkeypatch.setattr(curlicue.cli, "_WRITE_CHARS", 1)  # one report per write
        targets = [first] + SCAN_MISSES + [last]
        assert not any(r.factors for r in scan_targets(read_interferogram(demo_file), SCAN_MISSES))
        argv = ["scan", "--interferogram", str(demo_file), "--targets", ",".join(map(str, targets))]
        assert main(argv) == code
        assert capsys.readouterr().out == _scan_json(scan_targets(read_interferogram(demo_file), targets))

    def test_bad_target_in_the_last_chunk_writes_nothing(self, demo_file, monkeypatch, capsys):
        # and at every other position, also after the reports with a pair, in writes of one report
        monkeypatch.setattr(curlicue.cli, "_WRITE_CHARS", 1)
        good = SCAN_PAIRS + SCAN_MISSES
        for at in range(len(good) + 1):
            targets = good[:at] + [3] + good[at:]
            argv = ["scan", "--interferogram", str(demo_file), "--targets", ",".join(map(str, targets))]
            assert main(argv) == 2
            assert capsys.readouterr() == ("", "error: target must be an integer >= 4, got 3\n")

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 20])
    def test_targets_file_in_tiny_blocks(self, demo_file, tmp_path, monkeypatch, capsys, block):
        # tokens cross block ends at every place: inside a number, at a comma, in a run of blanks
        listing = tmp_path / "targets.txt"
        listing.write_text("1308567,\n 1306349\t1308568,,  1131000\n\n1299709")
        monkeypatch.setattr(curlicue.cli, "_TARGETS_BLOCK", block)
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 0
        targets = [1308567, 1306349, 1308568, 1131000, 1299709]
        assert capsys.readouterr().out == _scan_json(scan_targets(read_interferogram(demo_file), targets))

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_bad_token_across_blocks_is_named_whole(self, demo_file, tmp_path, monkeypatch, capsys, block):
        listing = tmp_path / "targets.txt"
        listing.write_text("1308567\n13063x9 word\n1306349")
        monkeypatch.setattr(curlicue.cli, "_TARGETS_BLOCK", block)
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: --targets-file {listing} must hold integers separated by commas or spaces; got '13063x9'\n",
        )

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_token_at_the_length_cap_parses(self, demo_file, tmp_path, monkeypatch, capsys, block):
        listing = tmp_path / "targets.txt"
        listing.write_text("1308567 1306349")
        monkeypatch.setattr(curlicue.cli, "_TARGETS_BLOCK", block)
        monkeypatch.setattr(curlicue.cli, "_TOKEN_MAX", 7)
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 0
        targets = [1308567, 1306349]
        assert capsys.readouterr().out == _scan_json(scan_targets(read_interferogram(demo_file), targets))

    def test_overlong_token_is_refused_unread(self, demo_file, tmp_path, monkeypatch, capsys):
        # the carried token is refused once it passes the cap, not copied block after block
        listing = tmp_path / "targets.txt"
        listing.write_text("1308567 " + "9" * 50 + " 1306349")
        monkeypatch.setattr(curlicue.cli, "_TARGETS_BLOCK", 4)
        monkeypatch.setattr(curlicue.cli, "_TOKEN_MAX", 10)
        parsed = []
        parse = curlicue.cli._parse_targets

        def spy(blocks, source):
            return parse((parsed.append(block) or block for block in blocks), source)

        monkeypatch.setattr(curlicue.cli, "_parse_targets", spy)
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: --targets-file {listing} must hold integers separated by commas or spaces; "
            f"got '999999999999...'\n",
        )
        assert parsed == ["1308", "567 ", "9999", "9999", "9999"]

    def test_bad_token_before_an_overlong_one_is_named_first(self, demo_file, tmp_path, monkeypatch, capsys):
        listing = tmp_path / "targets.txt"
        listing.write_text("13x " + "9" * 50)
        monkeypatch.setattr(curlicue.cli, "_TARGETS_BLOCK", 64)
        monkeypatch.setattr(curlicue.cli, "_TOKEN_MAX", 10)
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 2
        assert capsys.readouterr().err.endswith("got '13x'\n")

    def test_targets_file_is_read_in_blocks(self, demo_file, tmp_path, monkeypatch, capsys):
        listing = tmp_path / "targets.txt"
        listing.write_text("1308567 " * 100)
        monkeypatch.setattr(curlicue.cli, "_TARGETS_BLOCK", 64)
        parsed = []
        parse = curlicue.cli._parse_targets

        def spy(blocks, source):
            return parse((parsed.append(block) or block for block in blocks), source)

        monkeypatch.setattr(curlicue.cli, "_parse_targets", spy)
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 0
        assert [len(block) for block in parsed] == [64] * 12 + [32]
        capsys.readouterr()


class TestScanOnePass:
    def test_one_detection_and_no_report_objects(self, demo_file, tmp_path, monkeypatch):
        # more targets than 2**16, and still one detection
        listing = _seeded_targets(tmp_path / "targets.txt", 70_000)
        detect, calls = curlicue.analysis.detect_peaks, []
        monkeypatch.setattr(curlicue.analysis, "detect_peaks", lambda *a, **k: calls.append(1) or detect(*a, **k))
        built = []
        monkeypatch.setattr(curlicue.analysis, "FactorReport", lambda *a: built.append(1) or FactorReport(*a))
        monkeypatch.setattr(sys, "stdout", _Discard())
        assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 0
        assert (len(calls), len(built)) == (1, 0)

    def test_memory_holds_no_report_per_target(self, demo_file, tmp_path, monkeypatch):
        # the targets, their pairs and one write's text, not a report and two dicts per target
        listing = _seeded_targets(tmp_path / "targets.txt", 20_000)
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            assert main(["scan", "--interferogram", str(demo_file), "--targets-file", str(listing)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_targets_past_int64_match_the_library(self, demo_file, capsys):
        # 1131 * 2**63 takes the sieve's object-dtype path
        targets = [1308567, 1131 * 2**63, 2**63 - 1]
        argv = ["scan", "--interferogram", str(demo_file), "--targets", ",".join(map(str, targets))]
        assert main(argv) == 0
        assert capsys.readouterr().out == _scan_json(scan_targets(read_interferogram(demo_file), targets))


class TestPlan:
    def test_single_number(self, capsys):
        code, payload = run_json(
            capsys, ["plan", "--n", "100", "--lambda-min", "400", "--lambda-max", "800"]
        )
        assert code == 0
        assert payload["n_runs"] == 3
        assert payload["runs"][0]["x_nm"] == 20443.497273848126
        assert payload["ratio"] == 2.0
        assert payload["overlap"] == 0.022174863692406305

    def test_pixels_are_each_runs_min_pixels(self, tmp_path, capsys):
        run_dir = tmp_path / "runs"
        code, payload = run_json(capsys, ["plan", "--n", "9409", "--lambda-min", "400", "--lambda-max", "800",
                                          "--paths", "4", "--order", "3", "--emit-configs", str(run_dir)])
        assert code == 0
        spec, window = SumSpec(4, 3), SpectralWindow(400.0, 800.0)
        pixels = [run["pixels"] for run in payload["runs"]]
        assert pixels == [min_pixels(InterferometerConfig(run["x_nm"], spec), window) for run in payload["runs"]]
        assert payload["total_pixels"] == sum(pixels)
        # the configs carry the same counts
        for i, count in enumerate(pixels, 1):
            flags = (run_dir / f"run_{i:03d}.args").read_text(encoding="utf-8").split()
            assert flags[flags.index("--pixels") + 1] == str(count)

    def test_half_the_pixels_of_a_plan_from_trial_factor_one(self, capsys):
        # the end-to-end plan from trial factor 1 took 999,187 px for 9409, 503,526 of them in run 0
        code, payload = run_json(capsys, ["plan", "--n", "9409", "--lambda-min", "400", "--lambda-max", "800"])
        assert code == 0
        assert payload["total_pixels"] == 497_849
        assert payload["runs"][0]["pixels"] == 252_345

    @pytest.mark.parametrize("emit", [False, True], ids=["plan", "emit-configs"])
    def test_pixel_count_outside_float64_exits_two(self, tmp_path, capsys, emit):
        # the plan itself is finite: 10**308 * 2e-10 nm; run 0's min_pixels is about 2.7e309
        run_dir = tmp_path / "runs"
        argv = ["plan", "--n", str(10**308), "--lambda-min", "1e-10", "--lambda-max", "2e-10"]
        assert main(argv + (["--emit-configs", str(run_dir)] if emit else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the pixel count 4*x*(lambda_max - lambda_min)/(halfwidth*lambda_min**2) " \
                               "is outside the float64 range\n"
        assert not run_dir.exists()

    def test_range_gamma(self, capsys):
        code, payload = run_json(
            capsys,
            ["plan", "--n-min", "100", "--n-max", "1000", "--lambda-min", "100", "--lambda-max", "2000"],
        )
        assert code == 0
        assert payload["ratio"] == 2.0
        assert payload["runs"][0]["x_nm"] == 51108.74318462032

    def test_insufficient_bandwidth_exit_five(self, capsys):
        code = main(["plan", "--n-min", "100", "--n-max", "1000",
                     "--lambda-min", "400", "--lambda-max", "800"])
        assert code == 5

    def test_run_budget_exit_two_fast(self, capsys):
        start = time.perf_counter()
        assert main(["plan", "--n", "9409", "--lambda-min", "400", "--lambda-max", "400.000001"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: ")

    def test_single_and_range_together_exit_two(self, capsys):
        argv = ["plan", "--n", "9409", "--n-min", "9000", "--n-max", "9999",
                "--lambda-min", "400", "--lambda-max", "800"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: give either --n or --n-min/--n-max, not both\n"

    @pytest.mark.parametrize(
        "flag, message",
        [("--paths", "path_count must be an integer >= 2, got 1"), ("--order", "order must be an integer >= 2, got 1")],
        ids=["paths", "order"],
    )
    def test_bad_sum_spec_is_exit_two_without_emit_configs(self, capsys, flag, message):
        assert main(["plan", "--n", "9409", "--lambda-min", "400", "--lambda-max", "800", flag, "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_target_exit_two(self):
        assert main(["plan", "--lambda-min", "400", "--lambda-max", "800"]) == 2

    def test_emitted_configs_are_simulate_ready(self, tmp_path, capsys):
        run_dir = tmp_path / "runs"
        code = main(["plan", "--n", "9409", "--lambda-min", "400", "--lambda-max", "800",
                     "--paths", "3", "--emit-configs", str(run_dir)])
        assert code == 0
        capsys.readouterr()
        args_files = sorted(run_dir.glob("run_*.args"))
        # numbered from 1: run_006.args is the last run, which holds 97
        assert [f.name for f in args_files] == [f"run_{i:03d}.args" for i in range(1, 7)]
        out = tmp_path / "run6.csv"
        assert main(["simulate", f"@{args_files[5]}", "--out", str(out)]) == 0
        code, payload = run_json(capsys, ["factor", "--interferogram", str(out), "--n", "9409"])
        assert code == 0
        assert payload["factors"] == [[97, 97]]


    @pytest.mark.parametrize("order, what", [("600", "variance"), ("2000", "mean")])
    def test_huge_order_leaves_no_configs(self, tmp_path, capsys, order, what):
        run_dir = tmp_path / "runs"
        assert main(["plan", "--n", "9409", "--lambda-min", "400", "--lambda-max", "800", "--order", order,
                     "--emit-configs", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the {what} of the arm coefficients m**d is outside the float64 range\n"
        assert not run_dir.exists()

    def test_emit_configs_after_every_run_is_planned(self, tmp_path, capsys):
        # min_pixels refuses this window, so no directory may be left behind
        refused = tmp_path / "refused"
        assert main(["plan", "--n", "9409", "--lambda-min", "1e-200", "--lambda-max", "1",
                     "--emit-configs", str(refused)]) == 2
        assert not refused.exists()
        run_dir = tmp_path / "runs"
        assert main(["plan", "--n", "9409", "--lambda-min", "400", "--lambda-max", "800",
                     "--emit-configs", str(run_dir)]) == 0
        digest = hashlib.sha256()
        for path in sorted(run_dir.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
        # the files as written when the runs first started below trial factor 2, numbered from 1
        assert digest.hexdigest() == "b50cec9e9c6c13a0d0bde3e5c7b8b295f6c9b15dc7eca97f22a56f3668c2dccb"


class TestPlot:
    def test_deterministic_svg(self, demo_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        argv = ["plot", "--interferogram", str(demo_file), "--n", "1308567", "--n", "1306349"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        svg = a.read_text()
        assert ">1157<" in svg and ">1153<" in svg

    def test_plain_plot(self, demo_file, tmp_path):
        out = tmp_path / "plain.svg"
        assert main(["plot", "--interferogram", str(demo_file), "--out", str(out)]) == 0
        assert out.read_text().rstrip().endswith("</svg>")

    def test_corrupt_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        assert main(["plot", "--interferogram", str(bad), "--out", str(tmp_path / "x.svg")]) == 2

    def test_too_many_targets_exit_two(self, demo_file, tmp_path):
        assert main(["plot", "--interferogram", str(demo_file), "--n", "4", "--n", "5",
                     "--n", "6", "--out", str(tmp_path / "x.svg")]) == 2


HUGE = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["plot", "--n", "0"],
        ["plot", "--n", "-5"],
        ["plot", "--n", HUGE],
        ["plan", "--n", HUGE],
        ["plan", "--n-min", "4", "--n-max", HUGE],
        # quotients of lengths outside float64: min_pixels (simulate, --emit-configs), beta, gamma
        ["simulate", "--x", "1", "--lambda-min", "1e-200", "--lambda-max", "1", "--pixels", "4"],
        ["simulate", "--x", "1e300", "--lambda-min", "1e-10", "--lambda-max", "1", "--pixels", "4"],
        ["plan", "--n", "9409", "--lambda-min", "1e-200", "--lambda-max", "1", "--emit-configs", "{tmp}"],
        ["plan", "--n", "9409", "--lambda-min", "1e-300", "--lambda-max", "1e300"],
        ["plan", "--n-min", "4", "--n-max", "5", "--lambda-min", "1e-300", "--lambda-max", "1e300"],
        ["plan", "--n-min", "10000", "--n-max", "10001", "--lambda-min", "1e-300", "--lambda-max", "1e5"],
    ],
    ids=[
        "plot-zero", "plot-negative", "plot-huge", "plan-huge", "plan-range-huge",
        "simulate-zero-divisor", "simulate-overflow", "plan-emit-zero-divisor", "plan-beta-inf",
        "plan-range-beta-inf", "plan-range-gamma-inf",
    ],
)
def test_bad_target_is_exit_two(demo_file, tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path / "runs") for arg in argv]
    if argv[0] == "plot":
        argv = argv + ["--interferogram", str(demo_file), "--out", str(tmp_path / "x.svg")]
    elif "--lambda-min" not in argv:
        argv = argv + ["--lambda-min", "400", "--lambda-max", "800"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert out == ""  # in particular no plan with Infinity or NaN
    assert not (tmp_path / "x.svg").exists()


def _hand_edited(path, x_nm, rows):
    header = f"# curlicue-interferogram v1\n# x_nm={x_nm}\n# M=3\n# d=2\nlambda_nm,intensity\n"
    path.write_text(header + "".join(f"{lam},0.1\n" for lam in rows))
    return path


# x/lambda_min overflows on the first file; the second starts at a negative wavelength; the
# third spans x/lambda = 2.16..2.5, which holds no integer ratio, so "no factors" would be wrong
EDITED_FILES = {
    "tiny-lambda": ("1e10", ["5e-324", "1.0", "2.0"]),
    "negative-lambda": ("10", ["-1e308", "1.0"]),
    "empty-window": ("1000", ["400.0", "431.5", "463.0"]),
}


@pytest.mark.parametrize(
    "name, command",
    [("tiny-lambda", "factor"), ("tiny-lambda", "scan"), ("negative-lambda", "factor"),
     ("negative-lambda", "scan"), ("negative-lambda", "plot"), ("empty-window", "factor"),
     ("empty-window", "scan")],
)
def test_hand_edited_wavelengths_are_exit_two(tmp_path, capsys, name, command):
    edited = _hand_edited(tmp_path / "edited.csv", *EDITED_FILES[name])
    argv = [command, "--interferogram", str(edited)]
    argv += ["--targets", "10000000000"] if command == "scan" else ["--n", "10000000000"]
    if command == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""
    if name == "empty-window":
        assert err == "error: no integer ratio reachable for x=1000 nm over [400, 463] nm\n"
    assert not (tmp_path / "x.svg").exists()


def test_tiny_wavelength_file_still_plots(tmp_path):
    # n*lambda/x stays in range here, so only the q window is out of float64 range
    edited = _hand_edited(tmp_path / "edited.csv", *EDITED_FILES["tiny-lambda"])
    assert main(["plot", "--interferogram", str(edited), "--n", "10000000000", "--out", str(tmp_path / "x.svg")]) == 0
    assert (tmp_path / "x.svg").read_text().endswith("</svg>\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--n", "1308567", "--epsilon", "nan"],
        ["factor", "--n", "1308567", "--epsilon", "-1"],
        ["factor", "--n", "1308567", "--threshold", "nan"],
        ["factor", "--n", "1308567", "--threshold", "inf"],
        ["scan", "--targets", "1308567", "--epsilon", "nan"],
    ],
    ids=["epsilon-nan", "epsilon-negative", "threshold-nan", "threshold-inf", "scan-epsilon-nan"],
)
def test_bad_gate_is_exit_two(demo_file, capsys, argv):
    # the demo spectrum holds 1131 x 1157, so "no factors found" would be silently wrong here
    assert main(argv + ["--interferogram", str(demo_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["factor", "plot"])
@pytest.mark.parametrize("x_nm", ["0.0", "-5", "inf", "nan"])
def test_bad_displacement_in_file_is_exit_two(demo_file, tmp_path, capsys, command, x_nm):
    edited = tmp_path / "edited.csv"
    edited.write_text(demo_file.read_text().replace("# x_nm=523426.8\n", f"# x_nm={x_nm}\n"))
    argv = [command, "--interferogram", str(edited), "--n", "1308567"]
    if command == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 2
    assert "displacement_unit_nm" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["factor", "--n", "1308567"], 0),
        (["factor", "--n", "1308568", "--format", "json"], 1),
        (["scan", "--targets", "1308567,1306349,1308568,1131000,1299709"], 0),
        (["scan", "--targets", "1308568,1299709"], 1),
        (["factor", "--n", "1308567", "--flat"], 1),
        (["scan", "--targets", "1308567,1306349", "--flat"], 1),
    ],
    ids=["factor", "factor-none", "scan", "scan-none", "factor-no-candidates", "scan-no-candidates"],
)
def test_report_json_is_indent_two(demo_file, tmp_path, capsys, argv, code):
    # reports are written piecewise; the bytes must still be json.dumps(..., indent=2)
    path = demo_file
    if argv[-1] == "--flat":
        argv = argv[:-1]
        path = _hand_edited(tmp_path / "flat.csv", "523426.8", [460.36 + 0.01 * j for j in range(64)])
    assert main(argv + ["--interferogram", str(path)]) == code
    out = capsys.readouterr().out
    payload = json.loads(out, parse_constant=_no_constant)
    assert out == json.dumps(payload, indent=2) + "\n"
    reports = payload if argv[0] == "scan" else [payload]
    assert all(r["candidates"] for r in reports) == (path == demo_file)


_CANDIDATE_LISTS = {
    "none": [],
    "one": [PeakCandidate(461.1234567890123, 0.987654321, 1131, -0.0123)],
    "many": [PeakCandidate(400.0 + k / 7, k / 3, 1000 + k, (k - 20) / 41) for k in range(40)],
    "edges": [
        PeakCandidate(1e-05, 0.0, 2**63, -0.0),
        PeakCandidate(123456789.0, 1e22, 2**64 + 1, 1e-05),
        PeakCandidate(float("nan"), float("inf"), 3, float("-inf")),
        PeakCandidate(5e-324, 1.7976931348623157e308, 10**30, 0.5),
    ],
}


# the rest of a report, around the candidate lists above: kind -> the FactorReport fields that
# differ from the demo's, one factor pair of 1308567, threshold 0.7 and epsilon 0.05
_REPORT_FIELDS = {
    "no-factors": {"n": 1308568, "factors": ()},
    "many-factors": {"n": 720720, "window": (2, 9), "factors": tuple((q, 720720 // q) for q in range(2, 10))},
    "no-candidates": {"candidates": "none"},
    "n-2**63": {"n": 2**63, "window": (2**31, 2**32), "factors": ((2**31, 2**32),)},
    "n-above-2**64": {"n": 3 * 2**70, "window": (2**63, 2**64), "factors": ((3 * 2**62, 2**8),)},
    "threshold-1e-05": {"threshold": 1e-05},
    "threshold--0.0-epsilon-0.0": {"threshold": -0.0, "epsilon": 0.0},
    "numpy-threshold": {"threshold": np.float64(0.7), "epsilon": np.float64(1e-05)},
    "int-params": {"threshold": 1, "epsilon": 0},
}


@pytest.mark.parametrize("pad", ["", "  "])
@pytest.mark.parametrize("kind", list(_CANDIDATE_LISTS) + list(_REPORT_FIELDS))
def test_candidates_json_is_json_dumps(kind, pad):
    fields = {
        "n": 1308567, "window": (1130, 1136), "factors": ((1131, 1157),), "threshold": 0.7, "epsilon": 0.05,
        "candidates": kind if kind in _CANDIDATE_LISTS else "one", **_REPORT_FIELDS.get(kind, {}),
    }
    candidates = tuple(_CANDIDATE_LISTS[fields["candidates"]])
    payload = [
        {"lambda_peak": c.lambda_peak_nm, "intensity": c.intensity_peak, "q": c.q, "residual": c.residual}
        for c in candidates
    ]
    want = json.dumps(payload, indent=2).replace("\n", "\n  " + pad)
    assert curlicue.cli._candidates_json(candidates, pad) == want
    # and the whole report around that list, as _cmd_factor (pad "") and _cmd_scan ("  ") write it
    params = {"threshold": fields["threshold"], "epsilon": fields["epsilon"]}
    whole = {
        "n": fields["n"],
        "q_window": list(fields["window"]),
        "factors": [list(pair) for pair in fields["factors"]],
        "candidates": payload,
        "params": params,
    }
    want = json.dumps(whole, indent=2).replace("\n", "\n" + pad)
    encode = curlicue.cli._report_encoder(fields["window"], candidates, *params.values(), pad)
    assert encode(fields["n"], fields["factors"]) == want
    # an encoder formats only n and factors per target: the same one writes another target too
    want = json.dumps({**whole, "n": 2**65 + 3, "factors": [[7, 11]]}, indent=2).replace("\n", "\n" + pad)
    assert encode(2**65 + 3, ((7, 11),)) == want


# every subcommand's flags as the parser defined them before the shared flags moved into
# parent parsers: option -> (type, default, required)
PARSER_FLAGS = {
    "simulate": {
        "--x": ("float", None, True),
        "--lambda-min": ("float", None, True),
        "--lambda-max": ("float", None, True),
        "--pixels": ("int", 2048, False),
        "--paths": ("int", 3, False),
        "--order": ("int", 2, False),
        "--mirror-sigma": ("float", 0.0, False),
        "--detector-sigma": ("float", 0.0, False),
        "--seed": ("int", 0, False),
        "--out": (None, None, False),
        "--plot": (None, None, False),
        "--allow-undersampled": (None, False, False),
    },
    "factor": {
        "--interferogram": (None, None, True),
        "--n": ("int", None, True),
        "--threshold": ("float", 0.7, False),
        "--epsilon": ("float", 0.05, False),
        "--format": (None, "json", False),
    },
    "scan": {
        "--interferogram": (None, None, True),
        "--targets": (None, None, False),
        "--targets-file": (None, None, False),
        "--threshold": ("float", 0.7, False),
        "--epsilon": ("float", 0.05, False),
    },
    "plan": {
        "--n": ("int", None, False),
        "--n-min": ("int", None, False),
        "--n-max": ("int", None, False),
        "--lambda-min": ("float", None, True),
        "--lambda-max": ("float", None, True),
        "--paths": ("int", 3, False),
        "--order": ("int", 2, False),
        "--emit-configs": (None, None, False),
    },
    "plot": {
        "--interferogram": (None, None, True),
        "--n": ("int", None, False),
        "--out": (None, None, True),
    },
    "oracle": {
        "--n": ("int", None, True),
        "--window": (None, None, False),
    },
}


def test_every_subcommand_keeps_its_flags():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = {
        name: {
            opt: (getattr(action.type, "__name__", None), action.default, action.required)
            for action in sub._actions
            if action.dest != "help"
            for opt in action.option_strings
        }
        for name, sub in subparsers.choices.items()
    }
    assert table == PARSER_FLAGS
    # --targets and --targets-file stay one required, mutually exclusive group of scan's own
    [group] = subparsers.choices["scan"]._mutually_exclusive_groups
    assert group.required and [a.dest for a in group._group_actions] == ["targets", "targets_file"]


def test_main_keeps_one_parser_and_no_state_between_parses():
    parser = curlicue.cli._parser()
    assert curlicue.cli._parser() is parser
    plot = ["plot", "--interferogram", "a.csv", "--out", "a.svg"]
    assert parser.parse_args(plot + ["--n", "5", "--n", "6"]).n == [5, 6]
    assert parser.parse_args(plot).n is None
    assert parser.parse_args(plot + ["--n", "7"]).n == [7]
    assert parser.parse_args(["oracle", "--n", "9"]).func is curlicue.cli._cmd_oracle


# each subcommand's usage line at 80 columns; argparse lists a parent parser's flags first
USAGE = {
    "simulate": """usage: curlicue simulate [-h] --lambda-min LAMBDA_MIN --lambda-max LAMBDA_MAX
                         [--paths PATHS] [--order ORDER] --x X
                         [--pixels PIXELS] [--mirror-sigma MIRROR_SIGMA]
                         [--detector-sigma DETECTOR_SIGMA] [--seed SEED]
                         [--out OUT] [--plot PLOT] [--allow-undersampled]
""",
    "factor": """usage: curlicue factor [-h] --interferogram INTERFEROGRAM
                       [--threshold THRESHOLD] [--epsilon EPSILON] --n N
                       [--format {json,text}]
""",
    "scan": """usage: curlicue scan [-h] --interferogram INTERFEROGRAM
                     [--threshold THRESHOLD] [--epsilon EPSILON]
                     (--targets TARGETS | --targets-file TARGETS_FILE)
""",
    "plan": """usage: curlicue plan [-h] --lambda-min LAMBDA_MIN --lambda-max LAMBDA_MAX
                     [--paths PATHS] [--order ORDER] [--n N] [--n-min N_MIN]
                     [--n-max N_MAX] [--emit-configs EMIT_CONFIGS]
""",
    "plot": "usage: curlicue plot [-h] --interferogram INTERFEROGRAM [--n N] --out OUT\n",
    "oracle": "usage: curlicue oracle [-h] --n N [--window WINDOW]\n",
}


@pytest.mark.parametrize("command", sorted(USAGE))
def test_usage_line(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(USAGE[command] + "\n")


def test_missing_required_flags_are_named_in_definition_order(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --lambda-min, --lambda-max, --x\n"
    )


class TestOracleCommand:
    def test_demo_number(self, capsys):
        code, payload = run_json(capsys, ["oracle", "--n", "1308567"])
        assert code == 0
        assert 1131 in payload["divisors"] and 1157 in payload["divisors"]
        assert payload["is_prime"] is False

    def test_prime(self, capsys):
        code, payload = run_json(capsys, ["oracle", "--n", "7"])
        assert code == 0
        assert payload["is_prime"] is True
        assert payload["prime_powers"] == [[7, 1]]

    def test_window_divisors(self, capsys):
        code, payload = run_json(capsys, ["oracle", "--n", "1306349", "--window", "1130,1136"])
        assert code == 0
        assert payload["window_divisors"] == [1133]

    def test_bad_n_exit_two(self):
        assert main(["oracle", "--n", "1"]) == 2

    def test_wide_window_factors_once(self, capsys, monkeypatch):
        # a window of 2048 or more is read off a factorization: the command's own, not a second one
        n = 1000000000039
        fact = trial_division(n)
        want = json.dumps(
            {
                "n": n,
                "prime_powers": [[p, e] for p, e in fact.prime_powers],
                "is_prime": fact.is_prime,
                "divisors": fact.divisors(),
                "window": [1, 5000],
                "window_divisors": divisors_in_window(n, 1, 5000),
            },
            indent=2,
        )
        calls = []

        def counted(m):
            calls.append(m)
            return trial_division(m)

        monkeypatch.setattr(curlicue.cli, "trial_division", counted)
        monkeypatch.setattr(curlicue.oracle, "trial_division", counted)
        assert main(["oracle", "--n", str(n), "--window", "1,5000"]) == 0
        assert calls == [n]
        assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("window", ["1130", "1130,x", "1,2,3"])
    def test_bad_window_names_the_form(self, capsys, window):
        assert main(["oracle", "--n", "1308567", "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --window must be LO,HI, two integers such as 1130,1136; got {window!r}\n"

    @pytest.mark.parametrize(
        "window, message",
        [
            ("1130", "--window must be LO,HI, two integers such as 1130,1136; got '1130'"),
            ("0,5", "lo must be an integer >= 1, got 0"),
            ("9,3", "hi must be an integer >= 9, got 3"),
        ],
        ids=["1130", "0,5", "9,3"],
    )
    def test_bad_window_is_refused_before_factoring(self, capsys, window, message):
        # 999999937 * 1000000007: factoring it in full takes about half a minute
        start = time.perf_counter()
        assert main(["oracle", "--n", "999999943999999559", "--window", window]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def readme_quick_start() -> list[str]:
    """The commands of the README's quick start, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.strip() and not line.lstrip().startswith("#")]


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_quick_start()
    assert [shlex.split(c)[1] for c in commands] == [
        "simulate", "factor", "factor", "scan", "plot", "plan", "simulate", "factor", "oracle"
    ]
    expected = []
    for command in commands:
        argv = shlex.split(command, comments=True)
        assert argv[0] == "curlicue"
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out
        claim = re.search(r"# -> (\d+) x (\d+)$", command)
        if claim:
            expected.append([int(claim[1]), int(claim[2])])
            assert json.loads(out)["factors"] == [expected[-1]], command
    assert expected == [[1131, 1157], [1133, 1153], [97, 97]]
    assert (tmp_path / "demo.svg").is_file() and (tmp_path / "run6.csv").is_file()


def readme_v1_example() -> list[str]:
    """The lines of the README's v1 example, up to the '...' that ends it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Interferogram file format (v1)", 1)[1]
    lines = section.split("```\n", 1)[1].split("```", 1)[0].splitlines()
    return lines[: lines.index("...")]


def test_readme_v1_example_is_what_the_quick_start_writes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    simulate_demo = readme_quick_start()[0]
    assert main(shlex.split(simulate_demo)[1:]) == 0
    example = readme_v1_example()
    assert example[-3] == "lambda_nm,intensity"  # the whole header and two rows
    assert (tmp_path / "demo.csv").read_text(encoding="utf-8").splitlines()[: len(example)] == example


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "curlicue", *DEMO_FLAGS[1:], "--out", str(out)],
            capture_output=True,
            text=True,
        )
        # DEMO_FLAGS[0] is the subcommand itself
        assert proc.returncode == 2  # missing subcommand
        proc = subprocess.run(
            [sys.executable, "-m", "curlicue", *DEMO_FLAGS, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
