import json
import subprocess
import sys

import pytest

from curlicue.cli import main

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


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


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

    def test_undersampled_exit_and_override(self, tmp_path):
        argv = ["simulate", "--x", "523426.8", "--lambda-min", "460.36",
                "--lambda-max", "463.24", "--pixels", "16", "--out", str(tmp_path / "u.csv")]
        assert main(argv) == 3
        assert main(argv + ["--allow-undersampled"]) == 0

    def test_output_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(DEMO_FLAGS + ["--seed", "9", "--mirror-sigma", "10", "--out", str(a)])
        main(DEMO_FLAGS + ["--seed", "9", "--mirror-sigma", "10", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_plot_flag_writes_svg(self, tmp_path):
        svg = tmp_path / "toy.svg"
        code = main(
            ["simulate", "--x", "1600", "--lambda-min", "400", "--lambda-max", "800",
             "--paths", "2", "--out", str(tmp_path / "toy.csv"), "--plot", str(svg)]
        )
        assert code == 0
        assert svg.read_text().startswith('<?xml version="1.0"')


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

    def test_json_is_byte_stable(self, demo_file, capsys):
        main(["factor", "--interferogram", str(demo_file), "--n", "1308567"])
        first = capsys.readouterr().out
        main(["factor", "--interferogram", str(demo_file), "--n", "1308567"])
        assert capsys.readouterr().out == first

    def test_corrupt_file_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not an interferogram\n")
        assert main(["factor", "--interferogram", str(bad), "--n", "1308567"]) == 2

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


class TestPlan:
    def test_single_number(self, capsys):
        code, payload = run_json(
            capsys, ["plan", "--n", "100", "--lambda-min", "400", "--lambda-max", "800"]
        )
        assert code == 0
        assert payload["n_runs"] == 4
        assert payload["runs"][0]["x_nm"] == 40000.0
        assert payload["ratio"] == 2.0

    def test_range_gamma(self, capsys):
        code, payload = run_json(
            capsys,
            ["plan", "--n-min", "100", "--n-max", "1000", "--lambda-min", "100", "--lambda-max", "2000"],
        )
        assert code == 0
        assert payload["ratio"] == 2.0
        assert payload["runs"][0]["x_nm"] == 100000.0

    def test_insufficient_bandwidth_exit_five(self, capsys):
        code = main(["plan", "--n-min", "100", "--n-max", "1000",
                     "--lambda-min", "400", "--lambda-max", "800"])
        assert code == 5

    def test_missing_target_exit_two(self):
        assert main(["plan", "--lambda-min", "400", "--lambda-max", "800"]) == 2

    def test_emitted_configs_are_simulate_ready(self, tmp_path, capsys):
        run_dir = tmp_path / "runs"
        code = main(["plan", "--n", "9409", "--lambda-min", "400", "--lambda-max", "800",
                     "--paths", "3", "--emit-configs", str(run_dir)])
        assert code == 0
        capsys.readouterr()
        args_files = sorted(run_dir.glob("run_*.args"))
        assert len(args_files) == 7
        out = tmp_path / "run6.csv"
        assert main(["simulate", f"@{args_files[6]}", "--out", str(out)]) == 0
        code, payload = run_json(capsys, ["factor", "--interferogram", str(out), "--n", "9409"])
        assert code == 0
        assert payload["factors"] == [[97, 97]]


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
    ],
    ids=["plot-zero", "plot-negative", "plot-huge", "plan-huge", "plan-range-huge"],
)
def test_bad_target_is_exit_two(demo_file, tmp_path, capsys, argv):
    if argv[0] == "plot":
        argv = argv + ["--interferogram", str(demo_file), "--out", str(tmp_path / "x.svg")]
    else:
        argv = argv + ["--lambda-min", "400", "--lambda-max", "800"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.svg").exists()


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
