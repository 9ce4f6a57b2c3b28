import hashlib
import random

import numpy as np
import pytest

from curlicue import (
    FileFormatError,
    InterferometerConfig,
    NoiseModel,
    SpectralWindow,
    SumSpec,
    Interferogram,
    dumps_interferogram,
    interferogram_svg,
    loads_interferogram,
    read_interferogram,
    simulate,
    write_interferogram,
)
from curlicue.io import VERSION_LINE


class TestRoundTrip:
    def test_simulated_demo(self, demo_interferogram):
        assert loads_interferogram(dumps_interferogram(demo_interferogram)) == demo_interferogram

    def test_file_round_trip(self, demo_interferogram, tmp_path):
        path = tmp_path / "demo.csv"
        write_interferogram(demo_interferogram, path)
        assert read_interferogram(path) == demo_interferogram

    def test_failed_encode_leaves_no_file(self, demo_interferogram, tmp_path):
        ig = Interferogram(
            demo_interferogram.displacement_unit_nm,
            demo_interferogram.sum_spec,
            demo_interferogram.samples,
            {"note": "\ud800"},  # a lone surrogate has no UTF-8 encoding
        )
        path = tmp_path / "bad.csv"
        with pytest.raises(UnicodeEncodeError):
            write_interferogram(ig, path)
        assert not path.exists()

    def test_randomized_sweep(self):
        rng = random.Random(404)
        for _ in range(100):
            m_count = rng.randint(2, 5)
            order = rng.randint(2, 3)
            x = rng.uniform(10.0, 1e6)
            lam_lo = rng.uniform(100.0, 900.0)
            window = SpectralWindow(lam_lo, lam_lo + rng.uniform(0.5, 300.0), rng.randint(2, 64))
            noise = None
            if rng.random() < 0.5:
                noise = NoiseModel(
                    mirror_sigma_nm=rng.uniform(0, 20),
                    detector_sigma=rng.uniform(0, 0.1),
                    seed=rng.randint(0, 2**63),
                )
            ig = simulate(
                InterferometerConfig(x, SumSpec(m_count, order)),
                window,
                noise,
                allow_undersampled=True,
            )
            assert loads_interferogram(dumps_interferogram(ig)) == ig

    def test_serialization_is_byte_stable(self, demo_interferogram):
        assert dumps_interferogram(demo_interferogram) == dumps_interferogram(demo_interferogram)

    def test_golden_bytes(self):
        # built from fixed rows, not simulate(), so the bytes do not depend on libm
        rows = (
            (400.0, 0.0),
            (400.5, 0.125),
            (401.25, 1.0),
            (402.0, 0.3333333333333333),
            (403.75, 0.7071067811865476),
            (405.0, 1.5e-17),
        )
        ig = Interferogram(1605.0, SumSpec(3, 2), rows, {"seed": "0", "operator": "alice"})
        text = dumps_interferogram(ig)
        svg = interferogram_svg(ig, [4, 5])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fd8e7d3018e358aba094a3071be23aace1fceb944f5eeef3fdfbff5765c0e632"
        )
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "9dd5c8fecbbce8ea0176ff1e4ce51bea5b380ef5df017ecc597c9ce603f0a67a"
        )


class TestFormat:
    def test_header_layout(self, demo_interferogram):
        lines = dumps_interferogram(demo_interferogram).splitlines()
        assert lines[0] == VERSION_LINE
        assert lines[1] == "# x_nm=523426.8"
        assert lines[2] == "# M=3"
        assert lines[3] == "# d=2"
        assert "lambda_nm,intensity" in lines
        data_start = lines.index("lambda_nm,intensity") + 1
        assert all("," in row for row in lines[data_start:])

    def test_unknown_header_keys_preserved(self):
        text = (
            f"{VERSION_LINE}\n"
            "# x_nm=1000.0\n"
            "# M=2\n"
            "# d=2\n"
            "# operator=alice\n"
            "# lab_station=7\n"
            "lambda_nm,intensity\n"
            "400.0,0.25\n"
            "401.0,0.5\n"
        )
        ig = loads_interferogram(text)
        assert ig.provenance["operator"] == "alice"
        assert ig.provenance["lab_station"] == "7"
        out = dumps_interferogram(ig)
        assert "# operator=alice" in out
        assert "# lab_station=7" in out
        assert loads_interferogram(out) == ig

    def test_values_survive_at_full_precision(self, demo_interferogram):
        parsed = loads_interferogram(dumps_interferogram(demo_interferogram))
        assert np.array_equal(parsed.wavelengths(), demo_interferogram.wavelengths())  # bit-exact
        assert np.array_equal(parsed.intensities(), demo_interferogram.intensities())


class TestParseErrors:
    def test_wrong_version(self):
        with pytest.raises(FileFormatError):
            loads_interferogram("# curlicue-interferogram v2\nlambda_nm,intensity\n1,1\n2,2\n")

    def test_empty(self):
        with pytest.raises(FileFormatError):
            loads_interferogram("")

    def test_missing_core_key(self):
        text = f"{VERSION_LINE}\n# M=2\n# d=2\nlambda_nm,intensity\n400.0,0.1\n401.0,0.1\n"
        with pytest.raises(FileFormatError):
            loads_interferogram(text)

    def test_bad_row(self):
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n400.0,abc\n401.0,0.1\n"
        with pytest.raises(FileFormatError):
            loads_interferogram(text)
        # blank lines are skipped but counted: the error names the bad row's line in the file
        head = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n400.0,0.1\n"
        with pytest.raises(FileFormatError, match=r"^line 9: expected 2 columns, got 3$"):
            loads_interferogram(head + "\n\n401.0,0.1,7\n402.0,0.1\n")
        with pytest.raises(FileFormatError, match=r"^line 10: non-numeric data '402.0,x'$"):
            loads_interferogram(head + "401.0,0.1\n\n \t\n402.0,x\n")

    def test_no_data_rows(self):
        # an empty data block holds no bad row: the sample count refuses it
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n\n"
        with pytest.raises(FileFormatError, match="^an interferogram needs at least 2 samples$"):
            loads_interferogram(text)

    def test_wrong_column_count(self):
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n400.0,0.1,9\n"
        with pytest.raises(FileFormatError):
            loads_interferogram(text)

    def test_column_count_checked_per_row(self):
        # four cells in all, but no row has two: the rows must not pair up across lines
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n400.0,0.1,9\n401.0\n"
        with pytest.raises(FileFormatError, match="line 6: expected 2 columns, got 3"):
            loads_interferogram(text)

    def test_non_monotone_rows(self):
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n401.0,0.1\n400.0,0.1\n"
        with pytest.raises(FileFormatError):
            loads_interferogram(text)

    def test_missing_column_header(self):
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\n400.0,0.1\n401.0,0.1\n"
        with pytest.raises(FileFormatError):
            loads_interferogram(text)

    def test_malformed_header_line(self):
        text = f"{VERSION_LINE}\n# x_nm 10\nlambda_nm,intensity\n400.0,0.1\n401.0,0.1\n"
        with pytest.raises(FileFormatError):
            loads_interferogram(text)

    def test_invalid_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\n# operator=J\u00e9r\u00f4me\nlambda_nm,intensity\n"
        path.write_bytes((text + "400.0,0.1\n401.0,0.1\n").encode("latin-1"))
        with pytest.raises(FileFormatError, match="UTF-8"):
            read_interferogram(path)


FUZZ_LINES = [
    VERSION_LINE,
    "# x_nm=1605.0",
    "# M=3",
    "# d=2",
    "# seed=0",
    "lambda_nm,intensity",
    "400.0,0.0",
    "400.5,0.125",
    "401.25,1.0",
    "402.0,0.5",
]
FUZZ_JUNK = ["", "#", "# =", "# M=1", "# d=x", "# x_nm=nan", "1e400,0.5", "400.0", ",", "nan,nan", "a,b,c"]
FUZZ_CHARS = "0123456789.,-+eE#= \tnaifx_\x00\u00e9"


def _mutated(rng: random.Random) -> str:
    """FUZZ_LINES after 1-3 line replacements, deletions, insertions, swaps or character garbles."""
    lines = list(FUZZ_LINES)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("replace", "delete", "insert", "swap", "garble")) if lines else "insert"
        i = rng.randrange(len(lines)) if lines else 0
        if op == "replace":
            lines[i] = rng.choice(FUZZ_LINES + FUZZ_JUNK)
        elif op == "delete":
            del lines[i]
        elif op == "insert":
            lines.insert(i, rng.choice(FUZZ_LINES + FUZZ_JUNK))
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            k = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:k] + rng.choice(FUZZ_CHARS) + lines[i][k + 1 :]
    return "\n".join(lines) + "\n"


def test_fuzzed_files_parse_or_raise_file_format_error():
    rng = random.Random(2011)
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(2000):
        text = _mutated(rng)
        try:
            loads_interferogram(text)
            outcomes["parsed"] += 1
        except FileFormatError:
            outcomes["rejected"] += 1
    # both sides are exercised, so the mutations neither all break nor all miss the format
    assert outcomes["parsed"] > 100 and outcomes["rejected"] > 100, outcomes
