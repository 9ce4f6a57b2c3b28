import errno
import hashlib
import math
import os
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import curlicue.io
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
    min_pixels,
    plan_single_number,
    read_interferogram,
    simulate,
    write_interferogram,
)
from curlicue.cli import main
from curlicue.io import _COLUMNS, _CORE_KEYS, VERSION_LINE, _bad_row, _plain
from conftest import DEMO_WINDOW, DEMO_X_NM


class _FailingWrites:
    """A binary file whose second write fails, as a full disk fails it."""

    def __init__(self, path, mode):
        self.fh, self.writes = open(path, mode), 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestRoundTrip:
    def test_simulated_demo(self, demo_interferogram):
        assert loads_interferogram(dumps_interferogram(demo_interferogram)) == demo_interferogram
        # x is stored as a float: a numpy.float64 would be written as np.float64(...), which the
        # reader refuses, and an int as 523427, which reads back as 523427.0 and is written again
        # differently
        for x_nm in (np.float64(DEMO_X_NM), 523427):
            ig = Interferogram(x_nm, demo_interferogram.sum_spec, demo_interferogram.samples)
            assert type(ig.displacement_unit_nm) is float
            text = dumps_interferogram(ig)
            assert loads_interferogram(text) == ig
            assert dumps_interferogram(loads_interferogram(text)) == text

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

    def test_failed_write_removes_its_partial_file(self, demo_interferogram, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(curlicue.io, "open", _FailingWrites, raising=False)
        path = tmp_path / "partial.csv"
        with pytest.raises(OSError, match="No space left on device"):
            write_interferogram(demo_interferogram, path)
        assert not path.exists()
        # through the CLI the run is a usage fault, and the plot written before the spectrum goes too
        svg = tmp_path / "partial.svg"
        argv = ["simulate", "--x", repr(DEMO_X_NM), "--lambda-min", repr(DEMO_WINDOW[0]),
                "--lambda-max", repr(DEMO_WINDOW[1]), "--out", str(path), "--plot", str(svg)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        assert not path.exists() and not svg.exists()

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

    @pytest.mark.parametrize(
        "provenance",
        [
            {"M": "5"},  # would read back as SumSpec(5, 2)
            {"x_nm": "7"},  # would read back as x = 7.0 nm
            {"k=v": "1"},  # would read back as {"k": "v=1"}
            {"a": " pad "},  # would read back as "pad"
            {" a": "b"},  # would read back as key "a"
            {"a": 1},  # would read back as "1"
            {"a": "x\ny"},  # would write a file the reader refuses
            {"a": "x\u2028y"},
        ],
    )
    def test_writer_refuses_provenance_it_cannot_give_back(self, provenance):
        ig = Interferogram(1000.0, SumSpec(2, 2), [[400.0, 0.25], [401.0, 0.5]], provenance)
        (key,) = provenance
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            dumps_interferogram(ig)

    def test_provenance_with_inner_blanks_and_signs_round_trips(self):
        provenance = {"note": "a = b # c", "lab station": "", "#": "="}
        ig = Interferogram(1000.0, SumSpec(2, 2), [[400.0, 0.25], [401.0, 0.5]], provenance)
        assert loads_interferogram(dumps_interferogram(ig)) == ig

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

    @pytest.mark.parametrize("cell", ["4_02.0", "\u0664\u0660\u0662.0", "402.\uff10"])
    def test_data_cell_follows_the_c_reader(self, cell):
        # float() takes '4_02.0' and Unicode digits; a v1 cell is ASCII and has no '_'
        head = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n400.0,0.1\n\n"
        float(cell)
        with pytest.raises(FileFormatError, match=rf"^line 8: non-numeric data '{cell},0.1'$"):
            loads_interferogram(head + f"{cell},0.1\n403.0,0.1\n")

    @pytest.mark.parametrize(
        "key, value", [("x_nm", "1_0"), ("x_nm", "\u0661\u0660"), ("M", "\u0663"), ("d", "2_0")]
    )
    def test_header_value_follows_the_c_reader(self, key, value):
        header = {"x_nm": "10", "M": "2", "d": "2", key: value}
        text = f"{VERSION_LINE}\n" + "".join(f"# {k}={v}\n" for k, v in header.items())
        with pytest.raises(FileFormatError, match=f"^bad header value: .*{value!r}$"):
            loads_interferogram(text + "lambda_nm,intensity\n400.0,0.1\n401.0,0.1\n")

    def test_whitespace_around_a_number_is_allowed(self):
        text = f"{VERSION_LINE}\n# x_nm= 10\n# M=2\n# d=2\nlambda_nm,intensity\n"
        ig = loads_interferogram(text + " 400.0 ,\t0.1\u2003\n401.0,0.1\n")
        assert ig.samples.tolist() == [[400.0, 0.1], [401.0, 0.1]]

    def test_no_data_rows(self):
        # an empty data block holds no bad row: the sample count refuses it
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n\n"
        with pytest.raises(FileFormatError, match="^an interferogram needs at least 2 samples$"):
            loads_interferogram(text)

    def test_wrong_column_count(self):
        text = f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\nlambda_nm,intensity\n400.0,0.1,9\n"
        with pytest.raises(FileFormatError, match=r"^line 6: expected 2 columns, got 3$"):
            loads_interferogram(text)
        # every row one column wide: numpy reads an N x 1 block, which the shape check refuses
        with pytest.raises(FileFormatError, match=r"^line 7: expected 2 columns, got 1$"):
            loads_interferogram(text.replace("400.0,0.1,9\n", "\n400.0\n401.0\n"))

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

    @pytest.mark.parametrize(
        "lines, lineno, key",
        [
            (["# x_nm=10", "# x_nm=1000", "# M=2", "# d=2"], 3, "x_nm"),
            (["# x_nm = 1", "# M=2", "# d=2", "#x_nm=2"], 5, "x_nm"),
            (["# x_nm=10", "# M=2", "# d=2", "# seed=0", "# r_nm=1", "# seed=0"], 7, "seed"),
            (["# x_nm=10", "# M=2", "# d=2", "# note=", "  #  note  =  b"], 6, "note"),
        ],
        ids=["core", "stripped", "provenance", "empty-value"],
    )
    def test_repeated_header_key(self, lines, lineno, key):
        # a second value for a key is refused, not kept in place of the first
        text = "\n".join([VERSION_LINE, *lines, "lambda_nm,intensity", "400.0,0.1", "401.0,0.1", ""])
        with pytest.raises(FileFormatError, match=rf"^header line {lineno} repeats key '{key}'$"):
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


def _reference_loads(text: str) -> Interferogram:
    """The v1 parser before numpy's C reader took over the data rows: each row's commas counted
    in Python, the rows joined and split again, every cell and header value read by float() or
    int(). Kept to pin the C reader's behaviour against it; it shares the header rules, a
    repeated key included."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != VERSION_LINE:
        raise FileFormatError("version")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].lstrip().startswith("#"):
        key, sep, value = lines[i].lstrip()[1:].strip().partition("=")
        if not sep or not key.strip() or key.strip() in header:
            raise FileFormatError("header line")
        header[key.strip()] = value.strip()
        i += 1
    if i >= len(lines) or lines[i].strip() != "lambda_nm,intensity":
        raise FileFormatError("column header")
    rows = list(filter(str.strip, lines[i + 1 :]))
    try:
        if any(row.count(",") != 1 for row in rows):
            raise ValueError("not two columns per row")
        samples = np.array(",".join(rows).split(",") if rows else [], dtype=np.float64).reshape(-1, 2)
        x_nm = float(header["x_nm"])
        spec = SumSpec(int(header["M"]), int(header["d"]))
        provenance = {k: v for k, v in header.items() if k not in ("x_nm", "M", "d")}
        return Interferogram(x_nm, spec, samples, provenance)
    except (KeyError, ValueError) as exc:
        raise FileFormatError(str(exc)) from None


def _numbers(text: str) -> list[str]:
    """The data cells and the x_nm, M and d values of a text that _reference_loads accepts."""
    lines = text.splitlines()
    i = next(k for k in range(1, len(lines)) if not lines[k].lstrip().startswith("#"))
    header = dict(line.lstrip()[1:].strip().partition("=")[::2] for line in lines[1:i])
    values = [v for k, v in header.items() if k.strip() in ("x_nm", "M", "d")]
    return values + [cell for row in lines[i + 1 :] if row.strip() for cell in row.split(",")]


def _outside_the_c_reader(token: str) -> bool:
    return any(ch == "_" or (not ch.isascii() and ch.isdecimal()) for ch in token)


# Unicode digits (Arabic-Indic, Devanagari, fullwidth) and spaces (no-break, em) that float() takes
MUTATION_CHARS = FUZZ_CHARS + "\u0660\u0661\u0669\u0967\uff15\u00a0\u2003"


def _row_mutations(rng: random.Random, count: int) -> list[str]:
    """FUZZ_LINES with one character of one data row replaced, inserted or deleted."""
    data = range(FUZZ_LINES.index("lambda_nm,intensity") + 1, len(FUZZ_LINES))
    texts = []
    for _ in range(count):
        lines = list(FUZZ_LINES)
        i = rng.choice(data)
        k = rng.randrange(len(lines[i]) + 1)
        op = rng.choice(("replace", "insert", "delete"))
        ch = rng.choice(MUTATION_CHARS)
        if op == "replace":
            lines[i] = lines[i][:k] + ch + lines[i][k + 1 :]
        elif op == "insert":
            lines[i] = lines[i][:k] + ch + lines[i][k:]
        else:
            lines[i] = lines[i][:k] + lines[i][k + 1 :]
        texts.append("\n".join(lines) + "\n")
    return texts


def test_c_reader_against_the_reference_parser():
    rng = random.Random(2011)
    corpus = [_mutated(rng) for _ in range(2000)] + _row_mutations(random.Random(1506), 6000)
    seen = {"both": 0, "reference_only": 0, "neither": 0}
    for text in corpus:
        try:
            want = _reference_loads(text)
        except FileFormatError:
            want = None
        try:
            got = loads_interferogram(text)
        except FileFormatError:
            got = None
        if got is not None:
            # never accepts what the reference refuses, and loads what both accept to the same value
            assert want is not None, text
            assert got == want and got.samples.tobytes() == want.samples.tobytes(), text
            seen["both"] += 1
        elif want is not None:
            # the only texts newly refused hold a number outside the C reader's rule
            assert any(map(_outside_the_c_reader, _numbers(text))), text
            seen["reference_only"] += 1
        else:
            seen["neither"] += 1
    assert min(seen.values()) > 50, seen


def test_cli_session_size_spectrum_round_trips_bit_for_bit():
    # x = 9401 * 400 nm / 4 over 400-800 nm at min_pixels: 125,775 rows, 4.7 MB of text
    window = SpectralWindow(400.0, 800.0)
    config = InterferometerConfig(940100.0, SumSpec(3, 2))
    ig = simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, window)))
    parsed = loads_interferogram(dumps_interferogram(ig))
    assert len(ig.samples) > 125_000
    assert parsed == ig
    assert parsed.samples.tobytes() == ig.samples.tobytes()


def _repr_rows(lam: np.ndarray, inten: np.ndarray) -> str:
    """The v1 rows as the writer gave them before they were formatted in numpy."""
    return "".join([f"{w!r},{i!r}\n" for w, i in zip(lam.tolist(), inten.tolist())])


def _differential_values() -> dict[str, np.ndarray]:
    """Seeded float64 values, over a million of them, that the row formatter must write as repr."""
    rng = np.random.default_rng(3501)
    fast = np.array([1e-4, 1e16]).view(np.int64)
    powers = 2.0 ** np.arange(-1074, 1024)
    up = down = np.array([float(f"1e{k}") for k in range(-5, 17)])
    tens = [up]
    for _ in range(50):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        tens += [up, down]
    lamp = SpectralWindow(400.0, 800.0)
    grids = [
        SpectralWindow(400.0, 800.0, min_pixels(InterferometerConfig(run.x_nm, SumSpec(3, 2)), lamp)).pixel_centers()
        for run in plan_single_number(9409, lamp).runs
    ]
    noisy = simulate(
        InterferometerConfig(235225.0, SumSpec(3, 2)),
        SpectralWindow(400.0, 800.0, 31471),
        NoiseModel(mirror_sigma_nm=50.0, detector_sigma=0.3, seed=7),
    )
    return {
        # every non-negative finite bit pattern: subnormals, and most of them below 1e-4 or from 1e16
        "bit patterns": rng.integers(0, 0x7FF0000000000000, 200_000, dtype=np.uint64).view(np.float64),
        "bit patterns in [1e-4, 1e16)": rng.integers(fast[0], fast[1], 300_000).view(np.float64),
        "uniform [0, 1)": rng.random(200_000),
        "400-800 nm": rng.uniform(400.0, 800.0, 100_000),
        "powers of two and neighbours": np.concatenate(
            [powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
        ),
        "neighbours of 10**k": np.concatenate(tens),
        # an odd integer from 2**53 on lies halfway between two doubles: the even one it reads as
        # has it as an end of its rounding interval
        "interval ends": (rng.integers(2**52, 5 * 10**15, 50_000) * 2 + 1).astype(np.float64),
        "zeros": np.zeros(5),
        "plan grids of 9409": np.concatenate(grids),
        # simulate clips detector noise to [0, 1 + 5 sigma]
        "clipped detector noise": np.concatenate([noisy.intensities(), 1.0 + 5.0 * np.arange(1, 101) / 100]),
    }


_SOME_INSIDE = ("bit patterns", "bit patterns in [1e-4, 1e16)", "powers of two and neighbours", "neighbours of 10**k")


def test_rows_are_formatted_as_repr_formats_them(monkeypatch):
    # each value is written once as a wavelength and once as an intensity, a write block at a time
    values = _differential_values()
    assert sum(map(len, values.values())) > 10**6
    assert np.count_nonzero(values["clipped detector noise"] == 0.0) > 1000
    tables = curlicue.io._format_tables()
    fallback = []
    monkeypatch.setattr(curlicue.io, "repr", lambda v: fallback.append(v) or repr(v), raising=False)
    for name, column in values.items():
        fallback.clear()
        lam, inten = column, column[::-1].copy()
        for start in range(0, len(column), curlicue.io._WRITE_ROWS):
            rows = slice(start, start + curlicue.io._WRITE_ROWS)
            got = curlicue.io._rows_text(lam[rows], inten[rows], tables)
            want = _repr_rows(lam[rows], inten[rows])
            if got != want:
                pairs = zip(got.splitlines(), want.splitlines())
                pytest.fail(f"{name}: {next((g, w) for g, w in pairs if g != w)}")
        # repr() takes only the values the formatter cannot vouch for: every one outside [1e-4, 1e16)
        # but 0.0, and a few inside, ties between two shortest digit strings (as from about 1e12 on)
        # and values within an ulp or so below a power of ten
        outside = np.count_nonzero(((column < 1e-4) | (column >= 1e16)) & (column != 0.0))
        inside = len(fallback) // 2 - outside
        assert 0 <= inside <= (0.02 * len(column) if name in _SOME_INSIDE else 0), (name, inside)


def test_scaled_intervals_match_exact_rationals():
    # each value in [1e-4, 1e16), scaled, is hi + lo exactly, and its rounding interval holds the
    # integers _ends gives: half a gap to each neighbour, a quarter below a power of two, the ends in
    # only for an even significand; from 2**53 on the ends are odd integers, so the parity shows
    rng = np.random.default_rng(3502)
    fast = np.array([1e-4, 1e16]).view(np.int64)
    x = np.concatenate([
        rng.integers(fast[0], fast[1], 3000).view(np.float64),
        2.0 ** np.arange(-13, 54),
        np.arange(2**53 - 40, 2**53 + 40, dtype=np.int64).astype(np.float64),
        9.9e15 + np.arange(0, 80, 2.0),
    ])
    e, hi, lo, scale = curlicue.io._scaled(x, curlicue.io._format_tables())
    lowest, highest = curlicue.io._ends(x, lo, scale)
    checked = 0
    for v, k, h, l, low, high in zip(*(a.tolist() for a in (x, 16 - e, hi, lo, lowest, highest))):
        s = Fraction(h) + Fraction(l)
        assert s == Fraction(v) * 10**k
        if not 10**16 <= s < 10**17:
            continue  # hi rounded onto 1e16 from below, a value _shortest does not vouch for
        below = (Fraction(v) - Fraction(np.nextafter(v, 0.0))) / 2 * 10**k
        above = (Fraction(np.nextafter(v, np.inf)) - Fraction(v)) / 2 * 10**k
        if np.float64(v).view(np.int64) % 2:
            least, greatest = math.floor(s - below) + 1, math.ceil(s + above) - 1
        else:
            least, greatest = math.ceil(s - below), math.floor(s + above)
        assert (low, high) == (least - int(h), greatest - int(h)), v
        checked += 1
    assert checked > 3000


def _fallback_called(value):
    raise AssertionError(f"repr() ran on {value!r}")


def test_noiseless_spectra_are_formatted_without_repr(monkeypatch):
    # the cli_session-size spectrum and the README's demo: the formatter vouches for every value
    lamp = SpectralWindow(400.0, 800.0)
    config = InterferometerConfig(940100.0, SumSpec(3, 2))
    spectra = [
        simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, lamp))),
        simulate(InterferometerConfig(DEMO_X_NM, SumSpec(3, 2)), SpectralWindow(*DEMO_WINDOW, 2048)),
    ]
    wants = [_repr_rows(ig.wavelengths(), ig.intensities()) for ig in spectra]
    monkeypatch.setattr(curlicue.io, "repr", _fallback_called, raising=False)
    for ig, want in zip(spectra, wants):
        assert dumps_interferogram(ig).split(f"{_COLUMNS}\n")[1] == want


def _whole_text_loads(text: str) -> Interferogram:
    """loads_interferogram as it was before the text was read in blocks: the whole text split
    into lines at once and its data rows parsed in one numpy.loadtxt call.  Kept as the
    reference that the block reader must match, outcome for outcome."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != VERSION_LINE:
        raise FileFormatError(f"first line must be {VERSION_LINE!r}")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].lstrip().startswith("#"):
        body = lines[i].lstrip()[1:].strip()
        key, sep, value = (part.strip() for part in body.partition("="))
        if not sep or not key:
            raise FileFormatError(f"malformed header line {i + 1}: {lines[i]!r}")
        if key in header:
            raise FileFormatError(f"header line {i + 1} repeats key {key!r}")
        header[key] = value
        i += 1
    if i >= len(lines) or lines[i].strip() != _COLUMNS:
        raise FileFormatError(f"expected column header {_COLUMNS!r} after the header block")
    rows = list(filter(str.strip, lines[i + 1 :]))
    samples = np.empty((0, 2))
    if rows:
        try:
            samples = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
            if samples.shape[1] != 2:
                raise ValueError(f"{samples.shape[1]} columns")
        except ValueError as exc:
            raise _bad_row(lines[i + 1 :], i + 2, exc) from None
    for key in _CORE_KEYS:
        if key not in header:
            raise FileFormatError(f"missing required header key {key!r}")
    try:
        x_nm = float(_plain(header["x_nm"]))
        spec = SumSpec(int(_plain(header["M"])), int(_plain(header["d"])))
    except ValueError as exc:
        raise FileFormatError(f"bad header value: {exc}") from None
    provenance = {k: v for k, v in header.items() if k not in _CORE_KEYS}
    try:
        return Interferogram(x_nm, spec, samples, provenance)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def _outcome(load, source):
    try:
        ig = load(source)
    except FileFormatError as exc:
        return str(exc)
    assert ig.samples.flags.f_contiguous
    return ig.displacement_unit_nm, ig.sum_spec, ig.provenance, ig.samples.tobytes()


def _block_cases() -> list[str]:
    """Texts whose lines end, or go wrong, where a small block ends."""
    base = "\n".join(FUZZ_LINES) + "\n"
    head, data = base.split("lambda_nm,intensity\n")
    long_rows = "".join(f"{400 + k}.0,0.5\n" for k in range(300))
    cases = [
        base,
        base.replace("\n", "\r\n"),
        base.replace("\n", "\r"),
        base.replace("\n", "\n\r"),  # a blank line after each, ended by the lone '\r'
        base.rstrip("\n"),
        base.replace("\n", "\r\n").rstrip("\n"),  # ends in a lone '\r'
        head + "# note=" + "x = y " * 40 + "\nlambda_nm,intensity\n" + data,  # a header line over many blocks
        head + "lambda_nm,intensity\n \t\n" + data.replace("\n", "\n\u2003\n\t \r\n", 2) + "  \n\n",
        head + "lambda_nm,intensity\n" + long_rows,
        head + "lambda_nm,intensity\n" + long_rows.replace("650.0,0.5", "650.0,0.5x"),
        head + "lambda_nm,intensity\n" + long_rows.replace("690.0,0.5", "690.0,0.5,1"),
        head + "lambda_nm,intensity\n" + long_rows.replace("\n", "\r\n").replace("689.0,0.5", "689.0"),
        head + "# M=4\nlambda_nm,intensity\n" + data,
        head + "lambda_nm,intensity\n" + data.replace("400.5", "40\r0.5"),
        "",
        "\r\n",
        VERSION_LINE,
        VERSION_LINE + "\r",
    ]
    for brk in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        cases.append(base.replace("\n", brk))
        cases.append(base.replace(",0.", brk + ",0.", 1))  # a break inside a data row
    cases.append("".join(line + "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"[k % 11] for k, line in enumerate(FUZZ_LINES)))
    return cases


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_blocks_read_as_the_whole_text(block, monkeypatch, tmp_path):
    # every text, read in blocks of any size from a str or a file, gives the whole-text parser's
    # samples bit for bit, or its error message; a file is read with its '\r\n' and '\r' made
    # '\n', which splitlines breaks at alike
    rng = random.Random(2011)
    corpus = [_mutated(rng) for _ in range(2000)] + _row_mutations(random.Random(1506), 6000) + _block_cases()
    monkeypatch.setattr(curlicue.io, "_READ_BLOCK", block)
    path = tmp_path / "case.csv"
    outcomes = set()
    for text in corpus:
        want = _outcome(_whole_text_loads, text)
        assert _outcome(loads_interferogram, text) == want, text
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_interferogram, path) == want, text
        outcomes.add(want if isinstance(want, str) else "parsed")
    assert len(outcomes) > 20, outcomes


def _block_reader_called(chunks):
    raise AssertionError("the block reader ran")


def test_plain_files_are_read_by_one_numpy_pass(tmp_path, monkeypatch):
    # a simulate-written file over five read blocks, its '\r\n' twin and a file with a UTF-8
    # provenance line: numpy.loadtxt parses their rows straight from the file, and the block
    # reader, the fallback, never runs
    ig = simulate(InterferometerConfig(235225.0, SumSpec(3, 2)), SpectralWindow(400.0, 800.0, 31471))
    named = Interferogram(
        ig.displacement_unit_nm, ig.sum_spec, ig.samples, {**ig.provenance, "operator": "Jérôme"}
    )
    plain, crlf, utf8 = tmp_path / "plain.csv", tmp_path / "crlf.csv", tmp_path / "utf8.csv"
    write_interferogram(ig, plain)
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    write_interferogram(named, utf8)
    assert plain.stat().st_size > 4 * curlicue.io._READ_BLOCK
    monkeypatch.setattr(curlicue.io, "_parse", _block_reader_called)
    for path, want in ((plain, ig), (crlf, ig), (utf8, named)):
        got = read_interferogram(path)
        assert got == want and got.samples.tobytes() == want.samples.tobytes(), path.name
        assert got.samples.flags.f_contiguous


@pytest.mark.parametrize("rows", ["", "\n\n\n", "\r\n\r\n", "\n \t\n\n"], ids=["none", "lf", "crlf", "blanks"])
def test_a_file_without_data_rows_warns_nothing(rows, tmp_path, capsys):
    # numpy.loadtxt warns on a file that holds no data row; such a file goes to the block reader,
    # which refuses it as too short and prints nothing but the error
    path = tmp_path / "nodata.csv"
    path.write_bytes(f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\n{_COLUMNS}\n{rows}".encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FileFormatError, match="^an interferogram needs at least 2 samples$"):
            read_interferogram(path)
        assert main(["factor", "--interferogram", str(path), "--n", "1308567"]) == 2
    assert capsys.readouterr() == ("", "error: an interferogram needs at least 2 samples\n")


def _guard_cases(tmp_path) -> list[tuple[str, os.PathLike, bool]]:
    """(name, path, whether numpy reads it) for files that numpy must leave to the block reader, and
    for the plain file reached by a symlink and through '..'.  The text spans two read blocks, and
    every fault in a data row lies past the first 2**18 bytes."""
    head = "\n".join(FUZZ_LINES[: FUZZ_LINES.index(_COLUMNS) + 1]) + "\n"
    rows = [f"{400 + k / 64!r},0.5\n" for k in range(30000)]
    late = 25000
    assert len("".join([head, *rows[:late]])) > 1 << 18
    texts = {"plain.csv": "".join([head, *rows])}
    for brk in "\x0b\x0c\x1c\x1d\x1e":
        # numpy strips the break from the cell after it, where str.splitlines ends the row
        broken = rows[late].replace(",", "," + brk)
        texts[f"break{ord(brk):02x}.csv"] = "".join([head, *rows[:late], broken, *rows[late + 1 :]])
    for brk in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        # str.splitlines makes two header lines of one that a binary readline gives whole
        texts[f"head{ord(brk):04x}.csv"] = "".join([head.replace("# seed=0", f"# seed=0{brk}# note=1"), *rows])
    texts["blanks.csv"] = "".join([head, *rows[:late], " \t\n", *rows[late:]])
    texts["descending.csv"] = "".join([head, *rows[:late], rows[late + 1], rows[late], *rows[late + 2 :]])
    cases = []
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        cases.append((name, tmp_path / name, name == "plain.csv"))
    raw = (tmp_path / "plain.csv").read_bytes()
    for suffix in (".gz", ".bz2", ".xz", ".lzma"):
        (tmp_path / f"plain.csv{suffix}").write_bytes(raw)
        cases.append((suffix, tmp_path / f"plain.csv{suffix}", False))
    cut = raw.index(rows[late].encode())
    (tmp_path / "latin1.csv").write_bytes(raw[:cut] + b"\xff" + raw[cut + 1 :])
    cases.append(("latin1", tmp_path / "latin1.csv", False))
    os.symlink(tmp_path / "plain.csv", tmp_path / "link.csv")
    os.symlink(tmp_path / "plain.csv.gz", tmp_path / "link_gz.csv")
    (tmp_path / "sub").mkdir()
    cases += [
        ("symlink", tmp_path / "link.csv", True),
        ("symlink to .gz", tmp_path / "link_gz.csv", False),
        ("dot-dot", tmp_path / "sub" / ".." / "plain.csv", True),
    ]
    return cases


def test_numpy_reads_only_what_the_block_reader_reads_alike(tmp_path):
    # each file gives the whole-text parser's outcome on its text; numpy reads it only where its
    # name, its bytes and its rows allow, and leaves the rest to the block reader
    outcomes = set()
    for name, path, fast in _guard_cases(tmp_path):
        try:
            want = _outcome(_whole_text_loads, path.read_bytes().decode("utf-8"))
        except UnicodeDecodeError:
            want = "not UTF-8 text"
        got = _outcome(read_interferogram, path)
        if isinstance(got, str) and got.startswith("not UTF-8 text: "):
            got = "not UTF-8 text"
        assert got == want, name
        assert (curlicue.io._read_rows(path) is not None) == fast, name
        outcomes.add(want if isinstance(want, str) else "parsed")
    assert len(outcomes) == 4, outcomes


def test_a_file_changed_while_numpy_reads_it_goes_to_the_block_reader(tmp_path, monkeypatch):
    # the bytes numpy parses must be the bytes that were checked: here a '\f' comes into a row
    # after the check, which numpy would strip as a blank and the block reader reads as a break
    path = tmp_path / "changing.csv"
    path.write_text(f"{VERSION_LINE}\n# x_nm=10\n# M=2\n# d=2\n{_COLUMNS}\n400.0,0.1\n401.0,0.1\n")
    loadtxt = np.loadtxt

    def edit_then_load(fname, **kwargs):
        path.write_text(path.read_text().replace("401.0,0.1", "401.0,\f0.1"))
        return loadtxt(fname, **kwargs)

    monkeypatch.setattr(np, "loadtxt", edit_then_load)
    with pytest.raises(FileFormatError, match="^line 7: non-numeric data '401.0,'$"):
        read_interferogram(path)


def test_line_blocks_split_as_splitlines():
    # the line splitter alone, on every way of cutting a text with each break in two or three
    text = "a\r\nb\n\rc\r\r\nd\x0be\x0cf\x1cg\x1dh\x1ei\x85j\u2028k\u2029l\r"
    for i in range(len(text) + 1):
        for j in range(i, len(text) + 1):
            chunks = [c for c in (text[:i], text[i:j], text[j:]) if c]
            assert [line for lines in curlicue.io._lines(chunks) for line in lines] == text.splitlines()


def test_seeded_random_blocks_split_as_splitlines():
    # 5,000 seeded texts over the breaks, '\r\n' among them, each cut into blocks at 1 to 4 points:
    # cutting a text between a '\r' and its '\n' must not make an extra line
    symbols = ["a", ",", "\n", "\r", "\r\n", "\x0b", "\x85", "\u2028"]
    rng = random.Random(25)
    for _ in range(5000):
        text = "".join(rng.choice(symbols) for _ in range(rng.randint(0, 12)))
        cuts = sorted(rng.randint(0, len(text)) for _ in range(rng.randint(1, 4)))
        chunks = [c for c in (text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])) if c]
        assert [line for lines in curlicue.io._lines(chunks) for line in lines] == text.splitlines(), (text, cuts)


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    # 400,000 px, 6.4 MB of samples and 12 MB of v1 text
    config = InterferometerConfig(2.9e6, SumSpec(3, 2))
    ig = simulate(config, SpectralWindow(400.0, 800.0, 400_000))
    path = tmp_path_factory.mktemp("large") / "large.csv"
    write_interferogram(ig, path)
    return ig, path


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_holds_one_block_of_text_at_peak(large_file, tmp_path):
    # the rows are formatted and written 8,192 at a time, about 0.3 MB of text; the whole text,
    # as it was once built, came to 9.4x the samples
    ig, path = large_file
    out = tmp_path / "again.csv"
    _, peak = _traced_peak(lambda: write_interferogram(ig, out))
    assert out.read_bytes() == path.read_bytes()
    assert peak <= 0.25 * ig.samples.nbytes, peak / ig.samples.nbytes


def test_read_holds_twice_its_samples_at_peak(large_file):
    # the parsed blocks and the column-major array they go into, and one block of text and its
    # lines; the whole text and its line list came to 9.9x the samples
    ig, path = large_file
    parsed, peak = _traced_peak(lambda: read_interferogram(path))
    assert parsed.samples.tobytes() == ig.samples.tobytes() and parsed.samples.flags.f_contiguous
    assert peak <= 2.25 * ig.samples.nbytes, peak / ig.samples.nbytes
    text = path.read_text()
    parsed, peak = _traced_peak(lambda: loads_interferogram(text))  # beyond the text it is given
    assert parsed == ig
    assert peak <= 2.25 * ig.samples.nbytes, peak / ig.samples.nbytes


@pytest.mark.parametrize("brk", ["\r", "\r\n"])
def test_loads_holds_twice_its_samples_at_peak_with_cr_breaks(large_file, brk):
    # a block is cut after its last '\r' too, so a text whose lines end in '\r' is not carried
    # whole from block to block (cut only after '\n', it peaked at 9.1x the samples)
    ig, path = large_file
    text = path.read_text().replace("\n", brk)
    parsed, peak = _traced_peak(lambda: loads_interferogram(text))  # beyond the text it is given
    assert parsed == ig
    assert peak <= 2.25 * ig.samples.nbytes, peak / ig.samples.nbytes
