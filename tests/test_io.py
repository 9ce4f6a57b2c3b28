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
    min_pixels,
    plan_single_number,
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
    int(). Kept to pin the C reader's behaviour against it."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != VERSION_LINE:
        raise FileFormatError("version")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].lstrip().startswith("#"):
        key, sep, value = lines[i].lstrip()[1:].strip().partition("=")
        if not sep or not key.strip():
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
    # run 2 of the plan for 9401 over 400-800 nm at min_pixels: 125,775 rows, 4.7 MB of text
    window = SpectralWindow(400.0, 800.0)
    run = plan_single_number(9401, window).runs[2]
    config = InterferometerConfig(run.x_nm, SumSpec(3, 2))
    ig = simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, window)))
    parsed = loads_interferogram(dumps_interferogram(ig))
    assert len(ig.samples) > 125_000
    assert parsed == ig
    assert parsed.samples.tobytes() == ig.samples.tobytes()
