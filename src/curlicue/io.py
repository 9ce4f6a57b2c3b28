"""Interferogram file format v1: a commented CSV that round-trips exactly.

Layout::

    # curlicue-interferogram v1
    # x_nm=<float>
    # M=<int>
    # d=<int>
    # r_nm=<...>          further "# key=value" lines are provenance, read with
    # seed=<...>          key and value stripped and written back as they were
    ...                   read, including keys this package does not know about
    lambda_nm,intensity
    <float>,<float>
    ...

Floats are written as repr() writes them, the shortest decimal that parses
back to the identical float64 (of several, the nearest), so
parse(serialize(ig)) == ig bit for bit.  The writer finds those digits for a
whole block of values at once in numpy (_rows_text): Dekker's exact product
scales each value into [1e16, 1e17), and the digits are the shortest
multiple of a power of ten inside its rounding interval, the problem that
David Gay's dtoa, which repr() calls, and Ryu solve one float at a time.
repr() itself takes only the values the block formatter cannot vouch for:
those outside [1e-4, 1e16) other than 0.0, ties between two shortest
digit strings, and values just under a power of ten (see _shortest).  A
number, in a data cell or in x_nm, M and d, is read as numpy's C reader
reads it: ASCII only and no '_', so '1_0' and non-ASCII digits are refused.

Neither direction holds the whole text.  The writer formats _WRITE_ROWS rows
per numpy pass and writes each block before it formats the next.  The block
reader (loads_interferogram, and read_interferogram's fallback) parses
_READ_BLOCK characters at a time, cuts each block after its last '\n' or '\r'
(not a '\r' that ends the block, which may begin a '\r\n'), splits the block
once and drops the lines after the cut, carries the rest into the next block,
and copies the parsed blocks into one array at the end.  read_interferogram
first reads the header by the same rules and checks the rest of a plain file
in _READ_BLOCK-byte blocks; rows that are ASCII and hold no break but '\n' and
'\r' split alike for numpy and str.splitlines, so numpy.loadtxt then parses
them all from the file in one C pass, and any refusal goes back to the block
reader, which words every error.  So a write holds one block's row matrix,
mask, work columns and text beyond its samples, about 1.3 MB, and a read peaks
at about twice the samples it returns (tracemalloc: 0.041x and 2.0x at
2,000,000 px).
"""

from __future__ import annotations

import os
import stat
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .errors import FileFormatError
from .expsum import SumSpec
from .interferometer import Interferogram

VERSION_LINE = "# curlicue-interferogram v1"
_COLUMNS = "lambda_nm,intensity"
_CORE_KEYS = ("x_nm", "M", "d")
_ORDERED_PROVENANCE = ("r_nm", "seed", "mirror_sigma_nm", "detector_sigma")
_WRITE_ROWS = 4096  # rows formatted per numpy pass and written per block of text
_READ_BLOCK = 1 << 18  # characters of text parsed, or bytes of a file checked, per block read
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # numpy.loadtxt opens a path so named decompressed
_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"  # the ASCII breaks of str.splitlines besides '\n' and '\r'

# the row matrix of _rows_text: per row, a field of _FIELD bytes for each value, at columns 0 and
# 32, "," at 24 and "\n" at 56, so that each field starts on a uint64 and its digits on a uint32
_FIELD = 24  # a value's repr (at most 24 bytes), or 4 bytes before its 20 digits
_ROW = 64
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant: x * _SPLIT splits x into two 26-bit halves
_EXPONENT = 0x7FF0000000000000  # the exponent bits of a float64
_NUDGE = 2.0**-48  # finer than the grid of a scaled interval's ends, and exact beside them


def _check_provenance(provenance: dict) -> None:
    """Refuse, naming its key, any entry that loads_interferogram would not give back as it is."""
    for key, value in provenance.items():
        if not (isinstance(key, str) and isinstance(value, str)):
            fault = "keys and values must be str"
        elif not key or "=" in key or key in _CORE_KEYS:
            fault = f"a key must be non-empty, hold no '=' and not be one of {_CORE_KEYS}"
        elif any(s != s.strip() or "".join(s.splitlines()) != s for s in (key, value)):
            fault = "a key or value must hold no line break and no surrounding whitespace"
        else:
            continue
        raise ValueError(f"provenance key {key!r}: {fault}")


def _text_blocks(ig: Interferogram) -> Iterator[str]:
    """The v1 text of ig in blocks: the header, then the rows _WRITE_ROWS at a time, each block
    made only when it is asked for.  Raises ValueError, before the header is given, on provenance
    the reader cannot give back (see _check_provenance)."""
    _check_provenance(ig.provenance)
    lines = [VERSION_LINE]
    lines.append(f"# x_nm={ig.displacement_unit_nm!r}")
    lines.append(f"# M={ig.sum_spec.path_count}")
    lines.append(f"# d={ig.sum_spec.order}")
    for key in _ORDERED_PROVENANCE:
        if key in ig.provenance:
            lines.append(f"# {key}={ig.provenance[key]}")
    for key in sorted(ig.provenance):
        if key not in _ORDERED_PROVENANCE:
            lines.append(f"# {key}={ig.provenance[key]}")
    lines.append(_COLUMNS)
    yield "\n".join(lines) + "\n"
    lam, inten = ig.wavelengths(), ig.intensities()
    tables = _format_tables()
    for start in range(0, len(lam), _WRITE_ROWS):
        yield _rows_text(lam[start : start + _WRITE_ROWS], inten[start : start + _WRITE_ROWS], tables)


def _format_tables() -> tuple:
    """The lookup tables of _rows_text, built per call of _text_blocks, in well under a millisecond,
    as plotting builds its own: tables built at import raised the peak RSS of perfbench's schedule
    workload, which writes no v1 file."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), np.uint8).reshape(100, 2)
    quads = np.empty((100, 100, 4), np.uint8)  # the bytes of "0000" to "9999"
    quads[:, :, :2] = pairs[:, None]
    quads[:, :, 2:] = pairs[None, :]
    powers = np.array([float(10**k) for k in range(23)])  # exact doubles
    high = powers * _SPLIT - (powers * _SPLIT - powers)
    # spans[start * 25 + stop]: the field bytes [start, stop) of a row, as three uint64
    cols = np.arange(_FIELD)
    spans = (cols >= cols[:, None, None]) & (cols < np.arange(_FIELD + 1)[:, None])
    spans = spans.view(np.uint64).reshape(-1, 3)
    return quads.reshape(-1, 4).view(np.uint32).ravel(), powers, high, powers - high, spans


def _scaled(x: np.ndarray, tables: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(e, hi, lo, scale) with x * scale == hi + lo exactly and scale == 10**(16 - e), for x in
    [1e-4, 1e16): e is x's decimal exponent, from log10 and one check, so that hi + lo lies in
    [1e16, 1e17) unless hi rounded onto 1e16 from below or onto 1e17.

    The check reads the rounded product, which lies on the same side of 1e16 and 1e17 as the
    exact one or on them; log10 is off by at most one.  lo is Dekker's exact error term, as
    scale = 10**k is an exact double for k <= 22 and both factors split into 26-bit halves.
    """
    _, powers, high, low, _ = tables
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    hi = x * powers[k]
    k += hi < 1e16
    k -= hi >= 1e17
    scale = powers[k]
    hi = x * scale
    x_hi = x * _SPLIT
    x_hi = x_hi - (x_hi - x)
    x_lo = x - x_hi
    s_hi, s_lo = high[k], low[k]
    lo = ((x_hi * s_hi - hi) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    return 16 - k, hi, lo, scale


def _ends(x: np.ndarray, lo: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest integer offset from hi in the rounding interval of x scaled by
    scale, whose centre is hi + lo: half a gap to each neighbour (a quarter below a power of two,
    whose lower gap is half), its ends in only for an even significand, as reading rounds half to
    even."""
    bits = x.view(np.uint64)
    odd = (bits & 1).astype(np.float64) * _NUDGE
    below = (((bits - 1) & _EXPONENT) - (53 << 52)).view(np.float64) * scale
    above = ((bits & _EXPONENT) - (53 << 52)).view(np.float64) * scale
    return np.floor(lo - below - (_NUDGE - odd)) + 1, np.floor(lo + above - odd)


def _shortest(x: np.ndarray, tables: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(digits, e, step, ok): Python's repr digits of each value of x in [1e-4, 1e16) as a 17-digit
    integer, its decimal exponent, the power of ten (1, 10 or 100) that the digits are a multiple
    of, as a float, and whether they are vouched for.

    repr gives the fewest digits that read back as the value, and of those the nearest.  Scaled by
    10**(16 - e) to s = hi + lo in [1e16, 1e17), the value reads back from every number in its
    rounding interval (see _ends), which is at least 1.1 wide, so it holds an integer, and under 23.
    The digits are the multiple of the largest power of ten 10**j that it holds nearest s: for
    j >= 2 there is one, and for j <= 1 the nearest multiple of 10**j to s lies in the interval
    whenever one does, if the interval is symmetric.  Not vouched for: a value outside [1e-4, 1e16);
    a value whose scaled product rounds onto 1e16 or 1e17 (see _scaled), such as the one just
    under 0.1; a power of two whose nearest multiple falls out of its interval; a tie between two
    multiples, as 9999999999999.9375 is between 9999999999999.93 and .94; digits that carry to 10**17.

    Every step is exact: hi is an even integer and lo, its error, is at most 8 and a multiple of
    2**-46; the half gaps are 2**a * 5**k for k <= 20, under 12 and multiples of 2**-47, so the
    interval's ends and lo's parts below and above hi are exact as offsets from hi.
    """
    ok = (x >= 1e-4) & (x < 1e16)
    x = np.where(ok, x, 1.0)
    e, hi, lo, scale = _scaled(x, tables)
    ok &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (hi < 1e17)
    lowest, highest = _ends(x, lo, scale)
    width = highest - lowest
    # an offset t is congruent to hi + t modulo 100 by way of hi's last two digits, and for the
    # small integers t below, floor(t * 0.1) and floor(t * 0.01) are exact
    hi = hi.astype(np.int64)
    t = (hi % 100).astype(np.float64) + 100.0
    top = t + highest
    step = np.where(top - np.floor(top * 0.1) * 10.0 <= width, 10.0, 1.0)
    step[top - np.floor(top * 0.01) * 100.0 <= width] = 100.0
    below = np.floor(lo)
    top = t + below
    rem = top - np.floor(top / step) * step  # of the integer below s
    down = below - rem  # the multiple of step below s
    twice = (lo - below + rem) * 2.0  # twice s's distance from it
    nearest = np.where(twice > step, down + step, down)
    ok &= (twice != step) & (nearest >= lowest) & (nearest <= highest)
    digits = hi + nearest.astype(np.int64)
    ok &= digits < 10**17
    return digits, e, step, ok


def _field(codes: np.ndarray, at: int, x: np.ndarray, tables: tuple) -> np.ndarray:
    """Write repr() of each value of x into the field of codes at column at, and return the index
    into tables' spans of the bytes it takes there.

    The field holds "00", the padding "000" and the 17 digits from _shortest, written by uint32
    table codes; a value below 1 keeps "0." and the padding it needs, and a larger one has its whole
    digits moved left over the padding to make room for the point.  0.0 is written as the digits 0
    at exponent -1; any value that _shortest does not vouch for takes its repr().
    """
    quads = tables[0]
    field, words = codes[:, at : at + _FIELD], codes.view(np.uint32)[:, at // 4 :]
    digits, e, step, ok = _shortest(x, tables)
    zero = x.view(np.uint64) == 0
    digits[zero] = 0
    e[zero] = -1
    top = digits // 10**16
    words[:, 1] = quads[top]  # "000" and the first digit, at field column 4
    digits -= top * 10**16
    top = digits // 10**8
    digits -= top * 10**8
    for col, part in ((2, top), (4, digits)):
        high = part // 10**4
        words[:, col] = quads[high]
        words[:, col + 1] = quads[part - high * 10**4]
    codes.view(np.uint16)[:, at // 2 + 1] = 0x3030  # "00" at field column 2
    if e.min() == e.max() >= 0:  # a block of wavelengths
        field[:, 6 : 7 + e[0]] = field[:, 7 : 8 + e[0]]
    else:
        for value in np.flatnonzero(np.bincount(e[e >= 0])):  # np.unique's first call allocates 1.2 MB
            rows = np.flatnonzero(e == value)
            field[rows, 6 : 7 + value] = field[rows, 7 : 8 + value]
    codes.ravel()[np.arange(at + 7, codes.size, _ROW) + e] = ord(".")
    start = np.where(e < 0, e + 6, 6)
    # the significant digits: a multiple of 1 has no trailing zero and one of 10 has one, or it
    # would be a multiple of 100, whose zeros are counted back to the last digit or the point
    count = np.where(step == 1.0, 17, 16)
    many = np.flatnonzero(step == 100.0)
    count[many] = 17 - np.argmax(field[many, 23:6:-1] != ord("0"), axis=1)
    count[zero] = 1
    stop = 7 + np.maximum(count, e + 2)
    for i in np.flatnonzero(~(ok | zero)):
        text = repr(float(x[i])).encode("ascii")
        field[i, : len(text)] = np.frombuffer(text, np.uint8)
        start[i], stop[i] = 0, len(text)
    return start * (_FIELD + 1) + stop


def _rows_text(lam: np.ndarray, inten: np.ndarray, tables: tuple) -> str:
    """"".join(f"{w!r},{i!r}\n") over the rows (lam, inten), from whole-column numpy operations:
    each row is written into a uint8 matrix, _ROW bytes a row (see _field), and the text is taken
    out with one mask."""
    spans = tables[-1]
    codes = np.empty((len(lam), _ROW), np.uint8)
    keep = np.empty((len(lam), _ROW // 8), np.uint64)  # the mask, 8 bytes at a time
    for at, column in ((0, lam), (32, inten)):
        keep[:, at // 8 : at // 8 + 3] = spans[_field(codes, at, column, tables)]
    codes[:, _FIELD] = ord(",")
    codes[:, 32 + _FIELD] = ord("\n")
    keep[:, 3] = keep[:, 7] = spans[1, 0]  # "," and "\n", each the first byte of its 8
    return str(codes[keep.view(bool)].data, "ascii")


def dumps_interferogram(ig: Interferogram) -> str:
    """Serialize to the v1 text format; raises ValueError on provenance the reader cannot give
    back (see _check_provenance)."""
    return "".join(_text_blocks(ig))


def _plain(value: str) -> str:
    """value, stripped, if it spells a number as numpy's C reader does: ASCII only and no '_'
    (float() and int() would also take '1_0' and Arabic-Indic digits)."""
    value = value.strip()
    if not value.isascii() or "_" in value:
        raise ValueError(f"not an ASCII number without '_': {value!r}")
    return value


def _bad_row(lines: list[str], lineno: int, exc: ValueError) -> FileFormatError:
    """The error for a data block that numpy refused, lines[0] being line lineno of the file: it
    names the first line that is not two numbers, by its line number in the file."""
    for lineno, row in enumerate(lines, start=lineno):
        if not row.strip():
            continue
        parts = row.split(",")
        if len(parts) != 2:
            return FileFormatError(f"line {lineno}: expected 2 columns, got {len(parts)}")
        try:
            float(_plain(parts[0])), float(_plain(parts[1]))
        except ValueError:
            return FileFormatError(f"line {lineno}: non-numeric data {row!r}")
    return FileFormatError(f"non-numeric data: {exc}")  # _plain and float() refuse what numpy does


def _header_line(header: dict[str, str], line: str, lineno: int) -> bool:
    """Read line lineno of the header into header; True if it is the column header, after which
    the data rows follow.  Raises FileFormatError on a line the header may not hold there."""
    if lineno == 1:
        if line.strip() != VERSION_LINE:
            raise FileFormatError(f"first line must be {VERSION_LINE!r}")
    elif line.lstrip().startswith("#"):
        body = line.lstrip()[1:].strip()
        key, sep, value = (part.strip() for part in body.partition("="))
        if not sep or not key:
            raise FileFormatError(f"malformed header line {lineno}: {line!r}")
        if key in header:
            raise FileFormatError(f"header line {lineno} repeats key {key!r}")
        header[key] = value
    elif line.strip() == _COLUMNS:
        return True
    else:
        raise FileFormatError(f"expected column header {_COLUMNS!r} after the header block")
    return False


def _fields(header: dict[str, str]) -> tuple[float, SumSpec, dict[str, str]]:
    """x_nm, the SumSpec and the provenance of a whole header; FileFormatError if a core key is
    missing or its value is not a number."""
    for key in _CORE_KEYS:
        if key not in header:
            raise FileFormatError(f"missing required header key {key!r}")
    try:
        x_nm = float(_plain(header["x_nm"]))
        spec = SumSpec(int(_plain(header["M"])), int(_plain(header["d"])))
    except ValueError as exc:
        raise FileFormatError(f"bad header value: {exc}") from None
    return x_nm, spec, {k: v for k, v in header.items() if k not in _CORE_KEYS}


def _lines(chunks: Iterable[str]) -> Iterator[list[str]]:
    """The lines of the text that chunks make up, as str.splitlines gives them, in one list per
    chunk that holds a cut.

    A chunk is cut after its last '\n' or its last '\r', whichever comes later; a '\r' that ends
    the chunk does not count, as it may be the first half of a '\r\n'.  The whole chunk, joined to
    what was carried, is split by str.splitlines in one call, and the lines of the rest after the
    cut are dropped: the text before the cut ends at a whole break, so they are the last ones.
    The rest is carried as a list of pieces, so a line longer than a chunk costs its length, not
    its length times its chunks.
    """
    carried: list[str] = []  # the text after the last cut, in pieces
    for chunk in chunks:
        carried.append(chunk)
        cut = max(chunk.rfind("\n"), chunk.rfind("\r", 0, -1)) + 1
        if cut:
            lines = "".join(carried).splitlines()
            rest = chunk[cut:]
            if rest:
                del lines[-len(rest.splitlines()) :]
            yield lines
            carried = [rest]
    yield "".join(carried).splitlines()


def _parse(chunks: Iterable[str]) -> Interferogram:
    """The Interferogram of the v1 text that chunks make up; raises FileFormatError on any
    deviation, the first one in the text."""
    header: dict[str, str] = {}
    parts: list[np.ndarray] = []  # one (rows, 2) array per block that holds data rows
    seen = 0  # lines before the block's first
    in_data = False
    for lines in _lines(chunks):
        first = 0  # index of the block's first line after the header
        while not in_data and first < len(lines):
            first += 1
            in_data = _header_line(header, lines[first - 1], seen + first)
        rows = list(filter(str.strip, lines[first:]))
        if rows:  # loadtxt warns on an empty block
            try:
                block = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
                if block.shape[1] != 2:
                    raise ValueError(f"{block.shape[1]} columns")
            except ValueError as exc:
                raise _bad_row(lines[first:], seen + first + 1, exc) from None
            parts.append(block)
        seen += len(lines)
    if not seen:
        raise FileFormatError(f"first line must be {VERSION_LINE!r}")
    if not in_data:
        raise FileFormatError(f"expected column header {_COLUMNS!r} after the header block")
    x_nm, spec, provenance = _fields(header)
    # the blocks go into one column-major array, which the Interferogram takes without a copy;
    # too few samples are refused there
    samples = np.empty((sum(map(len, parts)), 2), order="F")
    if parts:
        np.concatenate(parts, out=samples)
    del parts  # before the checks, whose temporaries would otherwise come on top of both copies
    try:
        return Interferogram._adopt(x_nm, spec, samples, provenance)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def loads_interferogram(text: str) -> Interferogram:
    """Parse the v1 text format; raises FileFormatError on any deviation.

    Cost: the text is read _READ_BLOCK characters at a time, as read_interferogram reads a file:
    each block is split into lines and its non-blank data rows are parsed in one C pass by
    numpy.loadtxt; only a refused block is walked again in Python, to name its line.  Beyond
    the text, the peak is about twice the samples (the parsed blocks and the array they are
    copied into) plus one block's lines.
    """
    return _parse(text[i : i + _READ_BLOCK] for i in range(0, len(text), _READ_BLOCK))


def write_interferogram(ig: Interferogram, path: Union[str, os.PathLike]) -> None:
    """Write the v1 text as UTF-8, one block of rows at a time.

    The header is encoded before the file is opened, so a failed encode leaves no file, and a
    write that fails part way removes the file it began.  Cost: the numpy pass over one block
    of _WRITE_ROWS rows and its text, about 1.3 MB at peak, beyond the samples, and about a third
    of the time of one repr() per value (0.90-1.06 s against 2.92-3.55 s at 2,000,000 px on one
    Xeon core).
    """
    blocks = _text_blocks(ig)
    head = next(blocks).encode("utf-8")
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(head)
            for block in blocks:
                fh.write(block.encode("ascii"))  # repr() of a float is ASCII
    except BaseException:
        if os.path.isfile(path):  # a partial spectrum, not a device or pipe the path names
            os.unlink(path)
        raise


def _stamp(st: os.stat_result) -> tuple[int, int, int, int]:
    """The file a stat describes and its size and mtime: equal stamps, the same bytes."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _read_rows(path: Union[str, os.PathLike]) -> Optional[Interferogram]:
    """read_interferogram's fast path: the header read by _header_line, then every data row split
    and parsed by numpy's C reader straight from the file, with no Python string per line.

    None wherever it cannot vouch that _parse gives the same, and then _parse reads the file: a
    path that is not a regular file, or that numpy would open through a decompressor; a header
    line that is not UTF-8, is over _READ_BLOCK bytes or holds a break that str.splitlines takes
    and a text file's '\n' does not; a header _parse refuses; data that is not ASCII, holds one of
    _BREAKS or holds no row (numpy warns on that); a row numpy refuses (a line of blanks among
    them); a value check; a file whose stat changed while it was read.  Past those checks both
    readers see the same lines, '\r\n' and '\r' made '\n', and numpy parses each non-empty one.
    """
    try:
        real = os.path.realpath(os.fsdecode(path))  # no URL for numpy, and the suffix it goes by
        before = os.stat(real)
        if real.endswith(_COMPRESSED) or not stat.S_ISREG(before.st_mode):
            return None
        header: dict[str, str] = {}
        skip, in_data, rows = 0, False, False
        with open(real, "rb") as fh:
            while not in_data:
                raw = fh.readline(_READ_BLOCK)
                line = raw.decode("utf-8").removesuffix("\n").removesuffix("\r")
                if not raw.endswith(b"\n") or line.splitlines() != [line]:
                    return None
                skip += 1
                in_data = _header_line(header, line, skip)
            for block in iter(lambda: fh.read(_READ_BLOCK), b""):
                if not block.isascii() or any(brk in block for brk in _BREAKS):
                    return None
                rows = rows or not block.isspace()
        if not rows:
            return None
        samples = np.loadtxt(real, delimiter=",", comments=None, skiprows=skip, ndmin=2, encoding="utf-8")
        if _stamp(os.stat(real)) != _stamp(before):
            return None
        samples = np.asfortranarray(samples)  # the row-major result goes once it is copied
        x_nm, spec, provenance = _fields(header)
        return Interferogram._adopt(x_nm, spec, samples, provenance)
    except (OSError, ValueError, FileFormatError):
        return None


def read_interferogram(path: Union[str, os.PathLike]) -> Interferogram:
    """Read a v1 file; raises FileFormatError on any deviation, or on text that is not UTF-8.

    Cost: a plain file of ASCII rows (see _read_rows) is read twice, once in _READ_BLOCK-byte
    blocks to check its bytes and once by numpy.loadtxt, which splits and parses every row in
    C; the peak is twice the samples, numpy's row-major result and its column-major copy.  Any
    other file, and any file numpy or a value check refuses, is read as loads_interferogram
    reads its text, _READ_BLOCK characters at a time, also at about twice the samples; every
    value and message comes from that reader.  Its blocks are checked as they are read, so a
    file with a format fault before its first byte that is not UTF-8 reports the format fault.
    """
    ig = _read_rows(path)
    if ig is not None:
        return ig
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _parse(iter(lambda: fh.read(_READ_BLOCK), ""))
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"not UTF-8 text: {exc}") from None
