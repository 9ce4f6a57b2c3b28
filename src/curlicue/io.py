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

Floats are written with repr(), i.e. the shortest decimal that parses back
to the identical float64, so parse(serialize(ig)) == ig bit for bit.  A
number, in a data cell or in x_nm, M and d, is read as numpy's C reader
reads it: ASCII only and no '_', so '1_0' and non-ASCII digits are refused.

Neither direction holds the whole text.  The writer formats _WRITE_ROWS rows
at a time and writes each block before it formats the next.  The block reader
(loads_interferogram, and read_interferogram's fallback) parses _READ_BLOCK
characters at a time, cuts each block after its last '\n' or '\r' (not a '\r'
that ends the block, which may begin a '\r\n'), splits the block once and
drops the lines after the cut, carries the rest into the next block, and
copies the parsed blocks into one array at the end.  read_interferogram first
reads the header by the same rules and checks the rest of a plain file in
_READ_BLOCK-byte blocks; rows that are ASCII and hold no break but '\n' and
'\r' split alike for numpy and str.splitlines, so numpy.loadtxt then parses
them all from the file in one C pass, and any refusal goes back to the block
reader, which words every error.  So a write holds one block of text beyond
its samples, and a read peaks at about twice the samples it returns
(tracemalloc: 0.05x and 2.0x at 2,000,000 px).
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
_WRITE_ROWS = 8192  # rows formatted per block of text written
_READ_BLOCK = 1 << 18  # characters of text parsed, or bytes of a file checked, per block read
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # numpy.loadtxt opens a path so named decompressed
_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"  # the ASCII breaks of str.splitlines besides '\n' and '\r'


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
    for start in range(0, len(lam), _WRITE_ROWS):
        rows = zip(lam[start : start + _WRITE_ROWS].tolist(), inten[start : start + _WRITE_ROWS].tolist())
        yield "".join([f"{w!r},{i!r}\n" for w, i in rows])


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
    write that fails part way removes the file it began.  Cost: one block of rows as text,
    about 0.3 MB, beyond the samples.
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
