"""Interferogram file format v1: a commented CSV that round-trips exactly.

Layout::

    # curlicue-interferogram v1
    # x_nm=<float>
    # M=<int>
    # d=<int>
    # r_nm=<...>          further "# key=value" lines are provenance and are
    # seed=<...>          preserved verbatim through parse/serialize cycles,
    ...                   including keys this package does not know about
    lambda_nm,intensity
    <float>,<float>
    ...

Floats are written with repr(), i.e. the shortest decimal that parses back
to the identical float64, so parse(serialize(ig)) == ig bit for bit.  A
number, in a data cell or in x_nm, M and d, is read as numpy's C reader
reads it: ASCII only and no '_', so '1_0' and non-ASCII digits are refused.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from .errors import FileFormatError
from .expsum import SumSpec
from .interferometer import Interferogram

VERSION_LINE = "# curlicue-interferogram v1"
_COLUMNS = "lambda_nm,intensity"
_CORE_KEYS = ("x_nm", "M", "d")
_ORDERED_PROVENANCE = ("r_nm", "seed", "mirror_sigma_nm", "detector_sigma")


def dumps_interferogram(ig: Interferogram) -> str:
    """Serialize to the v1 text format."""
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
    lines += [f"{w!r},{i!r}" for w, i in zip(ig.wavelengths().tolist(), ig.intensities().tolist())]
    return "\n".join(lines) + "\n"


def _plain(value: str) -> str:
    """value, stripped, if it spells a number as numpy's C reader does: ASCII only and no '_'
    (float() and int() would also take '1_0' and Arabic-Indic digits)."""
    value = value.strip()
    if not value.isascii() or "_" in value:
        raise ValueError(f"not an ASCII number without '_': {value!r}")
    return value


def _bad_row(lines: list[str], first: int, exc: ValueError) -> FileFormatError:
    """The error for a data block, from lines[first] on, that numpy refused: it names the first
    line that is not two numbers, by its line number in the file."""
    for lineno, row in enumerate(lines[first:], start=first + 1):
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


def loads_interferogram(text: str) -> Interferogram:
    """Parse the v1 text format; raises FileFormatError on any deviation.

    Cost: the text is split into lines once, and the non-blank data rows are parsed in one C
    pass by numpy.loadtxt; only a refused block is walked again in Python, to name its line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != VERSION_LINE:
        raise FileFormatError(f"first line must be {VERSION_LINE!r}")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].lstrip().startswith("#"):
        body = lines[i].lstrip()[1:].strip()
        key, sep, value = body.partition("=")
        if not sep or not key.strip():
            raise FileFormatError(f"malformed header line {i + 1}: {lines[i]!r}")
        header[key.strip()] = value.strip()
        i += 1
    if i >= len(lines) or lines[i].strip() != _COLUMNS:
        raise FileFormatError(f"expected column header {_COLUMNS!r} after the header block")
    rows = list(filter(str.strip, lines[i + 1 :]))
    samples = np.empty((0, 2))  # loadtxt warns on an empty block; the sample count refuses it below
    if rows:
        try:
            samples = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
            if samples.shape[1] != 2:
                raise ValueError(f"{samples.shape[1]} columns")
        except ValueError as exc:
            raise _bad_row(lines, i + 1, exc) from None
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


def write_interferogram(ig: Interferogram, path: Union[str, os.PathLike]) -> None:
    """Write the v1 text as UTF-8; the bytes are built first, so a failed encode leaves no file."""
    data = dumps_interferogram(ig).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def read_interferogram(path: Union[str, os.PathLike]) -> Interferogram:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"not UTF-8 text: {exc}") from None
    return loads_interferogram(text)
