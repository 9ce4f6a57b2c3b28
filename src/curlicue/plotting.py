"""Deterministic SVG rendering of interferograms.

The chart shows intensity versus wavelength and, for up to two targets n, a
secondary axis of the rescaled variable xi_n = n*lambda/x with tick marks
at the integers, where divisors of n sit.  Output is a pure function of the
input: identical interferogram and targets give identical bytes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import checked_int, checked_reach
from .interferometer import Interferogram

_LEFT = 70
_RIGHT = 24
_WIDTH = 960
_PLOT_H = 400

_LINE_COLOR = "#2a6f9e"
_AXIS_COLOR = "#222222"
_TARGET_COLORS = ("#8c2d2d", "#2d7a3a")

# points formatted per numpy pass, like interferometer._GRID_BLOCK: a whole-spectrum pass would
# hold several times the polyline text in digit matrices
_POINT_BLOCK = 8192


def _dev(value: float) -> str:
    return f"{value:.2f}"


def _polyline_points(xs: np.ndarray, ys: np.ndarray, x_dev: Callable, y_dev: Callable) -> str:
    """" ".join(f"{x:.2f},{y:.2f}") over the points (x_dev(xs), y_dev(ys)), for device coordinates
    in [0, 10**3).

    Each block of _POINT_BLOCK points is mapped to device coordinates and written into a uint8
    matrix, one row of 16 bytes per point, "wwww.ff,wwww.ff ", from table codes; the whole parts'
    leading zeros are masked off.
    For v < 10**3, fl(100 v) is within 7.3e-12 of 100 v, so np.rint rounds it to the cents of
    '.2f' except where 100 v lies that close to a half: the few values within 1e-6 of one, exact
    binary ties such as 70.125 among them, take their cents from format().
    """
    # the ASCII bytes of "00" to "99", one uint16 each, and of ".00," to ".99," and ".00 " to
    # ".99 ", one uint32 each; built per call, in about 0.1 ms, since tables built at import
    # raised the peak RSS of perfbench's schedule workload, which never plots, from 52 to 59 MB
    digit_pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), np.uint16)
    fractions = {
        sep: np.frombuffer("".join(f".{i:02d}{sep}" for i in range(100)).encode("ascii"), np.uint32)
        for sep in ", "
    }
    codes = np.empty((min(len(xs), _POINT_BLOCK), 16), np.uint8)
    pairs, quads = codes.view(np.uint16), codes.view(np.uint32)
    keep = np.ones(codes.shape, bool)
    blocks = []
    for start in range(0, len(xs), _POINT_BLOCK):
        n = min(_POINT_BLOCK, len(xs) - start)
        for col, column, dev, sep in ((0, xs, x_dev, ","), (8, ys, y_dev, " ")):
            values = dev(column[start : start + n])
            scaled = values * 100.0
            cents = np.rint(scaled)
            for i in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6):
                cents[i] = int(format(float(values[i]), ".2f").replace(".", ""))
            whole, frac = np.divmod(cents.astype(np.int64), 100)
            hundreds, rest = np.divmod(whole, 100)
            pairs[:n, col // 2], pairs[:n, col // 2 + 1] = digit_pairs[hundreds], digit_pairs[rest]
            quads[:n, col // 4 + 1] = fractions[sep][frac]
            for k in range(3):
                keep[:n, col + k] = whole >= 10 ** (3 - k)
        blocks.append(codes[:n][keep[:n]].tobytes()[:-1].decode("ascii"))
    return " ".join(blocks)


def _line(x1, y1, x2, y2, color: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{color}" stroke-width="1"/>'


def _label(x, y, anchor: str, color: str, body) -> str:
    return f'<text x="{x}" y="{y}" text-anchor="{anchor}" fill="{color}">{body}</text>'


def interferogram_svg(ig: Interferogram, targets: Sequence[int] = ()) -> str:
    """Render a self-contained SVG chart; at most two rescaled-axis targets."""
    targets = [checked_int(n, "target", lo=2) for n in targets]
    if len(targets) > 2:
        raise ValueError("at most two rescaled-axis targets are supported")

    wavelengths = ig.wavelengths()
    intensities = ig.intensities()
    lam0, lam1 = wavelengths[[0, -1]].tolist()
    y_max = max(1.0, float(intensities.max()))
    top = 60 if len(targets) >= 2 else 28
    bottom = 96 if targets else 56
    height = _PLOT_H + top + bottom
    plot_w = _WIDTH - _LEFT - _RIGHT

    def x_dev(lam):  # a float or a block of the column
        return _LEFT + (lam - lam0) / (lam1 - lam0) * plot_w

    def y_dev(inten):
        return top + (1.0 - inten / y_max) * _PLOT_H

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{_LEFT}" y="{top}" width="{plot_w}" height="{_PLOT_H}" '
        f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>',
    ]

    # intensity axis (left)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        val = frac * y_max
        y = y_dev(val)
        out.append(_line(_LEFT - 4, _dev(y), _LEFT, _dev(y), _AXIS_COLOR))
        out.append(_label(_LEFT - 8, _dev(y + 4), "end", _AXIS_COLOR, f"{val:g}"))
    out.append(
        f'<text x="14" y="{_dev(top + _PLOT_H / 2)}" text-anchor="middle" fill="{_AXIS_COLOR}" '
        f'transform="rotate(-90 14 {_dev(top + _PLOT_H / 2)})">intensity</text>'
    )

    # wavelength axis (bottom of the frame)
    base = top + _PLOT_H
    for k in range(5):
        lam = lam0 + (lam1 - lam0) * k / 4
        x = x_dev(lam)
        out.append(_line(_dev(x), base, _dev(x), base + 4, _AXIS_COLOR))
        out.append(_label(_dev(x), base + 18, "middle", _AXIS_COLOR, f"{lam:.6g}"))
    out.append(_label(_dev(_LEFT + plot_w / 2), base + 34, "middle", _AXIS_COLOR, "wavelength (nm)"))

    # data series: x lies in [70, 936] and y in [top, top + 400], as an Interferogram's
    # wavelengths are finite and ascending and its intensities finite and >= 0
    # the points are the bulk of the chart: the final join is the one copy of their text
    points = _polyline_points(wavelengths, intensities, x_dev, y_dev)
    head, out = out, []

    # rescaled integer-ratio axes
    x_nm = ig.displacement_unit_nm
    for slot, n in enumerate(targets):
        color = _TARGET_COLORS[slot]
        if slot == 0:
            axis_y = base + 52
            tick_to = axis_y + 4
            label_y = axis_y + 18
        else:
            axis_y = top - 28
            tick_to = axis_y - 4
            label_y = axis_y - 10
        out.append(_line(_LEFT, axis_y, _LEFT + plot_w, axis_y, color))
        xi_hi = checked_reach(lambda: n * lam1 / x_nm, "n*lambda/x")
        xi_lo = n * lam0 / x_nm
        first = math.ceil(xi_lo)
        last = math.floor(xi_hi)
        count = max(0, last - first + 1)
        stride = max(1, math.ceil(count / 24))
        for k in range(first, last + 1, stride):
            lam_k = k * x_nm / n
            x = x_dev(lam_k)
            out.append(_line(_dev(x), axis_y, _dev(x), tick_to, color))
            out.append(_label(_dev(x), label_y, "middle", color, k))
        out.append(_label(_LEFT - 8, label_y, "end", color, f"n={n}"))

    spec = ig.sum_spec
    out.append(
        f'<text x="{_LEFT}" y="{height - 6}" fill="{_AXIS_COLOR}">'
        f"x = {x_nm:g} nm, M = {spec.path_count}, d = {spec.order}</text>"
    )
    out.append("</svg>")
    polyline = ('<polyline points="', points, f'" fill="none" stroke="{_LINE_COLOR}" stroke-width="1"/>')
    return "".join(["\n".join(head), "\n", *polyline, "\n", "\n".join(out), "\n"])
