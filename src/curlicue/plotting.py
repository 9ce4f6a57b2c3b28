"""Deterministic SVG rendering of interferograms.

The chart shows intensity versus wavelength and, for up to two targets n, a
secondary axis of the rescaled variable xi_n = n*lambda/x with tick marks
at the integers, where divisors of n sit.  Output is a pure function of the
input: identical interferogram and targets give identical bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

from .analysis import _checked_reach, _checked_target
from .interferometer import Interferogram

_LEFT = 70
_RIGHT = 24
_WIDTH = 960
_PLOT_H = 400

_LINE_COLOR = "#2a6f9e"
_AXIS_COLOR = "#222222"
_TARGET_COLORS = ("#8c2d2d", "#2d7a3a")


def _dev(value: float) -> str:
    return f"{value:.2f}"


def interferogram_svg(ig: Interferogram, targets: Sequence[int] = ()) -> str:
    """Render a self-contained SVG chart; at most two rescaled-axis targets."""
    targets = [_checked_target(n, 2) for n in targets]
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

    def x_dev(lam: float) -> float:
        return _LEFT + (lam - lam0) / (lam1 - lam0) * plot_w

    def y_dev(inten: float) -> float:
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
        out.append(
            f'<line x1="{_LEFT - 4}" y1="{_dev(y)}" x2="{_LEFT}" y2="{_dev(y)}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_LEFT - 8}" y="{_dev(y + 4)}" text-anchor="end" '
            f'fill="{_AXIS_COLOR}">{val:g}</text>'
        )
    out.append(
        f'<text x="14" y="{_dev(top + _PLOT_H / 2)}" text-anchor="middle" fill="{_AXIS_COLOR}" '
        f'transform="rotate(-90 14 {_dev(top + _PLOT_H / 2)})">intensity</text>'
    )

    # wavelength axis (bottom of the frame)
    base = top + _PLOT_H
    for k in range(5):
        lam = lam0 + (lam1 - lam0) * k / 4
        x = x_dev(lam)
        out.append(
            f'<line x1="{_dev(x)}" y1="{base}" x2="{_dev(x)}" y2="{base + 4}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_dev(x)}" y="{base + 18}" text-anchor="middle" '
            f'fill="{_AXIS_COLOR}">{lam:.6g}</text>'
        )
    out.append(
        f'<text x="{_dev(_LEFT + plot_w / 2)}" y="{base + 34}" text-anchor="middle" '
        f'fill="{_AXIS_COLOR}">wavelength (nm)</text>'
    )

    # data series: x_dev and y_dev over whole columns, same operation order
    xs = _LEFT + (wavelengths - lam0) / (lam1 - lam0) * plot_w
    ys = top + (1.0 - intensities / y_max) * _PLOT_H
    points = " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
    out.append(
        f'<polyline points="{points}" fill="none" stroke="{_LINE_COLOR}" stroke-width="1"/>'
    )

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
        out.append(
            f'<line x1="{_LEFT}" y1="{axis_y}" x2="{_LEFT + plot_w}" y2="{axis_y}" '
            f'stroke="{color}" stroke-width="1"/>'
        )
        xi_hi = _checked_reach(n, lam1, x_nm)
        xi_lo = n * lam0 / x_nm
        first = math.ceil(xi_lo)
        last = math.floor(xi_hi)
        count = max(0, last - first + 1)
        stride = max(1, math.ceil(count / 24))
        for k in range(first, last + 1, stride):
            lam_k = k * x_nm / n
            x = x_dev(lam_k)
            out.append(
                f'<line x1="{_dev(x)}" y1="{axis_y}" x2="{_dev(x)}" y2="{tick_to}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_dev(x)}" y="{label_y}" text-anchor="middle" fill="{color}">{k}</text>'
            )
        out.append(
            f'<text x="{_LEFT - 8}" y="{label_y}" text-anchor="end" fill="{color}">n={n}</text>'
        )

    spec = ig.sum_spec
    out.append(
        f'<text x="{_LEFT}" y="{height - 6}" fill="{_AXIS_COLOR}">'
        f"x = {x_nm:g} nm, M = {spec.path_count}, d = {spec.order}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
