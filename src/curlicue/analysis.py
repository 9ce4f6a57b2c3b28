"""Factor extraction from one interferogram.

A dominant maximum at wavelength lambda marks an integer ratio q = x/lambda.
Rescaling the axis to xi_n = n*lambda/x puts every divisor of a chosen
target n at integer xi_n, so a single recorded interferogram serves any
number of targets: peaks are detected once, and each target is checked
against the detected ratios by exact division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyWindow, checked_int, checked_reach, checked_real
from .expsum import decompose
from .interferometer import Interferogram, SpectralWindow

DEFAULT_THRESHOLD = 0.7
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True, eq=False)
class RescaledInterferogram:
    """The same intensities relabeled on the xi_n = n*lambda/x axis: (N, 2) rows of (xi_n, intensity)."""

    n: int
    points: np.ndarray


@dataclass(frozen=True)
class PeakCandidate:
    """A refined dominant maximum and its nearest integer ratio."""

    lambda_peak_nm: float
    intensity_peak: float
    q: int
    residual: float


@dataclass(frozen=True)
class FactorReport:
    """Verified factor pairs of one target, with the reachable ratio window."""

    n: int
    q_window: tuple[int, int]
    candidates: tuple[PeakCandidate, ...]
    factors: tuple[tuple[int, int], ...]
    diagnostics: dict


def rescale(ig: Interferogram, n: int) -> RescaledInterferogram:
    """Relabel the wavelength axis as xi_n = n*lambda/x; intensities untouched."""
    checked_int(n, "target", lo=2)
    lam = ig.wavelengths()
    checked_reach(lambda: n * float(lam[-1]) / ig.displacement_unit_nm, "n*lambda/x")
    xi = n * lam / ig.displacement_unit_nm
    return RescaledInterferogram(n=n, points=np.column_stack((xi, ig.intensities())))


def _ratio_bounds(x_nm: float, lam_lo: float, lam_hi: float) -> tuple[int, int]:
    q_lo = checked_reach(lambda: x_nm / lam_hi, "x/lambda_max")
    return math.ceil(q_lo), math.floor(checked_reach(lambda: x_nm / lam_lo, "x/lambda_min"))


def q_window(x_nm: float, window: SpectralWindow) -> tuple[int, int]:
    """Smallest and largest integer ratio q = x/lambda reachable in the window."""
    x = checked_real(x_nm, "x_nm", 0, strict=True)
    lo, hi = _ratio_bounds(x, window.lambda_min_nm, window.lambda_max_nm)
    if lo > hi:
        raise EmptyWindow(
            f"no integer ratio reachable for x={x_nm:g} nm over "
            f"[{window.lambda_min_nm:g}, {window.lambda_max_nm:g}] nm"
        )
    return lo, hi


def _parabolic_vertex(
    x0: float, x1: float, x2: float, y0: float, y1: float, y2: float
) -> tuple[float, float]:
    """Vertex of the parabola through three points; falls back to the middle one."""
    u0 = x0 - x1
    u2 = x2 - x1
    d0 = (y0 - y1) / u0
    d2 = (y2 - y1) / u2
    a = (d2 - d0) / (u2 - u0)
    if not a < 0.0:
        return x1, y1
    b = d2 - a * u2
    u = -b / (2.0 * a)
    u = min(max(u, u0), u2)
    return x1 + u, y1 + (a * u + b) * u


def detect_peaks(ig: Interferogram, threshold: float = DEFAULT_THRESHOLD) -> list[PeakCandidate]:
    """Strict interior local maxima at or above threshold, parabola-refined.

    Each maximum is refined through its two neighbors to a sub-pixel peak
    wavelength, from which the integer ratio q and its residual follow.
    Candidates sharing the same q are merged keeping the strongest; the
    result is ordered by wavelength.
    """
    checked_real(threshold, "threshold", -math.inf, strict=False)
    lam = ig.wavelengths()
    inten = ig.intensities()
    if lam.size < 3:
        return []
    mid = inten[1:-1]
    mask = (mid > inten[:-2]) & (mid > inten[2:]) & (mid >= threshold)
    best: dict[int, PeakCandidate] = {}
    for i in np.flatnonzero(mask) + 1:
        lam_pk, int_pk = _parabolic_vertex(
            lam[i - 1], lam[i], lam[i + 1], inten[i - 1], inten[i], inten[i + 1]
        )
        dec = decompose(ig.displacement_unit_nm / lam_pk)
        if dec.k < 1:
            continue
        cand = PeakCandidate(float(lam_pk), float(int_pk), dec.k, dec.tau)
        known = best.get(dec.k)
        if known is None or cand.intensity_peak > known.intensity_peak:
            best[dec.k] = cand
    return sorted(best.values(), key=lambda c: c.lambda_peak_nm)


def extract_factors(
    ig: Interferogram,
    n: int,
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> FactorReport:
    """Verified factor pairs (q, n/q) of n readable from this interferogram.

    Peaks only propose candidates: a pair is reported when the refined ratio
    passes the integer-residual gate AND q divides n exactly, with
    1 < q < n.  The epsilon gate trades compute, never correctness; exact
    division is the final arbiter.
    """
    return scan_targets(ig, [n], threshold, epsilon)[0]


def scan_targets(
    ig: Interferogram,
    targets: Iterable[int],
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> list[FactorReport]:
    """One FactorReport per target from a single detection and gating pass.

    Nothing but the exact division depends on the target, so peaks are
    detected, windowed and epsilon-gated once, and each target then costs
    one n % q per gated ratio.
    """
    target_list = [checked_int(n, "target", lo=4) for n in targets]
    if not target_list:
        raise ValueError("targets must be nonempty")
    checked_real(epsilon, "epsilon", 0, strict=False)

    # per spectrum
    peaks = detect_peaks(ig, threshold)
    lam_lo, lam_hi = ig.wavelengths()[[0, -1]].tolist()  # Python floats keep the bounds scalar
    q_lo, q_hi = _ratio_bounds(ig.displacement_unit_nm, lam_lo, lam_hi)
    in_window = tuple(p for p in peaks if q_lo <= p.q <= q_hi)
    gated = [p for p in in_window if abs(p.residual) <= epsilon]
    gated_qs = sorted({p.q for p in gated})
    counts = {"peaks": len(peaks), "in_window": len(in_window), "integer_gated": len(gated)}

    # per target: exact division decides
    reports = []
    for n in target_list:
        factors = tuple((q, n // q) for q in gated_qs if 1 < q < n and n % q == 0)
        counts_n = {**counts, "factors": len(factors)}
        diagnostics = {"threshold": threshold, "epsilon": epsilon, "counts": counts_n}
        reports.append(FactorReport(n, (q_lo, q_hi), in_window, factors, diagnostics))
    return reports
