"""Factor extraction from one interferogram.

A dominant maximum at wavelength lambda marks an integer ratio q = x/lambda.
Rescaling the axis to xi_n = n*lambda/x puts every divisor of a chosen
target n at integer xi_n, so a single recorded interferogram serves any
number of targets: peaks are detected once, and each target is checked
against the detected ratios by exact division.
"""

from __future__ import annotations

import bisect
import gc
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyWindow, checked_int, checked_reach, checked_real
from .expsum import PRECISION_CEILING, decompose
from .interferometer import Interferogram, SpectralWindow

DEFAULT_THRESHOLD = 0.7
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True, eq=False)
class RescaledInterferogram:
    """The same intensities relabeled on the xi_n = n*lambda/x axis: (N, 2) rows of (xi_n, intensity)."""

    n: int
    points: np.ndarray


# The records below keep every generated dataclass method but __init__.  The generated
# __init__ of a frozen class calls object.__setattr__ once per field, which makes a
# record cost 2-3x what plain stores cost, and scan_targets builds one FactorReport per
# target.  Each hand-written __init__ has the generated signature and stores straight
# into the instance dict.
@dataclass(frozen=True, init=False)
class PeakCandidate:
    """A refined dominant maximum and its nearest integer ratio."""

    lambda_peak_nm: float
    intensity_peak: float
    q: int
    residual: float

    def __init__(self, lambda_peak_nm: float, intensity_peak: float, q: int, residual: float) -> None:
        d = self.__dict__
        d["lambda_peak_nm"] = lambda_peak_nm
        d["intensity_peak"] = intensity_peak
        d["q"] = q
        d["residual"] = residual


@dataclass(frozen=True, init=False)
class FactorReport:
    """Verified factor pairs of one target, with the reachable ratio window."""

    n: int
    q_window: tuple[int, int]
    candidates: tuple[PeakCandidate, ...]
    factors: tuple[tuple[int, int], ...]
    diagnostics: dict

    def __init__(
        self,
        n: int,
        q_window: tuple[int, int],
        candidates: tuple[PeakCandidate, ...],
        factors: tuple[tuple[int, int], ...],
        diagnostics: dict,
    ) -> None:
        d = self.__dict__
        d["n"] = n
        d["q_window"] = q_window
        d["candidates"] = candidates
        d["factors"] = factors
        d["diagnostics"] = diagnostics


def rescale(ig: Interferogram, n: int) -> RescaledInterferogram:
    """Relabel the wavelength axis as xi_n = n*lambda/x; intensities untouched."""
    checked_int(n, "target", lo=2)
    lam = ig.wavelengths()
    checked_reach(lambda: n * float(lam[-1]) / ig.displacement_unit_nm, "n*lambda/x")
    xi = n * lam / ig.displacement_unit_nm
    return RescaledInterferogram(n=n, points=np.column_stack((xi, ig.intensities())))


def q_window(x_nm: float, window: SpectralWindow) -> tuple[int, int]:
    """Smallest and largest integer ratio q = x/lambda reachable in the window."""
    x = checked_real(x_nm, "x_nm", 0, strict=True)
    lo = math.ceil(checked_reach(lambda: x / window.lambda_max_nm, "x/lambda_max"))
    hi = math.floor(checked_reach(lambda: x / window.lambda_min_nm, "x/lambda_min"))
    if lo > hi:
        raise EmptyWindow(
            f"no integer ratio reachable for x={x_nm:g} nm over "
            f"[{window.lambda_min_nm:g}, {window.lambda_max_nm:g}] nm"
        )
    return lo, hi


def detect_peaks(ig: Interferogram, threshold: float = DEFAULT_THRESHOLD) -> list[PeakCandidate]:
    """Strict interior local maxima at or above threshold, parabola-refined.

    Each maximum is refined through its two neighbors to the vertex of the
    parabola through the three points (the middle point itself where the
    parabola does not open downward), from which the integer ratio q and its
    residual follow.  Candidates sharing the same q are merged keeping the
    strongest; the result is in ascending wavelength and strictly descending q.

    Cost per spectrum: one numpy pass over the N pixels, then a few over the
    k maxima, and one `decompose` call, which decides every refusal.
    """
    checked_real(threshold, "threshold", -math.inf, strict=False)
    lam = ig.wavelengths()
    inten = ig.intensities()
    mid = inten[1:-1]
    i = np.flatnonzero((mid > inten[:-2]) & (mid > inten[2:]) & (mid >= threshold)) + 1
    if not len(i):
        return []
    x1, y1 = lam[i], inten[i]
    with np.errstate(all="ignore"):  # where a >= 0, -b/(2a) may divide by zero; np.where drops it
        u0 = lam[i - 1] - x1
        u2 = lam[i + 1] - x1
        d0 = (inten[i - 1] - y1) / u0
        d2 = (inten[i + 1] - y1) / u2
        a = (d2 - d0) / (u2 - u0)
        b = d2 - a * u2
        u = np.minimum(np.maximum(-b / (2.0 * a), u0), u2)
        vertex = a < 0.0
        lam_pk = np.where(vertex, x1 + u, x1)
        int_pk = np.where(vertex, y1 + (a * u + b) * u, y1)
        ratio = ig.displacement_unit_nm / lam_pk  # an overflow is left for decompose to refuse
    # decompose refuses the first ratio, in wavelength order, that is not finite or reaches 2**40
    decompose(ratio[np.argmax(~(ratio < PRECISION_CEILING))])
    tau = ratio - np.rint(ratio)  # decompose's split and tie rule, bit for bit below 2**40
    tau[tau == 0.5] = -0.5
    k = np.rint(ratio - tau).astype(np.int64)
    # q never rises with wavelength: sorted by q, the stable sort keeps wavelength order and
    # puts each q's strongest maximum, the first on a tie, ahead of the rest
    order = np.lexsort((-int_pk, -k))[: np.count_nonzero(k >= 1)]
    order = order[np.diff(k[order], prepend=0) != 0]  # every kept q is at least 1
    return list(map(PeakCandidate, *(c[order].tolist() for c in (lam_pk, int_pk, k, tau))))


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
    division is the final arbiter.  Raises EmptyWindow as `scan_targets` does.
    """
    return scan_targets(ig, [n], threshold, epsilon)[0]


def scan_pairs(
    ig: Interferogram,
    targets: Iterable[int],
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple:
    """The report-free core of `scan_targets`: (targets, q window, in-window candidates,
    (peaks, in_window, integer_gated) counts, each target's factor pairs in target order).

    Nothing but the exact division depends on the target, so peaks are detected, windowed and
    epsilon-gated once per spectrum (see `detect_peaks` for that cost), and one sieve finds the
    divisors of every target among the gated ratios (see `_divisor_pairs`).  The q window is
    `q_window` over the first and last pixel, so a span that holds no integer ratio raises
    EmptyWindow instead of reporting no factors.  The targets are checked first, then epsilon.
    """
    target_list = list(targets)
    if set(map(type, target_list)) != {int} or min(target_list) < 4:
        target_list = [checked_int(n, "target", lo=4) for n in target_list]  # raises at the first bad one
    if not target_list:
        raise ValueError("targets must be nonempty")
    checked_real(epsilon, "epsilon", 0, strict=False)

    peaks = detect_peaks(ig, threshold)
    span = SpectralWindow(*ig.wavelengths()[[0, -1]].tolist())
    q_lo, q_hi = window = q_window(ig.displacement_unit_nm, span)
    in_window = tuple(p for p in peaks if q_lo <= p.q <= q_hi)
    gated = [p.q for p in reversed(in_window) if abs(p.residual) <= epsilon]  # distinct q, ascending
    pairs = _divisor_pairs(target_list, gated)
    return target_list, window, in_window, (len(peaks), len(in_window), len(gated)), pairs


def scan_targets(
    ig: Interferogram,
    targets: Iterable[int],
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> list[FactorReport]:
    """One FactorReport per target from one `scan_pairs` pass, which does all the checks and
    the work; each report then costs one FactorReport and two dicts, and the q window and the
    in-window candidates are immutable tuples shared by every report.

    The cyclic garbage collector is paused while the reports are built, after
    every check, the detection and the sieve, and is enabled again afterwards
    if it was enabled on entry.  The pause is process-wide: another thread
    that disables the collector during the build finds it enabled again.
    """
    targets, window, in_window, (n_peaks, n_in, n_gated), pairs = scan_pairs(ig, targets, threshold, epsilon)
    # each report gets dicts of its own: a caller may mutate one report's diagnostics.  Three
    # new containers per target would trigger collections that walk the reports built so far
    # again and again; the comprehension runs no caller code and makes no cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [
            FactorReport(
                n,
                window,
                in_window,
                factors,
                {
                    "threshold": threshold,
                    "epsilon": epsilon,
                    "counts": {
                        "peaks": n_peaks,
                        "in_window": n_in,
                        "integer_gated": n_gated,
                        "factors": len(factors),
                    },
                },
            )
            for n, factors in zip(targets, pairs)
        ]
    finally:
        if enabled:
            gc.enable()


_STEP_BLOCK = 8192  # sieve steps per block: no temporary outgrows 64 kB


def _divisor_pairs(targets: list[int], qs: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """Per target n, (q, n // q) for each of the sorted distinct qs with q | n and 1 < q < n.

    Each q in [2, max / 2] walks its multiples k*q, k >= max(ceil(min / q), 2), through the
    T distinct targets by binary search, or takes one remainder per target when T is fewer,
    in vectorised blocks: memory is linear in T and g.  Exact division confirms each hit.
    """
    try:
        arr = np.array(targets, dtype=np.int64)
    except OverflowError:  # from 2**63 up the targets stay exact Python ints
        arr = np.array(targets, dtype=object)
    order = arr.argsort()
    ranked = arr[order]
    bounds = np.concatenate(([True], ranked[1:] != ranked[:-1], [True])).nonzero()[0]
    distinct, t = ranked[bounds[:-1]], len(bounds) - 1  # the u-th has the ranks bounds[u]:bounds[u + 1]
    q = np.array(qs[bisect.bisect_left(qs, 2) : bisect.bisect_right(qs, distinct[-1] // 2)], dtype=arr.dtype)
    below = np.maximum((distinct[0] - 1) // q, 1)  # the first k, less one
    walk = distinct[-1] // q - below
    steps = np.minimum(walk, t).astype(np.int64, copy=False)
    ends = steps.cumsum()
    pairs: list[tuple[tuple[int, int], ...]] = [()] * len(targets)
    for block in range(0, int(ends[-1]) if len(ends) else 0, _STEP_BLOCK):
        ids = np.arange(block, min(block + _STEP_BLOCK, int(ends[-1])))
        i = ends.searchsorted(ids, "right")
        j, qi, walked = ids - ends[i] + steps[i], q[i], walk[i] <= t
        m = (below[i] + 1 + j) * qi  # at most max(targets) on either side of the choice
        u = j.copy()
        u[walked] = distinct.searchsorted(m[walked])
        v = distinct[u]
        hit = (np.where(walked, v == m, v % qi == 0) & (v > qi)).nonzero()[0]
        for w, d in zip(u[hit].tolist(), qi[hit].tolist()):  # in ascending q
            for k in order[bounds[w] : bounds[w + 1]].tolist():
                c, r = divmod(targets[k], d)  # exact division on Python ints confirms the hit
                pairs[k] += ((d, c),) if r == 0 else ()
    return pairs
