"""Feasibility algebra for displacement and bandwidth selection.

One window at displacement x covers the trial factors n*lambda/x of a
target n from n*lambda_min/x to n*lambda_max/x; the bandwidth ratio
beta = lambda_max/lambda_min caps the single-window reach at beta**2.
Larger targets need a schedule of runs at geometrically shrinking x, either
for one number (span beta) or for a whole range of numbers (span gamma).
A schedule covers the trial factors [2, sqrt(n)]: no proper divisor of n
exceeds n/2, so no run is spent on the trial factors [1, 2).  Its runs
overlap, so that every integer trial factor lies inside some run by at
least `seam_margin` in q, where its peak is a strict interior maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DegenerateBandwidth, InsufficientBandwidth, checked_int, checked_reach, checked_real
from .expsum import SumSpec, main_lobe_halfwidth
from .interferometer import SpectralWindow

# Order of magnitude of the observable universe, in meters.
UNIVERSE_SIZE_EXPONENT_M = 27

# Most runs one plan may hold: a plan needing more has a ratio so close to 1
# that its window is too narrow to schedule.  Real plans are far below it:
# the 2.88 nm demo window needs 2,105 runs for 10**12, and 10**6..1,998,000
# over 400-800 nm needs 8,452.
MAX_RUNS = 100_000


@dataclass(frozen=True)
class BandwidthSummary:
    """Bandwidth ratio of a window and the single-window target ceiling beta**2."""

    beta: float
    single_window_n_max: float


@dataclass(frozen=True)
class PlanRun:
    """One measurement: displacement x_nm covering ratios xi in [xi_lo, xi_hi]."""

    x_nm: float
    xi_lo: float
    xi_hi: float


@dataclass(frozen=True)
class MeasurementPlan:
    """Ordered runs at geometrically decreasing x whose seams overlap.

    ratio is the span of trial factors every run covers (beta, or gamma for a
    range); consecutive displacements differ by ratio * (1 - overlap).
    """

    scheme: str  # "single-number" or "number-range"
    ratio: float
    overlap: float
    runs: tuple[PlanRun, ...]

    @property
    def n_runs(self) -> int:
        return len(self.runs)


@dataclass(frozen=True)
class DisplacementEstimate:
    """Required displacement for a digit-count target, mantissa * 10**exponent meters."""

    mantissa: float
    exponent: int

    @property
    def exceeds_universe_size(self) -> bool:
        return self.exponent > UNIVERSE_SIZE_EXPONENT_M or (
            self.exponent == UNIVERSE_SIZE_EXPONENT_M and self.mantissa >= 1.0
        )


def factorable_range(x_nm: float, window: SpectralWindow) -> Optional[tuple[float, float]]:
    """Interval (n_min, n_max) of targets addressable by one run at displacement x.

    n_min = (x/lambda_max)**2 comes from needing trial factors down to
    sqrt(n); n_max = x/lambda_min from the largest reachable ratio.  Returns
    None when the interval is empty (x too large for the bandwidth).
    """
    x = checked_real(x_nm, "x_nm", 0, strict=True)
    n_min = checked_reach(lambda: (x / window.lambda_max_nm) ** 2, "(x/lambda_max)**2")
    n_max = checked_reach(lambda: x / window.lambda_min_nm, "x/lambda_min")
    # the tolerance keeps the exact collapse point x = lambda_max**2/lambda_min
    # feasible in the face of rounding
    if n_min > n_max * (1.0 + 1e-12):
        return None
    return n_min, n_max


def max_displacement(window: SpectralWindow) -> float:
    """Largest displacement (nm) for which factorable_range is still nonempty."""
    return checked_reach(lambda: window.lambda_max_nm**2 / window.lambda_min_nm, "max displacement")


def _beta(window: SpectralWindow) -> float:
    return checked_reach(lambda: window.lambda_max_nm / window.lambda_min_nm, "lambda_max/lambda_min")


def bandwidth_summary(window: SpectralWindow) -> BandwidthSummary:
    """Bandwidth ratio beta and the single-window ceiling beta**2."""
    beta = _beta(window)
    return BandwidthSummary(beta=beta, single_window_n_max=checked_reach(lambda: beta * beta, "beta**2"))


def seam_margin(spec: SumSpec) -> float:
    """Distance in q = x/lambda that keeps a peak clear of a run's window edges.

    One main-lobe halfwidth, so that the lobe's top half lies inside the
    window, plus two pixel steps, so that the peak is a strict interior
    maximum with both neighbours inside.  At `min_pixels` a pixel step in q,
    x*dlambda/lambda**2, is at most a quarter halfwidth, at lambda_min.
    """
    return 1.5 * main_lobe_halfwidth(spec)


def _overlap(n_lo: int, spec: SumSpec) -> tuple[float, float]:
    """(mu, eps): the margin relative to the smallest q of a range's trial factors, and the overlap.

    A trial factor t <= sqrt(n) of a target n >= n_lo has q = n/t >= sqrt(n_lo), so a margin of
    mu * q >= seam_margin(spec) suffices; eps = 2*mu/(1 + mu) leaves mu at each side of a seam.
    """
    mu = seam_margin(spec) / math.sqrt(n_lo)
    return mu, 2.0 * mu / (1.0 + mu)


def _schedule(
    scheme: str, n_lo: int, n_hi: int, window: SpectralWindow, ratio: float, spec: SumSpec
) -> MeasurementPlan:
    """Runs over the trial factors [2, isqrt(n_hi)] of every target in [n_lo, n_hi].

    Run i at x_i covers the trial factors [n_hi*lambda_min/x_i, n_lo*lambda_max/x_i] of every
    target, a span of `ratio`.  A trial factor in its inner span, shrunk by (1 + mu) at the bottom
    and (1 - mu) at the top, lies at least `seam_margin` in q inside the window (see `_overlap`).
    Run 0 starts just below trial factor 2, x_0 = n_hi*lambda_min*(1 + eps)/2, and each later x
    shrinks by ratio*(1 - eps), so each inner span starts where the one before it ends, until an
    inner span reaches isqrt(n_hi).
    """
    mu, eps = _overlap(n_lo, spec)
    shrink = ratio * (1.0 - eps)
    top = math.isqrt(n_hi)
    x = n_hi * window.lambda_min_nm * (1.0 + eps) / 2.0
    reach = n_lo * window.lambda_max_nm / x * (1.0 - mu)  # the top of run 0's inner span
    # 1 + ceil(log_shrink(top/reach)) runs, compared in logs: a shrink of at most 1 is caught too
    if top > reach and MAX_RUNS * math.log(shrink) < math.log(top / reach):
        raise DegenerateBandwidth(f"per-run shrink {shrink!r} is below or too close to 1: over {MAX_RUNS} runs")
    runs = []
    while True:
        runs.append(PlanRun(x, n_hi * window.lambda_min_nm / x, n_lo * window.lambda_max_nm / x))
        if runs[-1].xi_hi * (1.0 - mu) >= top:
            return MeasurementPlan(scheme=scheme, ratio=ratio, overlap=eps, runs=tuple(runs))
        x /= shrink


def plan_single_number(n: int, window: SpectralWindow, spec: SumSpec = SumSpec(3, 2)) -> MeasurementPlan:
    """Schedule of runs over the trial factors [2, sqrt(n)] of one target, for the arms of spec.

    Run i covers the trial factors [beta**i * (1 - eps)**i, beta**(i+1) * (1 - eps)**i] * 2/(1 + eps),
    where eps = `overlap` is set by `seam_margin` at q = sqrt(n): consecutive runs overlap, and every
    integer trial factor up to sqrt(n) is a strict interior maximum of at least one run.  A window
    whose beta*(1 - eps) is at most 1, or too close to 1, raises DegenerateBandwidth.
    """
    checked_int(n, "n", lo=4)
    checked_reach(lambda: n * window.lambda_max_nm, "n*lambda_max")
    return _schedule("single-number", n, n, window, _beta(window), spec)


def plan_number_range(
    n_min: int, n_max: int, window: SpectralWindow, spec: SumSpec = SumSpec(3, 2)
) -> MeasurementPlan:
    """Schedule covering the trial factors [2, sqrt(n)] of every target n in [n_min, n_max].

    The span gamma = beta * n_min/n_max is what every target in the range is guaranteed to
    advance by per run; less the overlap eps (see `plan_single_number`, at q = sqrt(n_min)),
    gamma*(1 - eps) must exceed 1, otherwise the window cannot serve the whole range and the
    error reports the minimum bandwidth that would.
    """
    checked_int(n_min, "n_min", lo=4)
    checked_int(n_max, "n_max", lo=n_min + 1)
    checked_reach(lambda: n_max * window.lambda_max_nm, "n_max*lambda_max")
    beta = _beta(window)
    gamma = checked_reach(lambda: beta * n_min / n_max, "gamma = beta*n_min/n_max")
    eps = _overlap(n_min, spec)[1]
    if gamma * (1.0 - eps) <= 1.0:
        raise InsufficientBandwidth(gamma=gamma * (1.0 - eps), min_beta=n_max / (n_min * (1.0 - eps)))
    return _schedule("number-range", n_min, n_max, window, gamma, spec)


def displacement_estimate(digits: int, lambda_min_nm: float) -> DisplacementEstimate:
    """Displacement x = 10**digits * lambda_min needed to reach a digit-count
    target in one window, reported in meters as mantissa * 10**exponent.

    Exponent arithmetic is exact in the digit count, so arbitrarily large
    targets are representable.  Check exceeds_universe_size before taking
    the number seriously as an experiment.
    """
    checked_int(digits, "digits", lo=1)
    checked_real(lambda_min_nm, "lambda_min_nm", 0, strict=True)
    lam_log10 = math.log10(lambda_min_nm)
    lam_exp = math.floor(lam_log10)
    mantissa = 10.0 ** (lam_log10 - lam_exp)
    exponent = digits + lam_exp - 9  # nm -> m
    if mantissa >= 10.0:
        mantissa /= 10.0
        exponent += 1
    return DisplacementEstimate(mantissa=mantissa, exponent=exponent)
