"""Feasibility algebra for displacement and bandwidth selection.

One window at displacement x addresses targets n with trial factors
1..sqrt(n) inside the covered ratio interval; the bandwidth ratio
beta = lambda_max/lambda_min caps the single-window reach at beta**2.
Larger targets need a schedule of runs at geometrically shrinking x, either
for one number (ratio beta) or for a whole range of numbers (ratio gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DegenerateBandwidth, InsufficientBandwidth, checked_int, checked_reach, checked_real
from .interferometer import SpectralWindow

# Order of magnitude of the observable universe, in meters.
UNIVERSE_SIZE_EXPONENT_M = 27

# Most runs one plan may hold: a plan needing more has a ratio so close to 1
# that its window is too narrow to schedule.  Real plans are far below it:
# the 2.88 nm demo window needs 2,216 runs for 10**12, and 1000..1999 over
# 400-800 nm needs 7,599.
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
    """Ordered runs at geometrically decreasing x with contiguous coverage."""

    scheme: str  # "single-number" or "number-range"
    ratio: float
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


def _run_count(n_top: int, ratio: float) -> int:
    # ceil(log_ratio sqrt(n_top)), nudged so exact powers do not round up,
    # then bumped if float error left sqrt(n_top) uncovered.
    count = max(1, math.ceil(0.5 * math.log(n_top) / math.log(ratio) - 1e-12))
    while ratio**count < math.sqrt(n_top) * (1.0 - 1e-12):
        count += 1
    return count


def _schedule(
    scheme: str, n_lo: int, n_hi: int, window: SpectralWindow, ratio: float
) -> MeasurementPlan:
    """Runs at x = n_hi*lambda_min / ratio**i covering [n_hi*lambda_min/x, n_lo*lambda_max/x]."""
    # ratio**MAX_RUNS < sqrt(n_hi) in logs: no division, so a ratio of exactly 1.0 is caught too
    if MAX_RUNS * math.log(ratio) < 0.5 * math.log(n_hi):
        raise DegenerateBandwidth(f"ratio {ratio!r} is too close to 1: over {MAX_RUNS} runs needed")
    runs = []
    x = n_hi * window.lambda_min_nm
    for _ in range(_run_count(n_hi, ratio)):
        runs.append(PlanRun(x, n_hi * window.lambda_min_nm / x, n_lo * window.lambda_max_nm / x))
        x /= ratio
    return MeasurementPlan(scheme=scheme, ratio=ratio, runs=tuple(runs))


def plan_single_number(n: int, window: SpectralWindow) -> MeasurementPlan:
    """Schedule of runs over the trial factors [1, sqrt(n)] of one target.

    Run i uses x_i = n*lambda_min / beta**i, so run i covers the ratio
    interval [beta**i, beta**(i+1)] and consecutive runs meet end to end
    over [1, sqrt(n)] (the last run may overshoot by up to one beta factor).
    They do not overlap, so a trial factor at a seam beta**i lies on a window
    edge of both runs and is a strict interior maximum of neither: neither
    run shows it.  Over 400-800 nm (beta = 2) no run of the plan for
    10006 = 2 * 5003 gives a pair.
    """
    checked_int(n, "n", lo=4)
    checked_reach(lambda: n * window.lambda_max_nm, "n*lambda_max")
    return _schedule("single-number", n, n, window, _beta(window))


def plan_number_range(n_min: int, n_max: int, window: SpectralWindow) -> MeasurementPlan:
    """Schedule covering trial factors for every target in [n_min, n_max].

    The per-run shrink ratio gamma = beta * n_min/n_max is what every target
    in the range is guaranteed to advance by per run; gamma must exceed 1,
    otherwise the window cannot serve the whole range and the error reports
    the minimum bandwidth that would.
    """
    checked_int(n_min, "n_min", lo=4)
    checked_int(n_max, "n_max", lo=n_min + 1)
    checked_reach(lambda: n_max * window.lambda_max_nm, "n_max*lambda_max")
    beta = _beta(window)
    gamma = checked_reach(lambda: beta * n_min / n_max, "gamma = beta*n_min/n_max")
    if gamma <= 1.0:
        raise InsufficientBandwidth(gamma=gamma, min_beta=n_max / n_min)
    return _schedule("number-range", n_min, n_max, window, gamma)


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
