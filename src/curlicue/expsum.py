"""Truncated polynomial-phase exponential sums (curlicue functions).

The normalized sum

    s(xi) = (1/M) * sum_{m=0}^{M-1} exp(2*pi*i * m**d * xi)

is the building block of the multi-arm interferogram: |s(x/lambda)|**2 is
the detected intensity at wavelength lambda for displacement unit x.  The
sum is periodic in xi with period 1 and |s|**2 is symmetric about every
integer, so all structure lives in the residual of xi from its nearest
integer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import PrecisionExceeded, checked_int, checked_reach

# Above this magnitude a float64 leaves fewer than ~12 bits for the
# fractional residual, so the integer/residual split stops being meaningful.
PRECISION_CEILING = float(2**40)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SumSpec:
    """Shape of the sum: number of interfering paths and phase polynomial order."""

    path_count: int
    order: int = 2

    def __post_init__(self) -> None:
        checked_int(self.path_count, "path_count", lo=2)
        checked_int(self.order, "order", lo=2)


@dataclass(frozen=True)
class PhaseDecomposition:
    """Split of a ratio into its nearest integer k and residual tau, xi = k + tau."""

    k: int
    tau: float


def decompose(xi: float) -> PhaseDecomposition:
    """Split xi into nearest integer and residual with tau in [-1/2, 1/2).

    Ties at half-integers resolve upward, n + 1/2 -> (n + 1, -1/2), keeping
    the interval half-open.  Raises PrecisionExceeded once |xi| reaches 2**40,
    where float64 no longer resolves the residual to ~10 significant bits.
    """
    x = float(xi)
    if not math.isfinite(x):
        raise ValueError(f"xi must be finite, got {x!r}")
    if abs(x) >= PRECISION_CEILING:
        raise PrecisionExceeded(f"|xi| = {abs(x):.6g} is at or above the 2**40 precision ceiling")
    tau = math.remainder(x, 1.0)
    if tau == 0.5:
        tau = -0.5
    return PhaseDecomposition(int(round(x - tau)), tau)


def evaluate(spec: SumSpec, xi: float) -> complex:
    """The normalized sum s(xi); total over all finite xi, magnitude <= 1.

    Each arm phase m**d * xi is reduced modulo 1 in two exact steps (xi to
    its residual, then the integer-scaled residual to its own) before the
    2*pi multiply, which keeps the phase accurate even for large xi.
    OutOfRange when an arm's m**d leaves float64 (from d = 1024 at M = 3).
    """
    tau = math.remainder(float(xi), 1.0)
    total = 0j
    for m in range(spec.path_count):
        c = checked_reach(lambda: float(m**spec.order), "the arm coefficient m**d")
        u = math.remainder(c * tau, 1.0)
        total += cmath.exp(1j * (_TWO_PI * u))
    return total / spec.path_count


def intensity(spec: SumSpec, xi: float) -> float:
    """Source-normalized detected intensity |s(xi)|**2 in [0, 1].

    Equals 1 exactly when all arm phases coincide modulo 2*pi, i.e. at
    integer xi.
    """
    z = evaluate(spec, xi)
    value = z.real * z.real + z.imag * z.imag
    return 1.0 if value > 1.0 else value


@lru_cache(maxsize=None)
def main_lobe_halfwidth(spec: SumSpec) -> float:
    """Distance from an integer at which the intensity first drops below 1/2.

    There is no closed form for general (M, d); the crossing is bracketed by
    an outward scan from 0 and then bisected.  The second-order expansion of
    |s|**2 around 0 sets the scan step, so narrow lobes at large M or d are
    not stepped over.  OutOfRange when the mean or the variance of the arm
    coefficients m**d leaves float64 (from d = 513 at M = 3).
    """
    coeffs = [m**spec.order for m in range(spec.path_count)]
    mean = checked_reach(lambda: sum(coeffs) / spec.path_count, "the mean of the arm coefficients m**d")
    var = checked_reach(
        lambda: sum(c * c for c in coeffs) / spec.path_count - mean * mean, "the variance of the arm coefficients m**d"
    )
    scale = math.sqrt(0.5) / (_TWO_PI * math.sqrt(var))
    step = min(scale / 8.0, 0.01)
    lo = 0.0
    hi = step
    while hi < 0.5 and intensity(spec, hi) >= 0.5:
        lo = hi
        hi += step
    hi = min(hi, 0.5)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if intensity(spec, mid) < 0.5:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
