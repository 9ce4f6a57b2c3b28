"""Exception types shared across the package, and the one copy of each argument rule."""

import math
import sys
from typing import Callable


class CurlicueError(Exception):
    """Base class for every error raised by this package."""


class PrecisionExceeded(CurlicueError):
    """Ratio too large for float64 to carry a meaningful fractional residual."""


class UnderSampled(CurlicueError):
    """Pixel grid too coarse to resolve the main interference lobes."""

    def __init__(self, required: int, given: int):
        super().__init__(
            f"pixel_count={given} undersamples the interferogram; need at "
            f"least {required} pixels (or pass allow_undersampled=True, or "
            f"--allow-undersampled on the command line)"
        )
        self.required = required
        self.given = given


class IndexOutOfRange(CurlicueError):
    """Arm index outside 1..M."""


class EmptyWindow(CurlicueError):
    """No integer ratio q = x/lambda is reachable inside the spectral window."""


class DegenerateBandwidth(CurlicueError):
    """Spectral window too narrow to build a multi-run schedule."""


class InsufficientBandwidth(CurlicueError):
    """Bandwidth ratio cannot cover the requested range of targets."""

    def __init__(self, gamma: float, min_beta: float):
        super().__init__(
            f"per-run shrink ratio gamma={gamma:.6g} <= 1; covering the range "
            f"needs a bandwidth ratio beta > {min_beta:.6g}"
        )
        self.gamma = gamma
        self.min_beta = min_beta


class OutOfRange(CurlicueError):
    """Integer argument outside the supported range, or a quotient of lengths outside float64."""


class FileFormatError(CurlicueError):
    """Interferogram file does not conform to the v1 format."""


def checked_int(value, name: str, lo=None, hi=None, error: type = ValueError) -> int:
    """value itself; `error` unless it is an int, not a bool, within [lo, hi] (None: unbounded)."""
    if isinstance(value, int) and not isinstance(value, bool):
        if (lo is None or value >= lo) and (hi is None or value <= hi):
            return value
    rule = " and".join(f" {op} {bound}" for op, bound in ((">=", lo), ("<=", hi)) if bound is not None)
    raise error(f"{name} must be an integer{rule}, got {value!r}")


def checked_real(value, name: str, lo: float, strict: bool) -> float:
    """value as a float; ValueError unless it is a finite int or float, not a bool,
    and > lo (>= lo unless strict)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max and (value > lo if strict else value >= lo):
            return float(value)
    raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {lo:g}, got {value!r}")


def checked_reach(quotient: Callable[[], float], what: str) -> float:
    """quotient() of lengths as the caller wrote it (lambda: n * lam / x; x**2 stays x**2, not x*x);
    OutOfRange when it leaves float64: an int too big for a float, a zero divisor, inf or nan."""
    try:
        reach = quotient()
        if math.isfinite(reach):
            return reach
    except (OverflowError, ZeroDivisionError):
        pass
    raise OutOfRange(f"{what} is outside the float64 range")
