"""Exact integer ground truth: trial-division factorization and divisor queries.

Every factor pair the analysis pipeline reports is ultimately checked by
exact integer arithmetic; this module is the independent reference for
those checks.  It is deliberately plain (6k+-1 wheel, no probabilistic
shortcuts) so that it stays trivially auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRange, checked_int

_MAX_N = 2**63 - 1


@dataclass(frozen=True)
class Factorization:
    """n as an ordered product of prime powers."""

    n: int
    prime_powers: tuple[tuple[int, int], ...]

    @property
    def is_prime(self) -> bool:
        return self.prime_powers == ((self.n, 1),)

    def divisors(self) -> list[int]:
        """All divisors of n, ascending."""
        divs = [1]
        for prime, exp in self.prime_powers:
            divs = [d * prime**k for d in divs for k in range(exp + 1)]
        return sorted(divs)


def trial_division(n: int) -> Factorization:
    """Complete prime factorization of n by trial division, 2 <= n < 2**63."""
    checked_int(n, "n", 2, _MAX_N, error=OutOfRange)
    remaining = n
    powers: list[tuple[int, int]] = []
    for p in (2, 3):
        if remaining % p == 0:
            exp = 0
            while remaining % p == 0:
                remaining //= p
                exp += 1
            powers.append((p, exp))
    f = 5
    while f * f <= remaining:
        for cand in (f, f + 2):
            if remaining % cand == 0:
                exp = 0
                while remaining % cand == 0:
                    remaining //= cand
                    exp += 1
                powers.append((cand, exp))
        f += 6
    if remaining > 1:
        powers.append((remaining, 1))
    return Factorization(n, tuple(powers))


def divisors_in_window(n: int, lo: int, hi: int) -> list[int]:
    """Divisors d of n with lo <= d <= hi, ascending; 1 <= n < 2**63."""
    checked_int(lo, "lo", 1, error=OutOfRange)
    checked_int(hi, "hi", lo, error=OutOfRange)
    checked_int(n, "n", 1, _MAX_N, error=OutOfRange)
    if n == 1:
        return [1] if lo == 1 else []
    return [d for d in trial_division(n).divisors() if lo <= d <= hi]
