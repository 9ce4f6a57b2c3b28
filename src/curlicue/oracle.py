"""Exact integer ground truth: factorization and divisor queries.

Every factor pair the analysis pipeline reports is ultimately checked by
exact integer arithmetic; this module is the independent reference for
those checks.  It stays plain enough to audit: trial division by 2, 3 and
a 6k+-1 wheel, which stops as soon as the cofactor left is prime.  The
primality test is Miller-Rabin over the first 12 prime bases, which is
deterministic (exact, not probabilistic) for every n < 3.18e23, and so on
the whole domain n < 2**63.

Cost of one query: a prime, 12 modular exponentiations; a composite, trial
division up to its second-largest prime factor (about 10**9 divisions for a
balanced semiprime near 2**63); a divisor window with min(hi, n) - lo < 2048,
one division per integer in [lo, min(hi, n)], about as long as one
Miller-Rabin test at most.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRange, checked_int

_MAX_N = 2**63 - 1
# deterministic Miller-Rabin bases: the smallest strong pseudoprime to all of them
# is 318665857834031151167461, about 3.19e23
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# windows with min(hi, n) - lo below this are scanned directly: 2048 divisions take
# about 190 us, as long as one Miller-Rabin test of a 13- to 19-digit prime
# (120-260 us), so a scan costs at most about one primality test more than the
# factorization it skips
_SCAN_WIDTH = 2048


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


def _is_prime(m: int) -> bool:
    """Whether m >= 2 is prime, by Miller-Rabin over _BASES; exact for m < 3.18e23."""
    for p in _BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _divide_out(m: int, p: int, powers: list[tuple[int, int]]) -> int:
    """m with every factor p divided out; appends (p, exponent) to powers."""
    exp = 0
    while m % p == 0:
        m //= p
        exp += 1
    powers.append((p, exp))
    return m


def trial_division(n: int) -> Factorization:
    """Complete prime factorization of n, 2 <= n < 2**63.

    Divides out 2 and 3, then walks the 6k+-1 wheel until the cofactor is 1
    or prime; the cofactor is tested after 2 and 3 and after every prime
    power divided out.
    """
    checked_int(n, "n", 2, _MAX_N, error=OutOfRange)
    remaining = n
    powers: list[tuple[int, int]] = []
    for p in (2, 3):
        if remaining % p == 0:
            remaining = _divide_out(remaining, p, powers)
    f = 5
    while remaining > 1:
        if _is_prime(remaining):
            powers.append((remaining, 1))
            break
        # a composite with no factor below f has one at or below its square root
        while remaining % f and remaining % (f + 2):
            f += 6
        remaining = _divide_out(remaining, f if remaining % f == 0 else f + 2, powers)
    return Factorization(n, tuple(powers))


def divisors_in_window(n: int, lo: int, hi: int) -> list[int]:
    """Divisors d of n with lo <= d <= hi, ascending; 1 <= n < 2**63.

    No divisor exceeds n, so [lo, min(hi, n)] is the part of the window to
    search.  When min(hi, n) - lo < 2048 it is scanned directly, 2048
    divisions at most (none when lo > n); otherwise the divisors are read
    off the factorization.
    """
    checked_int(lo, "lo", 1, error=OutOfRange)
    checked_int(hi, "hi", lo, error=OutOfRange)
    checked_int(n, "n", 1, _MAX_N, error=OutOfRange)
    top = min(hi, n)
    if top - lo < _SCAN_WIDTH:
        return [d for d in range(lo, top + 1) if n % d == 0]
    return [d for d in trial_division(n).divisors() if lo <= d <= hi]
