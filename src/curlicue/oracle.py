"""Exact integer ground truth: factorization and divisor queries.

Every factor pair the analysis pipeline reports is ultimately checked by
exact integer arithmetic; this module is the independent reference for
those checks.  It stays plain enough to audit: trial division by 2, 3 and
5, then a wheel over the eight residues coprime to 30, which stops as soon
as the cofactor left is prime.  The primality test is Miller-Rabin over
Sinclair's seven bases, which is deterministic (exact, not probabilistic)
for every n < 2**64, and so on the whole domain n < 2**63.

Cost of one query: a prime, 7 modular exponentiations; a composite, trial
division up to its second-largest prime factor (about 8*10**8 divisions for
a balanced semiprime near 2**63); a divisor window with min(hi, n) - lo <
2048, one division per integer in [lo, min(hi, n)], at most about as long as
two Miller-Rabin tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRange, checked_int

_MAX_N = 2**63 - 1
# screened by division first, so Miller-Rabin sees only m with no prime factor up to 37
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Sinclair's deterministic Miller-Rabin bases: no composite below 2**64 is a strong
# pseudoprime to all of them (a base that m divides is skipped)
_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
# offsets from f of the residues coprime to 30 in [f, f + 30), for f = 7 mod 30
_WHEEL = (0, 4, 6, 10, 12, 16, 22, 24)
# windows with min(hi, n) - lo below this are scanned directly: 2048 divisions take
# about 90 us (CPython 3.11, one Xeon core), as long as one Miller-Rabin test of a
# 19-digit prime (88 us) or two of a 13-digit one (42-49 us), so a scan costs at most
# about two primality tests more than the factorization it skips
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
    """Whether m >= 2 is prime, by Miller-Rabin over _BASES; exact for m < 2**64."""
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        a %= m
        if a == 0:
            continue
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

    Divides out 2, 3 and 5, then walks the wheel of the residues coprime to
    30 until the cofactor is 1 or prime; the cofactor is tested after 2, 3
    and 5 and after every prime power divided out.
    """
    checked_int(n, "n", 2, _MAX_N, error=OutOfRange)
    remaining = n
    powers: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if remaining % p == 0:
            remaining = _divide_out(remaining, p, powers)
    f = 7
    while remaining > 1:
        if _is_prime(remaining):
            powers.append((remaining, 1))
            break
        # a composite with no factor below f has one at or below its square root
        while (
            remaining % f
            and remaining % (f + 4)
            and remaining % (f + 6)
            and remaining % (f + 10)
            and remaining % (f + 12)
            and remaining % (f + 16)
            and remaining % (f + 22)
            and remaining % (f + 24)
        ):
            f += 30
        for step in _WHEEL:
            if remaining % (f + step) == 0:
                break
        remaining = _divide_out(remaining, f + step, powers)
    return Factorization(n, tuple(powers))


def checked_window(n: int, lo: int, hi: int) -> int:
    """min(hi, n), the top of the part of [lo, hi] that can hold a divisor of n, once
    1 <= lo <= hi and 1 <= n < 2**63 hold; raises OutOfRange otherwise."""
    checked_int(lo, "lo", 1, error=OutOfRange)
    checked_int(hi, "hi", lo, error=OutOfRange)
    checked_int(n, "n", 1, _MAX_N, error=OutOfRange)
    return min(hi, n)


def divisors_in_window(n: int, lo: int, hi: int) -> list[int]:
    """Divisors d of n with lo <= d <= hi, ascending; 1 <= n < 2**63.

    No divisor exceeds n, so [lo, min(hi, n)] is the part of the window to
    search.  When min(hi, n) - lo < 2048 it is scanned directly, 2048
    divisions at most (none when lo > n); otherwise the divisors are read
    off the factorization.
    """
    top = checked_window(n, lo, hi)
    if top - lo < _SCAN_WIDTH:
        return [d for d in range(lo, top + 1) if n % d == 0]
    return [d for d in trial_division(n).divisors() if lo <= d <= hi]
