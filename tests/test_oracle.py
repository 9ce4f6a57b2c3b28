import math
import random
import time

import pytest

from curlicue import Factorization, OutOfRange, divisors_in_window, trial_division
from curlicue.oracle import _SCAN_WIDTH, _is_prime


def is_prime_naive(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def is_prime_12_bases(n):
    """Miller-Rabin over the first 12 prime bases, exact below 3.18e23: the oracle's test
    before it took Sinclair's seven bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# OEIS A014233 below 2**63: the smallest odd composites that are strong pseudoprimes to every
# one of the first 1, 2, ..., 12 prime bases (3825123056546413051 holds for bases up to 23)
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


def reference_trial_division(n):
    """The plain 6k+-1 wheel the oracle used before it tested cofactors for primality."""
    remaining = n
    powers = []
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


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class TestAgainstReference:
    def test_every_n_below_ten_to_the_five(self):
        for n in range(2, 10**5):
            assert trial_division(n) == reference_trial_division(n), n

    def test_seeded_n_up_to_ten_to_the_twelve(self):
        # log-uniform, so every magnitude is hit; 833 or so of them lie above 10**11
        rng = random.Random(8)
        for _ in range(10**4):
            n = int(10 ** rng.uniform(math.log10(2), 12))
            assert trial_division(n) == reference_trial_division(n), n

    @pytest.mark.parametrize("n", [561, 41041, 825265, 2047, 3215031751])
    def test_pseudoprimes(self, n):
        # Carmichael numbers and strong pseudoprimes to the smallest bases
        fact = trial_division(n)
        assert fact == reference_trial_division(n)
        assert not fact.is_prime

    def test_strong_pseudoprime_to_bases_up_to_23(self):
        # passes Miller-Rabin to every prime base from 2 to 23; base 29 shows it composite
        n = 3825123056546413051
        fact = trial_division(n)
        assert fact.prime_powers == ((149491, 1), (747451, 1), (34233211, 1))
        assert fact == reference_trial_division(n)

    @pytest.mark.parametrize(
        "n,powers",
        [
            (2**61 - 1, ((2**61 - 1, 1),)),
            (2 * (2**61 - 1), ((2, 1), (2**61 - 1, 1))),
            (2**63 - 25, ((2**63 - 25, 1),)),  # the largest prime below 2**63
        ],
    )
    def test_large_primes_are_fast(self, n, powers):
        fact, seconds = timed(trial_division, n)
        assert fact.prime_powers == powers
        assert seconds < 0.5


class TestSevenBases:
    def test_every_n_below_two_times_ten_to_the_five(self):
        for n in range(2, 2 * 10**5):
            assert _is_prime(n) == is_prime_12_bases(n), n

    @pytest.mark.parametrize("n,prime", [(73, True), (193, True), (14089, False), (407521, True), (299210837, True)])
    def test_n_that_divides_a_base(self, n, prime):
        # each divides 28178 = 2*73*193, 9780504 = 2**3*3*407521 or 1795265022 = 2*3*299210837,
        # so that base is skipped; 14089 = 73*193 is composite
        assert any(a % n == 0 for a in (28178, 9780504, 1795265022))
        assert _is_prime(n) == is_prime_12_bases(n) == prime

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes(self, n):
        assert not _is_prime(n)
        assert not is_prime_12_bases(n)

    def test_largest_prime_below_two_to_the_63(self):
        assert _is_prime(2**63 - 25) and is_prime_12_bases(2**63 - 25)
        assert not any(_is_prime(n) for n in range(2**63 - 24, 2**63))

    def test_seeded_odd_n_up_to_two_to_the_63(self):
        rng = random.Random(32)
        for _ in range(2 * 10**4):
            n = rng.randrange(3, 2**63, 2)
            assert _is_prime(n) == is_prime_12_bases(n), n


def primes_in_class(r, count, start):
    """The first count primes p >= start with p % 30 == r."""
    found = []
    p = start + (r - start) % 30
    while len(found) < count:
        if is_prime_naive(p):
            found.append(p)
        p += 30
    return found


class TestWheel:
    @pytest.mark.parametrize("r", [1, 7, 11, 13, 17, 19, 23, 29, 2, 3, 5])
    def test_prime_powers_in_every_class_mod_30(self, r):
        # the residues coprime to 30 hold every prime above 5; 2, 3 and 5 are their own classes
        primes = [r] if r in (2, 3, 5) else primes_in_class(r, 3, 7) + primes_in_class(r, 2, 10**5)
        for p in primes:
            k = 1
            while p**k < 2**63:
                for n in (p**k, 7 * p**k, 30 * p**k):
                    if n < 2**63:
                        assert trial_division(n) == reference_trial_division(n), n
                k += 1

    def test_powers_of_five(self):
        for k in range(1, 28):
            for n in (5**k, 2 * 5**k, 3 * 5**k, 5**k * 7, 5**k * 31, 5**k * 49):
                if n < 2**63:
                    fact = trial_division(n)
                    assert fact == reference_trial_division(n), n
                    assert (5, k) in fact.prime_powers

    def test_products_across_the_wheel(self):
        # two primes from each class, multiplied in pairs, so each turn's chain is cut at every slot
        reps = [p for r in (1, 7, 11, 13, 17, 19, 23, 29) for p in primes_in_class(r, 2, 31)]
        for p in reps:
            for q in reps:
                n = p * q * 1009
                assert trial_division(n) == reference_trial_division(n), (p, q)


class TestTrialDivision:
    def test_demo_semiprime(self):
        fact = trial_division(1308567)
        assert math.prod(p**e for p, e in fact.prime_powers) == 1308567
        divs = fact.divisors()
        assert 1131 in divs and 1157 in divs

    def test_second_demo_semiprime(self):
        divs = trial_division(1306349).divisors()
        assert 1133 in divs and 1153 in divs

    def test_two(self):
        assert trial_division(2) == Factorization(2, ((2, 1),))

    def test_prime_flag(self):
        assert trial_division(7).is_prime
        assert trial_division(2).is_prime
        assert not trial_division(9).is_prime

    def test_factors_are_prime_and_ascending(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 10**9)
            fact = trial_division(n)
            primes = [p for p, _ in fact.prime_powers]
            assert primes == sorted(primes)
            assert all(is_prime_naive(p) for p in primes)
            assert math.prod(p**e for p, e in fact.prime_powers) == n

    def test_reconstruction_large(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(2, 10**12)
            fact = trial_division(n)
            assert math.prod(p**e for p, e in fact.prime_powers) == n

    def test_edge_values(self):
        for n in (2**62, 2**63 - 1, 999_999_999_989, 10**12):
            fact = trial_division(n)
            assert math.prod(p**e for p, e in fact.prime_powers) == n

    @pytest.mark.parametrize("bad", [1, 0, -5, 2**63, 2.0, "12"])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            trial_division(bad)


class TestDivisorsInWindow:
    def test_demo_windows(self):
        assert divisors_in_window(1308567, 1130, 1136) == [1131]
        assert divisors_in_window(1308568, 1130, 1136) == []
        assert divisors_in_window(1306349, 1130, 1136) == [1133]

    def test_unit_window(self):
        assert divisors_in_window(1308567, 1, 1) == [1]
        assert divisors_in_window(1, 1, 1) == [1]
        assert divisors_in_window(1, 2, 5) == []

    def test_matches_direct_scan(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 10**6)
            lo = rng.randint(1, 50)
            hi = lo + rng.randint(0, 200)
            direct = [d for d in range(lo, hi + 1) if n % d == 0]
            assert divisors_in_window(n, lo, hi) == direct

    def test_composite_iff_nontrivial_divisor(self):
        rng = random.Random(14)
        for _ in range(200):
            n = rng.randint(4, 10**9)
            has = bool(divisors_in_window(n, 2, math.isqrt(n)))
            assert has == (not trial_division(n).is_prime)

    @pytest.mark.parametrize("n", [2, 12, 99, 5040, 1308567, 999_999_937, 2**20 * 3**5, 10**10, 2**62])
    def test_branches_agree_at_the_cutoff(self, n):
        # hi - lo = _SCAN_WIDTH - 1 is scanned directly, hi - lo = _SCAN_WIDTH is read off the factorization
        divs = reference_trial_division(n).divisors()
        for width in (_SCAN_WIDTH - 1, _SCAN_WIDTH):
            for lo in {1, 2, n // 2, max(1, n - width), n}:
                want = [d for d in divs if lo <= d <= lo + width]
                assert divisors_in_window(n, lo, lo + width) == want, (lo, width)

    def test_edges(self):
        assert divisors_in_window(12, 5, 100) == [6, 12]  # hi > n, wide
        assert divisors_in_window(10**6, 999_000, 1_000_500) == [10**6]  # hi > n, narrow
        assert divisors_in_window(10**6, 1, 10) == [1, 2, 4, 5, 8, 10]  # lo == 1, narrow
        assert divisors_in_window(12, 1, 12) == [1, 2, 3, 4, 6, 12]  # lo == 1, wide
        assert divisors_in_window(1, 1, 10**6) == [1]
        assert divisors_in_window(1, 2, 2) == []

    @pytest.mark.parametrize("n", [5040, 1308567, 2**20 * 3**5, 999_999_937])
    def test_hi_beyond_n_is_cut_at_n(self, n):
        # no divisor exceeds n: n - lo = _SCAN_WIDTH - 1 is scanned directly however large hi is,
        # n - lo = _SCAN_WIDTH is read off the factorization
        divs = reference_trial_division(n).divisors()
        for gap in (_SCAN_WIDTH - 1, _SCAN_WIDTH):
            lo = n - gap
            assert divisors_in_window(n, lo, 10**18) == [d for d in divs if d >= lo], gap

    @pytest.mark.parametrize("n", [1, 2, 1308567, 999_999_937 * 1_000_000_007])
    def test_window_above_n_is_empty(self, n):
        assert divisors_in_window(n, n + 1, n + 1) == []
        assert divisors_in_window(n, n + 1, 2**63) == []

    def test_one_has_only_itself_in_any_window(self):
        assert divisors_in_window(1, 1, 10**12) == [1]
        assert divisors_in_window(1, 2, 10**12) == []
        assert divisors_in_window(1, 1, 1) == [1]

    def test_wide_window_past_a_semiprime_is_a_short_scan(self):
        # [n - 2047, 2**62] holds 2047 candidates below n: a scan, not a 3*10**8-division factorization
        n = 999_999_937 * 1_000_000_007
        got, seconds = timed(divisors_in_window, n, n - (_SCAN_WIDTH - 1), 2**62)
        assert got == [n]
        assert seconds < 0.5

    def test_seeded_narrow_windows(self):
        rng = random.Random(15)
        for _ in range(10**3):
            a = rng.randint(1, 10**7)
            n = a * rng.randint(1, 10**15 // a)
            if n == 1:
                continue
            width = rng.randint(0, 300)
            lo = max(1, a - rng.randint(0, width))
            direct = [d for d in range(lo, lo + width + 1) if n % d == 0]
            assert divisors_in_window(n, lo, lo + width) == direct, (n, lo, width)

    @pytest.mark.parametrize(
        "n,lo,hi,want",
        [
            (999_999_999_999_989, 1130, 1136, []),  # a prime
            # a balanced semiprime near 10**18, whose factorization takes about 3*10**8 divisions
            (999_999_937 * 1_000_000_007, 999_999_934, 999_999_940, [999_999_937]),
        ],
    )
    def test_narrow_windows_are_fast(self, n, lo, hi, want):
        got, seconds = timed(divisors_in_window, n, lo, hi)
        assert got == want
        assert seconds < 0.5

    @pytest.mark.parametrize(
        "n,lo,hi,count",
        [
            (999_999_999_999_989, 1, 5 * 10**7, 1),  # a prime
            (10**18, 1, 10**9 - 1, 180),  # 2**18 * 5**18: the 180 of its 361 divisors below 10**9
            (2**62, 1, 2**31 - 1, 31),
        ],
    )
    def test_wide_windows_are_read_off_a_fast_factorization(self, n, lo, hi, count):
        # far wider than the direct scan's cutoff: a scan would take minutes
        got, seconds = timed(divisors_in_window, n, lo, hi)
        assert got == [d for d in trial_division(n).divisors() if lo <= d <= hi]
        assert len(got) == count
        assert seconds < 0.5

    @pytest.mark.parametrize("lo,hi", [(0, 5), (5, 4), (-1, 3)])
    def test_bad_window(self, lo, hi):
        with pytest.raises(OutOfRange):
            divisors_in_window(100, lo, hi)
