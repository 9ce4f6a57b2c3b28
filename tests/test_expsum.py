import cmath
import math
import random

import pytest

from curlicue import (
    PRECISION_CEILING,
    OutOfRange,
    PhaseDecomposition,
    PrecisionExceeded,
    SumSpec,
    decompose,
    evaluate,
    intensity,
    main_lobe_halfwidth,
)


def direct_sum(m_count, order, xi):
    """Independent oracle: the literal sum with no phase reduction."""
    return sum(cmath.exp(2j * math.pi * m**order * xi) for m in range(m_count)) / m_count


SPECS = [SumSpec(2, 2), SumSpec(3, 2), SumSpec(3, 3), SumSpec(5, 2), SumSpec(4, 3)]


class TestEvaluate:
    def test_all_phases_zero(self):
        assert evaluate(SumSpec(3, 2), 0.0) == 1 + 0j

    def test_half_integer_three_terms(self):
        # 1 - 1 + 1 over 3
        z = evaluate(SumSpec(3, 2), 0.5)
        assert z == pytest.approx((1 / 3) + 0j, abs=1e-15)

    def test_quarter_three_terms(self):
        # 1 + i + 1 over 3
        z = evaluate(SumSpec(3, 2), 0.25)
        assert z == pytest.approx((2 + 1j) / 3, abs=1e-15)

    def test_matches_direct_sum(self):
        rng = random.Random(20260808)
        for _ in range(300):
            m_count = rng.randint(2, 6)
            order = rng.randint(2, 4)
            xi = rng.uniform(-5.0, 5.0)
            assert evaluate(SumSpec(m_count, order), xi) == pytest.approx(
                direct_sum(m_count, order, xi), abs=1e-10
            )

    def test_magnitude_bounded(self):
        rng = random.Random(7)
        for spec in SPECS:
            for _ in range(200):
                assert abs(evaluate(spec, rng.uniform(-50, 50))) <= 1 + 1e-12


class TestIntensity:
    def test_integer_argument_is_unity(self):
        assert intensity(SumSpec(3, 2), 1131.0) == 1.0

    def test_quarter_value(self):
        assert intensity(SumSpec(3, 2), 0.25) == pytest.approx(5 / 9, abs=1e-15)

    def test_two_paths_destructive(self):
        assert intensity(SumSpec(2, 2), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_bounds_and_unity_at_integers(self):
        rng = random.Random(99)
        for spec in SPECS:
            for _ in range(300):
                v = intensity(spec, rng.uniform(-20, 20))
                assert 0.0 <= v <= 1.0
            for n in range(-3, 4):
                assert intensity(spec, float(n)) == pytest.approx(1.0, abs=1e-12)

    def test_two_paths_cosine_squared(self):
        spec = SumSpec(2, 2)
        for i in range(2001):
            xi = -10.0 + i * 0.01
            assert intensity(spec, xi) == pytest.approx(
                math.cos(math.pi * xi) ** 2, abs=1e-12
            )


class TestPeriodicityAndSymmetry:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_periodicity(self, spec):
        for i in range(401):
            xi = -10.0 + i * 0.05
            base = evaluate(spec, xi)
            for n in range(-3, 4):
                assert abs(evaluate(spec, xi + n) - base) <= 1e-12

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_magnitude_symmetry(self, spec):
        for i in range(801):
            xi = i * 0.0125
            assert abs(abs(evaluate(spec, -xi)) - abs(evaluate(spec, xi))) <= 1e-12


class TestDecompose:
    def test_integer(self):
        assert decompose(1131.0) == PhaseDecomposition(1131, 0.0)

    def test_long_division_example(self):
        value = 523426.8 / 462.0
        dec = decompose(value)
        assert dec.k == 1133
        # the subtraction below is exact (Sterbenz), so this pins the residual
        assert dec.tau == value - 1133
        assert dec.tau == pytest.approx(-0.0415584415, abs=1e-9)

    def test_tie_resolves_upward(self):
        assert decompose(2.5) == PhaseDecomposition(3, -0.5)
        assert decompose(3.5) == PhaseDecomposition(4, -0.5)
        assert decompose(-0.5) == PhaseDecomposition(0, -0.5)

    def test_round_trip(self):
        rng = random.Random(31415)
        for _ in range(2000):
            xi = rng.uniform(-(2.0**39), 2.0**39)
            dec = decompose(xi)
            assert -0.5 <= dec.tau < 0.5
            assert dec.k + dec.tau == pytest.approx(xi, rel=1e-12, abs=1e-12)

    def test_precision_ceiling(self):
        with pytest.raises(PrecisionExceeded):
            decompose(2.0**40)
        with pytest.raises(PrecisionExceeded):
            decompose(-(2.0**40) - 10)
        assert decompose(2.0**40 - 1024).k == 2**40 - 1024

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            decompose(float("nan"))
        with pytest.raises(ValueError):
            decompose(float("inf"))

    def test_ceiling_constant(self):
        assert PRECISION_CEILING == 2.0**40


def scan_first_half_intensity_crossing(m_count, order):
    """Independent oracle: dense scan for the first drop below 1/2, then bisect."""
    n_grid = 200_000
    prev = 0.0
    hit = None
    for i in range(1, n_grid + 1):
        xi = 0.5 * i / n_grid
        if abs(direct_sum(m_count, order, xi)) ** 2 < 0.5:
            hit = (prev, xi)
            break
        prev = xi
    assert hit is not None
    lo, hi = hit
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(direct_sum(m_count, order, mid)) ** 2 < 0.5:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestMainLobeHalfwidth:
    def test_two_paths_quarter(self):
        assert main_lobe_halfwidth(SumSpec(2, 2)) == pytest.approx(0.25, abs=1e-9)

    def test_three_paths_matches_scan_oracle(self):
        expected = scan_first_half_intensity_crossing(3, 2)
        assert main_lobe_halfwidth(SumSpec(3, 2)) == pytest.approx(expected, abs=1e-6)

    def test_higher_order_narrows(self):
        wide = main_lobe_halfwidth(SumSpec(3, 2))
        narrow = main_lobe_halfwidth(SumSpec(3, 3))
        assert 0.0 < narrow < wide
        assert narrow == pytest.approx(scan_first_half_intensity_crossing(3, 3), abs=1e-6)

    def test_more_paths_narrow(self):
        assert main_lobe_halfwidth(SumSpec(8, 2)) < main_lobe_halfwidth(SumSpec(3, 2))

    # at M = 3 the variance of the coefficients m**d leaves float64 from d = 513, their mean from
    # d = 1026, and the last arm's 2**d itself from d = 1024
    @pytest.mark.parametrize("order, what", [(513, "variance"), (600, "variance"), (1026, "mean"), (2000, "mean")])
    def test_huge_order_is_out_of_range(self, order, what):
        with pytest.raises(OutOfRange, match=f"^the {what} of the arm coefficients m\\*\\*d is outside"):
            main_lobe_halfwidth(SumSpec(3, order))

    def test_largest_order_in_range(self):
        assert 0.0 < main_lobe_halfwidth(SumSpec(3, 512)) < 1e-150


class TestHugeOrder:
    def test_spec_and_evaluate_below_the_float_limit(self):
        # 2**600 * tau fits a float64, so d = 600 still evaluates
        assert evaluate(SumSpec(3, 600), 0.0) == 1 + 0j
        assert evaluate(SumSpec(3, 1023), 0.25) == pytest.approx((2 + 1j) / 3, abs=1e-15)

    @pytest.mark.parametrize("order", [1024, 2000])
    def test_evaluate_refuses_a_coefficient_past_float64(self, order):
        spec = SumSpec(3, order)  # the spec itself stays valid
        with pytest.raises(OutOfRange, match="the arm coefficient m\\*\\*d"):
            evaluate(spec, 0.25)
        with pytest.raises(OutOfRange):
            intensity(spec, 0.0)

    def test_nan_still_evaluates_to_nan(self):
        z = evaluate(SumSpec(3, 2), float("nan"))
        assert math.isnan(z.real) and math.isnan(z.imag)


class TestSumSpecValidation:
    @pytest.mark.parametrize("m_count,order", [(1, 2), (0, 2), (2, 1), (2, 0), (-3, 2)])
    def test_rejects_out_of_range(self, m_count, order):
        with pytest.raises(ValueError):
            SumSpec(m_count, order)

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError):
            SumSpec(3, 2.5)
        with pytest.raises(ValueError):
            SumSpec(3.0, 2)

    def test_default_order(self):
        assert SumSpec(4).order == 2
