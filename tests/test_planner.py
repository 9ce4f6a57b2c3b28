import math
import random
from fractions import Fraction

import pytest

from curlicue import (
    DegenerateBandwidth,
    InsufficientBandwidth,
    InterferometerConfig,
    PlanRun,
    SpectralWindow,
    SumSpec,
    bandwidth_summary,
    displacement_estimate,
    extract_factors,
    factorable_range,
    max_displacement,
    min_pixels,
    plan_number_range,
    plan_single_number,
    simulate,
)
from curlicue.planner import MAX_RUNS

LAMP = SpectralWindow(400.0, 800.0)


class TestFactorableRange:
    def test_full_lamp_at_max_displacement(self):
        assert factorable_range(1600.0, LAMP) == (4.0, 4.0)

    def test_demo_setup_is_infeasible(self, demo_window):
        # the narrow demo window cannot cover trial factors up to sqrt(n)
        assert factorable_range(523426.8, demo_window) is None

    def test_x_equal_lambda_max(self):
        lo, hi = factorable_range(800.0, LAMP)
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert hi == pytest.approx(2.0, rel=1e-12)

    def test_collapses_exactly_at_max_displacement(self):
        rng = random.Random(21)
        for _ in range(50):
            lam_lo = rng.uniform(10, 1000)
            lam_hi = lam_lo * rng.uniform(1.01, 30)
            window = SpectralWindow(lam_lo, lam_hi)
            lo, hi = factorable_range(max_displacement(window), window)
            beta_sq = (lam_hi / lam_lo) ** 2
            assert lo == pytest.approx(beta_sq, rel=1e-9)
            assert hi == pytest.approx(beta_sq, rel=1e-9)
            assert factorable_range(max_displacement(window) * 1.001, window) is None


class TestMaxDisplacement:
    def test_full_lamp(self):
        assert max_displacement(LAMP) == 1600.0

    def test_demo_window(self, demo_window):
        exact = Fraction("463.24") ** 2 / Fraction("460.36")
        assert max_displacement(demo_window) == pytest.approx(float(exact), rel=1e-9)


class TestBandwidthSummary:
    def test_full_lamp(self):
        summary = bandwidth_summary(LAMP)
        assert summary.beta == 2.0
        assert summary.single_window_n_max == 4.0

    def test_wide(self):
        summary = bandwidth_summary(SpectralWindow(100.0, 2000.0))
        assert summary.beta == 20.0
        assert summary.single_window_n_max == 400.0

    def test_narrow(self):
        summary = bandwidth_summary(SpectralWindow(400.0, 400.4))
        assert summary.beta == pytest.approx(1.001, rel=1e-12)
        assert summary.single_window_n_max == pytest.approx(1.002001, rel=1e-12)


class TestPlanSingleNumber:
    def test_hundred(self):
        plan = plan_single_number(100, LAMP)
        assert plan.scheme == "single-number"
        assert plan.ratio == 2.0
        assert plan.n_runs == 4
        assert [r.x_nm for r in plan.runs] == [40000.0, 20000.0, 10000.0, 5000.0]
        assert plan.runs[0].xi_lo == 1.0
        assert plan.runs[-1].xi_hi == 16.0

    def test_exact_square_of_beta(self):
        plan = plan_single_number(4, LAMP)
        assert plan.n_runs == 1
        assert plan.runs[0].x_nm == 1600.0
        assert (plan.runs[0].xi_lo, plan.runs[0].xi_hi) == (1.0, 2.0)

    def test_million(self):
        assert plan_single_number(10**6, LAMP).n_runs == 10

    def test_coverage_and_consistency(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(4, 10**9)
            lam_lo = rng.uniform(100, 900)
            window = SpectralWindow(lam_lo, lam_lo * rng.uniform(1.2, 10))
            plan = plan_single_number(n, window)
            beta = window.lambda_max_nm / window.lambda_min_nm
            xs = [r.x_nm for r in plan.runs]
            assert all(x > 0 for x in xs)
            assert all(a > b for a, b in zip(xs, xs[1:]))
            for r in plan.runs:
                # stored interval equals the independently computed coverage
                assert r.xi_lo == pytest.approx(n * window.lambda_min_nm / r.x_nm, rel=1e-9)
                assert r.xi_hi == pytest.approx(n * window.lambda_max_nm / r.x_nm, rel=1e-9)
            for prev, nxt in zip(plan.runs, plan.runs[1:]):
                assert nxt.x_nm == pytest.approx(prev.x_nm / beta, rel=1e-12)
                assert nxt.xi_lo == pytest.approx(prev.xi_hi, rel=1e-9)
            assert plan.runs[0].xi_lo == pytest.approx(1.0, rel=1e-9)
            assert plan.runs[-1].xi_hi >= math.sqrt(n) * (1 - 1e-9)

    def test_over_coverage_at_most_one_ratio_factor(self):
        plan = plan_single_number(10**6, LAMP)
        assert plan.runs[-1].xi_hi <= math.sqrt(10**6) * plan.ratio * (1 + 1e-9)

    def test_degenerate_bandwidth(self):
        with pytest.raises(DegenerateBandwidth):
            plan_single_number(100, SpectralWindow(400.0, 400.0000001))
        # beta = 1 + 2.5e-9 would take about 1.8e9 runs
        with pytest.raises(DegenerateBandwidth):
            plan_single_number(9409, SpectralWindow(400.0, 400.000001))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            plan_single_number(3, LAMP)


class TestPlanSeams:
    """The single-number plan at beta = 2 puts every seam beta**i on a trial factor.

    Run i covers trial factors [2**i, 2**(i + 1)], so the seam 2**i sits on a window edge of
    runs i - 1 and i; pixel centres lie half a step inside the window and a peak must be a strict
    interior maximum, so neither run shows it.  These pin the defect until the planner overlaps
    its seams.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="run 0 covers trial factors [1, 2] only")
    @pytest.mark.parametrize("n", [100, 9409, 10006])
    def test_no_run_covers_only_trial_factors_up_to_two(self, n):
        assert all(run.xi_hi > 2.0 for run in plan_single_number(n, LAMP).runs)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="the trial factor 2 is the seam of runs 0 and 1")
    @pytest.mark.parametrize("n", [10006, 10012])
    def test_every_run_at_min_pixels_shows_the_factor_two(self, n):
        # 10006 = 2 * 5003 and 10012 = 2**2 * 2503: each divisor up to sqrt(n), 2 (and 4), is a
        # seam, so today no run gives a pair and factor exits 1 on each (about 1.06M px per target)
        spec = SumSpec(3, 2)
        found = set()
        for run in plan_single_number(n, LAMP).runs:
            config = InterferometerConfig(displacement_unit_nm=run.x_nm, sum_spec=spec)
            window = SpectralWindow(LAMP.lambda_min_nm, LAMP.lambda_max_nm, min_pixels(config, LAMP))
            found.update(d for pair in extract_factors(simulate(config, window), n).factors for d in pair)
        assert 2 in found


def test_pinned_schedules():
    # values recorded before both schemes shared one schedule loop; floats compared exactly
    # (1000..10000 needs beta > 10, so it is pinned on a 380-7800 nm window)
    single = plan_single_number(9409, LAMP)
    assert single.ratio == 2.0
    assert single.runs == tuple(
        PlanRun(3763600.0 / 2**i, 2.0**i, 2.0 ** (i + 1)) for i in range(7)
    )
    wide = plan_number_range(1000, 10000, SpectralWindow(380.0, 7800.0))
    assert wide.ratio == 2.052631578947368
    assert wide.runs == (
        PlanRun(3800000.0, 1.0, 2.0526315789473686),
        PlanRun(1851282.0512820515, 2.052631578947368, 4.213296398891966),
        PlanRun(901906.6403681791, 4.213296398891965, 8.648345239830876),
        PlanRun(439390.4145383437, 8.648345239830876, 17.75186654491601),
        PlanRun(214061.9968263726, 17.751866544916005, 36.43804185535391),
        PlanRun(104286.61383848923, 36.4380418553539, 74.79387538730538),
        PlanRun(50806.2990495204, 74.79387538730536, 153.52427053183735),
    )


class TestPlanNumberRange:
    def test_gamma_two_from_tenfold_range(self):
        # beta = 20 with a tenfold target range leaves a shrink ratio of exactly 2
        plan = plan_number_range(100, 1000, SpectralWindow(100.0, 2000.0))
        assert plan.scheme == "number-range"
        assert plan.ratio == 2.0
        assert plan.runs[0].x_nm == 100000.0
        assert plan.n_runs == 5

    def test_insufficient_bandwidth(self):
        with pytest.raises(InsufficientBandwidth) as err:
            plan_number_range(100, 1000, LAMP)
        assert err.value.gamma == pytest.approx(0.2, rel=1e-12)
        assert err.value.min_beta == pytest.approx(10.0, rel=1e-12)
        assert "10" in str(err.value)

    def test_contiguous_coverage_for_whole_range(self):
        plan = plan_number_range(100, 1000, SpectralWindow(100.0, 2000.0))
        for prev, nxt in zip(plan.runs, plan.runs[1:]):
            assert nxt.xi_lo == pytest.approx(prev.xi_hi, rel=1e-9)
        assert plan.runs[0].xi_lo == pytest.approx(1.0, rel=1e-9)
        assert plan.runs[-1].xi_hi >= math.sqrt(1000) * (1 - 1e-9)

    def test_run_budget(self):
        # the same budget that refuses a near-1 beta refuses a near-1 gamma
        assert plan_number_range(1000, 1999, LAMP).n_runs == 7599 < MAX_RUNS
        with pytest.raises(DegenerateBandwidth):
            plan_number_range(1000, 1999, SpectralWindow(400.0, 799.61))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            plan_number_range(1000, 100, LAMP)
        with pytest.raises(ValueError):
            plan_number_range(3, 100, LAMP)


class TestDisplacementEstimate:
    def test_single_digit(self):
        est = displacement_estimate(1, 100.0)
        assert est.exponent == -6
        assert est.mantissa == pytest.approx(1.0, rel=1e-9)
        assert not est.exceeds_universe_size

    def test_universe_threshold(self):
        est = displacement_estimate(34, 100.0)
        assert est.exponent == 27
        assert est.mantissa == pytest.approx(1.0, rel=1e-9)
        assert est.exceeds_universe_size

    def test_two_hundred_digits(self):
        est = displacement_estimate(200, 100.0)
        assert est.exponent == 193
        assert est.mantissa == pytest.approx(1.0, rel=1e-9)
        assert est.exceeds_universe_size

    def test_non_round_wavelength(self):
        # 10**6 * 460.36 nm = 0.46036 m
        est = displacement_estimate(6, 460.36)
        assert est.exponent == -1
        assert est.mantissa == pytest.approx(4.6036, rel=1e-9)

    def test_huge_digit_counts_stay_exact(self):
        est = displacement_estimate(10**6, 100.0)
        assert est.exponent == 10**6 - 7
        assert est.exceeds_universe_size

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            displacement_estimate(0, 100.0)
        with pytest.raises(ValueError):
            displacement_estimate(5, -1.0)
