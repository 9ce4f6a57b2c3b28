import math
import random
from fractions import Fraction

import numpy as np
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
    trial_division,
)
from curlicue.planner import MAX_RUNS, seam_margin

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
        assert plan.n_runs == 3
        assert [r.x_nm for r in plan.runs] == [20443.497273848126, 10453.554789481926, 5345.308890787995]
        # run 0 starts just below trial factor 2, and the last run reaches past sqrt(100)
        assert plan.runs[0].xi_lo == pytest.approx(2.0 / (1.0 + plan.overlap), rel=1e-15)
        assert plan.runs[-1].xi_hi == 14.966394203685871

    def test_exact_square_of_beta(self):
        # 4 = beta**2, the single-window ceiling: one run, whose window holds q = 4/2 by the margin
        plan = plan_single_number(4, LAMP)
        assert plan.n_runs == 1
        x = plan.runs[0].x_nm
        assert x / 800.0 + seam_margin(SumSpec(3, 2)) <= 2.0 <= x / 400.0 - seam_margin(SumSpec(3, 2))

    def test_million(self):
        assert plan_single_number(10**6, LAMP).n_runs == 9

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
                assert nxt.x_nm == pytest.approx(prev.x_nm / (beta * (1 - plan.overlap)), rel=1e-12)
                assert nxt.xi_lo == pytest.approx(prev.xi_hi * (1 - plan.overlap), rel=1e-9)
            assert plan.runs[0].xi_lo == pytest.approx(2.0 / (1 + plan.overlap), rel=1e-9)
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
    """Seams that overlap, and no run below trial factor 2.

    A plan whose runs met end to end at beta = 2 put every seam 2**i on a window edge of two runs:
    pixel centres lie half a step inside the window and a peak must be a strict interior maximum,
    so neither run showed the trial factor 2**i, and run 0 covered only the trial factors [1, 2].
    """

    @pytest.mark.parametrize("n", [100, 9409, 10006])
    def test_no_run_covers_only_trial_factors_up_to_two(self, n):
        assert all(run.xi_hi > 2.0 for run in plan_single_number(n, LAMP).runs)

    @pytest.mark.parametrize("n", [10006, 10012])
    def test_every_run_at_min_pixels_shows_the_factor_two(self, n):
        # 10006 = 2 * 5003 and 10012 = 2**2 * 2503: each divisor up to sqrt(n), 2 (and 4), sat on a
        # seam of the end-to-end plan, where no run gave a pair and factor exited 1
        found = set()
        for run in plan_single_number(n, LAMP).runs:
            found.update(d for pair in _run_pairs(n, run.x_nm) for d in pair)
        assert 2 in found

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 10, 15, 16])
    def test_small_targets_show_their_factor(self, n):
        # every divisor q = n/t of a trial factor t in [2, sqrt(n)] shows
        pairs = {p for run in plan_single_number(n, LAMP).runs for p in _run_pairs(n, run.x_nm)}
        assert all(q * c == n for q, c in pairs)
        assert {(n // t, t) for t in range(2, math.isqrt(n) + 1) if n % t == 0} <= pairs

    def test_composites_of_a_slice_show_their_smallest_prime(self):
        # one single-number plan per target, every run noiseless at min_pixels (about 0.53M px a
        # target); the slice holds even and odd composites and the primes 10007, 10009, 10037, 10039
        for n in range(10_000, 10_041):
            pairs = [p for run in plan_single_number(n, LAMP).runs for p in _run_pairs(n, run.x_nm)]
            assert all(q * c == n for q, c in pairs)
            smallest = trial_division(n).prime_powers[0][0]
            if smallest == n:
                assert not pairs, n
            else:
                assert any(smallest in pair for pair in pairs), n


def _run_pairs(n: int, x_nm: float) -> tuple:
    config = InterferometerConfig(displacement_unit_nm=x_nm, sum_spec=SumSpec(3, 2))
    window = SpectralWindow(LAMP.lambda_min_nm, LAMP.lambda_max_nm, min_pixels(config, LAMP))
    return extract_factors(simulate(config, window), n).factors


def _uncovered(plan, window: SpectralWindow, n: int, margin: float) -> list[int]:
    """The trial factors t in [2, sqrt(n)] of target n whose q = n/t lies in no run by margin."""
    t = np.arange(2, math.isqrt(n) + 1)
    x = np.array([run.x_nm for run in plan.runs])
    q = (n / t)[:, None]
    inside = (q >= x / window.lambda_max_nm + margin) & (q <= x / window.lambda_min_nm - margin)
    return t[~inside.any(axis=1)].tolist()


class TestSeamMargin:
    """Every integer trial factor t in [2, sqrt(n)] lies inside some run by at least seam_margin in q."""

    def test_every_single_number_plan_up_to_twenty_thousand(self):
        margin = seam_margin(SumSpec(3, 2))
        for n in range(4, 20_001):
            assert _uncovered(plan_single_number(n, LAMP), LAMP, n, margin) == [], n

    @pytest.mark.parametrize(
        "n_min, n_max, window, spec",
        [
            (10_000, 10_500, LAMP, SumSpec(3, 2)),
            (100_000, 105_000, LAMP, SumSpec(3, 2)),
            (1000, 10_000, SpectralWindow(380.0, 7800.0), SumSpec(3, 2)),
            (100, 1000, SpectralWindow(100.0, 2000.0), SumSpec(3, 2)),
            (4, 5, LAMP, SumSpec(3, 2)),
            (10_000, 10_500, LAMP, SumSpec(2, 2)),
            (10_000, 10_500, LAMP, SumSpec(4, 3)),
        ],
        ids=["1e4", "1e5", "wide", "tenfold", "smallest", "two-arms", "four-arms-cubic"],
    )
    def test_range_plans(self, n_min, n_max, window, spec):
        plan = plan_number_range(n_min, n_max, window, spec)
        for n in range(n_min, n_max + 1):
            assert _uncovered(plan, window, n, seam_margin(spec)) == [], n

    @pytest.mark.parametrize(
        "n_min, n_max, window",
        [(4, 4, LAMP), (9409, 9409, LAMP), (10**12, 10**12, LAMP), (10_000, 10_500, LAMP),
         (1000, 10_000, SpectralWindow(380.0, 7800.0)), (10**12, 10**12, SpectralWindow(460.36, 463.24))],
        ids=["4", "9409", "1e12", "1e4-range", "wide-range", "demo-window"],
    )
    def test_inner_spans_tile_two_to_sqrt_n(self, n_min, n_max, window):
        # a trial factor t <= sqrt(n) has q >= sqrt(n_min), so mu = seam_margin/sqrt(n_min) of t at
        # either end of a run's span keeps seam_margin of q inside it; those inner spans leave no gap
        if n_min == n_max:
            plan = plan_single_number(n_min, window)
        else:
            plan = plan_number_range(n_min, n_max, window)
        mu = seam_margin(SumSpec(3, 2)) / math.sqrt(n_min)
        spans = [(run.xi_lo * (1 + mu), run.xi_hi * (1 - mu)) for run in plan.runs]
        assert spans[0][0] <= 2.0 and spans[-1][1] >= math.isqrt(n_max)
        assert all(nxt[0] <= prev[1] * (1 + 1e-12) for prev, nxt in zip(spans, spans[1:]))

    def test_a_wider_lobe_overlaps_more(self):
        # M = 2 has a main-lobe halfwidth of 0.25 against 0.0747 for (3, 2)
        assert plan_single_number(9409, LAMP, SumSpec(2, 2)).overlap > plan_single_number(9409, LAMP).overlap


def test_pinned_schedules():
    # values recorded when the runs first started below trial factor 2 with overlapping seams;
    # floats compared exactly (1000..10000 needs beta > 10, so it is pinned on a 380-7800 nm window)
    single = plan_single_number(9409, LAMP)
    assert (single.ratio, single.overlap) == (2.0, 0.0023090303377277886)
    assert single.runs == (
        PlanRun(1886145.1332895362, 1.995392578001717, 3.990785156003434),
        PlanRun(945255.1895543437, 3.981570312006869, 7.963140624013738),
        PlanRun(473721.4319351419, 7.944753490729298, 15.889506981458595),
        PlanRun(237408.9003208584, 15.85281762778687, 31.70563525557374),
        PlanRun(118979.17668896189, 31.63242598189169, 63.26485196378338),
        PlanRun(59627.269518755624, 63.11877150128714, 126.23754300257428),
    )
    wide = plan_number_range(1000, 10000, SpectralWindow(380.0, 7800.0))
    assert (wide.ratio, wide.overlap) == (2.052631578947368, 0.007065875977578187)
    assert wide.runs == (
        PlanRun(1913425.1643573984, 1.9859674006514834, 4.076459401337256),
        PlanRun(938815.0409733662, 4.047655644779773, 8.308345797179534),
        PlanRun(460626.15751885046, 8.24964005619783, 16.93347169430081),
        PlanRun(226004.53521770984, 16.813821883439044, 34.5125817607433),
        PlanRun(110888.29651816451, 34.26872013835586, 70.34105712609886),
        PlanRun(54406.936094691424, 69.8440359403141, 143.36407377222366),
    )


class TestPlanNumberRange:
    def test_gamma_two_from_tenfold_range(self):
        # beta = 20 with a tenfold target range leaves a shrink ratio of exactly 2
        plan = plan_number_range(100, 1000, SpectralWindow(100.0, 2000.0))
        assert plan.scheme == "number-range"
        assert plan.ratio == 2.0
        assert plan.runs[0].x_nm == 51108.74318462032
        assert plan.n_runs == 5

    def test_insufficient_bandwidth(self):
        # the overlap at q = sqrt(100) is eps = 2*mu/(1 + mu) with mu = seam_margin/10
        mu = seam_margin(SumSpec(3, 2)) / 10
        eps = 2 * mu / (1 + mu)
        with pytest.raises(InsufficientBandwidth) as err:
            plan_number_range(100, 1000, LAMP)
        assert err.value.gamma == pytest.approx(0.2 * (1 - eps), rel=1e-12)
        assert err.value.min_beta == pytest.approx(10.0 / (1 - eps), rel=1e-12)
        assert "10.2268" in str(err.value)

    def test_min_beta_is_the_bandwidth_the_overlapped_plan_needs(self):
        with pytest.raises(InsufficientBandwidth) as err:
            plan_number_range(100, 1000, LAMP)
        beta = err.value.min_beta
        assert plan_number_range(100, 1000, SpectralWindow(100.0, 100.0 * beta * 1.01)).n_runs > 0
        with pytest.raises(InsufficientBandwidth):
            plan_number_range(100, 1000, SpectralWindow(100.0, 100.0 * beta * (1 - 1e-9)))

    def test_contiguous_coverage_for_whole_range(self):
        plan = plan_number_range(100, 1000, SpectralWindow(100.0, 2000.0))
        for prev, nxt in zip(plan.runs, plan.runs[1:]):
            assert nxt.xi_lo == pytest.approx(prev.xi_hi * (1 - plan.overlap), rel=1e-9)
        assert plan.runs[0].xi_lo == pytest.approx(2.0 / (1 + plan.overlap), rel=1e-9)
        assert plan.runs[-1].xi_hi >= math.sqrt(1000) * (1 - 1e-9)

    def test_run_budget(self):
        # the same budget that refuses a near-1 beta refuses a near-1 gamma
        assert plan_number_range(10**6, 1_998_000, LAMP).n_runs == 8452 < MAX_RUNS
        with pytest.raises(DegenerateBandwidth):
            plan_number_range(10**6, 1_998_000, SpectralWindow(400.0, 799.4))

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
