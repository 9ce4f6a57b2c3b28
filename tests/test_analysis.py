import hashlib
import random

import numpy as np
import pytest

from curlicue import (
    EmptyWindow,
    Interferogram,
    InterferometerConfig,
    NoiseModel,
    PrecisionExceeded,
    SpectralWindow,
    SumSpec,
    detect_peaks,
    divisors_in_window,
    extract_factors,
    min_pixels,
    plan_single_number,
    q_window,
    rescale,
    scan_targets,
    simulate,
)

from conftest import DEMO_X_NM


def make_interferogram(x_nm, rows, spec=SumSpec(3, 2)):
    return Interferogram(x_nm, spec, tuple(rows))


class TestRescale:
    def test_demo_target_lands_on_integer(self):
        ig = make_interferogram(DEMO_X_NM, [(462.0, 0.2), (462.8, 1.0), (463.0, 0.2)])
        scaled = rescale(ig, 1308567)
        # 1308567/1131 = 1157, and 462.8 marks the ratio 1131
        assert scaled.points[1][0] == pytest.approx(1157.0, abs=1e-9)

    def test_second_target_same_file(self):
        lam = DEMO_X_NM / 1133
        ig = make_interferogram(DEMO_X_NM, [(lam - 0.5, 0.1), (lam, 1.0), (lam + 0.5, 0.1)])
        scaled = rescale(ig, 1306349)
        assert scaled.points[1][0] == pytest.approx(1153.0, abs=1e-9)

    def test_wavelength_equal_to_ratio(self):
        n = 1234
        ig = make_interferogram(5000.0, [(5000.0 / n, 0.3), (5000.0 / n + 1, 0.3)])
        assert rescale(ig, n).points[0][0] == pytest.approx(1.0, rel=1e-12)

    def test_pure_relabeling(self, demo_interferogram):
        n = 1308567
        scaled = rescale(demo_interferogram, n)
        x = demo_interferogram.displacement_unit_nm
        for (xi, inten), lam, recorded in zip(
            scaled.points, demo_interferogram.wavelengths(), demo_interferogram.intensities()
        ):
            assert inten == recorded  # intensities untouched, bit for bit
            assert xi * x / n == pytest.approx(lam, rel=1e-12)
        xs = [p[0] for p in scaled.points]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_rejects_small_targets(self, demo_interferogram):
        with pytest.raises(ValueError):
            rescale(demo_interferogram, 1)


class TestQWindow:
    def test_demo_window(self, demo_window):
        assert q_window(DEMO_X_NM, demo_window) == (1130, 1136)

    def test_full_lamp_toy(self):
        assert q_window(1600.0, SpectralWindow(400.0, 800.0)) == (2, 4)

    def test_empty(self):
        with pytest.raises(EmptyWindow):
            q_window(100.0, SpectralWindow(400.0, 800.0))

    @pytest.mark.parametrize("x_nm", [0.0, -5.0, float("inf"), float("nan"), 10**400, "a"])
    def test_rejects_bad_displacement(self, x_nm):
        with pytest.raises(ValueError, match="x_nm"):
            q_window(x_nm, SpectralWindow(400.0, 800.0))

    def test_exact_edges_inclusive(self):
        assert q_window(800.0, SpectralWindow(400.0, 800.0)) == (1, 2)


class TestDetectPeaks:
    def test_demo_census(self, demo_interferogram):
        peaks = detect_peaks(demo_interferogram)
        assert [p.q for p in peaks] == list(range(1136, 1129, -1))
        for p in peaks:
            assert p.intensity_peak >= 0.99
            assert abs(p.residual) <= 1e-3

    def test_flat_interferogram(self):
        rows = [(400.0 + j, 0.1) for j in range(64)]
        assert detect_peaks(make_interferogram(1000.0, rows)) == []

    def test_too_short(self):
        assert detect_peaks(make_interferogram(1000.0, [(400.0, 0.1), (401.0, 0.2)])) == []

    def test_threshold_filters(self, demo_interferogram):
        none = detect_peaks(demo_interferogram, threshold=1.01)
        assert none == []

    def test_two_path_rayleigh_dip(self, demo_window):
        config = InterferometerConfig(DEMO_X_NM, SumSpec(2, 2))
        ig = simulate(config, demo_window)
        peaks = detect_peaks(ig, 0.7)
        assert len(peaks) == 7
        lam = ig.wavelengths()
        inten = ig.intensities()
        first, second = peaks[0], peaks[1]
        between = (lam > first.lambda_peak_nm) & (lam < second.lambda_peak_nm)
        dip = inten[between].min()
        assert dip < 0.5 * min(first.intensity_peak, second.intensity_peak)
        assert dip < 0.01  # cos^2 goes to zero midway

    def test_refinement_beats_grid_spacing(self, demo_interferogram, demo_window):
        # residual after the parabola should be far below one grid step in xi
        step = (
            DEMO_X_NM
            * (demo_window.lambda_max_nm - demo_window.lambda_min_nm)
            / demo_window.pixel_count
            / demo_window.lambda_min_nm**2
        )
        for p in detect_peaks(demo_interferogram):
            assert abs(p.residual) < step / 10

    def test_merges_duplicate_ratios(self):
        # two local maxima around the same integer ratio: keep the stronger
        x = 1000.0
        lam_q = x / 2  # q = 2 at 500 nm
        rows = [
            (lam_q - 2.0, 0.60),
            (lam_q - 1.0, 0.80),
            (lam_q - 0.5, 0.75),
            (lam_q, 0.95),
            (lam_q + 1.0, 0.70),
            (lam_q + 2.0, 0.50),
        ]
        peaks = detect_peaks(make_interferogram(x, rows), threshold=0.7)
        assert len(peaks) == 1
        assert peaks[0].q == 2
        assert peaks[0].intensity_peak >= 0.95


class TestExtractFactors:
    def test_demo_targets(self, demo_interferogram):
        assert extract_factors(demo_interferogram, 1308567).factors == ((1131, 1157),)
        assert extract_factors(demo_interferogram, 1306349).factors == ((1133, 1153),)

    def test_neighbor_without_divisor(self, demo_interferogram):
        report = extract_factors(demo_interferogram, 1308568)
        assert report.factors == ()
        assert report.q_window == (1130, 1136)

    def test_every_pair_multiplies_back(self, demo_interferogram):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1_250_000, 1_310_000)
            for q, c in extract_factors(demo_interferogram, n).factors:
                assert q * c == n
                assert 1 < q < n

    def test_agrees_with_trial_division(self, demo_interferogram):
        rng = random.Random(6)
        targets = [rng.randint(1_250_000, 1_300_000) for _ in range(500)]
        reports = scan_targets(demo_interferogram, targets)
        for n, report in zip(targets, reports):
            expected = tuple((d, n // d) for d in divisors_in_window(n, 1130, 1136))
            assert report.factors == expected

    def test_epsilon_gate_prunes_off_integer_peaks(self):
        # a peak whose refined ratio misses the integer by 0.03 must pass
        # at epsilon 0.05 and be pruned at epsilon 0.02
        x = DEMO_X_NM
        lam_peak = x / 1131.03
        h = 0.01  # span wide enough that the ratio 1131 stays inside the window
        rows = [
            (lam_peak - 2 * h, 0.2),
            (lam_peak - h, 0.9),
            (lam_peak, 1.0),
            (lam_peak + h, 0.9),
            (lam_peak + 2 * h, 0.2),
        ]
        ig = make_interferogram(x, rows)
        n = 1131 * 2000
        assert extract_factors(ig, n, epsilon=0.05).factors == ((1131, 2000),)
        assert extract_factors(ig, n, epsilon=0.02).factors == ()

    def test_trivial_divisors_excluded(self):
        # a peak at q = n itself must not produce the trivial pair (n, 1)
        n = 5
        x = 1000.0
        lam = x / n
        rows = [(lam - 0.5, 0.2), (lam, 1.0), (lam + 0.5, 0.2)]
        assert extract_factors(make_interferogram(x, rows), n).factors == ()

    def test_rejects_small_target(self, demo_interferogram):
        with pytest.raises(ValueError):
            extract_factors(demo_interferogram, 3)

    def test_precision_ceiling_propagates(self):
        # a displacement so large that x/lambda overflows the residual split
        rows = [(400.0, 0.1), (401.0, 0.9), (402.0, 0.1)]
        ig = make_interferogram(6e14, rows)
        with pytest.raises(PrecisionExceeded):
            extract_factors(ig, 1308567)


class TestScanTargets:
    def test_both_demo_numbers_one_pass(self, demo_interferogram):
        reports = scan_targets(demo_interferogram, [1308567, 1306349])
        assert reports[0].factors == ((1131, 1157),)
        assert reports[1].factors == ((1133, 1153),)

    def test_constructed_semiprimes(self, demo_interferogram):
        targets = [1131 * c for c in range(1000, 1011)]
        for report, c in zip(scan_targets(demo_interferogram, targets), range(1000, 1011)):
            assert (1131, c) in report.factors

    def test_flat_input_gives_empty_reports(self):
        rows = [(400.0 + j, 0.1) for j in range(64)]
        ig = make_interferogram(1000.0, rows)
        reports = scan_targets(ig, [100, 200, 300])
        assert all(r.factors == () for r in reports)
        assert all(r.candidates == () for r in reports)

    def test_rejects_empty_targets(self, demo_interferogram):
        with pytest.raises(ValueError):
            scan_targets(demo_interferogram, [])

    def test_diagnostics_counts(self, demo_interferogram):
        report = extract_factors(demo_interferogram, 1308567)
        counts = report.diagnostics["counts"]
        assert counts["peaks"] == 7
        assert counts["in_window"] == 7
        assert counts["integer_gated"] == 7
        assert counts["factors"] == 1


def test_golden_reports(demo_config, demo_window):
    # sha256 of repr of every report, hash taken before peaks were gated once
    # per spectrum; the spectra come from simulate(), so it assumes the same
    # numpy and libm as the run that took it
    rng = random.Random(17)
    targets = [rng.randint(1_250_000, 1_350_000) for _ in range(2000)]
    targets += [q * rng.randint(1107, 1194) for q in range(1130, 1137) for _ in range(4)]
    digest = hashlib.sha256()
    for noise in (None, NoiseModel(50.0, detector_sigma=0.02, seed=7)):
        ig = simulate(demo_config, demo_window, noise)
        digest.update(repr(scan_targets(ig, targets)).encode())
    lamp = SpectralWindow(400.0, 800.0)
    for run in plan_single_number(9409, lamp).runs:
        config = InterferometerConfig(run.x_nm, SumSpec(3, 2))
        ig = simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, lamp)))
        digest.update(repr(extract_factors(ig, 9409)).encode())
    assert digest.hexdigest() == "b7d06e6de4f71918b01d886a4ab18034da0a4d4f03076b699e9ce33c584535b1"
