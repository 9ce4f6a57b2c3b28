import copy
import dataclasses
import gc
import hashlib
import inspect
import pickle
import random
import tracemalloc

import numpy as np
import pytest

import curlicue.analysis
from curlicue import (
    EmptyWindow,
    FactorReport,
    Interferogram,
    InterferometerConfig,
    NoiseModel,
    OutOfRange,
    PhaseDecomposition,
    PrecisionExceeded,
    SpectralWindow,
    SumSpec,
    decompose,
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
from curlicue.analysis import PeakCandidate
from curlicue.errors import checked_int

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
        with pytest.raises(OutOfRange):
            rescale(demo_interferogram, 10**400)


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

    @pytest.mark.parametrize("threshold", [-1.0, 0.7])
    def test_two_samples_have_no_interior_maximum(self, threshold):
        ig = make_interferogram(1000.0, [(400.0, 0.1), (401.0, 0.9)])
        assert detect_peaks(ig, threshold) == []

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


def _parabolic_vertex(x0, x1, x2, y0, y1, y2):
    """Vertex of the parabola through three points; falls back to the middle one."""
    u0 = x0 - x1
    u2 = x2 - x1
    d0 = (y0 - y1) / u0
    d2 = (y2 - y1) / u2
    a = (d2 - d0) / (u2 - u0)
    if not a < 0.0:
        return x1, y1
    b = d2 - a * u2
    u = -b / (2.0 * a)
    u = min(max(u, u0), u2)
    return x1 + u, y1 + (a * u + b) * u


def reference_peaks(ig, threshold):
    """detect_peaks as one scalar vertex and one decompose per maximum: the reference."""
    lam = ig.wavelengths()
    inten = ig.intensities()
    if lam.size < 3:
        return []
    mid = inten[1:-1]
    mask = (mid > inten[:-2]) & (mid > inten[2:]) & (mid >= threshold)
    best = {}
    for i in np.flatnonzero(mask) + 1:
        lam_pk, int_pk = _parabolic_vertex(
            lam[i - 1], lam[i], lam[i + 1], inten[i - 1], inten[i], inten[i + 1]
        )
        dec = decompose(ig.displacement_unit_nm / lam_pk)
        if dec.k < 1:
            continue
        cand = PeakCandidate(float(lam_pk), float(int_pk), dec.k, dec.tau)
        known = best.get(dec.k)
        if known is None or cand.intensity_peak > known.intensity_peak:
            best[dec.k] = cand
    return sorted(best.values(), key=lambda c: c.lambda_peak_nm)


@pytest.mark.parametrize("threshold", [0.7, 0.3, -1.0])
@pytest.mark.parametrize("mirror_sigma", [0.0, 10.0, 50.0, 100.0])
def test_detect_peaks_matches_scalar_reference(demo_config, demo_window, mirror_sigma, threshold):
    # -1.0 keeps every strict maximum, those outside the q window included
    for seed in range(3):
        noise = None if mirror_sigma == 0.0 else NoiseModel(mirror_sigma, detector_sigma=0.02, seed=seed)
        ig = simulate(demo_config, demo_window, noise)
        want = reference_peaks(ig, threshold)
        assert want
        assert repr(detect_peaks(ig, threshold)) == repr(want)
        _assert_candidate_order(want)


def _assert_candidate_order(peaks):
    # detect_peaks returns its merge order unsorted, and scan_targets reverses it for the sieve
    lams = [p.lambda_peak_nm for p in peaks]
    qs = [p.q for p in peaks]
    assert all(a < b for a, b in zip(lams, lams[1:])), lams
    assert all(a > b for a, b in zip(qs, qs[1:])), qs


def test_detect_peaks_order_on_a_planned_run():
    # x = 9409 * 400 nm, 503,526 px at min_pixels
    lamp = SpectralWindow(400.0, 800.0)
    config = InterferometerConfig(3763600.0, SumSpec(3, 2))
    ig = simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, lamp)))
    want = reference_peaks(ig, 0.7)
    assert len(want) > 1000
    assert repr(detect_peaks(ig)) == repr(want)
    _assert_candidate_order(want)


def test_maxima_below_ratio_one_are_skipped():
    # three strict maxima at x/lambda near 0.73, 0.50 and 0.27: the last rounds to q = 0
    ig = simulate(InterferometerConfig(100.0, SumSpec(3, 2)), SpectralWindow(120.0, 1000.0), allow_undersampled=True)
    inten = ig.intensities()
    mid = inten[1:-1]
    maxima = np.flatnonzero((mid > inten[:-2]) & (mid > inten[2:])) + 1
    assert np.round(100.0 / ig.wavelengths()[maxima], 2).tolist() == [0.73, 0.5, 0.27]
    want = reference_peaks(ig, 0.0)
    assert [p.q for p in want] == [1]
    assert repr(detect_peaks(ig, threshold=0.0)) == repr(want)


def test_detect_peaks_matches_reference_on_the_fallback():
    # the slopes underflow to zero, so a is -0.0 and the parabola falls back to the middle point
    ig = make_interferogram(4e10, [(1e10, 0.0), (2e10, 5e-324), (3e10, 0.0)])
    want = reference_peaks(ig, -1.0)
    assert want == [PeakCandidate(2e10, 5e-324, 2, 0.0)]
    assert repr(detect_peaks(ig, -1.0)) == repr(want)


def test_detect_peaks_ceiling_message_matches_reference():
    ig = make_interferogram(6e14, [(400.0, 0.1), (401.0, 0.9), (402.0, 0.1)])
    with pytest.raises(PrecisionExceeded) as want:
        reference_peaks(ig, 0.7)
    with pytest.raises(PrecisionExceeded) as got:
        detect_peaks(ig, 0.7)
    assert str(got.value) == str(want.value)


def _reference_detect_peaks(ig, threshold=0.7):
    """detect_peaks with one decompose call and one dict merge per maximum: the reference."""
    lam = ig.wavelengths()
    inten = ig.intensities()
    mid = inten[1:-1]
    i = np.flatnonzero((mid > inten[:-2]) & (mid > inten[2:]) & (mid >= threshold)) + 1
    x1, y1 = lam[i], inten[i]
    with np.errstate(all="ignore"):
        u0 = lam[i - 1] - x1
        u2 = lam[i + 1] - x1
        d0 = (inten[i - 1] - y1) / u0
        d2 = (inten[i + 1] - y1) / u2
        a = (d2 - d0) / (u2 - u0)
        b = d2 - a * u2
        u = np.minimum(np.maximum(-b / (2.0 * a), u0), u2)
        vertex = a < 0.0
        lam_pk = np.where(vertex, x1 + u, x1)
        int_pk = np.where(vertex, y1 + (a * u + b) * u, y1)
    best = {}
    for lam_i, int_i in zip(lam_pk.tolist(), int_pk.tolist()):
        dec = decompose(ig.displacement_unit_nm / lam_i)
        if dec.k < 1:
            continue
        known = best.get(dec.k)
        if known is None or int_i > known.intensity_peak:
            best[dec.k] = PeakCandidate(lam_i, int_i, dec.k, dec.tau)
    return list(best.values())


def _assert_same_peaks(ig, threshold=0.7):
    want = _reference_detect_peaks(ig, threshold)
    got = detect_peaks(ig, threshold)
    assert got == want
    assert repr(got) == repr(want)
    assert all(type(p.q) is int and type(p.residual) is float for p in got)
    return want


@pytest.mark.parametrize("n", [1100, 2000, 4430, 9409, 9700])
def test_columnar_split_matches_the_loop_on_planned_runs(n):
    lamp = SpectralWindow(400.0, 800.0)
    for run in plan_single_number(n, lamp).runs:
        config = InterferometerConfig(run.x_nm, SumSpec(3, 2))
        ig = simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, lamp)))
        assert _assert_same_peaks(ig)


@pytest.mark.parametrize("mirror_sigma", [0.0, 10.0, 50.0, 100.0, 200.0])
def test_columnar_split_matches_the_loop_under_noise(demo_config, demo_window, mirror_sigma):
    for seed in range(4):
        ig = simulate(demo_config, demo_window, NoiseModel(mirror_sigma, detector_sigma=0.02, seed=seed))
        for threshold in (0.7, 0.3, -1.0):
            _assert_same_peaks(ig, threshold)


def _spike_rows(centers, height=0.9, floor=0.2):
    # a symmetric dyadic spike per center, so the vertex is the center itself
    return [(c + dc, h) for c in centers for dc, h in ((-0.5, floor), (0.0, height), (0.5, floor))]


def test_columnar_split_matches_the_loop_on_hand_built_spectra():
    # x = 15 nm: ratios 7.5, 2.5, 1.5 and 0.5 sit on the tie rule (q = 8, 3, 2, 1 and
    # residual -0.5), and 0.25 at 60 nm rounds to q = 0 and is dropped
    ties = make_interferogram(15.0, _spike_rows([2.0, 6.0, 10.0, 30.0, 60.0]))
    peaks = _assert_same_peaks(ties, 0.0)
    assert [(p.q, p.residual) for p in peaks] == [(8, -0.5), (3, -0.5), (2, -0.5), (1, -0.5)]
    # two equal maxima with the same q = 2: the first one wins
    twins = make_interferogram(1000.0, _spike_rows([499.0, 501.0]))
    peaks = _assert_same_peaks(twins)
    assert [(p.lambda_peak_nm, p.q) for p in peaks] == [(499.0, 2)]
    # the stronger of the two wins wherever it is
    rows = _spike_rows([499.0]) + _spike_rows([501.0], height=0.95)
    assert [p.lambda_peak_nm for p in _assert_same_peaks(make_interferogram(1000.0, rows))] == [501.0]
    # only ratios below 1/2
    assert _assert_same_peaks(make_interferogram(15.0, _spike_rows([40.0, 60.0])), 0.0) == []
    # no maxima at all
    assert _assert_same_peaks(make_interferogram(1000.0, [(400.0 + j, 0.5) for j in range(8)]), -1.0) == []


# the first maximum's ratio is 1e11, but the slopes of the second, one double either side of
# it, overflow and put its vertex at nan
_NEXT = float(np.nextafter(1e-150, 1.0))
_NAN_VERTEX = make_interferogram(
    1e-140,
    zip(
        [9e-152, 1e-151, 1.1e-151, 1e-150, _NEXT, float(np.nextafter(_NEXT, 1.0)), 2e-150],
        [0.1, 0.9, 0.1, 0.1, 0.95, 0.1, 0.1],
    ),
)
_REFUSALS = [
    # a ratio of exactly 2**40
    (
        make_interferogram(2.0**41, _spike_rows([2.0])),
        PrecisionExceeded,
        "|xi| = 1.09951e+12 is at or above the 2**40 precision ceiling",
    ),
    # 1e300 / 1e-10 overflows to inf
    (
        make_interferogram(1e300, [(0.5e-10, 0.1), (1e-10, 0.9), (1.5e-10, 0.1)]),
        ValueError,
        "xi must be finite, got inf",
    ),
    (_NAN_VERTEX, ValueError, "xi must be finite, got nan"),
]


@pytest.mark.parametrize("ig, kind, message", _REFUSALS, ids=["at-ceiling", "inf", "nan-after-valid"])
def test_columnar_split_refuses_as_the_loop_does(ig, kind, message):
    with pytest.raises(kind) as want:
        _reference_detect_peaks(ig)
    with pytest.raises(kind) as got:
        detect_peaks(ig)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert str(got.value) == message


def test_one_decompose_call_per_spectrum_with_maxima(monkeypatch, demo_interferogram):
    calls = []

    def counted(xi):
        calls.append(xi)
        return decompose(xi)

    monkeypatch.setattr(curlicue.analysis, "decompose", counted)
    assert len(detect_peaks(demo_interferogram)) == 7
    assert len(calls) == 1
    assert detect_peaks(demo_interferogram, threshold=1.01) == []
    assert len(calls) == 1
    scan_targets(demo_interferogram, [1308567, 1306349])
    assert len(calls) == 2


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
        # 4000 nm over 400-463 nm reaches q = 9 and 10, but no peak marks them
        ig = make_interferogram(4000.0, [(400.0 + j, 0.1) for j in range(64)])
        reports = scan_targets(ig, [100, 200, 300])
        assert all(r.q_window == (9, 10) for r in reports)
        assert all(r.factors == () for r in reports)
        assert all(r.candidates == () for r in reports)

    def test_span_without_a_ratio_raises_empty_window(self):
        # 1000 nm over 400-463 nm: x/lambda runs from 2.16 to 2.5, past no integer
        ig = make_interferogram(1000.0, [(400.0 + j, 0.1) for j in range(64)])
        message = "no integer ratio reachable for x=1000 nm over [400, 463] nm"
        with pytest.raises(EmptyWindow) as scanned:
            scan_targets(ig, [100, 200, 300])
        with pytest.raises(EmptyWindow) as extracted:
            extract_factors(ig, 100)
        assert str(scanned.value) == str(extracted.value) == message

    def test_precision_ceiling_wins_over_an_empty_span(self):
        # x/lambda = 2**41 + 0.5 at 400 nm and falls by about 0.11 over the span: no integer,
        # and the one peak's ratio is past the 2**40 ceiling
        ig = make_interferogram(400.0 * (2**41 + 0.5), [(400.0, 0.1), (400.0 + 1e-11, 1.0), (400.0 + 2e-11, 0.1)])
        with pytest.raises(EmptyWindow):
            q_window(ig.displacement_unit_nm, SpectralWindow(*ig.wavelengths()[[0, -1]].tolist()))
        with pytest.raises(PrecisionExceeded):
            scan_targets(ig, [100])

    def test_rejects_empty_targets(self, demo_interferogram):
        with pytest.raises(ValueError):
            scan_targets(demo_interferogram, [])

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", [True, "1308567", 1308567.0, 3])
    def test_first_bad_target_gives_the_rule_message(self, demo_interferogram, bad, position):
        with pytest.raises(ValueError) as want:
            checked_int(bad, "target", lo=4)
        targets = [1308567, 1306349, 1308568, 1131 * 1000, 2]  # 2 is bad too, and comes later
        targets[position] = bad
        with pytest.raises(ValueError) as got:
            scan_targets(demo_interferogram, targets)
        assert str(got.value) == str(want.value)

    def test_targets_beyond_int64_mix_with_small_ones(self, demo_interferogram):
        targets = [1308567, 1131 * 2**63, 2**63, 1306349, 1133 * 3**50, 2**63 - 1, 1135 * (2**63 // 1135)]
        want = [tuple((q, n // q) for q in range(1130, 1137) if n % q == 0) for n in targets]
        got = [r.factors for r in scan_targets(demo_interferogram, targets)]
        assert got == want
        assert got[1] == ((1131, 2**63),) and got[4] == ((1133, 3**50),) and got[6]

    def test_targets_at_or_below_a_gated_ratio_report_no_pair(self, demo_interferogram):
        targets = [4, 5, 1000, 1130, 1131, 1136, 2 * 1131]
        factors = [r.factors for r in scan_targets(demo_interferogram, targets)]
        assert factors == [()] * 6 + [((1131, 2),)]

    def test_generator_of_targets(self, demo_interferogram):
        targets = [1308567, 1306349, 1308568]
        assert scan_targets(demo_interferogram, iter(targets)) == scan_targets(demo_interferogram, targets)
        assert scan_targets(demo_interferogram, (n for n in targets)) == scan_targets(
            demo_interferogram, targets
        )

    @pytest.mark.parametrize("mirror_sigma", [0.0, 50.0])
    def test_many_targets_match_per_target_division(self, demo_config, demo_window, mirror_sigma):
        noise = None if mirror_sigma == 0.0 else NoiseModel(mirror_sigma, detector_sigma=0.02, seed=3)
        ig = simulate(demo_config, demo_window, noise)
        lo, hi = q_window(DEMO_X_NM, SpectralWindow(*ig.wavelengths()[[0, -1]].tolist()))
        qs = sorted({p.q for p in detect_peaks(ig) if lo <= p.q <= hi and abs(p.residual) <= 0.05})
        rng = random.Random(11)
        targets = [rng.randint(4, 3000) for _ in range(10_000)]
        targets += [rng.randint(1_250_000, 1_350_000) for _ in range(80_000)]
        targets += [rng.choice(range(1130, 1137)) * rng.randint(2, 8 * 10**15) for _ in range(10_000)]
        rng.shuffle(targets)
        reports = scan_targets(ig, targets)
        assert [r.n for r in reports] == targets
        want = [tuple((q, n // q) for q in qs if 1 < q < n and n % q == 0) for n in targets]
        assert [r.factors for r in reports] == want
        assert sum(map(bool, want)) > 10_000

    def test_every_report_owns_its_dicts(self, demo_interferogram):
        # three targets with a pair and three without
        targets = [1308567, 1308568, 1306349, 1308569, 1131 * 1000, 1308571]
        reports = scan_targets(demo_interferogram, targets)
        assert [bool(r.factors) for r in reports] == [True, False] * 3
        assert len({id(r.diagnostics) for r in reports}) == len(reports)
        assert len({id(r.diagnostics["counts"]) for r in reports}) == len(reports)
        reports[0].diagnostics["epsilon"] = -1.0
        reports[1].diagnostics["counts"]["factors"] = 99
        reports[2].diagnostics.clear()
        assert reports[3:] == scan_targets(demo_interferogram, targets)[3:]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_leaves_the_collector_as_it_found_it(self, demo_interferogram, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            scan_targets(demo_interferogram, [1308567, 1306349])
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_stays_enabled_after_a_refusal(self, demo_interferogram):
        assert gc.isenabled()
        ig = make_interferogram(1000.0, [(400.0 + j, 0.1) for j in range(64)])
        with pytest.raises(EmptyWindow):
            scan_targets(ig, [100])
        assert gc.isenabled()
        with pytest.raises(ValueError):
            scan_targets(demo_interferogram, [1308567, 3])
        assert gc.isenabled()

    def test_reports_are_built_with_the_collector_paused(self, monkeypatch, demo_interferogram):
        states = []

        def record(*fields):
            states.append(gc.isenabled())
            if len(states) == 3:
                raise MemoryError
            return FactorReport(*fields)

        monkeypatch.setattr(curlicue.analysis, "FactorReport", record)
        assert [r.factors for r in scan_targets(demo_interferogram, [1308567, 1306349])] == [
            ((1131, 1157),), ((1133, 1153),)
        ]
        assert states == [False, False] and gc.isenabled()
        with pytest.raises(MemoryError):  # a failed build enables it again too
            scan_targets(demo_interferogram, [1308567])
        assert states == [False, False, False] and gc.isenabled()

    def test_ratio_one_gives_no_pair(self):
        # at x = 600 nm over 400-800 nm the only dominant maximum is q = 1, which divides
        # every target but never makes a proper pair
        config = InterferometerConfig(600.0, SumSpec(3, 2))
        ig = simulate(config, SpectralWindow(400.0, 800.0, pixel_count=2048))
        assert [p.q for p in detect_peaks(ig)] == [1]
        assert [r.factors for r in scan_targets(ig, [4, 9, 10**6, 2**64])] == [()] * 4
        assert extract_factors(ig, 15).factors == ()

    def test_diagnostics_counts(self, demo_interferogram):
        report = extract_factors(demo_interferogram, 1308567)
        counts = report.diagnostics["counts"]
        assert counts["peaks"] == 7
        assert counts["in_window"] == 7
        assert counts["integer_gated"] == 7
        assert counts["factors"] == 1


@pytest.fixture(scope="module")
def wide_lamp_interferogram():
    # x = 40 um over 400-800 nm: 49 gated ratios, q = 51..99, at 5,352 px
    config = InterferometerConfig(40_000.0, SumSpec(3, 2))
    lamp = SpectralWindow(400.0, 800.0)
    return simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, lamp)))


def _per_target_pairs(ig, targets):
    lo, hi = q_window(ig.displacement_unit_nm, SpectralWindow(*ig.wavelengths()[[0, -1]].tolist()))
    gated = sorted({p.q for p in detect_peaks(ig) if lo <= p.q <= hi and abs(p.residual) <= 0.05})
    return [tuple((q, n // q) for q in gated if 1 < q < n and n % q == 0) for n in targets]


def _seeded(seed, count, lo, hi, planted=()):
    rng = random.Random(seed)
    targets = [rng.randint(lo, hi) for _ in range(count)]
    targets += [q * rng.randint(-(-lo // q), hi // q) for q in planted for _ in range(3)]
    rng.shuffle(targets)
    return targets


QS = range(51, 100)
SIEVE_REGIMES = {
    "one target": [51 * 97],
    "one prime target": [10**9 + 7],
    "duplicates": [102, 4, 51 * 97, 102, 2 * 3 * 5 * 7 * 11 * 13, 102, 4, 51 * 97],
    "below, at and twice q": [4, 5, 50] + [n for q in QS for n in (q - 1, q, q + 1, 2 * q, 2 * q + 1)],
    # span / q far above T: every q takes one remainder per target, also of q itself
    "wide span": _seeded(21, 3000, 4, 10**12, planted=QS) + [51, 99, 4, 198],
    # span / q far below T: every q walks its multiples
    "narrow span": _seeded(22, 800, 10**6, 10**6 + 3000, planted=QS),
    # span / q crosses T inside the ratio list: both sides in one call
    "mixed span": _seeded(23, 10, 10**5, 10**5 + 4000, planted=QS[::4]),
    "beyond int64": [2**63, 51 * 2**64, 51 * 97, 2**63 - 1, 99 * (2**63 // 99 + 1), 4, 77 * 10**30, 2**63],
}


@pytest.mark.parametrize("targets", SIEVE_REGIMES.values(), ids=SIEVE_REGIMES.keys())
def test_scan_matches_per_target_division(wide_lamp_interferogram, targets):
    reports = scan_targets(wide_lamp_interferogram, targets)
    want = _per_target_pairs(wide_lamp_interferogram, targets)
    assert [r.n for r in reports] == targets
    assert [r.factors for r in reports] == want
    assert len(want) == 1 or any(want)
    span = SpectralWindow(*wide_lamp_interferogram.wavelengths()[[0, -1]].tolist())
    assert all(r.q_window == q_window(wide_lamp_interferogram.displacement_unit_nm, span) for r in reports)


def test_sieve_regimes_cover_both_sides_of_the_step_choice():
    # q walks its multiples k*q, k >= 2, in [min, max] when there are no more of them
    # than distinct targets, and takes one remainder per target otherwise
    def walks(name):
        targets = SIEVE_REGIMES[name]
        lo, hi, t = min(targets), max(targets), len(set(targets))
        return [hi // q - max(-(-lo // q), 2) + 1 <= t for q in QS]

    assert not any(walks("wide span"))
    assert all(walks("narrow span"))
    assert 0 < sum(walks("mixed span")) < len(QS)


def test_scan_of_a_flat_spectrum_matches_per_target_division():
    ig = make_interferogram(4000.0, [(400.0 + j, 0.1) for j in range(64)])
    targets = [4, 2**64, 10**12, 4]
    assert _per_target_pairs(ig, targets) == [()] * 4
    assert [r.factors for r in scan_targets(ig, targets)] == [()] * 4


def test_scan_memory_is_linear_in_the_targets():
    # x = 10500 * 400 nm over 400-800 nm at min_pixels: 561,911 px and 5,249 gated ratios
    lamp = SpectralWindow(400.0, 800.0)
    config = InterferometerConfig(4200000.0, SumSpec(3, 2))
    ig = simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, lamp)))
    assert ig.samples.shape == (561_911, 2)
    peaks = []
    for targets in ([10_000], list(range(10_000, 10_501))):
        scan_targets(ig, targets)  # warm
        tracemalloc.start()
        try:
            scan_targets(ig, targets)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1_000_000, peaks


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
    # the seven displacements 9409 * 400 nm / 2**i, each at min_pixels
    lamp = SpectralWindow(400.0, 800.0)
    for x_nm in [3763600.0 / 2**i for i in range(7)]:
        config = InterferometerConfig(x_nm, SumSpec(3, 2))
        ig = simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, lamp)))
        digest.update(repr(extract_factors(ig, 9409)).encode())
    assert digest.hexdigest() == "b7d06e6de4f71918b01d886a4ab18034da0a4d4f03076b699e9ce33c584535b1"


_PEAK = (462.8, 0.999, 1131, -2.5e-7)
RECORDS = [
    (PhaseDecomposition, ("k", "tau"), (3, 0.25)),
    (PeakCandidate, ("lambda_peak_nm", "intensity_peak", "q", "residual"), _PEAK),
    (
        FactorReport,
        ("n", "q_window", "candidates", "factors", "diagnostics"),
        (1308567, (1130, 1136), (PeakCandidate(*_PEAK),), ((1131, 1157),), {"counts": {"factors": 1}}),
    ),
]


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # FactorReport holds a dict
        return str(exc)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_the_generated_dataclass_semantics(cls, names, values):
    # the reference class gets the __init__ that @dataclass(frozen=True) generates
    fields = [(f.name, f.type) for f in dataclasses.fields(cls)]
    ref_cls = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    ref = ref_cls(*values)
    rec = cls(*values)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names == cls.__match_args__
    params = [inspect.signature(c).parameters for c in (cls, ref_cls)]
    assert params[0] == params[1]
    assert repr(rec) == repr(ref)
    assert _hash_or_error(rec) == _hash_or_error(ref)
    assert dataclasses.astuple(rec) == dataclasses.astuple(ref)
    assert rec == cls(**dict(zip(names, values))) == cls(*values)
    assert rec != dataclasses.replace(rec, **{names[0]: 7})
    assert dataclasses.asdict(rec) == dataclasses.asdict(ref)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, names[0], 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(rec, names[-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.unknown = 1
    for twin in (dataclasses.replace(rec), pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(twin) is cls and twin == rec and repr(twin) == repr(rec)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, 0)
