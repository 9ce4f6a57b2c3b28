import cmath
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from curlicue import (
    FileFormatError,
    IndexOutOfRange,
    Interferogram,
    InterferometerConfig,
    NoiseModel,
    OutOfRange,
    SpectralWindow,
    SumSpec,
    UnderSampled,
    dumps_interferogram,
    loads_interferogram,
    intensity,
    main_lobe_halfwidth,
    min_pixels,
    path_length,
    plan_single_number,
    simulate,
)
from curlicue.interferometer import (
    _GRID_BLOCK,
    _ORDER_SLICE,
    _PURPOSE_DETECTOR,
    _PURPOSE_MIRROR,
    _pixel_centers,
    _stream,
)
from conftest import DEMO_WINDOW, DEMO_X_NM


class TestPathLength:
    def test_first_arm_at_reference(self, demo_config):
        assert path_length(demo_config, 1) == 0.0

    def test_quadratic_progression(self, demo_config):
        assert path_length(demo_config, 3) == 4 * DEMO_X_NM

    def test_reference_offset(self):
        config = InterferometerConfig(1.0, SumSpec(3, 2), reference_length_nm=100.0)
        assert path_length(config, 2) == 101.0

    @pytest.mark.parametrize("m", [0, 4, -1, 2.0])
    def test_index_out_of_range(self, demo_config, m):
        with pytest.raises(IndexOutOfRange):
            path_length(demo_config, m)

    @pytest.mark.parametrize(
        "order, x",
        [
            (2000, 1000.0),  # (m-1)**d is an int too big for a float
            (1000, 1e10),  # (m-1)**d fits in a float, its product with x does not
        ],
    )
    def test_length_outside_float64_is_out_of_range(self, order, x):
        config = InterferometerConfig(x, SumSpec(3, order))
        with pytest.raises(OutOfRange, match=r"^the arm length r \+ \(m-1\)\*\*d \* x is outside"):
            path_length(config, 3)
        assert path_length(config, 1) == 0.0

    def test_large_finite_length(self):
        config = InterferometerConfig(1000.0, SumSpec(3, 1000))
        assert path_length(config, 3) == float(2**1000) * 1000.0


class TestGrid:
    def test_pixel_centers(self):
        window = SpectralWindow(400.0, 800.0, pixel_count=4)
        centers = window.pixel_centers()
        assert centers.tolist() == [450.0, 550.0, 650.0, 750.0]

    def test_sample_grid_matches_window(self, demo_interferogram, demo_window):
        lam = demo_interferogram.wavelengths()
        assert lam.size == demo_window.pixel_count
        assert np.all(np.diff(lam) > 0)
        step = (demo_window.lambda_max_nm - demo_window.lambda_min_nm) / demo_window.pixel_count
        assert lam[0] == pytest.approx(demo_window.lambda_min_nm + 0.5 * step, abs=1e-12)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SpectralWindow(800.0, 400.0)
        with pytest.raises(ValueError):
            SpectralWindow(400.0, 400.0)
        with pytest.raises(ValueError):
            SpectralWindow(-1.0, 400.0)
        with pytest.raises(ValueError):
            SpectralWindow(400.0, 800.0, pixel_count=1)


class TestNoiselessSimulation:
    def test_matches_sum_intensity(self, demo_interferogram, demo_spec):
        x = demo_interferogram.displacement_unit_nm
        for lam, inten in zip(demo_interferogram.wavelengths(), demo_interferogram.intensities()):
            assert abs(inten - intensity(demo_spec, x / lam)) <= 1e-12

    def test_unity_peak_near_integer_ratio(self, demo_interferogram):
        # x/1131 = 462.8 nm sits inside the window, so the nearest pixel
        # must be within one grid step of full constructive interference
        lam = demo_interferogram.wavelengths()
        target = DEMO_X_NM / 1131
        j = int(np.argmin(np.abs(lam - target)))
        direct = abs(sum(cmath.exp(2j * math.pi * m**2 * DEMO_X_NM / lam[j]) for m in range(3)) / 3) ** 2
        assert demo_interferogram.intensities()[j] == pytest.approx(direct, abs=1e-12)
        assert demo_interferogram.intensities()[j] > 0.999

    def test_reference_arm_cancels_bit_exactly(self, demo_spec, demo_window):
        a = simulate(InterferometerConfig(DEMO_X_NM, demo_spec, 0.0), demo_window)
        b = simulate(InterferometerConfig(DEMO_X_NM, demo_spec, 1e6), demo_window)
        assert np.array_equal(a.samples, b.samples)

    def test_intensities_within_unit_band(self, demo_interferogram):
        inten = demo_interferogram.intensities()
        assert inten.min() >= 0.0
        assert inten.max() <= 1.0

    def test_repeat_runs_identical(self, demo_config, demo_window):
        assert simulate(demo_config, demo_window) == simulate(demo_config, demo_window)


@pytest.mark.parametrize(
    "noise", [None, NoiseModel(10.0, (0.5, 0.3, 0.2), 0.02, seed=5)], ids=["noiseless", "noisy"]
)
def test_simulate_holds_only_its_samples_at_peak(noise):
    # each block's pixel centres go straight into the samples, detector noise is drawn block by
    # block, and the Interferogram takes the filled array without a copy, so the peak is the
    # samples, the order check's slice-sized boolean and block-sized temporaries; a constructor copy
    # would make it 2.1x, and so would whole-grid centres (with their temporaries), and a
    # whole-grid detector draw would add 0.5x (8 B per pixel against 16)
    config = InterferometerConfig(2.9e6, SumSpec(3, 2))
    window = SpectralWindow(400.0, 800.0, 400_000)
    assert min_pixels(config, window) <= window.pixel_count
    # a first noisy run imports numpy.random, about 0.8 MB that is not simulate's
    simulate(config, SpectralWindow(400.0, 800.0, 16), noise, allow_undersampled=True)
    tracemalloc.start()
    try:
        ig = simulate(config, window, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ig.samples.nbytes, peak / ig.samples.nbytes


@pytest.mark.parametrize("pixels", [2, 8191, 8192, 8193, 16385])
def test_block_centres_are_the_whole_grid_bits(demo_config, pixels):
    window = SpectralWindow(*DEMO_WINDOW, pixels)
    whole = window.pixel_centers()
    starts = range(0, pixels, _GRID_BLOCK)
    blocks = [_pixel_centers(window, start, min(start + _GRID_BLOCK, pixels)) for start in starts]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    ig = simulate(demo_config, window, NoiseModel(10.0, None, 0.02, seed=3), allow_undersampled=True)
    assert ig.wavelengths().tobytes() == whole.tobytes()


def test_centres_that_do_not_increase_are_refused(demo_spec):
    # four float64 steps of 400 nm split into 16 pixels: neighbouring centres round to one value
    window = SpectralWindow(400.0, 400.0 + 4 * math.ulp(400.0), 16)
    assert not np.all(np.diff(window.pixel_centers()) > 0)
    message = "^sample wavelengths must be finite, positive and strictly increasing$"
    with pytest.raises(ValueError, match=message):
        simulate(InterferometerConfig(1.0, demo_spec), window, allow_undersampled=True)


def _reference_simulate(config, window, noise=None):
    """simulate's samples with one exponential per arm at every pixel, over the whole grid: the reference."""
    noise = noise or NoiseModel(mirror_sigma_nm=0.0)
    arms = config.sum_spec.path_count
    weights = noise.arm_weights or [1.0 / arms] * arms
    deltas = [0.0] * arms
    if noise.mirror_sigma_nm > 0:
        deltas = [
            float(_stream(noise.seed, _PURPOSE_MIRROR, m).normal(0.0, noise.mirror_sigma_nm))
            for m in range(arms)
        ]
    lam = window.pixel_centers()
    ratio = config.displacement_unit_nm / lam
    tau = ratio - np.round(ratio)
    acc = np.zeros(lam.shape, dtype=np.complex128)
    for m, w, delta in zip(range(arms), weights, deltas):
        v = float(m**config.sum_spec.order) * tau + delta / lam
        u = v - np.round(v)
        acc += w * np.exp((2j * math.pi) * u)
    values = acc.real**2 + acc.imag**2
    if noise.detector_sigma > 0:
        values += _stream(noise.seed, _PURPOSE_DETECTOR, 0).normal(0.0, noise.detector_sigma, size=len(lam))
    return np.column_stack([lam, np.clip(values, 0.0, 1.0 + 5.0 * noise.detector_sigma)])


def _assert_same_samples(config, window, noise=None):
    want = _reference_simulate(config, window, noise)
    got = simulate(config, window, noise, allow_undersampled=True)
    assert got.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1100, 2000, 4430, 9409, 9700])
def test_kernel_matches_the_reference_on_planned_runs(n):
    lamp = SpectralWindow(400.0, 800.0)
    for run in plan_single_number(n, lamp).runs:
        config = InterferometerConfig(run.x_nm, SumSpec(3, 2))
        _assert_same_samples(config, SpectralWindow(400.0, 800.0, min_pixels(config, lamp)))


@pytest.mark.parametrize("mirror_sigma", [0.0, 10.0, 50.0, 200.0])
@pytest.mark.parametrize("detector_sigma", [0.0, 0.02])
def test_kernel_matches_the_reference_under_noise(demo_config, demo_window, mirror_sigma, detector_sigma):
    for seed in range(3):
        _assert_same_samples(demo_config, demo_window, NoiseModel(mirror_sigma, None, detector_sigma, seed))


@pytest.mark.parametrize("weights", [(0.5, 0.25, 0.25), (0.0, 0.5, 0.5), (0.8, 0.1, 0.1)])
@pytest.mark.parametrize("mirror_sigma", [0.0, 10.0])
def test_kernel_matches_the_reference_with_unequal_weights(demo_config, demo_window, weights, mirror_sigma):
    _assert_same_samples(demo_config, demo_window, NoiseModel(mirror_sigma, weights, 0.0, seed=4))


@pytest.mark.parametrize("paths", [2, 4, 5])
@pytest.mark.parametrize("mirror_sigma", [0.0, 10.0])
def test_kernel_matches_the_reference_for_other_sums(paths, mirror_sigma):
    config = InterferometerConfig(DEMO_X_NM, SumSpec(paths, 3))
    _assert_same_samples(config, SpectralWindow(*DEMO_WINDOW, 4096), NoiseModel(mirror_sigma, seed=1))


def test_kernel_matches_the_reference_with_a_reference_length(demo_spec, demo_window):
    config = InterferometerConfig(DEMO_X_NM, demo_spec, reference_length_nm=123.456)
    _assert_same_samples(config, demo_window)
    _assert_same_samples(config, demo_window, NoiseModel(10.0, seed=2))


@pytest.mark.parametrize("pixels", [8191, 8192, 8193])
def test_kernel_matches_the_reference_across_a_block_edge(demo_config, pixels):
    assert abs(pixels - _GRID_BLOCK) <= 1
    window = SpectralWindow(*DEMO_WINDOW, pixels)
    _assert_same_samples(demo_config, window)
    _assert_same_samples(demo_config, window, NoiseModel(10.0, (0.5, 0.3, 0.2), 0.02, seed=5))


_BLOCK_SHAPE_CASES = {
    "noiseless": (SumSpec(3, 2), None),
    "noisy": (SumSpec(3, 2), NoiseModel(10.0, (0.5, 0.3, 0.2), 0.02, seed=5)),
    "five-paths-mirror": (SumSpec(5, 3), NoiseModel(10.0, seed=1)),
}


@pytest.mark.parametrize("case", list(_BLOCK_SHAPE_CASES))
@pytest.mark.parametrize("pixels", [2, 3, 8191, 8192, 8193, 16385, 3 * 8192 + 1])
def test_kernel_matches_the_reference_at_every_block_shape(case, pixels):
    # a grid shorter than a block, one pixel short of, at and past one block, and a one-pixel
    # last block after two and three whole ones
    spec, noise = _BLOCK_SHAPE_CASES[case]
    _assert_same_samples(InterferometerConfig(DEMO_X_NM, spec), SpectralWindow(*DEMO_WINDOW, pixels), noise)


def test_no_work_state_carries_over_between_calls():
    # a 2-px call between two 16,385-px ones: its short work columns must not shape the next run
    config = InterferometerConfig(DEMO_X_NM, SumSpec(5, 3))
    noise = NoiseModel(10.0, None, 0.02, seed=9)
    runs = [
        simulate(config, SpectralWindow(*DEMO_WINDOW, pixels), noise, allow_undersampled=True)
        for pixels in (16385, 2, 16385)
    ]
    assert runs[0].samples.tobytes() == runs[2].samples.tobytes()


def test_simulate_frees_its_work_columns_before_the_checks():
    # the peak is the samples and the order check's boolean over one slice of 2**18 pixels (256 KiB,
    # 1.010x); the kernel's five block-long work columns (320 KiB) held through the checks would
    # come on top, about 1.018x
    config = InterferometerConfig(2.9e6, SumSpec(3, 2))
    window = SpectralWindow(400.0, 800.0, 2_000_000)
    simulate(config, SpectralWindow(400.0, 800.0, 16), allow_undersampled=True)
    tracemalloc.start()
    try:
        ig = simulate(config, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.015 * ig.samples.nbytes, peak / ig.samples.nbytes


def test_cos_and_sin_of_the_phase_are_the_complex_exponential():
    """simulate sums w*cos and w*sin of 2*pi*u where the reference sums w*exp(2j*pi*u)."""
    # x = 9409 * 400 nm, 503,526 px at min_pixels
    lamp = SpectralWindow(400.0, 800.0)
    config = InterferometerConfig(3763600.0, SumSpec(3, 2))
    lam = SpectralWindow(400.0, 800.0, min_pixels(config, lamp)).pixel_centers()
    ratio = config.displacement_unit_nm / lam
    tau = ratio - np.round(ratio)
    phases = [np.linspace(-0.5, 0.5, 2**20 + 1)]
    for c in (1.0, 4.0):
        v = c * tau
        phases.append(v - np.round(v))
    u = np.concatenate(phases)
    z = np.exp((2j * math.pi) * u)
    y = u * (2 * math.pi)
    libm = "assumes numpy's float64 cos/sin and its complex exp all call libm, as CI's pinned container does"
    assert np.cos(y).tobytes() == z.real.tobytes(), libm
    # equal in value: sin gives -0.0 at u = -0.0 where the imaginary part may be +0.0
    assert np.array_equal(np.sin(y), z.imag), libm


class TestSamplingGuard:
    def test_demo_window_within_ccd(self, demo_config, demo_window):
        assert min_pixels(demo_config, demo_window) <= 2048

    def test_toy_guard_value(self):
        # brute-force the guard: smallest P with x*(span/P)/lambda_min**2 <= halfwidth/4
        config = InterferometerConfig(1600.0, SumSpec(2, 2))
        window = SpectralWindow(400.0, 800.0)
        quarter_lobe = main_lobe_halfwidth(SumSpec(2, 2)) / 4.0
        smallest = next(
            p for p in range(2, 100) if 1600.0 * (400.0 / p) / 400.0**2 <= quarter_lobe * (1 + 1e-9)
        )
        assert smallest == 64
        assert min_pixels(config, window) == smallest

    def test_returned_count_simulates_cleanly(self, demo_config, demo_window):
        needed = min_pixels(demo_config, demo_window)
        window = SpectralWindow(
            demo_window.lambda_min_nm, demo_window.lambda_max_nm, pixel_count=needed
        )
        simulate(demo_config, window)  # must not raise

    def test_undersampled_raises_and_overrides(self, demo_config, demo_window):
        needed = min_pixels(demo_config, demo_window)
        coarse = SpectralWindow(
            demo_window.lambda_min_nm, demo_window.lambda_max_nm, pixel_count=needed - 1
        )
        with pytest.raises(UnderSampled) as err:
            simulate(demo_config, coarse)
        assert err.value.required == needed
        assert err.value.given == needed - 1
        simulate(demo_config, coarse, allow_undersampled=True)


class TestNoise:
    def test_same_seed_identical(self, demo_config, demo_window):
        noise = NoiseModel(mirror_sigma_nm=10.0, detector_sigma=0.01, seed=77)
        assert simulate(demo_config, demo_window, noise) == simulate(demo_config, demo_window, noise)

    def test_different_seeds_differ(self, demo_config, demo_window):
        a = simulate(demo_config, demo_window, NoiseModel(10.0, seed=1))
        for other in (2, 2**64 - 1):  # the top seed is the Philox key as given
            b = simulate(demo_config, demo_window, NoiseModel(10.0, seed=other))
            assert not np.array_equal(a.samples, b.samples)

    def test_mirror_error_keeps_peaks_high(self, demo_config, demo_window):
        ig = simulate(demo_config, demo_window, NoiseModel(mirror_sigma_nm=10.0, seed=0))
        assert ig.intensities().max() > 0.9

    def test_block_draws_keep_the_whole_grid_bits(self, demo_config):
        # 20,000 px is two full grid blocks and a partial one, so the detector noise is
        # drawn in three pieces; sha256 of the samples taken when it was one whole-grid
        # draw, so it assumes the same numpy and libm as the run that took it
        window = SpectralWindow(*DEMO_WINDOW, pixel_count=20_000)
        assert window.pixel_count > 2 * _GRID_BLOCK and window.pixel_count % _GRID_BLOCK
        noise = NoiseModel(10.0, (0.5, 0.3, 0.2), 0.02, seed=5)
        ig = simulate(demo_config, window, noise)
        digest = hashlib.sha256(ig.samples.tobytes()).hexdigest()
        assert digest == "d15dd611f55737680f619c1f1f5bcaa7bcfff5ae9fc8348cee6acc28d13cb763"

    def test_detector_noise_stays_in_band(self, demo_config, demo_window):
        sigma = 0.05
        ig = simulate(demo_config, demo_window, NoiseModel(0.0, None, sigma, seed=3))
        inten = ig.intensities()
        assert inten.min() >= 0.0
        assert inten.max() <= 1.0 + 5.0 * sigma

    def test_reference_arm_cancels_with_noise_too(self, demo_spec, demo_window):
        noise = NoiseModel(10.0, None, 0.01, seed=9)
        a = simulate(InterferometerConfig(DEMO_X_NM, demo_spec, 0.0), demo_window, noise)
        b = simulate(InterferometerConfig(DEMO_X_NM, demo_spec, 5e5), demo_window, noise)
        assert np.array_equal(a.samples, b.samples)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(arm_weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            NoiseModel(arm_weights=(-0.1, 1.1))
        with pytest.raises(ValueError):
            NoiseModel(mirror_sigma_nm=-1.0)

    def test_weight_count_checked_against_arms(self, demo_config, demo_window):
        with pytest.raises(ValueError, match="^expected 3 arm weights, got 2$"):
            simulate(demo_config, demo_window, NoiseModel(0.0, (0.5, 0.5), 0.0, 0))
        with pytest.raises(ValueError, match="^expected 3 arm weights, got 4$"):
            simulate(demo_config, demo_window, NoiseModel(0.0, (0.25,) * 4, 0.0, 0))

    @pytest.mark.parametrize(
        "x_nm, spec, lambdas",
        [(DEMO_X_NM, SumSpec(3, 2), DEMO_WINDOW), (1600.0, SumSpec(2, 2), (400.0, 800.0))],
        ids=["demo", "two-path-toy"],
    )
    def test_no_noise_is_the_zero_model(self, x_nm, spec, lambdas):
        config = InterferometerConfig(x_nm, spec)
        window = SpectralWindow(*lambdas, pixel_count=2048)
        plain = simulate(config, window)
        zero = simulate(config, window, NoiseModel(mirror_sigma_nm=0.0))
        assert plain == zero  # samples bit for bit, and the provenance
        assert dumps_interferogram(plain) == dumps_interferogram(zero)

    def test_zero_model_draws_no_random_numbers(self, demo_config, demo_window, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a noiseless run drew random numbers")

        monkeypatch.setattr("curlicue.interferometer._stream", no_stream)
        simulate(demo_config, demo_window)
        simulate(demo_config, demo_window, NoiseModel(0.0, (0.8, 0.1, 0.1), 0.0, seed=5))

    def test_unbalanced_weights_lower_contrast(self, demo_config, demo_window):
        skew = NoiseModel(0.0, (0.8, 0.1, 0.1), 0.0, 0)
        ig = simulate(demo_config, demo_window, skew)
        inten = ig.intensities()
        assert inten.max() > 0.999  # peaks survive
        assert inten.min() > 0.3  # destructive interference no longer complete


_BAD_WAVELENGTHS = "sample wavelengths must be finite, positive and strictly increasing"
_BAD_INTENSITIES = "intensities must be finite and >= 0"


class TestInterferogramType:
    def test_needs_two_samples(self, demo_spec):
        with pytest.raises(ValueError):
            Interferogram(1.0, demo_spec, ((400.0, 0.5),))

    def test_rejects_non_monotone(self, demo_spec):
        with pytest.raises(ValueError):
            Interferogram(1.0, demo_spec, ((401.0, 0.5), (400.0, 0.5)))

    def test_rejects_negative_intensity(self, demo_spec):
        with pytest.raises(ValueError):
            Interferogram(1.0, demo_spec, ((400.0, -0.1), (401.0, 0.5)))

    @pytest.mark.parametrize(
        "rows",
        [(400.0, 401.0, 402.0), ((400.0, 0.5, 0.1), (401.0, 0.5, 0.1)), [[[400.0, 0.5], [401.0, 0.5]]]],
    )
    def test_rejects_non_n_by_2(self, demo_spec, rows):
        with pytest.raises(ValueError):
            Interferogram(1.0, demo_spec, rows)

    @pytest.mark.parametrize("lam", [0.0, -1.0, -1e308])
    def test_rejects_non_positive_wavelength(self, demo_spec, lam):
        with pytest.raises(ValueError):
            Interferogram(1.0, demo_spec, ((lam, 0.5), (401.0, 0.5)))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((math.nan, 0.5), (401.0, 0.5)), _BAD_WAVELENGTHS),
            (((400.0, 0.5), (math.nan, 0.5), (402.0, 0.5)), _BAD_WAVELENGTHS),
            (((400.0, 0.5), (math.inf, 0.5)), _BAD_WAVELENGTHS),
            (((-math.inf, 0.5), (401.0, 0.5)), _BAD_WAVELENGTHS),
            (((400.0, math.nan), (401.0, 0.5)), _BAD_INTENSITIES),
            (((400.0, 0.5), (401.0, math.inf)), _BAD_INTENSITIES),
            (((400.0, 0.5), (401.0, -math.inf)), _BAD_INTENSITIES),
            (((400.0, math.nan), (401.0, -0.1)), _BAD_INTENSITIES),
            (((400.0, 0.5), (401.0, -0.0)), None),
        ],
    )
    def test_non_finite_samples_through_the_constructor_and_the_reader(self, demo_spec, rows, message):
        text = "# curlicue-interferogram v1\n# x_nm=1.0\n# M=3\n# d=2\nlambda_nm,intensity\n"
        text += "".join(f"{lam!r},{inten!r}\n" for lam, inten in rows)
        if message is None:
            want = np.array(rows)
            for ig in (Interferogram(1.0, demo_spec, rows), loads_interferogram(text)):
                assert ig.samples.tobytes() == want.tobytes()  # -0.0 keeps its sign
            return
        with pytest.raises(ValueError) as built:
            Interferogram(1.0, demo_spec, rows)
        with pytest.raises(FileFormatError) as read:
            loads_interferogram(text)
        assert str(built.value) == str(read.value) == message

    @pytest.mark.parametrize("at", [_ORDER_SLICE - 1, _ORDER_SLICE])
    @pytest.mark.parametrize("step", [0.0, -1.0])
    def test_order_is_checked_across_the_slice_edge(self, demo_spec, at, step):
        # the pair (at, at + 1) is the last of the first slice or the first of the second
        lam = 400.0 + np.arange(_ORDER_SLICE + 2, dtype=np.float64)
        lam[at + 1 :] -= lam[at + 1] - lam[at] - step
        rows = np.column_stack([lam, np.full_like(lam, 0.5)])
        text = "# curlicue-interferogram v1\n# x_nm=1.0\n# M=3\n# d=2\nlambda_nm,intensity\n"
        text += "".join(f"{v!r},0.5\n" for v in lam.tolist())
        with pytest.raises(ValueError) as built:
            Interferogram(1.0, demo_spec, rows)
        with pytest.raises(FileFormatError) as read:
            loads_interferogram(text)
        assert str(built.value) == str(read.value) == _BAD_WAVELENGTHS

    @pytest.mark.parametrize("x_nm", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_bad_displacement(self, demo_spec, x_nm):
        with pytest.raises(ValueError):
            Interferogram(x_nm, demo_spec, ((400.0, 0.5), (401.0, 0.5)))

    def test_samples_read_only_and_equality_is_bitwise(self, demo_interferogram):
        ig = demo_interferogram
        assert ig.samples.shape == (2048, 2) and ig.samples.dtype == np.float64
        with pytest.raises(ValueError):
            ig.samples[0, 1] = 0.5
        with pytest.raises(ValueError):
            ig.intensities()[0] = 0.5
        rows = ig.samples.copy()
        twin = Interferogram(ig.displacement_unit_nm, ig.sum_spec, rows, dict(ig.provenance))
        assert twin == ig
        rows[7, 1] = np.nextafter(rows[7, 1], 2.0)  # the constructor copied: twin unchanged
        assert twin == ig
        nudged = Interferogram(ig.displacement_unit_nm, ig.sum_spec, rows, dict(ig.provenance))
        assert nudged != ig

    def test_constructor_copies_the_callers_array(self, demo_interferogram):
        ig = demo_interferogram
        for rows in (ig.samples.copy(order="C"), ig.samples.copy(order="F")):  # both layouts, writable
            twin = Interferogram(ig.displacement_unit_nm, ig.sum_spec, rows, dict(ig.provenance))
            assert not np.shares_memory(twin.samples, rows)
            assert not twin.samples.flags.writeable and rows.flags.writeable
            rows[:, 1] = 0.25
            assert twin == ig

    def test_simulate_hands_over_a_read_only_array(self, demo_config, demo_window):
        ig = simulate(demo_config, demo_window)
        assert not ig.samples.flags.writeable
        assert ig.samples.base is None  # owned outright, not a view of someone's buffer
        with pytest.raises(ValueError):
            ig.wavelengths()[0] = 1.0

    def test_both_columns_are_contiguous(self, demo_config, demo_window, demo_interferogram):
        noisy = simulate(demo_config, demo_window, NoiseModel(10.0, None, 0.02, seed=1))
        rows = demo_interferogram.samples.tolist()
        made = [
            demo_interferogram,
            noisy,
            Interferogram(DEMO_X_NM, demo_config.sum_spec, rows),
            Interferogram(DEMO_X_NM, demo_config.sum_spec, np.ascontiguousarray(rows)),
            loads_interferogram(dumps_interferogram(noisy)),
        ]
        for ig in made:
            assert ig.samples.flags.f_contiguous and ig.samples.shape == (demo_window.pixel_count, 2)
            assert ig.wavelengths().flags.c_contiguous and ig.intensities().flags.c_contiguous
            assert ig.samples.tobytes() == np.ascontiguousarray(ig.samples).tobytes()  # row-major bytes
        assert made[4] == noisy and all(np.array_equal(ig.samples, made[0].samples) for ig in made[2:4])

    def test_provenance_recorded(self, demo_interferogram):
        prov = demo_interferogram.provenance
        assert prov["seed"] == "0"
        assert prov["arm_weights"] == "equal"
        assert "generator" in prov
