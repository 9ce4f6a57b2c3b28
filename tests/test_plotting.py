import hashlib
import tracemalloc

import numpy as np
import pytest

from curlicue import (
    InterferometerConfig,
    SpectralWindow,
    SumSpec,
    interferogram_svg,
    min_pixels,
    plotting,
    simulate,
)


class TestSvgRendering:
    def test_deterministic_bytes(self, demo_interferogram):
        a = interferogram_svg(demo_interferogram, [1308567, 1306349])
        b = interferogram_svg(demo_interferogram, [1308567, 1306349])
        assert a == b

    def test_well_formed_envelope(self, demo_interferogram):
        svg = interferogram_svg(demo_interferogram)
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg " in svg
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline " in svg

    def test_rescaled_axes_carry_integer_ticks(self, demo_interferogram):
        svg = interferogram_svg(demo_interferogram, [1308567, 1306349])
        # factors of both demo targets must appear as tick labels
        assert ">1157<" in svg
        assert ">1153<" in svg
        assert "n=1308567" in svg
        assert "n=1306349" in svg

    def test_plain_plot_has_no_target_axes(self, demo_interferogram):
        svg = interferogram_svg(demo_interferogram)
        assert "#8c2d2d" not in svg  # target-axis color never drawn
        assert "n=1308567" not in svg

    def test_single_target(self, demo_interferogram):
        svg = interferogram_svg(demo_interferogram, [1308567])
        assert "n=1308567" in svg
        assert "n=1306349" not in svg

    def test_rejects_more_than_two_targets(self, demo_interferogram):
        with pytest.raises(ValueError):
            interferogram_svg(demo_interferogram, [10, 20, 30])

    def test_wavelength_labels_present(self, demo_interferogram):
        svg = interferogram_svg(demo_interferogram)
        assert "wavelength (nm)" in svg
        assert "intensity" in svg


def _reference_points(xs, ys):
    # the per-point loop the polyline was once built with, kept as the definition of its text
    return " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))


def _same(values):  # coordinates given in device units already
    return values


def _tricky_values():
    k = np.arange(1000.0)
    ties = np.concatenate([k + 0.125, k + 0.375, k + 0.625, k + 0.875])  # exact binary ties
    near = (k[::7, None] + (np.arange(100) + 0.5) / 100).ravel()  # decimal near-ties, k + 0.005 ...
    values = np.concatenate([
        [0.0, 0.004999, 0.005, 9.995, 99.995, 99.999, 999.995, 999.999, 70.125, 0.375],
        k,  # whole numbers
        ties,
        np.nextafter(ties, 0.0),
        np.nextafter(ties, np.inf),
        near,
        near + 2e-8,  # 100 v just past the 1e-6 band around the half
        near - 2e-8,
        np.random.default_rng(19).uniform(0.0, 1000.0, 5000),
    ])
    return values[values < 1000.0]


@pytest.fixture(scope="module")
def cli_session_spectrum():
    # x = 9401 * 400 nm / 4 over 400-800 nm at min_pixels: 125,775 px
    window = SpectralWindow(400.0, 800.0)
    config = InterferometerConfig(940100.0, SumSpec(3, 2))
    return simulate(config, SpectralWindow(400.0, 800.0, min_pixels(config, window)))


def _sha256(svg: str) -> str:
    return hashlib.sha256(svg.encode("utf-8")).hexdigest()


class TestPolylinePoints:
    @pytest.mark.parametrize(
        "targets, digest",
        [
            ((), "0dd980b359575a55a642bd3934f3f682a1b1c9d3c0aa686dd7b546567a304a10"),
            ((1308567,), "05fdaad234c9af47aa7fe8b33e10af29353ea17d1b26d01b1e289698e365d61e"),
            ((1308567, 1306349), "94fbb0acdfb5b8122b17e532a3f40ef2268c77acf1e96de924d41c76b3775feb"),
        ],
    )
    def test_golden_demo_svg(self, demo_interferogram, targets, digest):
        assert _sha256(interferogram_svg(demo_interferogram, targets)) == digest

    def test_golden_cli_session_svg(self, cli_session_spectrum):
        assert len(cli_session_spectrum.samples) == 125_775
        svg = interferogram_svg(cli_session_spectrum, [9401, 9409])
        assert _sha256(svg) == "53dd3dc56fa75665df8976d46bcbbdfbff7bc0fb74cdb8b718b3fca641a6d709"

    def test_binary_ties_round_half_even(self):
        # 70.125 and 0.375 are exact binary ties; 999.995 is stored just above its decimal tie
        points = plotting._polyline_points(np.array([70.125, 0.375]), np.array([0.0, 999.995]), _same, _same)
        assert points == "70.12,0.00 0.38,1000.00"

    @pytest.mark.parametrize("block", [1, 7, 8192])
    def test_matches_the_per_point_loop(self, monkeypatch, block):
        values = _tricky_values()
        xs, ys = values, values[::-1].copy()
        if block == 1:  # one numpy pass per point: a slice that still holds every kind of value
            xs, ys = xs[::5], ys[::5]
        monkeypatch.setattr(plotting, "_POINT_BLOCK", block)
        assert plotting._polyline_points(xs, ys, _same, _same) == _reference_points(xs, ys)

    def test_memory_peak_is_bounded_by_the_text(self, cli_session_spectrum):
        interferogram_svg(cli_session_spectrum, [9401, 9409])
        tracemalloc.start()
        try:
            svg = interferogram_svg(cli_session_spectrum, [9401, 9409])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the per-point loop peaked at 10.8x the text, in its two lists of Python floats; the
        # block texts, their join and the one final join of the chart measure 2.24x
        assert peak <= 2.3 * len(svg)
