"""Forward model of the symmetric multi-arm Michelson interferometer.

Arm m (1-based) sits at optical length r + (m-1)**d * x for displacement
unit x.  A polychromatic source read out through a dispersive spectrometer
samples the normalized interference intensity on a uniform wavelength pixel
grid, producing an Interferogram.  The common reference length r cancels in
the detected intensity (only phase differences survive the modulus square),
so it never enters the numerics and noiseless output is bit-identical for
any r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import IndexOutOfRange, UnderSampled, checked_int, checked_reach, checked_real
from .expsum import SumSpec, main_lobe_halfwidth

GENERATOR_VERSION = "curlicue-sim/1"

# Pixels are processed in fixed-size blocks, one after another, so the
# kernel's temporaries stay cache-sized instead of spanning the grid.
_GRID_BLOCK = 8192

# Interferogram checks the wavelength order over slices of this many pairs, so the
# comparison's boolean temporary is at most 256 KiB at any pixel count.
_ORDER_SLICE = 1 << 18

_PURPOSE_MIRROR = 1
_PURPOSE_DETECTOR = 2


@dataclass(frozen=True)
class InterferometerConfig:
    """Geometry of one measurement: displacement unit, arm progression, reference."""

    displacement_unit_nm: float
    sum_spec: SumSpec
    reference_length_nm: float = 0.0

    def __post_init__(self) -> None:
        x = checked_real(self.displacement_unit_nm, "displacement_unit_nm", 0, strict=True)
        r = checked_real(self.reference_length_nm, "reference_length_nm", 0, strict=False)
        object.__setattr__(self, "displacement_unit_nm", x)
        object.__setattr__(self, "reference_length_nm", r)


@dataclass(frozen=True)
class SpectralWindow:
    """Wavelength interval covered by the spectrometer and its pixel count."""

    lambda_min_nm: float
    lambda_max_nm: float
    pixel_count: int = 2048

    def __post_init__(self) -> None:
        lo = checked_real(self.lambda_min_nm, "lambda_min_nm", 0, strict=True)
        hi = checked_real(self.lambda_max_nm, "lambda_max_nm", lo, strict=True)
        checked_int(self.pixel_count, "pixel_count", lo=2)
        object.__setattr__(self, "lambda_min_nm", lo)
        object.__setattr__(self, "lambda_max_nm", hi)

    def pixel_centers(self) -> np.ndarray:
        """Pixel-center wavelengths lambda_min + (j + 1/2) * dlambda."""
        return _pixel_centers(self, 0, self.pixel_count)


# a block's pixel indices less its first: its centres are written into their column from these
# with no arange temporary
_BLOCK_OFFSETS = np.arange(_GRID_BLOCK, dtype=np.float64)
_BLOCK_OFFSETS.flags.writeable = False


def _pixel_centers(
    window: SpectralWindow, start: int, stop: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The centers of pixels start..stop-1, bit for bit as in the whole grid (j + 1/2 is exact in
    float64).  Given out, at most _GRID_BLOCK long, they are written there with no temporary."""
    step = (window.lambda_max_nm - window.lambda_min_nm) / window.pixel_count
    if out is None:
        out = np.arange(start, stop, dtype=np.float64)
        out += 0.5
    else:
        np.add(_BLOCK_OFFSETS[: stop - start], start + 0.5, out=out)
    out *= step
    out += window.lambda_min_nm
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Instrument imperfections layered on the ideal forward model.

    mirror_sigma_nm is the std of a static per-arm placement error, drawn
    once per simulation: a calibration residual stays fixed across the
    spectral readout.  arm_weights are the relative wave amplitudes (None
    means balanced splitters, all equal).  detector_sigma adds per-pixel
    Gaussian readout noise in intensity units.  All draws derive from the
    master seed, an integer in [0, 2**64) (the Philox key's range), through
    purpose-tagged counter-based streams, so output never depends on
    evaluation order.
    """

    mirror_sigma_nm: float = 10.0
    arm_weights: Optional[tuple[float, ...]] = None
    detector_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        mirror = checked_real(self.mirror_sigma_nm, "mirror_sigma_nm", 0, strict=False)
        detector = checked_real(self.detector_sigma, "detector_sigma", 0, strict=False)
        checked_int(self.seed, "seed", 0, 2**64 - 1)
        object.__setattr__(self, "mirror_sigma_nm", mirror)
        object.__setattr__(self, "detector_sigma", detector)
        if self.arm_weights is not None:
            weights = tuple(float(w) for w in self.arm_weights)
            object.__setattr__(self, "arm_weights", weights)
            if any(w < 0 or not math.isfinite(w) for w in weights):
                raise ValueError("arm weights must be finite and >= 0")
            if abs(sum(weights) - 1.0) > 1e-12:
                raise ValueError(f"arm weights must sum to 1 within 1e-12, got sum {sum(weights)!r}")


@dataclass(frozen=True, eq=False)
class Interferogram:
    """A recorded or simulated spectrum: intensity versus wavelength at fixed x.

    samples is a read-only (N, 2) float64 array held column-major, so that wavelengths()
    and intensities() are contiguous columns: wavelength (nm) > 0, ascending; intensity
    >= 0.  The constructor copies the rows it is given; simulate hands over the array it
    filled, which nothing else holds.
    """

    displacement_unit_nm: float
    sum_spec: SumSpec
    samples: np.ndarray
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.array(self.samples, dtype=np.float64, order="F"))
        self._validate()

    @classmethod
    def _adopt(cls, x_nm: float, spec: SumSpec, samples: np.ndarray, provenance: dict) -> Interferogram:
        """The Interferogram of a column-major float64 array that nothing else holds, without a copy."""
        ig = object.__new__(cls)
        vars(ig).update(displacement_unit_nm=x_nm, sum_spec=spec, samples=samples, provenance=provenance)
        ig._validate()
        return ig

    def _validate(self) -> None:
        """Check the fields the constructor was given, then make samples read-only."""
        x = checked_real(self.displacement_unit_nm, "displacement_unit_nm", 0, strict=True)
        object.__setattr__(self, "displacement_unit_nm", x)
        samples = self.samples
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"samples must be an N x 2 array, got shape {samples.shape}")
        if len(samples) < 2:
            raise ValueError("an interferogram needs at least 2 samples")
        lam, inten = samples.T
        # a strictly increasing column holds no NaN, so it is finite if its last value is; min/max keep NaN.
        # Neighbouring slices share one wavelength, so every pair is compared
        slices = (lam[i : i + _ORDER_SLICE + 1] for i in range(0, len(lam) - 1, _ORDER_SLICE))
        if not (lam[0] > 0 and math.isfinite(lam[-1]) and all((w[1:] > w[:-1]).all() for w in slices)):
            raise ValueError("sample wavelengths must be finite, positive and strictly increasing")
        if not (inten.min() >= 0 and math.isfinite(inten.max())):
            raise ValueError("intensities must be finite and >= 0")
        samples.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interferogram):
            return NotImplemented
        return (
            self.displacement_unit_nm == other.displacement_unit_nm
            and self.sum_spec == other.sum_spec
            and self.provenance == other.provenance
            and np.array_equal(self.samples, other.samples)
        )

    def wavelengths(self) -> np.ndarray:
        return self.samples[:, 0]

    def intensities(self) -> np.ndarray:
        return self.samples[:, 1]


def path_length(config: InterferometerConfig, m: int) -> float:
    """Optical length r + (m-1)**d * x of arm m, 1-based."""
    checked_int(m, "arm index", 1, config.sum_spec.path_count, error=IndexOutOfRange)
    return checked_reach(
        lambda: config.reference_length_nm + (m - 1) ** config.sum_spec.order * config.displacement_unit_nm,
        "the arm length r + (m-1)**d * x",
    )


def min_pixels(config: InterferometerConfig, window: SpectralWindow) -> int:
    """Smallest pixel count that keeps the ratio grid fine enough for peak fitting.

    The guard requires the grid step in xi = x/lambda, at the steep end of
    the window, to be at most a quarter of the main-lobe halfwidth: at least
    eight samples across each lobe, enough for three-point refinement.
    """
    halfwidth = main_lobe_halfwidth(config.sum_spec)
    span = window.lambda_max_nm - window.lambda_min_nm
    required = checked_reach(
        lambda: 4.0 * config.displacement_unit_nm * span / (halfwidth * window.lambda_min_nm**2),
        "the pixel count 4*x*(lambda_max - lambda_min)/(halfwidth*lambda_min**2)",
    )
    return max(2, math.ceil(required * (1.0 - 1e-9)))


# what noise=None means: seed 0, no mirror or detector noise, equal arm weights
_NOISELESS = NoiseModel(mirror_sigma_nm=0.0)


def _stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    key = np.array([seed, (purpose << 32) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fill_samples(
    samples: np.ndarray,
    window: SpectralWindow,
    x_nm: float,
    flat: float,
    waves: list[tuple[float, float, float]],
    noise: NoiseModel,
) -> None:
    """Write the window's pixel centres and their intensities into samples' two columns.

    The pixels go _GRID_BLOCK at a time, and every ufunc writes into one of five block-long work
    columns made once per call, so no block allocates.  The operations and their order are those
    of the whole-grid formula, so every bit is the same: tau = ratio - round(ratio), then per wave
    v = c*tau (+ delta/lambda), u = (v - round(v)) * 2 pi, re += w*cos(u), im += w*sin(u), and last
    re*re + im*im, the detector noise and the clip.  The work columns are this call's locals, so
    they are freed before the caller checks the samples.
    """
    # one stream gives its normals in order, whatever the block sizes, so drawing per block keeps
    # the bits of one whole-grid draw; normal(0, sigma) is 0.0 + sigma * standard_normal, and the
    # 0.0 only turns a -0.0 into +0.0, which adding it to re*re + im*im >= +0.0 cannot show
    detector = _stream(noise.seed, _PURPOSE_DETECTOR, 0) if noise.detector_sigma > 0 else None
    ceiling = 1.0 + 5.0 * noise.detector_sigma
    size = min(len(samples), _GRID_BLOCK)
    tau_w, re_w, im_w, u_w, scratch_w = (np.empty(size) for _ in range(5))
    for start in range(0, len(samples), _GRID_BLOCK):
        lam = samples[start : start + _GRID_BLOCK, 0]
        n = len(lam)
        tau, re, im, u, scratch = tau_w[:n], re_w[:n], im_w[:n], u_w[:n], scratch_w[:n]
        _pixel_centers(window, start, start + n, out=lam)
        np.divide(x_nm, lam, out=tau)
        tau -= np.round(tau, out=scratch)
        re.fill(flat)
        im.fill(0.0)
        for c, w, delta in waves:
            np.multiply(c, tau, out=u)
            if delta != 0.0:
                # adding 0.0 / lambda would only turn a -0.0 phase into +0.0, and the
                # rounding below gives +0.0 for either
                u += np.divide(delta, lam, out=scratch)
            u -= np.round(u, out=scratch)
            u *= 2 * math.pi
            re += np.multiply(np.cos(u, out=scratch), w, out=scratch)
            im += np.multiply(np.sin(u, out=scratch), w, out=scratch)
        re *= re
        im *= im
        re += im
        if detector is not None:
            re += np.multiply(detector.standard_normal(out=scratch), noise.detector_sigma, out=scratch)
        np.clip(re, 0.0, ceiling, out=samples[start : start + n, 1])


def simulate(
    config: InterferometerConfig,
    window: SpectralWindow,
    noise: Optional[NoiseModel] = None,
    *,
    allow_undersampled: bool = False,
) -> Interferogram:
    """Sample the interferogram on the window's pixel grid.

    noise=None is the zero model, NoiseModel(mirror_sigma_nm=0.0): the result
    at pixel j is exactly the normalized sum intensity at x/lambda_j, and no
    random number is drawn.  Otherwise static per-arm placement errors,
    amplitude weights, and per-pixel detector noise (clipped to the valid
    intensity band) apply on top.  The same config, window, and noise model
    (seed included) always produce identical output.

    Per pixel the kernel computes one division, one cosine and one sine per
    arm whose phase is not identically zero (bit-equal to the complex exp when
    numpy's trig calls libm), and one more division per arm with a mirror
    offset.  Arm 0 sits at the reference length, so an M-arm run without mirror
    error evaluates M - 1 waves per pixel and a run with mirror error M.

    Memory: the samples (16 B per pixel), filled in place with five float64 work
    columns of one block (at most 320 KiB), which are freed before the samples
    are checked; the order check adds one boolean per pixel of a 2**18-pixel slice
    (256 KiB).
    """
    if noise is None:
        noise = _NOISELESS
    required = min_pixels(config, window)
    if window.pixel_count < required and not allow_undersampled:
        raise UnderSampled(required=required, given=window.pixel_count)

    spec = config.sum_spec
    arms = spec.path_count
    coeffs = [float(m**spec.order) for m in range(arms)]

    weights = [1.0 / arms] * arms if noise.arm_weights is None else list(noise.arm_weights)
    if len(weights) != arms:
        raise ValueError(f"expected {arms} arm weights, got {len(weights)}")

    deltas = [0.0] * arms
    if noise.mirror_sigma_nm > 0:
        deltas = [
            float(_stream(noise.seed, _PURPOSE_MIRROR, m).normal(0.0, noise.mirror_sigma_nm))
            for m in range(arms)
        ]

    # arm 0 (c = 0, first in the sum) without mirror error has phase 0 at every pixel, and
    # w * cos(0) + i * w * sin(0) is exactly w + 0j: its weight starts the real sum, with no trig
    arm_list = list(zip(coeffs, weights, deltas))
    flat = sum(w for c, w, delta in arm_list if c == 0.0 and delta == 0.0)
    waves = [(c, w, delta) for c, w, delta in arm_list if c != 0.0 or delta != 0.0]

    # column-major, filled block by block and handed to the Interferogram without a copy: the
    # samples, not a second grid, set simulate's memory peak
    samples = np.empty((window.pixel_count, 2), order="F")
    _fill_samples(samples, window, config.displacement_unit_nm, flat, waves, noise)

    provenance = {
        "r_nm": repr(float(config.reference_length_nm)),
        "seed": str(noise.seed),
        "mirror_sigma_nm": repr(noise.mirror_sigma_nm),
        "detector_sigma": repr(noise.detector_sigma),
        "arm_weights": "equal" if noise.arm_weights is None else ",".join(map(repr, noise.arm_weights)),
        "generator": GENERATOR_VERSION,
    }
    return Interferogram._adopt(config.displacement_unit_nm, spec, samples, provenance)
