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
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import IndexOutOfRange, UnderSampled
from .expsum import SumSpec, main_lobe_halfwidth

GENERATOR_VERSION = "curlicue-sim/1"

# Pixels are processed in fixed-size blocks, one after another, so the
# kernel's complex temporaries stay cache-sized instead of spanning the grid.
_GRID_BLOCK = 8192

_PURPOSE_MIRROR = 1
_PURPOSE_DETECTOR = 2


def _checked_displacement(x, name: str) -> float:
    """x as a float; ValueError unless it is a positive finite int or float."""
    if not (isinstance(x, (int, float)) and 0 < x <= sys.float_info.max):
        raise ValueError(f"{name} must be a positive finite number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class InterferometerConfig:
    """Geometry of one measurement: displacement unit, arm progression, reference."""

    displacement_unit_nm: float
    sum_spec: SumSpec
    reference_length_nm: float = 0.0

    def __post_init__(self) -> None:
        x = _checked_displacement(self.displacement_unit_nm, "displacement_unit_nm")
        r = self.reference_length_nm
        if not (isinstance(r, (int, float)) and math.isfinite(r) and r >= 0):
            raise ValueError(f"reference_length_nm must be >= 0, got {r!r}")
        object.__setattr__(self, "displacement_unit_nm", x)
        object.__setattr__(self, "reference_length_nm", float(r))


@dataclass(frozen=True)
class SpectralWindow:
    """Wavelength interval covered by the spectrometer and its pixel count."""

    lambda_min_nm: float
    lambda_max_nm: float
    pixel_count: int = 2048

    def __post_init__(self) -> None:
        lo, hi = self.lambda_min_nm, self.lambda_max_nm
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
            raise ValueError(f"window must satisfy 0 < lambda_min < lambda_max, got [{lo!r}, {hi!r}]")
        if not isinstance(self.pixel_count, int) or isinstance(self.pixel_count, bool) or self.pixel_count < 2:
            raise ValueError(f"pixel_count must be an integer >= 2, got {self.pixel_count!r}")
        object.__setattr__(self, "lambda_min_nm", float(lo))
        object.__setattr__(self, "lambda_max_nm", float(hi))

    def pixel_centers(self) -> np.ndarray:
        """Pixel-center wavelengths lambda_min + (j + 1/2) * dlambda."""
        step = (self.lambda_max_nm - self.lambda_min_nm) / self.pixel_count
        j = np.arange(self.pixel_count, dtype=np.float64)
        return self.lambda_min_nm + (j + 0.5) * step


@dataclass(frozen=True)
class NoiseModel:
    """Instrument imperfections layered on the ideal forward model.

    mirror_sigma_nm is the std of a static per-arm placement error, drawn
    once per simulation: a calibration residual stays fixed across the
    spectral readout.  arm_weights are the relative wave amplitudes (None
    means balanced splitters, all equal).  detector_sigma adds per-pixel
    Gaussian readout noise in intensity units.  All draws derive from the
    master seed through purpose-tagged counter-based streams, so output
    never depends on evaluation order.
    """

    mirror_sigma_nm: float = 10.0
    arm_weights: Optional[tuple[float, ...]] = None
    detector_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mirror_sigma_nm) and self.mirror_sigma_nm >= 0):
            raise ValueError(f"mirror_sigma_nm must be >= 0, got {self.mirror_sigma_nm!r}")
        if not (math.isfinite(self.detector_sigma) and self.detector_sigma >= 0):
            raise ValueError(f"detector_sigma must be >= 0, got {self.detector_sigma!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "mirror_sigma_nm", float(self.mirror_sigma_nm))
        object.__setattr__(self, "detector_sigma", float(self.detector_sigma))
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

    samples is a read-only (N, 2) float64 copy of the given rows: wavelength (nm), intensity.
    """

    displacement_unit_nm: float
    sum_spec: SumSpec
    samples: np.ndarray
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _checked_displacement(self.displacement_unit_nm, "displacement_unit_nm")
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"samples must be an N x 2 array, got shape {samples.shape}")
        if len(samples) < 2:
            raise ValueError("an interferogram needs at least 2 samples")
        lam, inten = samples.T
        if not (np.all(np.isfinite(lam)) and np.all(np.diff(lam) > 0)):
            raise ValueError("sample wavelengths must be finite and strictly increasing")
        if not (np.all(np.isfinite(inten)) and np.all(inten >= 0)):
            raise ValueError("intensities must be finite and >= 0")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

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
    arms = config.sum_spec.path_count
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= arms:
        raise IndexOutOfRange(f"arm index {m!r} outside 1..{arms}")
    return config.reference_length_nm + (m - 1) ** config.sum_spec.order * config.displacement_unit_nm


def min_pixels(config: InterferometerConfig, window: SpectralWindow) -> int:
    """Smallest pixel count that keeps the ratio grid fine enough for peak fitting.

    The guard requires the grid step in xi = x/lambda, at the steep end of
    the window, to be at most a quarter of the main-lobe halfwidth: at least
    eight samples across each lobe, enough for three-point refinement.
    """
    halfwidth = main_lobe_halfwidth(config.sum_spec)
    span = window.lambda_max_nm - window.lambda_min_nm
    required = 4.0 * config.displacement_unit_nm * span / (halfwidth * window.lambda_min_nm**2)
    return max(2, math.ceil(required * (1.0 - 1e-9)))


def _stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    key = np.array([seed % 2**64, ((purpose << 32) | index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate(
    config: InterferometerConfig,
    window: SpectralWindow,
    noise: Optional[NoiseModel] = None,
    *,
    allow_undersampled: bool = False,
) -> Interferogram:
    """Sample the interferogram on the window's pixel grid.

    Without a noise model the result at pixel j is exactly the normalized
    sum intensity at x/lambda_j.  With one, static per-arm placement errors,
    amplitude weights, and per-pixel detector noise (clipped to the valid
    intensity band) apply on top.  The same config, window, and noise model
    (seed included) always produce identical output.
    """
    required = min_pixels(config, window)
    if window.pixel_count < required and not allow_undersampled:
        raise UnderSampled(required=required, given=window.pixel_count)

    spec = config.sum_spec
    arms = spec.path_count
    coeffs = [float(m**spec.order) for m in range(arms)]

    if noise is not None and noise.arm_weights is not None:
        if len(noise.arm_weights) != arms:
            raise ValueError(f"expected {arms} arm weights, got {len(noise.arm_weights)}")
        weights = list(noise.arm_weights)
    else:
        weights = [1.0 / arms] * arms

    deltas = [0.0] * arms
    if noise is not None and noise.mirror_sigma_nm > 0:
        deltas = [
            float(_stream(noise.seed, _PURPOSE_MIRROR, m).normal(0.0, noise.mirror_sigma_nm))
            for m in range(arms)
        ]

    lam = window.pixel_centers()
    detector = None
    ceiling = 1.0
    if noise is not None and noise.detector_sigma > 0:
        detector = _stream(noise.seed, _PURPOSE_DETECTOR, 0).normal(
            0.0, noise.detector_sigma, size=window.pixel_count
        )
        ceiling = 1.0 + 5.0 * noise.detector_sigma

    samples = np.empty((window.pixel_count, 2))
    samples[:, 0] = lam
    for start in range(0, window.pixel_count, _GRID_BLOCK):
        block = slice(start, start + _GRID_BLOCK)
        lam_b = lam[block]
        ratio = config.displacement_unit_nm / lam_b
        tau = ratio - np.round(ratio)
        acc = np.zeros(lam_b.shape, dtype=np.complex128)
        for c, w, delta in zip(coeffs, weights, deltas):
            v = c * tau + delta / lam_b
            u = v - np.round(v)
            acc += w * np.exp((2j * math.pi) * u)
        values = acc.real**2 + acc.imag**2
        if detector is not None:
            values += detector[block]
        np.clip(values, 0.0, ceiling, out=samples[block, 1])

    provenance = {
        "r_nm": repr(float(config.reference_length_nm)),
        "seed": str(noise.seed if noise is not None else 0),
        "mirror_sigma_nm": repr(float(noise.mirror_sigma_nm) if noise is not None else 0.0),
        "detector_sigma": repr(float(noise.detector_sigma) if noise is not None else 0.0),
        "arm_weights": (
            "equal"
            if noise is None or noise.arm_weights is None
            else ",".join(repr(w) for w in noise.arm_weights)
        ),
        "generator": GENERATOR_VERSION,
    }
    return Interferogram(
        displacement_unit_nm=config.displacement_unit_nm,
        sum_spec=spec,
        samples=samples,
        provenance=provenance,
    )
