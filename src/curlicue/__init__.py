"""Multi-arm interferometer simulation and integer-ratio factoring analysis.

A polychromatic interferometer whose arm lengths grow polynomially encodes
integer ratios q = x/lambda as dominant maxima of its output spectrum.
This package simulates such interferograms, detects and refines the maxima,
verifies candidate factors by exact integer arithmetic, and plans the
displacement/bandwidth schedules needed to reach a given target size.
"""

from .analysis import (
    FactorReport,
    PeakCandidate,
    RescaledInterferogram,
    detect_peaks,
    extract_factors,
    q_window,
    rescale,
    scan_targets,
)
from .errors import (
    CurlicueError,
    DegenerateBandwidth,
    EmptyWindow,
    FileFormatError,
    IndexOutOfRange,
    InsufficientBandwidth,
    OutOfRange,
    PrecisionExceeded,
    UnderSampled,
)
from .expsum import (
    PRECISION_CEILING,
    PhaseDecomposition,
    SumSpec,
    decompose,
    evaluate,
    intensity,
    main_lobe_halfwidth,
)
from .interferometer import (
    Interferogram,
    InterferometerConfig,
    NoiseModel,
    SpectralWindow,
    min_pixels,
    path_length,
    simulate,
)
from .io import (
    dumps_interferogram,
    loads_interferogram,
    read_interferogram,
    write_interferogram,
)
from .oracle import Factorization, divisors_in_window, trial_division
from .planner import (
    BandwidthSummary,
    DisplacementEstimate,
    MeasurementPlan,
    PlanRun,
    bandwidth_summary,
    displacement_estimate,
    factorable_range,
    max_displacement,
    plan_number_range,
    plan_single_number,
)
from .plotting import interferogram_svg

__version__ = "0.1.0"

__all__ = [
    "BandwidthSummary",
    "CurlicueError",
    "DegenerateBandwidth",
    "DisplacementEstimate",
    "EmptyWindow",
    "Factorization",
    "FactorReport",
    "FileFormatError",
    "IndexOutOfRange",
    "InsufficientBandwidth",
    "Interferogram",
    "InterferometerConfig",
    "MeasurementPlan",
    "NoiseModel",
    "OutOfRange",
    "PRECISION_CEILING",
    "PeakCandidate",
    "PhaseDecomposition",
    "PlanRun",
    "PrecisionExceeded",
    "RescaledInterferogram",
    "SpectralWindow",
    "SumSpec",
    "UnderSampled",
    "bandwidth_summary",
    "decompose",
    "detect_peaks",
    "displacement_estimate",
    "divisors_in_window",
    "dumps_interferogram",
    "evaluate",
    "extract_factors",
    "factorable_range",
    "intensity",
    "interferogram_svg",
    "loads_interferogram",
    "main_lobe_halfwidth",
    "max_displacement",
    "min_pixels",
    "path_length",
    "plan_number_range",
    "plan_single_number",
    "q_window",
    "read_interferogram",
    "rescale",
    "scan_targets",
    "simulate",
    "trial_division",
    "write_interferogram",
]
