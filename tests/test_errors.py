import ast
from pathlib import Path

import numpy as np
import pytest

from curlicue import (
    IndexOutOfRange,
    InterferometerConfig,
    NoiseModel,
    OutOfRange,
    SpectralWindow,
    SumSpec,
    bandwidth_summary,
    displacement_estimate,
    divisors_in_window,
    factorable_range,
    max_displacement,
    min_pixels,
    path_length,
    plan_number_range,
    plan_single_number,
    q_window,
)
from curlicue.errors import checked_int, checked_real

SRC = Path(__file__).resolve().parents[1] / "src" / "curlicue"
LAMP = SpectralWindow(400.0, 800.0)
SPEC = SumSpec(3, 2)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: InterferometerConfig(True, SPEC), ValueError),
        (lambda: InterferometerConfig(1.0, SPEC, reference_length_nm=True), ValueError),
        (lambda: q_window(True, LAMP), ValueError),
        (lambda: displacement_estimate(5, True), ValueError),
        (lambda: divisors_in_window(100, True, 5), OutOfRange),
        (lambda: divisors_in_window(100, 1, True), OutOfRange),
        (lambda: path_length(InterferometerConfig(1.0, SPEC), True), IndexOutOfRange),
        (lambda: SpectralWindow("400", 800.0), ValueError),
        (lambda: SpectralWindow(400.0, "800"), ValueError),
        (lambda: NoiseModel(mirror_sigma_nm="10"), ValueError),
        (lambda: NoiseModel(detector_sigma="0.1"), ValueError),
        # the Philox key's range [0, 2**64)
        (lambda: NoiseModel(seed=-1), ValueError),
        (lambda: NoiseModel(seed=2**64), ValueError),
        (lambda: displacement_estimate(5, "100"), ValueError),
        # a quotient of lengths that leaves float64
        (lambda: q_window(1e10, SpectralWindow(5e-324, 1.0)), OutOfRange),
        (lambda: min_pixels(InterferometerConfig(1.0, SPEC), SpectralWindow(1e-200, 1.0, 4)), OutOfRange),
        (lambda: min_pixels(InterferometerConfig(1e300, SPEC), SpectralWindow(1e-10, 1.0, 4)), OutOfRange),
        (lambda: min_pixels(InterferometerConfig(1.0, SPEC), SpectralWindow(1e160, 2e160, 4)), OutOfRange),
        (lambda: max_displacement(SpectralWindow(1e-300, 1e300)), OutOfRange),
        (lambda: factorable_range(1e300, SpectralWindow(1.0, 2.0)), OutOfRange),
        (lambda: factorable_range(1e10, SpectralWindow(1e-300, 1.0)), OutOfRange),
        (lambda: bandwidth_summary(SpectralWindow(1e-300, 1e300)), OutOfRange),
        (lambda: bandwidth_summary(SpectralWindow(1e-100, 1e100)), OutOfRange),
        (lambda: plan_single_number(9409, SpectralWindow(1e-300, 1e300)), OutOfRange),
        (lambda: plan_number_range(4, 5, SpectralWindow(1e-300, 1e300)), OutOfRange),
        (lambda: plan_number_range(10**4, 10**4 + 1, SpectralWindow(1e-300, 1e5)), OutOfRange),
        (lambda: path_length(InterferometerConfig(1000.0, SumSpec(3, 2000)), 3), OutOfRange),
    ],
    ids=[
        "bool-x", "bool-r", "bool-q-window-x", "bool-lambda", "bool-lo", "bool-hi", "bool-arm",
        "str-lambda-min", "str-lambda-max", "str-mirror-sigma", "str-detector-sigma", "seed-negative",
        "seed-2**64", "str-lambda-estimate",
        "q-window-tiny-lambda", "min-pixels-zero-divisor", "min-pixels-overflow", "min-pixels-square-overflow",
        "max-displacement-overflow", "factorable-n-min-overflow", "factorable-n-max-inf",
        "beta-inf", "beta-squared-inf", "plan-beta-inf", "plan-range-beta-inf", "plan-range-gamma-inf",
        "path-length-overflow",
    ],
)
def test_one_rule_for_every_argument(call, expected):
    with pytest.raises(expected) as err:
        call()
    assert type(err.value) is expected


def test_rule_boundaries():
    assert checked_real(np.float64(2.5), "v", 0, strict=True) == 2.5
    assert checked_real(0, "v", 0, strict=False) == 0.0
    assert checked_int(2**63 - 1, "n", 2, 2**63 - 1) == 2**63 - 1
    assert NoiseModel(seed=2**64 - 1).seed == 2**64 - 1
    for bad in (0, -1.0, float("nan"), float("inf"), 10**400, np.int64(3), True):
        with pytest.raises(ValueError):
            checked_real(bad, "v", 0, strict=True)
    for bad in (1, 2.0, True, np.int64(3)):
        with pytest.raises(OutOfRange):
            checked_int(bad, "n", 2, error=OutOfRange)


def _internal_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(curlicue module, imported name or "") for every import of the package's own code."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name[len("curlicue.") :], "") for a in node.names if a.name.startswith("curlicue.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("curlicue")):
            module = (node.module or "").removeprefix("curlicue").lstrip(".")
            # "from . import io" names modules; "from .io import x" names members
            found += [(module, a.name) if module else (a.name, "") for a in node.names]
    return found


def test_import_walker_sees_every_form():
    tree = ast.parse("from .analysis import _x\nfrom . import io\nimport curlicue.planner\nimport numpy")
    assert _internal_imports(tree) == [("analysis", "_x"), ("io", ""), ("planner", "")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_another(path):
    imports = _internal_imports(ast.parse(path.read_text(encoding="utf-8")))
    for module, name in imports:
        assert not module.split(".")[-1].startswith("_"), f"{path.name} imports private module {module}"
        assert not name.startswith("_"), f"{path.name} imports {name} from {module}"
    if path.stem in ("planner", "plotting"):
        assert "analysis" not in {m for m, _ in imports}, f"{path.name} imports analysis"
