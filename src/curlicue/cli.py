"""Command-line surface: simulate, factor, scan, plan, plot, oracle.

Exit codes: 0 success (for factor/scan: at least one factor pair found),
1 clean run with no factors, 2 usage or input-format fault, 3 undersampled
pixel grid, 4 ratio precision ceiling exceeded, 5 insufficient bandwidth
for the requested plan.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import io as igio
from . import plotting
from .analysis import DEFAULT_EPSILON, DEFAULT_THRESHOLD, FactorReport, extract_factors, scan_targets
from .errors import (
    CurlicueError,
    InsufficientBandwidth,
    PrecisionExceeded,
    UnderSampled,
)
from .expsum import SumSpec
from .interferometer import InterferometerConfig, NoiseModel, SpectralWindow, min_pixels, simulate
from .oracle import divisors_in_window, trial_division
from .planner import MeasurementPlan, plan_number_range, plan_single_number

EXIT_OK = 0
EXIT_NO_FACTORS = 1
EXIT_USAGE = 2
EXIT_UNDERSAMPLED = 3
EXIT_PRECISION = 4
EXIT_BANDWIDTH = 5


def _report_payload(report: FactorReport) -> dict:
    return {
        "n": report.n,
        "q_window": [report.q_window[0], report.q_window[1]],
        "factors": [[q, c] for q, c in report.factors],
        "candidates": [
            {
                "lambda_peak": cand.lambda_peak_nm,
                "intensity": cand.intensity_peak,
                "q": cand.q,
                "residual": cand.residual,
            }
            for cand in report.candidates
        ],
        "params": {
            "threshold": report.diagnostics["threshold"],
            "epsilon": report.diagnostics["epsilon"],
        },
    }


def _report_text(report: FactorReport) -> str:
    lines = [f"n = {report.n}", f"q window: [{report.q_window[0]}, {report.q_window[1]}]"]
    if report.factors:
        for q, c in report.factors:
            lines.append(f"factor: {q} x {c}")
    else:
        lines.append("no factors found")
    for cand in report.candidates:
        lines.append(
            f"peak: q={cand.q} lambda={cand.lambda_peak_nm:.6f} nm "
            f"intensity={cand.intensity_peak:.6f} residual={cand.residual:+.6f}"
        )
    return "\n".join(lines)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_simulate(args) -> int:
    spec = SumSpec(args.paths, args.order)
    config = InterferometerConfig(displacement_unit_nm=args.x, sum_spec=spec)
    window = SpectralWindow(args.lambda_min, args.lambda_max, args.pixels)
    noise = None
    if args.mirror_sigma > 0 or args.detector_sigma > 0:
        noise = NoiseModel(
            mirror_sigma_nm=args.mirror_sigma,
            detector_sigma=args.detector_sigma,
            seed=args.seed,
        )
    ig = simulate(config, window, noise, allow_undersampled=args.allow_undersampled)
    text = igio.dumps_interferogram(ig)
    if args.out:
        Path(args.out).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    if args.plot:
        Path(args.plot).write_bytes(plotting.interferogram_svg(ig).encode("utf-8"))
    return EXIT_OK


def _cmd_factor(args) -> int:
    ig = igio.read_interferogram(args.interferogram)
    report = extract_factors(ig, args.n, threshold=args.threshold, epsilon=args.epsilon)
    if args.format == "json":
        _print_json(_report_payload(report))
    else:
        print(_report_text(report))
    return EXIT_OK if report.factors else EXIT_NO_FACTORS


def _parse_targets(raw: str) -> list[int]:
    tokens = [tok for chunk in raw.split(",") for tok in chunk.split()]
    return [int(tok) for tok in tokens if tok]


def _cmd_scan(args) -> int:
    if args.targets is not None:
        targets = _parse_targets(args.targets)
    else:
        targets = _parse_targets(Path(args.targets_file).read_text(encoding="utf-8"))
    ig = igio.read_interferogram(args.interferogram)
    reports = scan_targets(ig, targets, threshold=args.threshold, epsilon=args.epsilon)
    _print_json([_report_payload(r) for r in reports])
    return EXIT_OK if any(r.factors for r in reports) else EXIT_NO_FACTORS


def _plan_payload(plan: MeasurementPlan, extra: dict) -> dict:
    payload = dict(extra)
    payload.update(
        {
            "scheme": plan.scheme,
            "ratio": plan.ratio,
            "n_runs": plan.n_runs,
            "runs": [{"x_nm": r.x_nm, "xi_lo": r.xi_lo, "xi_hi": r.xi_hi} for r in plan.runs],
        }
    )
    return payload


def _cmd_plan(args) -> int:
    window = SpectralWindow(args.lambda_min, args.lambda_max)
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise ValueError("give either --n or --n-min/--n-max, not both")
        plan = plan_single_number(args.n, window)
        extra = {"n": args.n}
    else:
        if args.n_min is None or args.n_max is None:
            raise ValueError("need --n, or both --n-min and --n-max")
        plan = plan_number_range(args.n_min, args.n_max, window)
        extra = {"n_min": args.n_min, "n_max": args.n_max}
    _print_json(_plan_payload(plan, extra))
    if args.emit_configs:
        out_dir = Path(args.emit_configs)
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = SumSpec(args.paths, args.order)
        for i, run in enumerate(plan.runs):
            config = InterferometerConfig(displacement_unit_nm=run.x_nm, sum_spec=spec)
            pixels = min_pixels(config, window)
            flags = [
                "--x", repr(run.x_nm),
                "--lambda-min", repr(float(args.lambda_min)),
                "--lambda-max", repr(float(args.lambda_max)),
                "--pixels", str(pixels),
                "--paths", str(args.paths),
                "--order", str(args.order),
            ]
            (out_dir / f"run_{i:03d}.args").write_text("\n".join(flags) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_plot(args) -> int:
    ig = igio.read_interferogram(args.interferogram)
    Path(args.out).write_bytes(plotting.interferogram_svg(ig, args.n or ()).encode("utf-8"))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    fact = trial_division(args.n)
    payload = {
        "n": fact.n,
        "prime_powers": [[p, e] for p, e in fact.prime_powers],
        "is_prime": fact.is_prime,
        "divisors": fact.divisors(),
    }
    if args.window:
        lo_s, _, hi_s = args.window.partition(",")
        lo, hi = int(lo_s), int(hi_s)
        payload["window"] = [lo, hi]
        payload["window_divisors"] = divisors_in_window(args.n, lo, hi)
    _print_json(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curlicue",
        description="Simulate multi-arm interferograms and read integer factorizations from them.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate an interferogram and write the v1 CSV")
    p.add_argument("--x", type=float, required=True, help="displacement unit in nm")
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--pixels", type=int, default=2048)
    p.add_argument("--paths", type=int, default=3, help="number of interfering arms M")
    p.add_argument("--order", type=int, default=2, help="arm-length polynomial order d")
    p.add_argument("--mirror-sigma", type=float, default=0.0, help="per-arm placement error std, nm")
    p.add_argument("--detector-sigma", type=float, default=0.0, help="per-pixel readout noise std")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--plot", help="also write an SVG chart here")
    p.add_argument("--allow-undersampled", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("factor", help="extract factors of one target from an interferogram")
    p.add_argument("--interferogram", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("scan", help="factor many targets from one interferogram")
    p.add_argument("--interferogram", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--targets", help="comma- or space-separated integers")
    group.add_argument("--targets-file", help="file of integers")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("plan", help="multi-run displacement schedule for large targets")
    p.add_argument("--n", type=int, help="single target")
    p.add_argument("--n-min", type=int, help="range scheme lower bound")
    p.add_argument("--n-max", type=int, help="range scheme upper bound")
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--paths", type=int, default=3)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--emit-configs", help="directory for simulate-ready @flag files, one per run")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("plot", help="render an interferogram (plus rescaled axes) to SVG")
    p.add_argument("--interferogram", required=True)
    p.add_argument("--n", type=int, action="append", help="rescaled-axis target; repeat up to twice")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("oracle", help="trial-division factorization ground truth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", help="lo,hi divisor window")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnderSampled as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDERSAMPLED
    except PrecisionExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except InsufficientBandwidth as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BANDWIDTH
    except (CurlicueError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
