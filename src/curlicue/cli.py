"""Command-line surface: simulate, factor, scan, plan, plot, oracle.

Exit codes: 0 success (for factor/scan: at least one factor pair found),
1 clean run with no factors, 2 usage or input-format fault, 3 undersampled
pixel grid, 4 ratio precision ceiling exceeded, 5 insufficient bandwidth
for the requested plan.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import io as igio
from . import plotting
from .analysis import DEFAULT_EPSILON, DEFAULT_THRESHOLD, scan_pairs
# extract_factors and scan_targets are not called here, but perfbench/tracing.py binds both in this module
from .analysis import extract_factors, scan_targets  # noqa: F401
from .errors import CurlicueError, InsufficientBandwidth, PrecisionExceeded, UnderSampled
from .expsum import SumSpec
from .interferometer import InterferometerConfig, NoiseModel, SpectralWindow, min_pixels, simulate
# divisors_in_window is not called here, but perfbench/tracing.py binds it in this module
from .oracle import checked_window, divisors_in_window, trial_division  # noqa: F401
from .planner import MeasurementPlan, plan_number_range, plan_single_number

EXIT_OK = 0
EXIT_NO_FACTORS = 1
EXIT_USAGE = 2
EXIT_UNDERSAMPLED = 3
EXIT_PRECISION = 4
EXIT_BANDWIDTH = 5
_EXIT_CODES = (
    (UnderSampled, EXIT_UNDERSAMPLED),
    (PrecisionExceeded, EXIT_PRECISION),
    (InsufficientBandwidth, EXIT_BANDWIDTH),
)
_TARGETS_BLOCK = 1 << 20  # characters of a --targets-file parsed at a time
# longest target token: int() refuses more than 4,300 digits by default, so no longer token is
# a target, and carrying one from block to block would copy it again per block
_TOKEN_MAX = 1 << 20
# characters of scan reports per write, about 190 reports on the demo spectrum; a report is
# never split, so a write holds at least one
_WRITE_CHARS = 1 << 18


def _candidates_json(candidates, pad: str = "") -> str:
    """The candidate list as json.dumps(..., indent=2), its lines set one level deeper than pad.

    One template per candidate; floats are written as json writes them, repr() for finite ones
    and NaN, Infinity and -Infinity for the rest.
    """
    if not candidates:
        return "[]"
    nl, num = "\n  " + pad, float.__repr__
    text = ("," + nl).join([
        f'  {{{nl}    "lambda_peak": {num(c.lambda_peak_nm)},{nl}    "intensity": {num(c.intensity_peak)},'
        f'{nl}    "q": {int.__repr__(c.q)},{nl}    "residual": {num(c.residual)}{nl}  }}'
        for c in candidates
    ])
    # every value follows ": ", and no finite float's or int's repr starts with "nan" or "inf"
    for py, js in ((": nan", ": NaN"), (": inf", ": Infinity"), (": -inf", ": -Infinity")):
        text = text.replace(py, js)
    return "[" + nl + text + nl + "]"


def _report_encoder(window, candidates, threshold, epsilon, pad: str = "") -> Callable[[int, tuple], str]:
    """A function of (n, factors) that writes target n's report with this q window, candidates
    and params (finite ints or floats) as json.dumps(..., indent=2) with pad after every newline,
    numbers as _candidates_json writes them; the text every target shares is formatted here, once.
    """
    nl, num, (lo, hi) = "\n" + pad, int.__repr__, window
    threshold, epsilon = [(num if isinstance(v, int) else float.__repr__)(v) for v in (threshold, epsilon)]
    head = f'{{{nl}  "n": '
    middle = f',{nl}  "q_window": [{nl}    {num(lo)},{nl}    {num(hi)}{nl}  ],{nl}  "factors": '
    tail = (
        f',{nl}  "candidates": {_candidates_json(candidates, pad)},'
        f'{nl}  "params": {{{nl}    "threshold": {threshold},{nl}    "epsilon": {epsilon}{nl}  }}{nl}}}'
    )

    def encode(n: int, factors: tuple) -> str:
        if not factors:
            return f"{head}{num(n)}{middle}[]{tail}"
        pairs = f",{nl}    ".join([f"[{nl}      {num(q)},{nl}      {num(c)}{nl}    ]" for q, c in factors])
        return f"{head}{num(n)}{middle}[{nl}    {pairs}{nl}  ]{tail}"

    return encode


def _report_text(n: int, window, candidates, factors) -> str:
    lines = [f"n = {n}", f"q window: [{window[0]}, {window[1]}]"]
    lines += [f"factor: {q} x {c}" for q, c in factors] or ["no factors found"]
    lines += [
        f"peak: q={c.q} lambda={c.lambda_peak_nm:.6f} nm "
        f"intensity={c.intensity_peak:.6f} residual={c.residual:+.6f}"
        for c in candidates
    ]
    return "\n".join(lines)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_simulate(args) -> int:
    spec = SumSpec(args.paths, args.order)
    config = InterferometerConfig(displacement_unit_nm=args.x, sum_spec=spec)
    window = SpectralWindow(args.lambda_min, args.lambda_max, args.pixels)
    noise = NoiseModel(args.mirror_sigma, detector_sigma=args.detector_sigma, seed=args.seed)
    ig = simulate(config, window, noise, allow_undersampled=args.allow_undersampled)
    # the plot goes first, and goes again if the spectrum fails: a failed run leaves neither
    if args.plot:
        Path(args.plot).write_bytes(plotting.interferogram_svg(ig).encode("utf-8"))
    try:
        if args.out:
            igio.write_interferogram(ig, args.out)
        else:
            for block in igio._text_blocks(ig):  # dumps_interferogram's text, a block at a time
                sys.stdout.write(block)
    except BaseException:
        if args.plot:
            Path(args.plot).unlink(missing_ok=True)
        raise
    return EXIT_OK


def _cmd_factor(args) -> int:
    ig = igio.read_interferogram(args.interferogram)
    # scan with one target: the same pass, checks and report encoder as _cmd_scan
    (n,), window, candidates, _, (factors,) = scan_pairs(ig, [args.n], args.threshold, args.epsilon)
    if args.format == "json":
        print(_report_encoder(window, candidates, args.threshold, args.epsilon)(n, factors))
    else:
        print(_report_text(n, window, candidates, factors))
    return EXIT_OK if factors else EXIT_NO_FACTORS


def _parse_targets(blocks: Iterable[str], source: str) -> list[int]:
    """The integers in the text that blocks make up, separated by commas or whitespace.

    A token that runs past the end of a block is carried into the next one, so a block may
    end anywhere; only one block's tokens are held as strings at a time.  A token that grows
    past _TOKEN_MAX characters is refused without reading the rest of it.
    """
    targets: list[int] = []
    tail = ""
    for block in itertools.chain(blocks, [" "]):  # the last blank ends the last token
        text = tail + block
        tokens = text.replace(",", " ").split()
        tail = tokens.pop() if tokens and not (text[-1].isspace() or text[-1] == ",") else ""
        if len(tail) > _TOKEN_MAX:  # named by its start, after any bad token before it
            tokens.append(tail[:32] + "...")
        for tok in tokens:
            try:
                targets.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"{source} must hold integers separated by commas or spaces; got {tok!r}"
                ) from None
    return targets


def _parse_window(raw: str) -> tuple[int, int]:
    try:
        lo, hi = (int(tok) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"--window must be LO,HI, two integers such as 1130,1136; got {raw!r}") from None
    return lo, hi


def _cmd_scan(args) -> int:
    if args.targets is not None:
        targets = _parse_targets([args.targets], "--targets")
    else:
        with open(args.targets_file, encoding="utf-8") as listing:
            blocks = iter(lambda: listing.read(_TARGETS_BLOCK), "")
            targets = _parse_targets(blocks, f"--targets-file {args.targets_file}")
    ig = igio.read_interferogram(args.interferogram)
    # one detection, gate and sieve over every target: a bad target or spectrum is refused before
    # any output.  Each report's text, built from its n and pairs, goes out in writes bounded by
    # size, not by count, since a report holds every candidate of the spectrum
    targets, window, candidates, _, pairs = scan_pairs(ig, targets, args.threshold, args.epsilon)
    encode = _report_encoder(window, candidates, args.threshold, args.epsilon, "  ")
    sep, batch, size = "[\n  ", [], 0
    for i, (n, factors) in enumerate(zip(targets, pairs), 1):
        batch.append(encode(n, factors))
        size += len(batch[-1])
        if size >= _WRITE_CHARS or i == len(targets):
            sys.stdout.write(sep + ",\n  ".join(batch))
            sep, batch, size = ",\n  ", [], 0
    sys.stdout.write("\n]\n")
    return EXIT_OK if any(pairs) else EXIT_NO_FACTORS


def _plan_payload(plan: MeasurementPlan, extra: dict) -> dict:
    runs = [{"x_nm": r.x_nm, "xi_lo": r.xi_lo, "xi_hi": r.xi_hi} for r in plan.runs]
    return {**extra, "scheme": plan.scheme, "ratio": plan.ratio, "n_runs": plan.n_runs, "runs": runs}


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
    spec = SumSpec(args.paths, args.order)
    if args.emit_configs:
        run_flags = []
        for run in plan.runs:  # every run's flags first: a refused run leaves no directory
            config = InterferometerConfig(displacement_unit_nm=run.x_nm, sum_spec=spec)
            run_flags.append([
                "--x", repr(run.x_nm),
                "--lambda-min", repr(float(args.lambda_min)),
                "--lambda-max", repr(float(args.lambda_max)),
                "--pixels", str(min_pixels(config, window)),
                "--paths", str(args.paths),
                "--order", str(args.order),
            ])
        out_dir = Path(args.emit_configs)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, flags in enumerate(run_flags):
            (out_dir / f"run_{i:03d}.args").write_text("\n".join(flags) + "\n", encoding="utf-8")
    _print_json(_plan_payload(plan, extra))  # after the configs, so a failed run prints no plan
    return EXIT_OK


def _cmd_plot(args) -> int:
    ig = igio.read_interferogram(args.interferogram)
    Path(args.out).write_bytes(plotting.interferogram_svg(ig, args.n or ()).encode("utf-8"))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    # a window of bad form or range is refused before the factorization, which may take seconds;
    # its divisors are then read off that one factorization
    window = _parse_window(args.window) if args.window else None
    if window:
        checked_window(args.n, *window)
    fact = trial_division(args.n)
    payload = {
        "n": fact.n,
        "prime_powers": [[p, e] for p, e in fact.prime_powers],
        "is_prime": fact.is_prime,
        "divisors": fact.divisors(),
    }
    if window:
        payload["window"] = list(window)
        payload["window_divisors"] = [d for d in payload["divisors"] if window[0] <= d <= window[1]]
    _print_json(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curlicue",
        description="Simulate multi-arm interferograms and read integer factorizations from them.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by two subcommands, each defined once
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--lambda-min", type=float, required=True)
    window.add_argument("--lambda-max", type=float, required=True)
    window.add_argument("--paths", type=int, default=3, help="number of interfering arms M")
    window.add_argument("--order", type=int, default=2, help="arm-length polynomial order d")
    spectrum = argparse.ArgumentParser(add_help=False)
    spectrum.add_argument("--interferogram", required=True)
    spectrum.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    spectrum.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    p = sub.add_parser("simulate", parents=[window], help="simulate an interferogram and write the v1 CSV")
    p.add_argument("--x", type=float, required=True, help="displacement unit in nm")
    p.add_argument("--pixels", type=int, default=2048)
    p.add_argument("--mirror-sigma", type=float, default=0.0, help="per-arm placement error std, nm")
    p.add_argument("--detector-sigma", type=float, default=0.0, help="per-pixel readout noise std")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--plot", help="also write an SVG chart here")
    p.add_argument("--allow-undersampled", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "factor", parents=[spectrum], help="extract factors of one target from an interferogram"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("scan", parents=[spectrum], help="factor many targets from one interferogram")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--targets", help="comma- or space-separated integers")
    group.add_argument("--targets-file", help="file of integers")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("plan", parents=[window], help="multi-run displacement schedule for large targets")
    p.add_argument("--n", type=int, help="single target")
    p.add_argument("--n-min", type=int, help="range scheme lower bound")
    p.add_argument("--n-max", type=int, help="range scheme upper bound")
    p.add_argument("--emit-configs", help="directory for simulate-ready @flag files, one per run")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("plot", help="render an interferogram (plus rescaled axes) to SVG")
    p.add_argument("--interferogram", required=True)
    p.add_argument("--n", type=int, action="append", help="rescaled-axis target; repeat up to twice")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("oracle", help="exact factorization ground truth (Miller-Rabin and trial division)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", help="LO,HI divisor window")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CurlicueError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
