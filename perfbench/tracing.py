"""Spans around the calls into each curlicue module, recorded from outside.

The traced run installs a wrapper on every public function of a layer, bound
to the name its caller looks up: the benchmark calls through the `curlicue`
package namespace, `cli` imports `simulate` and friends by name, and
`analysis` looks up `detect_peaks` and `decompose` in its own globals.  Each
wrapper appends one span (layer, function, start, end, parent, op id, info)
to an in-memory list; nothing is written until the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

# layer -> (module the caller looks the name up in, attribute names)
BINDINGS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("interferometer", "curlicue", ("simulate", "min_pixels")),
    ("interferometer", "curlicue.cli", ("simulate", "min_pixels")),
    ("expsum", "curlicue.analysis", ("decompose",)),
    ("expsum", "curlicue.interferometer", ("main_lobe_halfwidth",)),
    ("analysis", "curlicue", ("extract_factors", "scan_targets", "detect_peaks")),
    ("analysis", "curlicue.cli", ("extract_factors", "scan_targets")),
    ("analysis", "curlicue.analysis", ("detect_peaks",)),
    ("planner", "curlicue", ("plan_single_number", "plan_number_range")),
    ("planner", "curlicue.cli", ("plan_single_number", "plan_number_range")),
    ("oracle", "curlicue", ("trial_division", "divisors_in_window")),
    ("oracle", "curlicue.cli", ("trial_division", "divisors_in_window")),
    (
        "io",
        "curlicue",
        ("dumps_interferogram", "loads_interferogram", "read_interferogram", "write_interferogram"),
    ),
    (
        "io",
        "curlicue.io",
        ("dumps_interferogram", "loads_interferogram", "read_interferogram", "write_interferogram"),
    ),
    ("plotting", "curlicue", ("interferogram_svg",)),
    ("plotting", "curlicue.plotting", ("interferogram_svg",)),
    ("cli", "curlicue.cli", ("main",)),
)

_READS = ("loads_interferogram", "read_interferogram")
_WRITES = ("dumps_interferogram", "write_interferogram")


@dataclass
class Span:
    layer: str
    name: str
    start_ns: int
    end_ns: int
    parent: int
    op: int
    info: Any = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _report_counts(reports) -> tuple[int, int, int, int]:
    targets = in_window = gated = factors = 0
    for rep in reports:
        counts = rep.diagnostics["counts"]
        targets += 1
        in_window += counts["in_window"]
        gated += counts["integer_gated"]
        factors += counts["factors"]
    return targets, in_window, gated, factors


def _info(name: str, args: tuple, kwargs: dict, result) -> Any:
    """What a span needs besides its times: sizes and counts of the call."""
    if name == "simulate":
        return (args, kwargs)
    if name == "detect_peaks":
        return len(result)
    if name == "extract_factors":
        return _report_counts([result])
    if name == "scan_targets":
        return _report_counts(result)
    if name in ("plan_single_number", "plan_number_range"):
        return result.n_runs
    if name == "dumps_interferogram":
        return len(result)
    if name == "loads_interferogram":
        return len(args[0] if args else kwargs["text"])
    if name in ("read_interferogram", "write_interferogram"):
        path = args[-1] if args else kwargs["path"]
        return os.path.getsize(path)
    if name == "interferogram_svg":
        ig = args[0] if args else kwargs["ig"]
        return (len(ig.samples), len(result))
    return None


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(layer, name, 0, 0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            span.info = _info(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        wrapped: dict[int, Callable] = {}
        for layer, module_name, names in BINDINGS:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(layer, name, original)
                self._saved.append((module, name, original))
                setattr(module, name, wrapped[id(original)])
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration_ns
    return [span.duration_ns - c for span, c in zip(spans, child)]


def span_problems(spans: list[Span]) -> list[str]:
    """Violations of nesting: a child outside its parent, or negative self time."""
    problems = []
    for i, span in enumerate(spans):
        if span.end_ns < span.start_ns:
            problems.append(f"span {i} ends before it starts")
        if span.parent >= 0:
            parent = spans[span.parent]
            if not (parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns):
                problems.append(f"span {i} ({span.name}) lies outside its parent {span.parent}")
            if span.op != parent.op:
                problems.append(f"span {i} has op {span.op}, its parent op {parent.op}")
    for i, t in enumerate(self_times(spans)):
        if t < 0:
            problems.append(f"span {i} has negative self time {t} ns")
    return problems


def write_spans(spans: list[Span], path: os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,layer,name,start_ns,end_ns,parent,op\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.layer},{s.name},{s.start_ns},{s.end_ns},{s.parent},{s.op}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    counts: dict[str, int],
    passes: int,
    min_pixels: Callable,
    retained_bytes_per_pixel: float,
) -> dict[str, float]:
    """Per-layer metrics of the traced passes.

    Counts and busy times are per pass (totals divided by `passes`); ratios
    and maxima are over all traced passes.  A layer that does not run on the
    workload reports 0 throughout.
    """
    selfs = self_times(spans)
    busy: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span, t in zip(spans, selfs):
        busy[span.name] += t
        busy["layer:" + span.layer] += t
        calls[span.name] += 1

    def top(names: tuple[str, ...]) -> list[Span]:
        """Spans of these functions not nested inside another span of their layer."""
        return [
            s for s in spans if s.name in names and (s.parent < 0 or spans[s.parent].layer != s.layer)
        ]

    # a call that raised has no info; the run already counts it as failed
    done = [s for s in spans if s.info is not None]
    pixels = min_px = 0
    for s in done:
        if s.name == "simulate":
            args, kwargs = s.info
            config = args[0] if args else kwargs["config"]
            window = args[1] if len(args) > 1 else kwargs["window"]
            pixels += window.pixel_count
            min_px += min_pixels(config, window)

    peaks = sum(s.info for s in done if s.name == "detect_peaks")
    targets = in_window = gated = factors = 0
    for s in done:
        if s.name in ("extract_factors", "scan_targets"):
            t, w, g, f = s.info
            targets, in_window, gated, factors = targets + t, in_window + w, gated + g, factors + f

    reads, writes = top(_READS), top(_WRITES)
    bytes_read = sum(s.info or 0 for s in reads)
    bytes_written = sum(s.info or 0 for s in writes)
    read_ns = busy["loads_interferogram"] + busy["read_interferogram"]
    write_ns = busy["dumps_interferogram"] + busy["write_interferogram"]
    svgs = [s.info for s in done if s.name == "interferogram_svg"]
    queries = top(("trial_division", "divisors_in_window"))
    report_ns = busy["extract_factors"] + busy["scan_targets"]

    per = 1.0 / passes
    s_ = 1e-9 * per
    out = {
        "interferometer.calls": calls["simulate"] * per,
        "interferometer.busy_s": busy["layer:interferometer"] * s_,
        "interferometer.pixels": pixels * per,
        "interferometer.ns_per_pixel": _ratio(busy["layer:interferometer"], pixels),
        "interferometer.bytes_computed": 16 * pixels * per,
        "interferometer.retained_bytes_per_pixel": retained_bytes_per_pixel,
        "interferometer.oversampling": _ratio(pixels, min_px),
        "analysis.detect_calls": calls["detect_peaks"] * per,
        "analysis.detect_busy_s": busy["detect_peaks"] * s_,
        "analysis.peaks": peaks * per,
        "analysis.report_busy_s": report_ns * s_,
        "analysis.targets": targets * per,
        "analysis.us_per_target": _ratio(report_ns * 1e-3, targets),
        "analysis.in_window": in_window * per,
        "analysis.gated": gated * per,
        "analysis.gate_pass": _ratio(gated, in_window),
        "analysis.division_yield": _ratio(factors, gated),
        "expsum.decompose_calls": calls["decompose"] * per,
        "expsum.busy_s": busy["layer:expsum"] * s_,
        "io.write_calls": len(writes) * per,
        "io.write_busy_s": write_ns * s_,
        "io.bytes_written": bytes_written * per,
        "io.write_mb_per_s": _ratio(bytes_written * 1e3, write_ns),
        "io.read_calls": len(reads) * per,
        "io.read_busy_s": read_ns * s_,
        "io.bytes_read": bytes_read * per,
        "io.read_mb_per_s": _ratio(bytes_read * 1e3, read_ns),
        "plotting.calls": len(svgs) * per,
        "plotting.busy_s": busy["layer:plotting"] * s_,
        "plotting.points": sum(p for p, _ in svgs) * per,
        "plotting.svg_bytes": sum(b for _, b in svgs) * per,
        "cli.commands": calls["main"] * per,
        "cli.self_s": busy["layer:cli"] * s_,
        "cli.stdout_bytes": counts.get("cli.stdout_bytes", 0) * per,
        "oracle.calls": len(queries) * per,
        "oracle.busy_s": busy["layer:oracle"] * s_,
        "oracle.us_per_query": _ratio(busy["layer:oracle"] * 1e-3, len(queries)),
        "oracle.max_query_s": max((s.duration_ns for s in queries), default=0) * 1e-9,
        "planner.calls": (calls["plan_single_number"] + calls["plan_number_range"]) * per,
        "planner.busy_s": busy["layer:planner"] * s_,
        "planner.runs_planned": sum(
            s.info or 0 for s in top(("plan_single_number", "plan_number_range"))
        )
        * per,
    }
    return out


def largest_simulate_call(spans: list[Span]) -> Optional[tuple[tuple, dict]]:
    """Arguments of the traced simulate call with the most pixels, for a memory replay."""
    best, best_px = None, -1
    for s in spans:
        if s.name == "simulate" and s.info is not None:
            args, kwargs = s.info
            window = args[1] if len(args) > 1 else kwargs["window"]
            if window.pixel_count > best_px:
                best, best_px = s.info, window.pixel_count
    return best
