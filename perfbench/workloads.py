"""The four workloads: inputs made from a seed, one timed pass, and its checks.

Every call into the package goes through a module attribute looked up at
call time (`curlicue.simulate`, `curlicue.cli.main`), so the traced run's
wrappers see it.  The checks use exact integer division, computed by the
benchmark itself, and run between ops, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import curlicue
import curlicue.cli

LAMP = curlicue.SpectralWindow(400.0, 800.0)
SPEC = curlicue.SumSpec(3, 2)
DEMO_X_NM = 523426.8
DEMO_WINDOW = curlicue.SpectralWindow(460.36, 463.24, 2048)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Clock:
    """Times ops and pass-level sections; records failures by op id."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.probe = None  # samples the host's speed between ops, outside the timed region
        self.marks: list[int] = []  # probe samples taken by the end of each op
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.op_id = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []

    def op(self, fn: Callable, *args):
        """Run one op under the clock; an exception fails the op and yields None."""
        self.op_id += 1
        if self.tracer is not None:
            self.tracer.op = self.op_id
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any exception is a failed op, counted and reported
            result = None
            self.fail(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.timed_s += elapsed
        if self.probe is not None:
            self.probe.maybe_sample()
            self.marks.append(len(self.probe.samples))
        return result

    def timed(self, fn: Callable, *args):
        """Pass-level work that belongs to no single op (op id 0 in the trace)."""
        if self.tracer is not None:
            self.tracer.op = 0
        start = time.perf_counter()
        result = fn(*args)
        self.timed_s += time.perf_counter() - start
        return result

    def fail(self, message: str) -> None:
        self.failed.add(self.op_id)
        if len(self.errors) < 20:
            self.errors.append(f"op {self.op_id}: {message}")

    def count(self, key: str, amount: int) -> None:
        if self.tracer is not None:
            self.tracer.counts[key] += amount


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def factorize_small(n: int) -> Counter:
    out, f = Counter(), 2
    while f * f <= n:
        while n % f == 0:
            out[f] += 1
            n //= f
        f += 1
    if n > 1:
        out[n] += 1
    return out


def pairs_in_window(n: int, lo: int, hi: int) -> tuple[tuple[int, int], ...]:
    """Every pair (q, n/q) with q in [lo, hi] and 1 < q < n, by exact division."""
    return tuple((q, n // q) for q in range(max(lo, 2), min(hi, n - 1) + 1) if n % q == 0)


def covered_window(x_nm: float, window) -> tuple[int, int]:
    """Ratios q reachable between the first and last pixel centers."""
    step = (window.lambda_max_nm - window.lambda_min_nm) / window.pixel_count
    first = window.lambda_min_nm + 0.5 * step
    last = window.lambda_min_nm + (window.pixel_count - 0.5) * step
    return math.ceil(x_nm / last), math.floor(x_nm / first)


class Recall:
    """Verified pairs found over pairs expected, counted once per distinct input."""

    def __init__(self) -> None:
        self.seen: dict = {}

    def add(self, key, found: int, expected: int) -> None:
        self.seen.setdefault(key, (found, expected))

    @property
    def expected(self) -> int:
        return sum(e for _, e in self.seen.values())

    @property
    def value(self) -> float:
        found = sum(f for f, _ in self.seen.values())
        return found / self.expected if self.expected else 1.0


def check_report(clock: Clock, report, n: int, window: tuple[int, int], expected, exact: bool) -> int:
    """Fail the op on a false factor, a wrong window, or (noiseless) any miss; return hits."""
    if report.n != n or tuple(report.q_window) != window:
        clock.fail(f"n={n}: report for {report.n} over {report.q_window}, expected window {window}")
        return 0
    for q, c in report.factors:
        if not (1 < q < n and q * c == n):
            clock.fail(f"n={n}: false factor pair ({q}, {c})")
            return 0
    if exact and tuple(report.factors) != expected:
        clock.fail(f"n={n}: noiseless report {report.factors} != exact division {expected}")
    return len(set(map(tuple, report.factors)) & set(expected))


# --------------------------------------------------------------------------- schedule


class Schedule:
    """Four-digit targets through the paper's multi-run plan at min_pixels."""

    name = "schedule"
    # fixed magnitudes, so a pass's pixel counts barely move with the seed: twelve,
    # about 1.22x apart so op sizes lie close together around the median and the
    # tail, and clear of 1024 and 4096, where a plan's number of runs changes
    MAGNITUDES = (1100, 1340, 1640, 2000, 2440, 2970, 3630, 4430, 5400, 6590, 8040, 9700)
    KINDS = ("square", "semiprime", "composite")

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = random.Random(f"schedule/{seed}")
        mags = self.MAGNITUDES[:3] if smoke else self.MAGNITUDES
        kinds = list(self.KINDS) * math.ceil(len(mags) / len(self.KINDS))
        rng.shuffle(kinds)
        self.targets = [(self._pick(rng, m, kind), kind) for m, kind in zip(mags, kinds)]
        self.recall = Recall()
        self.expected: dict = {}
        self.runs: dict = {}

    @staticmethod
    def _pick(rng: random.Random, magnitude: int, kind: str) -> int:
        lo, hi = int(magnitude * 0.975), int(magnitude * 1.025)
        pool = []
        for n in range(lo, hi + 1):
            f = factorize_small(n)
            count = sum(f.values())
            if kind == "square":
                ok = math.isqrt(n) ** 2 == n
            elif kind == "semiprime":
                ok = count == 2 and len(f) == 2 and max(f) <= 2 * min(f)
            else:
                ok = count >= 3 and math.isqrt(n) ** 2 != n
            if ok:
                pool.append(n)
        return rng.choice(pool)

    def _one_run(self, n: int, x_nm: float):
        config = curlicue.InterferometerConfig(x_nm, SPEC)
        pixels = curlicue.min_pixels(config, LAMP)
        window = curlicue.SpectralWindow(LAMP.lambda_min_nm, LAMP.lambda_max_nm, pixels)
        return window, curlicue.extract_factors(curlicue.simulate(config, window), n)

    def warm_up(self) -> None:
        n = self.targets[0][0]
        plan = curlicue.plan_single_number(n, LAMP)
        self._one_run(n, plan.runs[-1].x_nm)

    def run_pass(self, clock: Clock) -> None:
        for n, _ in self.targets:
            plan = clock.timed(curlicue.plan_single_number, n, LAMP)
            for i, run in enumerate(plan.runs):
                out = clock.op(self._one_run, n, run.x_nm)
                if out is not None:
                    self._check(clock, n, i, run.x_nm, *out)

    def _check(self, clock: Clock, n: int, i: int, x_nm: float, window, report) -> None:
        lo, hi = covered_window(x_nm, window)
        key = (n, i)
        if key not in self.expected:
            self.expected[key] = pairs_in_window(n, lo, hi)
        found = check_report(clock, report, n, (lo, hi), self.expected[key], exact=True)
        self.recall.add(key, found, len(self.expected[key]))
        self.runs.setdefault(key, (window.pixel_count, report.diagnostics["counts"]["peaks"]))

    def properties(self) -> dict:
        pixels = [p for p, _ in self.runs.values()]
        return {
            "targets": [{"n": n, "kind": kind, "digits": len(str(n))} for n, kind in self.targets],
            "runs_per_pass": len(self.runs),
            "pixels_min": min(pixels, default=0),
            "pixels_max": max(pixels, default=0),
            "pixels_per_pass": sum(pixels),
            "oversampling": 1.0,
            "peaks_per_spectrum": {f"{n}/run{i}": peaks for (n, i), (_, peaks) in self.runs.items()},
            "noise": "none",
        }


# --------------------------------------------------------------------------- scan


class Scan:
    """One demo-geometry spectrum per op, scanned against a seeded target set."""

    name = "scan"
    MIRROR_SIGMAS = (0.0, 10.0, 50.0, 100.0)
    DETECTOR_SIGMA = 0.02
    SPECTRA = 256
    RANDOM_TARGETS = 2000
    PLANTED_PER_Q = 4
    TARGET_RANGE = (1_250_000, 1_350_000)

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = random.Random(f"scan/{seed}")
        spectra = 8 if smoke else self.SPECTRA
        lo_n, hi_n = self.TARGET_RANGE
        config = curlicue.InterferometerConfig(DEMO_X_NM, SPEC)
        self.window = covered_window(DEMO_X_NM, DEMO_WINDOW)
        targets = [rng.randint(lo_n, hi_n) for _ in range(200 if smoke else self.RANDOM_TARGETS)]
        for q in range(self.window[0], self.window[1] + 1):
            for _ in range(self.PLANTED_PER_Q):
                targets.append(q * rng.randint(lo_n // q + 1, hi_n // q))
        rng.shuffle(targets)
        self.targets = targets
        self.spectra = []
        for k in range(spectra):
            sigma = self.MIRROR_SIGMAS[k % len(self.MIRROR_SIGMAS)]
            noise = None
            if sigma > 0:
                noise = curlicue.NoiseModel(
                    mirror_sigma_nm=sigma, detector_sigma=self.DETECTOR_SIGMA, seed=rng.getrandbits(63)
                )
            self.spectra.append((sigma, curlicue.simulate(config, DEMO_WINDOW, noise)))
        self.config = config
        self.expected: Optional[dict] = None
        self.recall = Recall()
        self.peaks: dict = {}

    def warm_up(self) -> None:
        curlicue.scan_targets(self.spectra[0][1], self.targets)

    def run_pass(self, clock: Clock) -> None:
        for k, (sigma, ig) in enumerate(self.spectra):
            reports = clock.op(curlicue.scan_targets, ig, self.targets)
            if reports is not None:
                self._check(clock, k, sigma, reports)

    def _check(self, clock: Clock, k: int, sigma: float, reports) -> None:
        if self.expected is None:
            lo, hi = self.window
            self.expected = {n: pairs_in_window(n, lo, hi) for n in set(self.targets)}
        if len(reports) != len(self.targets):
            clock.fail(f"spectrum {k}: {len(reports)} reports for {len(self.targets)} targets")
            return
        found = expected = 0
        for n, rep in zip(self.targets, reports):
            pairs = self.expected[n]
            found += check_report(clock, rep, n, self.window, pairs, exact=sigma == 0.0)
            expected += len(pairs)
        self.recall.add(k, found, expected)
        if reports:
            self.peaks.setdefault(k, reports[0].diagnostics["counts"]["peaks"])

    def properties(self) -> dict:
        digits = Counter(len(str(n)) for n in self.targets)
        peaks = list(self.peaks.values())
        return {
            "spectra": len(self.spectra),
            "pixels": DEMO_WINDOW.pixel_count,
            "min_pixels": curlicue.min_pixels(self.config, DEMO_WINDOW),
            "oversampling": DEMO_WINDOW.pixel_count / curlicue.min_pixels(self.config, DEMO_WINDOW),
            "noise_mix": {
                f"mirror_sigma_nm={s:g}": sum(1 for sigma, _ in self.spectra if sigma == s)
                for s in self.MIRROR_SIGMAS
            },
            "detector_sigma": f"{self.DETECTOR_SIGMA} on noisy spectra, 0 with mirror sigma 0",
            "targets": len(self.targets),
            "distinct_targets": len(set(self.targets)),
            "target_digits": dict(digits),
            "q_window": list(self.window),
            "peaks_per_spectrum_min": min(peaks, default=0),
            "peaks_per_spectrum_max": max(peaks, default=0),
        }


# --------------------------------------------------------------------------- cli_session


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = curlicue.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class CliSession:
    """The README quick start through curlicue.cli.main, one command per op."""

    name = "cli_session"
    SESSIONS = 4
    RUN_INDEX = 2
    SCAN_TARGETS = 36

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = random.Random(f"cli_session/{seed}")
        self.sessions = []
        for k in range(1 if smoke else self.SESSIONS):
            # n = c*q with q prime and c in 5..7 puts q inside the run-2 window [n/8, n/4];
            # session k draws n from its own quarter of 9000..9999, so a pass always
            # spans the same sizes
            lo, hi = 9000 + 250 * k, 9249 + 250 * k
            while True:
                c = rng.choice((5, 6, 7))
                q = rng.randint(lo // c + 1, hi // c)
                if is_prime(q):
                    break
            while True:
                p = next_prime(rng.randint(83, 97))
                r = next_prime(rng.randint(p + 1, 9999 // p))
                if 9000 <= p * r <= 9999:
                    break
            d = workdir / f"s{k}"
            d.mkdir(parents=True, exist_ok=True)
            scan = [rng.randint(5000, 9999) for _ in range(self.SCAN_TARGETS)]
            (d / "targets.txt").write_text("\n".join(map(str, scan)) + "\n", encoding="utf-8")
            self.sessions.append({"dir": d, "n": c * q, "q": q, "other": p * r, "scan": scan})
        # smoke runs take the plan's last, smallest run
        self.run_index = 6 if smoke else self.RUN_INDEX
        self.recall = Recall()

    def _commands(self, s: dict, run_index: int) -> list[tuple[str, list[str]]]:
        d, n, q = s["dir"], str(s["n"]), s["q"]
        args = d / "runs" / f"run_{run_index:03d}.args"
        return [
            ("plan", ["plan", "--n", n, "--lambda-min", "400", "--lambda-max", "800",
                      "--emit-configs", str(d / "runs")]),
            ("simulate", ["simulate", f"@{args}", "--out", str(d / "run.csv"),
                          "--plot", str(d / "run.svg")]),
            ("factor", ["factor", "--interferogram", str(d / "run.csv"), "--n", n]),
            ("factor", ["factor", "--interferogram", str(d / "run.csv"), "--n", str(s["other"])]),
            ("scan", ["scan", "--interferogram", str(d / "run.csv"),
                      "--targets-file", str(d / "targets.txt")]),
            ("plot", ["plot", "--interferogram", str(d / "run.csv"), "--n", n,
                      "--n", str(s["other"]), "--out", str(d / "plot.svg")]),
            ("oracle", ["oracle", "--n", n, "--window", f"{q - 3},{q + 3}"]),
        ]

    def warm_up(self) -> None:
        s = self.sessions[0]
        last = curlicue.plan_single_number(s["n"], LAMP).n_runs - 1
        for _, argv in self._commands(s, last):
            run_cli(argv)

    def run_pass(self, clock: Clock) -> None:
        for k, s in enumerate(self.sessions):
            for step, (kind, argv) in enumerate(self._commands(s, self.run_index)):
                out = clock.op(run_cli, argv)
                if out is not None:
                    clock.count("cli.stdout_bytes", len(out[1]))
                    self._check(clock, k, step, kind, s, *out)

    def _window(self, s: dict) -> tuple[int, int]:
        flags = (s["dir"] / "runs" / f"run_{self.run_index:03d}.args").read_text().split()
        x_nm = float(flags[flags.index("--x") + 1])
        pixels = int(flags[flags.index("--pixels") + 1])
        return covered_window(x_nm, curlicue.SpectralWindow(400.0, 800.0, pixels))

    def _check(self, clock: Clock, k: int, step: int, kind: str, s: dict, code, out, err) -> None:
        d = s["dir"]
        if kind in ("plan", "simulate", "plot", "oracle"):
            expected_code = 0
        else:
            window = self._window(s)
            if kind == "factor":
                targets = [s["n"] if step == 2 else s["other"]]
            else:
                targets = s["scan"]
            expected = [pairs_in_window(t, *window) for t in targets]
            expected_code = 0 if any(expected) else 1
        if code != expected_code:
            clock.fail(f"session {k} {kind}: exit {code}, expected {expected_code}: {err.strip()}")
            return
        if kind == "plan":
            payload = json.loads(out)
            if payload["n"] != s["n"] or not (d / "runs" / f"run_{self.run_index:03d}.args").is_file():
                clock.fail(f"session {k} plan: bad payload or missing run file")
        elif kind in ("simulate", "plot"):
            svg = d / ("run.svg" if kind == "simulate" else "plot.svg")
            if not svg.is_file() or not svg.read_bytes().startswith(b"<?xml"):
                clock.fail(f"session {k} {kind}: no SVG written")
        elif kind == "oracle":
            payload = json.loads(out)
            q = s["q"]
            want = [e for e in range(q - 3, q + 4) if s["n"] % e == 0]
            product = math.prod(p**e for p, e in payload["prime_powers"])
            if payload["window_divisors"] != want or product != s["n"]:
                clock.fail(f"session {k} oracle: {payload['window_divisors']} != {want}")
        else:
            payload = json.loads(out)
            reports = [payload] if kind == "factor" else payload
            if len(reports) != len(targets):
                clock.fail(f"session {k} {kind}: {len(reports)} reports for {len(targets)} targets")
                return
            found = 0
            for t, rep, pairs in zip(targets, reports, expected):
                report = SimpleNamespace(
                    n=rep["n"], q_window=rep["q_window"], factors=tuple(map(tuple, rep["factors"]))
                )
                found += check_report(clock, report, t, window, pairs, exact=True)
            self.recall.add((k, step), found, sum(len(p) for p in expected))

    def properties(self) -> dict:
        pixels = []
        for s in self.sessions:
            path = s["dir"] / "runs" / f"run_{self.run_index:03d}.args"
            if path.is_file():
                flags = path.read_text().split()
                pixels.append(int(flags[flags.index("--pixels") + 1]))
        return {
            "sessions_per_pass": len(self.sessions),
            "commands_per_session": 7,
            "targets": [{"n": s["n"], "other": s["other"]} for s in self.sessions],
            "plan_run_index": self.run_index,
            "pixels": pixels,
            "oversampling": 1.0,
            "scan_targets": self.SCAN_TARGETS,
            "noise": "none",
        }


# --------------------------------------------------------------------------- oracle


class Oracle:
    """Primes, balanced semiprimes and smooth numbers of 10 to 13 digits."""

    name = "oracle"
    # log10 magnitudes spanning 10 to 13 digits; nine of them put the median and
    # the tail of a pass inside a group of equal-cost queries, not between two
    EXPONENTS = (9.35, 9.78, 10.21, 10.64, 11.07, 11.5, 11.93, 12.36, 12.79)
    HALF_WIDTH = 3

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = random.Random(f"oracle/{seed}")
        exponents = (6.25, 7.25) if smoke else self.EXPONENTS
        small = [p for p in range(2, 98) if is_prime(p)]
        self.numbers = []
        for e in exponents:
            m = int(10**e)
            prime = next_prime(m + rng.randrange(m // 100))
            self._add("prime", prime, Counter({prime: 1}), math.isqrt(prime))
            p = next_prime(math.isqrt(m) + rng.randrange(math.isqrt(m) // 100 + 1))
            r = next_prime(p + 1 + rng.randrange(p // 25 + 1))
            self._add("semiprime", p * r, Counter({p: 1, r: 1}), p)
            n = 1  # ends in (m/2, m]
            while fits := [f for f in small if n * f <= m]:
                n *= rng.choice(fits)
            known = factorize_small(n)
            self._add("smooth", n, known, rng.choice(divisors(known)[1:]))
        self.recall = Recall()

    def _add(self, kind: str, n: int, known: Counter, center: int) -> None:
        """Queue n with a narrow divisor window around `center`; answers from `known`."""
        lo, hi = max(1, center - self.HALF_WIDTH), center + self.HALF_WIDTH
        want = [d for d in divisors(known) if lo <= d <= hi]
        self.numbers.append(
            {"kind": kind, "n": n, "known": tuple(sorted(known.items())), "window": (lo, hi), "want": want}
        )

    def warm_up(self) -> None:
        x = self.numbers[0]
        curlicue.trial_division(x["n"])
        curlicue.divisors_in_window(x["n"], *x["window"])

    def run_pass(self, clock: Clock) -> None:
        for i, x in enumerate(self.numbers):
            fact = clock.op(curlicue.trial_division, x["n"])
            if fact is not None and (fact.n, fact.prime_powers) != (x["n"], x["known"]):
                clock.fail(f"trial_division({x['n']}) = {fact.prime_powers}, built as {x['known']}")
            got = clock.op(curlicue.divisors_in_window, x["n"], *x["window"])
            if got is not None:
                if got != x["want"]:
                    clock.fail(f"divisors_in_window({x['n']}, {x['window']}) = {got} != {x['want']}")
                self.recall.add(i, len(set(got) & set(x["want"])), len(x["want"]))

    def properties(self) -> dict:
        return {
            "numbers": len(self.numbers),
            "queries_per_pass": 2 * len(self.numbers),
            "kinds": dict(Counter(x["kind"] for x in self.numbers)),
            "digits": dict(Counter(len(str(x["n"])) for x in self.numbers)),
            "window_width": 2 * self.HALF_WIDTH + 1,
        }


def divisors(known: Counter) -> list[int]:
    divs = [1]
    for p, e in sorted(known.items()):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


WORKLOADS = {w.name: w for w in (Schedule, Scan, CliSession, Oracle)}
