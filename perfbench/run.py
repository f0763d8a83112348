"""Layered benchmark for the twoband library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gapped-sweep --seed 1 --seconds 15 --trace 0

Workloads (see bench_workloads.py for the decks):

* gapped-sweep: Hermitian sweeps (ssh in t2 and t1, massive-dirac,
  dual-ssh) that stay at least 1e-2 from every transition; the per-mode
  kernels and quadrature do most of the work.
* critical-sweep: windows closing in on ssh t1 = t2, massive-Dirac mu = 0
  and dual r = 1, at log-spaced distances down to 1e-6, and symmetric
  windows that land exactly on the transition; exercises the subdivision
  budget, the divergence flag and the convergence failures.
* lossy-sweep: nh-sweep requests across both gap closings t2 = t1 +- gamma/2
  and upward in gamma from 0; the scalar complex kernel of nonhermitian.
* closed-forms: dense curves through every closed form, called as library
  functions; special_functions does the work and quadrature none.

One client runs a closed loop: each request (an in-process
``twoband.cli.main(argv)`` call or a library call) starts when the previous
one has returned.  The work is fixed by (workload, seed, --seconds): a run
executes round(seconds / ROUND_SECONDS) rounds of the deck, which lasts about
--seconds at the commit that defined the benchmark on a 2-CPU machine, so a
faster commit finishes sooner and the same requests are compared.  Outputs
are checked after each request, outside its timed region.  Times are given
in reference seconds (see PROBE_REFERENCE), with raw seconds in the report.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 a fixed number of rounds runs untraced and then traced
(bench_trace.py), the outputs of the two must be bit-identical, and the JSON
object carries the per-layer metrics and trace.overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path("perfbench") / ".work"  # relative to ROOT, so argv is checkout-independent

# Wall seconds one round of each deck takes at the commit that defined the
# benchmark, checks included (closed-forms spends about half of it building
# argument tuples and checking them).
ROUND_SECONDS = {
    "gapped-sweep": 1.95,
    "critical-sweep": 6.6,
    "lossy-sweep": 1.2,
    "closed-forms": 0.06,
}
# A traced run executes a fixed number of rounds (about this long untraced),
# so its counts repeat exactly for a seed whatever --seconds is.
TRACE_SECONDS = 2.0
SETUP_REPEATS = 5
SETUP_CODE = "import twoband\nfrom twoband.cli import build_parser\nbuild_parser()\n"
TAIL_BEYOND = 10

# Times are reported in reference seconds.  The machine's speed drifts by
# 20-35% within a minute on a shared host, so a fixed probe kernel runs
# between requests (at least every PROBE_EVERY seconds of request time) and
# each measured interval is scaled by PROBE_REFERENCE / (mean of the probes
# on either side).  PROBE_REFERENCE is the probe's time on an idle core of
# the machine that defined the benchmark; raw seconds are printed as well.
PROBE_EVERY = 0.05
PROBE_REFERENCE = 1.5e-3

WARMUP_ARGV = (
    ["sweep", "--model", "ssh", "--set", "t1=1.0", "--sweep", "t2:0.5:0.6:3",
     "--quantities", "complexity,chi_f,winding"],
    ["nh-sweep", "--set", "t1=2.0", "--set", "gamma=1.0", "--sweep", "t2:0.5:0.6:3"],
)


class Outcome(NamedTuple):
    latency: float
    code: object          # exit code, or "exception"
    first_err: str
    payload: Optional[str]  # output file text (CLI requests)
    values: Optional[list]  # returned values (library requests)

    def fingerprint(self):
        """Everything a traced and an untraced run must agree on, bit for bit."""
        return self.code, self.first_err, self.payload, repr(self.values)


def _run_cli(tb, argv: List[str], out: Optional[Path]) -> Outcome:
    if out is not None and out.exists():
        out.unlink()
    err = io.StringIO()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = tb.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is reported as a failed request
        code = "exception"
        err.write(f"{type(exc).__name__}: {exc}\n")
    latency = time.perf_counter() - t0
    payload = None
    if code == 0 and out is not None and out.exists():
        payload = out.read_text(encoding="utf-8")
    lines = err.getvalue().strip().splitlines()
    return Outcome(latency, code, lines[0] if lines else "", payload, None)


def _run_library(req) -> Outcome:
    module, name = req.call
    fn = getattr(importlib.import_module("twoband." + module), name)
    args = req.args
    t0 = time.perf_counter()
    try:
        values = [fn(*a) for a in args]
        code, first = 0, ""
    except Exception as exc:  # a crash is reported as a failed request
        values, code, first = None, "exception", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    return Outcome(latency, code, first, None, values)


def execute(tb, req) -> Outcome:
    if req.argv is not None:
        return _run_cli(tb, req.argv, ROOT / req.spec["out"])
    return _run_library(req)


def digest(req) -> str:
    text = "\0".join(req.argv) if req.argv is not None else repr((req.call, req.args))
    return hashlib.sha1(text.encode()).hexdigest()[:12]


class Tally:
    """Per-run accounting of requests, points, failures and diagnostics."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"checks:{workload}:{seed}")
        self.latencies: List[float] = []
        self.points = 0
        self.refused = []     # documented numerical failures (exit 3)
        self.unexpected = []  # crashes, other exit codes, failed checks
        self.cusps = [0, 0, 0]
        self.closed_err = {}
        self.unpinned = {}

    def record(self, tb, checks, req, out: Outcome) -> None:
        self.latencies.append(out.latency)
        if out.code == 3 and out.first_err.startswith("numerical failure"):
            self.refused.append((req, out, ""))
            return
        if out.code != 0:
            self.unexpected.append((req, out, "request did not complete"))
            return
        try:
            problems, points = self._check(tb, checks, req, out)
        except Exception as exc:  # an unparsable output is a failed check
            problems, points = [f"output check raised {type(exc).__name__}: {exc}"], 0
        if problems:
            self.unexpected.append((req, out, "; ".join(problems[:3])))
            return
        self.points += points

    def _check(self, tb, checks, req, out: Outcome):
        spec = req.spec
        if req.argv is None:
            values = out.values
            i = self.rng.randrange(len(values))
            problems, err = checks.check_closed(req.call[1], req.args[i], values[i])
            name = req.call[1]
            self.closed_err[name] = max(self.closed_err.get(name, 0.0), err)
            flat = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
            if not all(math.isfinite(x) for x in flat):
                problems.append("non-finite closed-form value")
            return problems, len(values)
        rows = checks.parse_output(spec["format"], out.payload)
        if req.workload == "lossy-sweep":
            problems, cusp = checks.check_lossy(tb, spec, rows, self.rng.randrange(1 << 30))
            for i, n in enumerate(cusp):
                self.cusps[i] += n
            return problems, len(rows)
        return checks.check_sweep(tb, spec, rows, self.unpinned), len(rows)

    def failures(self):
        return self.refused + self.unexpected

    def report_failures(self) -> None:
        for req, out, why in self.refused + self.unexpected:
            line = (f"FAILED workload={self.workload} argv={digest(req)} exit={out.code} "
                    f"stderr={out.first_err!r}")
            if why:
                line += f" check={why!r}"
            print(line)
            print(f"       {req.label()}")


def probe() -> float:
    """Seconds for a fixed mix of interpreter arithmetic and small numpy calls,
    the kind of work the library's integrands do."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = np.linspace(-1.0, 1.0, 3)
        acc = 0.0
        for i in range(200):
            v = np.stack([x * i, np.zeros_like(x), x])
            acc += math.sqrt(float(v[0] @ v[2]) ** 2 + 1.0)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedTimeline:
    """Probe times interleaved with measured intervals, to scale each interval
    to reference seconds by the probes taken just before and just after it."""

    def __init__(self):
        self.probes: List[float] = []
        self.intervals: List[tuple] = []  # (raw seconds, index of the probe before)
        self._since = math.inf

    def before(self) -> None:
        if self._since >= PROBE_EVERY:
            self.probes.append(probe())
            self._since = 0.0

    def after(self, seconds: float) -> None:
        self.intervals.append((seconds, len(self.probes) - 1))
        self._since += seconds

    def scaled(self) -> List[float]:
        self.probes.append(probe())
        return [raw * 2.0 * PROBE_REFERENCE / (self.probes[i] + self.probes[i + 1])
                for raw, i in self.intervals]


def tail(latencies: List[float]):
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def measure_setup():
    """Median wall time of a fresh interpreter importing twoband and building
    the parser: (reference seconds, raw seconds)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeline = SpeedTimeline()
    for _ in range(SETUP_REPEATS):
        timeline.before()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        timeline.after(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("cold start failed: " + proc.stderr.decode(errors="replace")[-500:])
    raw = statistics.median(seconds for seconds, _ in timeline.intervals)
    return statistics.median(timeline.scaled()), raw


def warm_up(tb, workdir: Path) -> None:
    """Untimed requests so lazy imports and caches are ready before timing."""
    out = workdir / "warmup.csv"
    for argv in WARMUP_ARGV:
        _run_cli(tb, argv + ["--out", str(out)], ROOT / out)
    tb.bounds_duality.ratio_complexity_prime(0.5, tb.GlobalReference(0.3, 0.2))
    tb.incomplete_E(0.5, 0.5)


def run_timed(tb, checks, gen, tally, rounds: int) -> SpeedTimeline:
    timeline = SpeedTimeline()
    for _ in range(rounds):
        for req in gen.round():
            timeline.before()
            out = execute(tb, req)
            timeline.after(out.latency)
            tally.record(tb, checks, req, out)
    return timeline


def run_traced(tb, checks, tracer_mod, gen, tally, rounds: int):
    """Fixed rounds untraced, then the same requests traced; returns metrics."""
    requests = [req for _ in range(rounds) for req in gen.round()]
    plain = [execute(tb, req) for req in requests]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced = [execute(tb, req) for req in requests]
    finally:
        tracer.uninstall()
    identical = True
    for req, a, b in zip(requests, plain, traced):
        if a.fingerprint() != b.fingerprint():
            identical = False
            print(f"TRACE MISMATCH argv={digest(req)} {req.label()}")
    for req, out in zip(requests, plain):
        tally.record(tb, checks, req, out)
    time_plain = sum(o.latency for o in plain)
    time_traced = sum(o.latency for o in traced)
    metrics = tracer.metrics()
    # traced points_per_s over untraced points_per_s; both runs finish the same points
    metrics["trace.overhead"] = (time_plain / time_traced, "ratio")
    return metrics, identical, time_plain, time_traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "twoband" / "__init__.py").is_file():
        print(f"twoband sources not found under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import twoband as tb
    import twoband.bounds_duality  # noqa: F401  (closed forms not re-exported at top level)
    import twoband.cli  # noqa: F401
    if Path(tb.__file__).resolve().parent != (src / "twoband").resolve():
        print(f"imported twoband from {tb.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import bench_checks as checks
    import bench_trace
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {bench_workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    workdir = WORKDIR / f"{args.workload}-{args.seed}"
    gen = bench_workloads.Generator(args.workload, args.seed, workdir, tb)
    gen.write_inputs()
    tally = Tally(args.workload, args.seed)
    try:
        if args.trace:
            warm_up(tb, workdir)
            rounds = max(1, round(TRACE_SECONDS / ROUND_SECONDS[args.workload]))
            metrics, identical, t_plain, t_traced = run_traced(tb, checks, bench_trace, gen, tally,
                                                               rounds)
            print(f"workload={args.workload} seed={args.seed} traced rounds={rounds}: "
                  f"{len(tally.latencies)} requests, untraced {t_plain:.3f} s, traced {t_traced:.3f} s, "
                  f"outputs bit-identical={identical}")
            for name, (value, unit) in metrics.items():
                print(f"{name} = {value} {unit}")
            correct = identical and not tally.unexpected
        else:
            setup, setup_raw = measure_setup()
            warm_up(tb, workdir)
            rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
            timeline = run_timed(tb, checks, gen, tally, rounds)
            latencies = timeline.scaled()
            attempted = len(latencies)
            failed_frac = len(tally.failures()) / attempted
            busy, busy_raw = sum(latencies), sum(tally.latencies)
            p50 = statistics.median(latencies)
            tail_value, tail_pct, n = tail(latencies)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup, "s"),
                "request_p50_s": (p50, "s"),
                "request_tail_s": (tail_value, "s"),
                "points_per_s": (tally.points / busy, "1/s"),
                "completed_frac": (1.0 - failed_frac, "ratio"),
                "peak_rss_mb": (rss, "MB"),
            }
            speed = PROBE_REFERENCE / statistics.median(timeline.probes)
            print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
                  f"requests={attempted} points={tally.points} busy={busy_raw:.3f} s raw")
            print(f"machine speed: {speed:.3f} of reference (median of {len(timeline.probes)} "
                  f"probes); times below are reference seconds, raw seconds in brackets")
            print(f"setup_s = {setup:.4f} s [{setup_raw:.4f}] (median of {SETUP_REPEATS} cold starts)")
            print(f"request_p50_s = {p50:.6f} s [{statistics.median(tally.latencies):.6f}] (n={n})")
            print(f"request_tail_s = {tail_value:.6f} s [{tail(tally.latencies)[0]:.6f}] "
                  f"(p{tail_pct:.1f}, n={n}, {min(TAIL_BEYOND, n - 1)} samples beyond)")
            print(f"points_per_s = {tally.points / busy:.3f} 1/s [{tally.points / busy_raw:.3f}]")
            print(f"failed_frac = {failed_frac:.4f} ({len(tally.failures())} of {attempted}: "
                  f"{len(tally.refused)} numerical failures, {len(tally.unexpected)} unexpected)")
            print(f"completed_frac = {1.0 - failed_frac:.4f}")
            print(f"peak_rss_mb = {rss:.1f} MB")
            correct = not tally.unexpected
        if args.workload == "lossy-sweep":
            found, total, spurious = tally.cusps
            print(f"detect_cusps (diagnostic): {found} of {total} gap closings found within one "
                  f"grid step, {spurious} spurious cusps")
        for name in sorted({name for name, _ in tally.unpinned}):
            errs = " ".join(f"1e{d}:{e:.1e}" for (n, d), e in sorted(tally.unpinned.items()) if n == name)
            print(f"max error vs closed form closer than the pinned domain (not checked), "
                  f"by distance: {name} {errs}")
        for name, err in sorted(tally.closed_err.items()):
            print(f"closed-form max |error| vs mpmath: {name} = {err:.3e}")
        tally.report_failures()
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / WORKDIR).rmdir()

    result = {
        "correct": bool(correct),
        "attempted": len(tally.latencies),
        "failed": len(tally.unexpected),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
