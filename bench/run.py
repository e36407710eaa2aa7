"""Closed-loop benchmark of the yangian_weyl package.

    python3 bench/run.py --workload spin --seed 1 --seconds 10 --trace 0

One process, one thread, one client: each op is sent only after the
previous one returns.  Ops go through the package's public entry points
(`cli.main` for the sl2, weyl and check subcommands, and
`drinfeld.series_to_roots`), and every output is checked.  The last line
of standard output is a JSON object with `correct`, `attempted`, `failed`
and `metrics`; the full record of the run goes to bench/out/.

Times are scaled to reference speed with the kernel in kernel.py; see
README.md for the workloads, the metrics and the timing rules.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from kernel import R0_SECONDS, time_kernel
from spans import Tracer, layer_names
from workloads import CHECKS, corrupt, generate, roots_series, warmup_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Reference-speed seconds of one round of each workload; a run times the
# fewest whole rounds that make up --seconds at reference speed.  The op
# count is fixed by the arguments: a run never stops on the clock.
ROUND_SECONDS = {"spin": 12.3, "relations": 7.2, "roots": 3.0, "verdicts": 3.4}
KERNEL_REPEATS = 6  # kernel runs between two ops
# Kernel runs that start within max(WINDOW_MIN_S, WINDOW_PER_OP * t) of an
# op of t seconds scale its time.
WINDOW_MIN_S = 0.1
WINDOW_PER_OP = 3
SETUP_REPEATS = 9  # set-ups per run; setup_s is their median
MODULES = ("cli", "criteria", "dims", "drinfeld", "exact", "ysl2")


class Package:
    """A fresh import of the package under test."""

    def __init__(self):
        for name in [n for n in sys.modules if n.split(".")[0] == "yangian_weyl"]:
            del sys.modules[name]
        self.modules = {
            name: importlib.import_module(f"yangian_weyl.{name}") for name in MODULES
        }
        origin = Path(self.modules["cli"].__file__).resolve()
        if SRC not in origin.parents:
            raise ImportError(f"yangian_weyl imported from {origin}, not from {SRC}")

    def call(self, op, prepared):
        if op.kind == "roots":
            series, degree, d = prepared
            return self.modules["drinfeld"].series_to_roots(series, degree, d)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = self.modules["cli"].main(list(op.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
        return rc, out.getvalue()

    def prepare(self, op):
        """Untimed input conversion: roots ops need a package Series."""
        if op.kind != "roots":
            return None
        exact = self.modules["exact"]
        coeffs = [exact.GaussianRational(re_, im) for re_, im in roots_series(op)]
        degree, d = op.argv
        return exact.Series(coeffs), degree, d


def judge(op, run):
    """(failed, wrong, problem) for one op; `run` returns its output or
    raises.  An op that raises has failed; one whose output does not pass
    its check has failed and is wrong."""
    try:
        output = run()
    except Exception as exc:  # the package raised: count it, keep going
        return True, False, f"{type(exc).__name__}: {exc}"
    try:
        problem = CHECKS[op.kind](op, output)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problem = f"malformed output: {exc!r}"
    return problem is not None, problem is not None, problem


def set_up(workload):
    """Import, parser construction and warm-up: one untimed op of each
    kind, which fills the lru_cache tables of the package."""
    pkg = Package()
    pkg.modules["cli"].build_parser()
    warm = []
    for op in warmup_ops(workload):
        output = pkg.call(op, pkg.prepare(op))
        warm.append((op, output))
    return pkg, warm


def self_test(warm):
    """Every warm-up output passes its check and a corrupted copy fails."""
    for op, output in warm:
        problem = CHECKS[op.kind](op, output)
        if problem:
            raise SystemExit(f"warm-up op {op.kind} failed its check: {problem}")
        failed, wrong, _ = judge(op, lambda: corrupt(op, output))
        if not (failed and wrong):
            raise SystemExit(f"self-test: a corrupted {op.kind} output passed its check")


class Timeline:
    """Kernel runs interleaved with the timed intervals.

    An interval of `raw` seconds is scaled by the mean kernel time over
    the runs that started within max(WINDOW_MIN_S, WINDOW_PER_OP * raw)
    of it, which always include the runs just before and just after it: a
    host that is slow for a while slows the kernel and the op alike, and a
    long op spans more of the host's swings than a short one.
    """

    def __init__(self):
        self.samples: list = []  # (start, seconds), in time order
        self.intervals: list = []  # (start, raw seconds)

    def gap(self):
        gc.collect()
        time_kernel(KERNEL_REPEATS, self.samples)

    def timed(self, fn):
        """fn() between two kernel gaps; its interval is recorded even if
        it raises."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.intervals.append((start, time.perf_counter() - start))
            self.gap()

    def scaled(self):
        """(start, raw, scaled) seconds of every interval, in order."""
        starts = [t for t, _ in self.samples]
        out = []
        for start, raw in self.intervals:
            window = max(WINDOW_MIN_S, WINDOW_PER_OP * raw)
            lo = bisect.bisect_left(starts, start - window)
            hi = bisect.bisect_right(starts, start + raw + window)
            kernel = statistics.fmean(d for _, d in self.samples[lo:hi])
            out.append((start, raw, raw * R0_SECONDS / kernel))
        return out


def timed_pass(pkg, ops, tracer=None):
    """Run every op once, in order; returns per-op records and the counts
    of failed and of wrong ops."""
    prepared = [pkg.prepare(op) for op in ops]
    timeline = Timeline()
    failed = wrong = 0
    timeline.gap()
    for index, (op, args) in enumerate(zip(ops, prepared)):
        if tracer:
            tracer.op_id = index
        op_failed, op_wrong, problem = judge(
            op, lambda: timeline.timed(lambda: pkg.call(op, args)))
        failed += op_failed
        wrong += op_wrong
        if problem:
            print(f"op {index} ({op.kind}) failed: {problem}", file=sys.stderr)
    records = [
        {"kind": op.kind, "start": start, "raw_s": raw, "scaled_s": ref}
        for op, (start, raw, ref) in zip(ops, timeline.scaled())
    ]
    return records, failed, wrong, timeline.samples


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best


def summarize(times, completed):
    """p50, tail and throughput of a list of op times in seconds, of which
    `completed` ops did not fail."""
    ordered = sorted(times)
    p = tail_percentile(len(ordered))
    return {
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[math.ceil(p * len(ordered) / 100) - 1] * 1e3,
        "tail_percentile": p,
        "samples": len(ordered),
        "throughput_ops_s": completed / sum(ordered),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "yangian_weyl" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    timeline = Timeline()
    timeline.gap()
    for _ in range(SETUP_REPEATS):
        pkg, warm = timeline.timed(lambda: set_up(args.workload))
    _, setups_raw, setups = zip(*timeline.scaled())
    self_test(warm)

    rounds = max(1, math.ceil(args.seconds / ROUND_SECONDS[args.workload]))
    ops = generate(args.workload, args.seed, rounds)
    records, failed, wrong, kernel = timed_pass(pkg, ops)
    report = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "scaled": summarize([r["scaled_s"] for r in records], len(records) - failed),
        "raw": summarize([r["raw_s"] for r in records], len(records) - failed),
        "setup_s": statistics.median(setups), "setup_raw_s": statistics.median(setups_raw),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = len(records)
    if args.trace:
        # Distinct inputs of the same make-up, so that no input repeats.
        traced_ops = generate(args.workload, args.seed, rounds, stream="traced")
        tracer = Tracer()
        tracer.install(pkg.modules)
        try:
            traced, traced_failed, traced_wrong, _ = timed_pass(pkg, traced_ops, tracer)
        finally:
            tracer.uninstall()
        attempted += len(traced)
        failed += traced_failed
        wrong += traced_wrong
        metrics = layer_metrics(tracer, traced)
        metrics["trace.overhead_ms"] = (
            summarize([r["scaled_s"] for r in traced], len(traced) - traced_failed)
            ["latency_p50_ms"] - report["scaled"]["latency_p50_ms"], "ms")
        report["spans"] = tracer.dump()
    else:
        metrics = {
            "latency_p50_ms": (report["scaled"]["latency_p50_ms"], "ms"),
            "latency_tail_ms": (report["scaled"]["latency_tail_ms"], "ms"),
            "throughput_ops_s": (report["scaled"]["throughput_ops_s"], "1/s"),
            "setup_s": (report["setup_s"], "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    report["ops"] = records
    report["kernel"] = kernel
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh)
    print(json.dumps({k: report[k] for k in ("workload", "seed", "rounds", "scaled", "raw",
                                             "setup_s", "setup_raw_s")}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, records):
    """Per-op averages of every layer metric, times scaled like op times.
    Work outside the ops (input preparation, op id -1) is left out."""
    n = len(records)
    factor = [r["scaled_s"] / r["raw_s"] for r in records]
    metrics = {name: 0.0 for name in layer_names()}
    for (op, name), ms in tracer.self_ms().items():
        if op >= 0:
            metrics[f"{name}.self_ms"] += ms * factor[op] / n
    for (op, name), calls in tracer.counts.items():
        if op >= 0:
            metrics[name] += calls
    for name in metrics:
        if not name.endswith("_ms"):
            metrics[name] /= n
    return {
        name: (value, "ms" if name.endswith("_ms") else "count")
        for name, value in metrics.items()
    }


if __name__ == "__main__":
    sys.exit(main())
