"""Closed-loop benchmark of spinwreath, run from the root of a checkout.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 25 --trace 0

One process, one thread, one request outstanding at a time: each request is
issued as soon as the previous one has returned and been checked.  Requests
are in-process ``spinwreath.cli.main(argv)`` calls or, for ``verify-small``,
library ``verify()`` calls; ``workloads.py`` describes each workload and the
known answer every request is checked against.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
with spans around each layer (``spans.py``) for half the time, then without
for as many decks, and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with the run's metadata, and for
traced runs the spans, are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
# with at least 100 requests, 10 samples lie beyond the 90th percentile
MIN_REQUESTS = 100

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import spinwreath from this checkout's ``src``, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "spinwreath", "__init__.py")):
        raise ProgramMissing(f"no spinwreath package under {SRC}")
    sys.path.insert(0, SRC)
    import spinwreath
    import spinwreath.cli  # noqa: F401  (the CLI workloads call into it)

    where = os.path.dirname(os.path.abspath(spinwreath.__file__))
    if os.path.dirname(where) != SRC:
        raise ProgramMissing(f"spinwreath was imported from {where}")


def set_up(name: str, seed: int) -> workloads.Workload:
    """What a run does before its first timed request."""
    load_program()
    return workloads.build(name, seed)


def measure_setup(name: str, seed: int) -> List[float]:
    """Seconds from the start of a fresh process until it is ready, at
    reference speed (``speed.py``)."""
    times = []
    for _ in range(SETUP_PROBES):
        kernel = speed.measure()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        kernel = (kernel + speed.measure()) / 2
        times.append(elapsed * speed.REFERENCE_S / kernel)
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

# samples kept per request type; the median of up to this many is plenty,
# and a fixed cap keeps the benchmark's own memory from growing with the run
SAMPLES_PER_TYPE = 64


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    decks: int = 0
    wall: float = 0.0  # loop time, calibration excluded
    # request type -> latencies at reference speed (the first
    # SAMPLES_PER_TYPE), and how often the type ran
    samples: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    kernels: array = field(default_factory=lambda: array("d"))
    scales: array = field(default_factory=lambda: array("d"))  # if traced
    failures: Counter = field(default_factory=Counter)
    claims: Counter = field(default_factory=Counter)
    paths: Counter = field(default_factory=Counter)
    outcomes: list = field(default_factory=list)

    def typical(self):
        """(latency, count) per request type, sorted; the latency is the
        median over the run of the type's latencies at reference speed.

        Every request of a type does the same work; the median per type
        drops the odd request caught by a collection or by a change of
        machine speed that the scale did not follow.
        """
        return sorted((statistics.median(self.samples[label]), count)
                      for label, count in self.counts.items())

    @property
    def throughput(self):
        """Requests per second of loop time at reference speed, each request
        taking the typical time of its type."""
        return self.attempted / math.fsum(t * n for t, n in self.typical())

    def percentile(self, share):
        """The ``share`` quantile of the requests as they ran, each at the
        typical time of its type, interpolated as ``statistics.quantiles``
        does with its default method (``statistics.median`` for 0.5)."""
        typical = self.typical()

        def nth(k):  # k-th smallest, from 0
            for value, count in typical:
                if k < count:
                    return value
                k -= count
            raise IndexError(k)

        position = share * (self.attempted + 1)  # 1-based, may fall between
        below = min(max(int(position), 1), self.attempted - 1)
        frac = position - below
        return nth(below - 1) + frac * (nth(below) - nth(below - 1))


def run_loop(decks, *, seconds=None, min_requests=0, n_decks=None,
             tracer=None, keep_outcomes=False) -> LoopResult:
    """Run whole decks until ``n_decks`` are done, or until ``seconds`` have
    passed and at least ``min_requests`` were issued.

    The loop is cut into segments of about ``speed.EVERY_S``; the speed
    kernel runs between segments.  Each request is scaled by the kernel
    time interpolated, linearly in time, between the kernel runs on either
    side of its segment, so a short request next to a long one is scaled by
    the kernel run nearest to it.
    """
    res = LoopResult()
    started = time.perf_counter()
    res.kernels.append(speed.measure())
    segment_start = time.perf_counter()
    segment = []  # (label, start, end) of the requests in this segment

    def end_segment():
        nonlocal segment_start
        wall = time.perf_counter() - segment_start
        before, after = res.kernels[-1], speed.measure()
        res.kernels.append(after)
        for label, t0, t1 in segment:
            share = ((t0 + t1) / 2 - segment_start) / wall
            scale = (before + share * (after - before)) / speed.REFERENCE_S
            kept = res.samples.setdefault(label, array("d"))
            if len(kept) < SAMPLES_PER_TYPE:
                kept.append((t1 - t0) / scale)
            if tracer is not None:
                res.scales.append(scale)
        segment.clear()
        res.wall += wall
        segment_start = time.perf_counter()

    while True:
        for req in next(decks):
            outcome = error = None
            if tracer is not None:
                tracer.request = res.attempted
                span = tracer.open("request")
            t0 = time.perf_counter()
            try:
                outcome = req.call()
            except (Exception, SystemExit) as exc:  # a failed request
                error = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
                span = tracer.spans[span]
                t0, t1 = span.start, span.end
            segment.append((req.label, t0, t1))
            res.counts[req.label] += 1
            res.attempted += 1
            ok = False
            if error is None:
                try:
                    ok, claim = req.check(outcome)
                except (KeyError, TypeError, ValueError):  # malformed output
                    ok = False
            if not ok:
                res.failed += 1
                res.failures[f"{req.label}: {error!r}" if error else req.label] += 1
            elif claim is not None:
                res.claims[claim] += 1
            if tracer is not None and error is None:
                path = decision_path(outcome)
                if path:
                    res.paths[path] += 1
            if keep_outcomes:
                res.outcomes.append(None if error else req.normalize(outcome))
            if time.perf_counter() - segment_start >= speed.EVERY_S:
                end_segment()
        res.decks += 1
        if n_decks is not None:
            if res.decks >= n_decks:
                break
        elif (time.perf_counter() - started >= seconds
              and res.attempted >= min_requests):
            break
    if segment:
        end_segment()
    return res


def check_claims(res: LoopResult):
    """Check each distinct strategy the program returned with the oracle."""
    for claim, count in res.claims.items():
        if not workloads.verify_claim(claim):
            res.failed += count
            res.failures[f"oracle rejects {claim[1]}"] += count


def decision_path(outcome):
    """The decision path named by a ``decide`` payload, if any."""
    if not isinstance(outcome, tuple):
        return None
    doc = json.loads(outcome[1])
    if doc.get("command") != "decide":
        return None
    return spans.DECISION_PATHS.get(doc["payload"].get("message"))


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(decks, args):
    setup_times = measure_setup(args.workload, args.seed)
    res = run_loop(decks, seconds=args.seconds, min_requests=MIN_REQUESTS)
    check_claims(res)
    metrics = {
        "latency_p50_ms": 1e3 * res.percentile(0.5),
        "latency_p90_ms": 1e3 * res.percentile(0.9),
        "throughput_rps": res.throughput,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "latency_p50_ms": res.attempted, "latency_p90_ms": res.attempted,
        "throughput_rps": res.attempted, "setup_s": len(setup_times),
        "peak_rss_mb": 1,
    }
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END_UNITS[name]}"
              f" (n={samples[name]})")
    print(f"{args.workload} error_rate = {res.failed / res.attempted:.6g}"
          f" ({res.failed}/{res.attempted})")
    units = END_TO_END_UNITS
    kernels = sorted(res.kernels)
    extra = {
        "setup_samples_s": setup_times, "samples": samples,
        "as_measured": {
            "throughput_rps": res.attempted / res.wall,
            "speed_kernel_s_min_median_max": [
                kernels[0], statistics.median(kernels), kernels[-1]],
        },
        "request_types": {label: {"count": res.counts[label],
                                  "median_ms": 1e3 * statistics.median(v)}
                          for label, v in res.samples.items()},
    }
    return res, metrics, units, extra


def traced(decks, args):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with_spans = run_loop(decks, seconds=args.seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    check_claims(with_spans)
    metrics = spans.layer_metrics(tracer, with_spans.attempted,
                                  with_spans.paths, with_spans.scales)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{args.workload}.spans.jsonl"))
    n_spans = len(tracer.spans)
    # the spans are freed first: kept alive, they would slow every full
    # garbage collection of the untraced loop
    del tracer
    plain = run_loop(decks, n_decks=with_spans.decks)
    check_claims(plain)
    metrics["trace.overhead_share"] = (
        (with_spans.throughput - plain.throughput) / plain.throughput)
    units = {name: spans.unit_of(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    res = LoopResult(attempted=with_spans.attempted + plain.attempted,
                     failed=with_spans.failed + plain.failed,
                     decks=with_spans.decks + plain.decks,
                     failures=with_spans.failures + plain.failures)
    extra = {"traced_requests": with_spans.attempted, "spans": n_spans,
             "throughput_traced_rps": with_spans.throughput,
             "throughput_untraced_rps": plain.throughput}
    return res, metrics, units, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # set-up timing child
    args = parser.parse_args(argv)

    try:
        workload = set_up(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.probe:
        print("ready", flush=True)
        return 0
    if workload.prepare is not None:
        workload.prepare()
    decks = workload.decks(random.Random(f"decks-{args.seed}"))
    run = traced if args.trace else end_to_end
    res, metrics, units, extra = run(decks, args)

    for failure, count in res.failures.most_common(10):
        print(f"FAILED x{count}: {failure}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "requests": res.attempted, "failed": res.failed, "decks": res.decks,
        "error_rate": res.failed / res.attempted,
        "metrics": metrics, **extra,
    }
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
