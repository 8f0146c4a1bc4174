"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
self times of a separately traced run.  ``--quick`` shrinks every input so
a workload finishes in seconds (the benchmark's own tests use it).  The
last line of standard output is the result; the exit code is 1 when a
correctness check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import os

# BLAS must be single-threaded before numpy is first imported: a second
# BLAS thread competes with the benchmark itself on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least three times and for at least 1.5 s, so a set-up of
# a fraction of a second (archive: 0.3 s) still gets a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def unit_latencies_ms(ops):
    """Latency per unit (design, epoch, request, iteration) of each
    completed op, with the op's kind."""
    return [(op.kind, 1e3 * op.latency_s / op.units) for op in ops
            if op.work > 0]


def mean_of_medians(ops) -> float:
    """Median latency (ms) of each kind of operation, averaged over kinds."""
    by_kind = {}
    for kind, latency in unit_latencies_ms(ops):
        by_kind.setdefault(kind, []).append(latency)
    if not by_kind:
        return 0.0
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def layer_metrics(tracer, workload, units: int) -> dict:
    """Self ms and call counts per latency unit, plus the program's
    ratios."""
    from perfbench.tracer import LAYERS

    out = {}
    for layer in LAYERS:
        out[f"{layer}.ms"] = (1e3 * tracer.self_s[layer] / units, "ms")
    out["timing.calls"] = (tracer.calls["timing"] / units, "count")
    ratios = {"flow.batch.frozen_fraction": 0.0,
              "serving.cache.hit_ratio": 0.0,
              "serving.batch.occupancy": 0.0}
    ratios.update(workload.layer_metrics())
    for name, value in ratios.items():
        out[name] = (value, "ratio")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        quick: bool) -> dict:
    from perfbench.tracer import LayerTracer
    from perfbench.workloads import FULL, QUICK, WORKLOADS

    workload = WORKLOADS[workload_name](QUICK if quick else FULL, seed)
    setup_times = []
    repeats, least_s = (1, 0.0) if quick else (SETUP_REPEATS, SETUP_SECONDS)
    while len(setup_times) < repeats or sum(setup_times) < least_s:
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    workload.warmup()

    tracer = LayerTracer()
    if trace:
        tracer.install()
    workload.start_timing()
    ops = []
    elapsed = 0.0
    try:
        while True:
            # Every round starts from an empty collector, so the garbage
            # cycles a round leaves (autograd graphs) are freed at the same
            # point in every round and the peak memory does not depend on
            # how many rounds fit in the run.  The collection is not timed.
            gc.collect()
            start = time.perf_counter()
            ops.extend(workload.round())
            elapsed += time.perf_counter() - start
            if elapsed >= seconds:
                break
    finally:
        tracer.uninstall()

    problems = workload.check()
    for problem in problems:
        print(f"{workload_name}: check failed: {problem}", file=sys.stderr)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    if trace:
        metrics = layer_metrics(tracer, workload,
                                sum(op.units for op in ops))
        # The traced run's own latency, for the tracing overhead.
        print(f"traced latency_ms={mean_of_medians(ops)!r}", file=sys.stderr)
    else:
        latency = mean_of_medians(ops)
        # p99 of the serve requests (a full run has >= 1,000, so ten lie
        # beyond it); the other workloads have too few operations per run
        # for any tail and report their median.
        tail = (percentile([v for _, v in unit_latencies_ms(ops)], 99.0)
                if workload_name == "serve" else latency)
        metrics = {
            "throughput_per_s": sum(op.work for op in ops) / elapsed,
            "latency_ms": latency,
            "latency_tail_ms": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("archive", "align", "serve", "online"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.quick)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
