"""Run workloads several times and print each metric's spread.

    python3 perfbench/spread.py --runs 10 --seconds 15 [--workloads serve ...]
                                [--overhead] [--first-seed 1]

Every run is a fresh ``run.py`` process with its own seed (first-seed,
first-seed + 1, ...), one at a time.  For each workload and metric this
prints the median, the first and third quartiles (``statistics.quantiles``
with n=4) and the quartile distance as a share of the median, which is
what the bounds in BENCHMARK.json are held against.  ``--overhead`` runs
each seed untraced and then traced and prints the traced run's latency_ms
as a share of the untraced one's, and the per-layer table of the traced
runs.  It exits 1 if any run fails, is
incorrect, or reports failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("archive", "align", "serve", "online")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for line in done.stderr.splitlines():
        if line.startswith("traced latency_ms="):
            result["traced_latency_ms"] = float(line.split("=", 1)[1])
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    healthy = True
    for workload in args.workloads:
        results, traced_results, overheads = [], [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = one_run(workload, seed, args.seconds, 0)
            if args.overhead:
                traced = one_run(workload, seed, args.seconds, 1)
                traced_results.append(traced)
                overheads.append(traced["traced_latency_ms"]
                                 / result["metrics"]["latency_ms"]["value"]
                                 - 1.0)
                healthy &= traced["correct"] and traced["failed"] == 0
            results.append(result)
            shares = result["failed"] / result["attempted"]
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f" ({shares:.4f})", flush=True)
            healthy &= result["correct"] and result["failed"] == 0
        if overheads:
            print(f"{workload}: tracing overhead on latency_ms: median "
                  f"{statistics.median(overheads):+.4f}, runs "
                  + " ".join(f"{o:+.3f}" for o in overheads), flush=True)
        for group in (results, traced_results):
            if group:
                print_table(workload, group)
    return 0 if healthy else 1


def print_table(workload: str, results) -> None:
    print(f"{workload}: {'metric':32s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        if len(values) > 1:
            median, q1, q3, share = summarize(values)
        else:
            median = q1 = q3 = values[0]
            share = 0.0
        print(f"{workload}: {name + ' [' + unit + ']':32s} {median:12.4f} "
              f"{q1:12.4f} {q3:12.4f} {share:8.4f}   runs "
              + " ".join(f"{v:.4g}" for v in values), flush=True)


if __name__ == "__main__":
    sys.exit(main())
