"""Repeat the benchmark over ten seeds and summarise the spread.

    python3 perfbench/repeat.py [--out FILE]

Runs ``run.py`` on every workload of BENCHMARK.json with seeds 1-10, one
process at a time, with ``run_seconds`` from BENCHMARK.json, then one
``--trace 1`` run per workload on seed 1. Prints each run's metrics and its
elapsed time (set-up probes included), then per metric the median, the
quartiles (``statistics.quantiles(n=4)``) and their distance as a share of
the median, next to the metric's bound. It also prints the medians of the
first and the last five seeds and the min-max range as shares of the median,
which show drift of the machine over minutes. ``--out`` writes all of it as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def bench_run(benchmark, workload, seed, trace):
    args = [*benchmark["command"], "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    half = len(values) // 2
    first, last = statistics.median(values[:half]), statistics.median(values[half:])
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "split_half": abs(last - first) / median,
        "range": (max(values) - min(values)) / median,
        "bound": bound,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        values = {}
        elapsed = []
        correct = True
        for seed in SEEDS:
            result, seconds = bench_run(benchmark, workload, seed, 0)
            correct &= result["correct"]
            elapsed.append(seconds)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} correct {result['correct']} elapsed {seconds:.1f} s {shown}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = summary[workload] = {
            "seeds": SEEDS,
            "correct": correct,
            "run_elapsed_s": {"max": max(elapsed), "values": elapsed},
            "end_to_end": {name: summarise(v, bounds.get(name)) for name, v in values.items()},
        }
        for name, stats in entry["end_to_end"].items():
            print(
                f"{workload:12s} {name:12s} median {stats['median']:.6g} "
                f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.3f} "
                f"split-half {stats['split_half']:.3f} range {stats['range']:.3f} bound {stats['bound']}",
                flush=True,
            )
        print(f"{workload:12s} longest run {max(elapsed):.1f} s (run_seconds {benchmark['run_seconds']})", flush=True)
        traced, seconds = bench_run(benchmark, workload, SEEDS[0], 1)
        entry["traced"] = {"seed": SEEDS[0], "elapsed_s": seconds, "correct": traced["correct"], "metrics": traced["metrics"]}
        entry["correct"] &= traced["correct"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(entry["correct"] for entry in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
