#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the BENCHMARK.json command ten times per workload, each time with
another --seed, and prints for each end-to-end metric the distance between
the first and third quartile of its ten values as a share of their median,
next to the metric's bound. Run from the repo root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--bin PATH]

--bin PATH runs an already-built benchmark binary instead of the command
(saves the cargo freshness check on each of the sixty runs).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--bin")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    command = [args.bin] if args.bin else spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in spec["workloads"]:
        name = workload["name"]
        if args.workload and name not in args.workload:
            continue
        values = {m: [] for m in bounds}
        started = time.time()
        for i in range(args.runs):
            run = subprocess.run(
                command
                + ["--workload", name, "--seed", str(args.first_seed + i)]
                + ["--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True,
                text=True,
            )
            if run.returncode != 0:
                sys.exit(f"{name} seed {args.first_seed + i} exited {run.returncode}:\n{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {args.first_seed + i}: incorrect: {run.stderr}")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        per_run = (time.time() - started) / args.runs
        print(f"{name}  ({per_run:.1f} s per run)")
        for metric, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            share = spread / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, share)
            print(
                f"  {metric:<12} median {med:10.4f}  spread {100 * spread:5.2f} %"
                f"  bound {100 * bounds[metric]:4.0f} %  ({share:4.2f} of bound)"
                f"  min {min(xs):.4f} max {max(xs):.4f}"
            )
    print(f"worst spread outside setup_s: {worst:.2f} of its bound (aim: below 0.33)")


if __name__ == "__main__":
    main()
