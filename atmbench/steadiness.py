#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs the benchmark --runs times per workload, one seed per round and the
workloads in rotating order, so host drift is spread evenly over them.
For each end-to-end metric of BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median, next to the metric's bound.

    python3 atmbench/steadiness.py --runs 10 --first-seed 1 --out steadiness-a.json

Run it from the root of the repository; it writes only the --out file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "atmbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} reported failed checks")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    for r in range(args.runs):
        seed = args.first_seed + r
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            metrics, wall = run_once(w, seed, bench["run_seconds"])
            walls[w].append(wall)
            for m in bounds:
                values[w][m].append(metrics[m])
            print(f"round {r} seed {seed} {w} {wall:.1f}s", file=sys.stderr, flush=True)

    summary = {}
    for w in workloads:
        summary[w] = {"wall_s": walls[w], "metrics": {}}
        print(f"\n{w}  (wall per run: median {statistics.median(walls[w]):.1f} s)")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m, bound in bounds.items():
            xs = values[w][m]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            summary[w]["metrics"][m] = {"values": xs, "median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "bound": bound}
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {m:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {bound:>6}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": args.runs, "first_seed": args.first_seed, "workloads": summary}, f, indent=1)


if __name__ == "__main__":
    main()
