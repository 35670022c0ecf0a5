#!/usr/bin/env python3
"""Runs the benchmark repeatedly on one commit and reports its spread.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1] [--same-seed]
        [--save FILE] [--against FILE]

Run from the repository root. For every workload of BENCHMARK.json it runs
`run.py` once per seed (seed-base, seed-base + 1, ...), untraced, and prints
for each end-to-end metric the median, the first and third quartiles
(statistics.quantiles with n=4), the spread (Q3 - Q1) / median, and whether
that spread fits the metric's bound. It also prints each workload's failed
share. --same-seed runs every run on seed-base instead, so that the spread
is the run-to-run noise alone, apart from the variance of the inputs.
--save writes the raw values as JSON; --against compares this set's
medians with a saved set and flags every metric whose median got worse by
more than its bound. Exits 1 when a run fails, a run is incorrect, a spread
exceeds its bound or a median moved too far.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(benchmark, workload, seed):
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    run = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def worse_by(metric, old, new):
    """Share by which `new` is worse than `old` (negative when better)."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)

    ok = True
    raw = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        shares = set()
        for run in range(args.runs):
            seed = args.seed_base + (0 if args.same_seed else run)
            result = run_once(benchmark, workload, seed)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect")
                ok = False
                continue
            shares.add(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        raw[workload] = values
        print(f"\n{workload}: failed share per run {sorted(shares)}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for metric in metrics:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            old = previous.get(workload, {}).get(metric["name"])
            if old:
                moved = worse_by(metric, statistics.median(old), median)
                verdict += f"; vs saved {moved:+.3f}"
                if moved > bound:
                    verdict += " WORSE THAN BOUND"
                    ok = False
            print(f"  {metric['name']:18s} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {bound:6.2f}  {verdict}")
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
