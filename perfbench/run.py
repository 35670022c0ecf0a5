#!/usr/bin/env python3
"""Builds the x2vec benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library (../src) and the benchmark
program are built into .bench_build/ (or $CARGO_TARGET_DIR when set) with
CMake in Release mode; the build is incremental, so only the first run
compiles. The program's reference code runs its hand-computed self-test
before every run. The last line on stdout is the run's JSON result
(correct, attempted, failed, metrics); a copy is kept under
.bench_build/results/. Exits non-zero, printing no result, when the build,
the self-test or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("node2vec_serial", "graph_collection", "serve_knn")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(BENCH_DIR):
            log(f"build tree {build_dir} belongs to {home[0]}; reconfiguring")
            os.remove(cache)
            shutil.rmtree(os.path.join(build_dir, "CMakeFiles"), ignore_errors=True)
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "x2vec_perfbench")


def valid(result):
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
        subprocess.run([binary, "--self-test"], check=True)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build or self-test failed: {error}")
        return 1

    workdir = os.path.join(build_dir, "work")
    results = os.path.join(build_dir, "results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"{args.workload} exited with {run.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not valid(result):
        log(f"{args.workload} printed no valid result: {lines[-1]!r}")
        return 1

    for name, metric in result["metrics"].items():
        log(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    log(f"  attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, stem), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
