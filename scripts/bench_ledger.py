#!/usr/bin/env python3
"""Turns repeated benchmark runs into ledger rows.

    scripts/bench_ledger.py --gbench BUILD LAYER FILE \\
        [--perfbench BUILD WORKLOAD FILE...] [--meta KEY=VALUE] > BENCH_x.json

Each row is {layer, name, unit, reps, median, p10, p90, meta}, one row per
benchmark and build, with layer one of kernel, stage, pipeline, e2e.

--gbench reads one google-benchmark JSON file written with
--benchmark_repetitions=N (--benchmark_out_format=json): one row per
benchmark over its N repetitions of real time, with meta taken from the
file's context (the bench_meta.h entries) plus the build name.

--perfbench reads the last-line results of repeated `perfbench/run.py`
runs of one workload: one e2e row per end-to-end metric over the runs.

--meta adds an entry to every row's meta (say, the thread count the runs
used). Percentiles interpolate linearly between order statistics.
"""

import argparse
import json
import sys

LAYERS = ("kernel", "stage", "pipeline", "e2e")
PERFBENCH_E2E = ("setup_s", "throughput_per_s", "peak_rss_mb", "quality",
                 "query_p50_us", "query_p99_us")


def percentile(values, q):
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def row(layer, name, unit, values, meta):
    return {"layer": layer, "name": name, "unit": unit, "reps": len(values),
            "median": percentile(values, 0.5), "p10": percentile(values, 0.1),
            "p90": percentile(values, 0.9), "meta": meta}


def gbench_rows(build, layer, path):
    with open(path) as f:
        data = json.load(f)
    context = data.get("context", {})
    meta = {key: str(value) for key, value in context.items()
            if key not in ("date", "host_name", "executable", "caches",
                           "load_avg", "library_build_type",
                           "json_schema_version")}
    meta["build"] = build
    times = {}
    units = {}
    for bench in data["benchmarks"]:
        if bench.get("run_type") != "iteration":
            continue
        name = bench.get("run_name", bench["name"])
        times.setdefault(name, []).append(bench["real_time"])
        units[name] = bench["time_unit"]
    return [row(layer, name, units[name], values, meta)
            for name, values in times.items()]


def perfbench_rows(build, workload, paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.loads(f.read().strip().splitlines()[-1]))
    meta = {"build": build, "source": "perfbench/run.py",
            "correct": str(all(r["correct"] for r in runs)).lower(),
            "failed": str(sum(r["failed"] for r in runs))}
    rows = []
    for metric in PERFBENCH_E2E:
        values = [r["metrics"][metric]["value"] for r in runs
                  if metric in r["metrics"]]
        if values:
            unit = runs[0]["metrics"][metric]["unit"]
            rows.append(row("e2e", f"{workload}.{metric}", unit, values, meta))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gbench", nargs=3, action="append", default=[],
                        metavar=("BUILD", "LAYER", "FILE"))
    parser.add_argument("--perfbench", nargs="+", action="append", default=[],
                        metavar="BUILD WORKLOAD FILE")
    parser.add_argument("--meta", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args()
    rows = []
    for build, layer, path in args.gbench:
        if layer not in LAYERS:
            parser.error(f"layer must be one of {', '.join(LAYERS)}")
        rows.extend(gbench_rows(build, layer, path))
    for spec in args.perfbench:
        if len(spec) < 3:
            parser.error("--perfbench needs BUILD WORKLOAD FILE...")
        rows.extend(perfbench_rows(spec[0], spec[1], spec[2:]))
    for entry in args.meta:
        key, _, value = entry.partition("=")
        for r in rows:
            r["meta"] = {**r["meta"], key: value}
    sys.stdout.write("{\"rows\": [\n")
    sys.stdout.write(",\n".join(json.dumps(r) for r in rows))
    sys.stdout.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
