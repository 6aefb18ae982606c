#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload once.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload <serve-small|serve-model|batch-star5>
      --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr. The run's result file goes to
.bench_build/results/<workload>-seed<n>-trace<t>.json (plus a .spans.csv
span table for traced runs), and the last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The metrics are ordered as BENCHMARK.json lists them: every end_to_end
metric for --trace 0, every per_layer metric for --trace 1 (a layer the
workload does not exercise reads 0). A traced run also prints the
per-layer table ("where a step's time goes") to stderr, and is marked
incorrect when the layers' self times miss the wall time by more than 5%.
Exits non-zero, printing no result, if the build or the run fails or the
program reports a metric BENCHMARK.json does not list as it does.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("serve-small", "serve-model", "batch-star5")
TARGETS = ("perfbench", "perfbench_decorator_test")
# A run must end within 180 s; leave room for the build check and report.
RUN_TIMEOUT_S = 170

sys.path.insert(0, os.path.join(HERE, "tools"))
import trace_report  # noqa: E402


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs `cmd` with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", *TARGETS]) == 0


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def ordered_metrics(reported, listed, fill_missing):
    """Returns `reported` in the order of `listed` (BENCHMARK.json entries),
    or None, logging why, if the two disagree on a name or a unit. A listed
    metric the run did not report reads 0 when `fill_missing`."""
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in reported.items():
        if units.get(name) != metric["unit"]:
            log(f"perfbench: reported metric {name} [{metric['unit']}] is "
                "not in BENCHMARK.json with that unit")
            return None
    out = {}
    for m in listed:
        if m["name"] in reported:
            out[m["name"]] = reported[m["name"]]
        elif fill_missing:
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            log(f"perfbench: the run did not report {m['name']}")
            return None
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not build():
        log("perfbench: build failed")
        return 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json", "--spans", stem + ".spans.csv",
           "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: run failed with exit code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = ordered_metrics(result["metrics"], listed,
                              fill_missing=bool(args.trace))
    if metrics is None:
        return 1
    result["metrics"] = metrics

    if args.trace:
        text, ok = trace_report.report(stem + ".spans.csv", args.workload)
        log(text)
        if not ok:
            log("perfbench: layer self times do not account for the wall "
                "time within 5%; the run is marked incorrect")
            result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
