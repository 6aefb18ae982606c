#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's metrics.

Usage (from the root of a checkout):
  python3 perfbench/tools/steadiness.py [--runs 10] [--seconds S]
      [--workloads serve-small,serve-model,batch-star5] [--trace 0|1]
      [--first-seed 1]

Runs every workload --runs times, each run with its own seed, alternating
the workloads (w1 s1, w2 s1, w3 s1, w1 s2, ...) so slow drift on the host
spreads over all of them. For each metric of each workload it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread: (q3 - q1) / median. For end-to-end metrics it compares the spread
with the bound in BENCHMARK.json; a steady benchmark keeps every spread
below a third of its bound, and the tool exits 1 when one is not.
--seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: run failed ({proc.returncode})")
                continue
            result = json.loads(lines[-1])
            status = "" if result["correct"] else "  INCORRECT"
            stamp = os.path.join(ROOT, ".bench_build", "results",
                                 f"{w}-seed{seed}-trace{args.trace}.json")
            with open(stamp) as f:
                steal = json.load(f)["notes"].get("host.steal_share", {})
            figures = " ".join(f"{name}={m['value']:.4g}"
                               for name, m in result["metrics"].items())
            print(f"{w} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}{status} "
                  f"steal {steal.get('value', 0):.1%} | {figures}", flush=True)
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])

    steady = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<36}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  > bound/3"
                steady = False
            bound_text = f"{bound:.2f}" if bound is not None else ""
            print(f"  {name:<36}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.2%}{bound_text:>8}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
