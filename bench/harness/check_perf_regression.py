#!/usr/bin/env python3
"""Compare a fresh perf_smoke run against the committed BENCH_perf.json.

Usage:
    check_perf_regression.py BASELINE.json CURRENT.json [--threshold=1.25]

Rows are matched by (name, workload, len, shards, adaptive, threads,
planner, sessions, offered_rate). perf_smoke rows carry name, workload,
len and planner; bench/serve_load rows add threads, sessions and
offered_rate. A key a row does not carry reads as shards=1, adaptive=0,
threads=1, planner=0, sessions=1, offered_rate=0, which is also what the
committed baseline's shards and adaptive fields hold.

The raw per-row ratio current/baseline of ns_per_step is normalized by
the median ratio across the gated rows before thresholding: a host that
is uniformly slower or faster than the one that committed the baseline
shifts every row alike, and that shift carries no information about the
code. A real regression moves one row relative to the rest, which the
normalized ratio isolates.

Only threads=1, sessions<=1 rows feed the median and the threshold; the
multi-session and threaded serve rows depend on how the host schedules
worker engines, so they are matched and printed as "info" only. After
the table come three summaries of the current run: best-threads speedup
over threads=1 per serve cell, the serve load sweep (aggregate steps/s
and per-step latency percentiles), and each planner-on multi-way row's
speedup over its planner-off twin with its probe statistics. The probe
planner is cost-only by contract, so a planner pair disagreeing on
counted_results is a hard failure.

Exit status 1 if any normalized gated ratio exceeds the threshold, if a
baseline row is missing from the current run, or if a planner pair
disagrees on counted_results.
"""

import json
import statistics
import sys


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in ("sjoin-perf-v1", "sjoin-perf-v2",
                                 "sjoin-perf-v3", "sjoin-perf-v4",
                                 "sjoin-perf-v5", "sjoin-perf-v6"):
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {
        (r["name"], r["workload"], r["len"], r.get("shards", 1),
         r.get("adaptive", 0), r.get("threads", 1),
         r.get("planner", 0), r.get("sessions", 1),
         r.get("offered_rate", 0)): r
        for r in doc["results"]
    }


def describe(key):
    (name, workload, length, shards, adaptive, threads, planner,
     sessions, rate) = key
    suffix = ", adaptive" if adaptive else ""
    suffix += ", planner" if planner else ""
    if sessions > 1 or rate > 0:
        suffix += f", sessions={sessions}, rate={rate}"
    return (f"{name} ({workload}, len={length}, shards={shards}, "
            f"threads={threads}{suffix})")


def thread_scaling_summary(rows):
    """Best-threads speedup vs the threads=1 row for each threads sweep."""
    groups = {}
    for key, row in rows.items():
        group_key = key[:5] + key[6:]  # Everything but the threads axis.
        groups.setdefault(group_key, {})[key[5]] = row["ns_per_step"]
    printed_header = False
    for group_key, by_threads in sorted(groups.items()):
        if len(by_threads) < 2 or 1 not in by_threads:
            continue
        if not printed_header:
            print("\nthread scaling (current run, best threads vs threads=1):")
            printed_header = True
        serial = by_threads[1]
        best_threads = min(by_threads, key=lambda t: by_threads[t])
        speedup = serial / by_threads[best_threads]
        (name, workload, length, shards, adaptive, planner, sessions,
         rate) = group_key
        tag = " adaptive" if adaptive else ""
        tag += " planner" if planner else ""
        if sessions > 1:
            tag += f" n={sessions} rate={rate}"
        print(f"  {name:<18} {workload:<6} len={length:<5} "
              f"shards={shards:<2}{tag} best t={best_threads} "
              f"speedup x{speedup:.2f} "
              f"({serial:.0f} -> {by_threads[best_threads]:.0f} ns/step)")


def probe_plan_summary(rows):
    """Planner-on vs planner-off twins: speedup and probe-order stats.

    Returns the number of planner pairs whose counted_results disagree —
    the planner is cost-only by contract, so any disagreement is a
    correctness failure.
    """
    mismatches = 0
    printed_header = False
    for key, row in sorted(rows.items()):
        if key[6] == 0:
            continue
        twin_key = key[:6] + (0,) + key[7:]
        twin = rows.get(twin_key)
        if not printed_header:
            print("\nprobe planner (current run, planner-on vs planner-off "
                  "twin):")
            printed_header = True
        name, workload, length = key[:3]
        line = f"  {name:<18} {workload:<6} len={length:<5} "
        if twin is None:
            print(line + "no planner-off twin in this run")
            continue
        speedup = twin["ns_per_step"] / row["ns_per_step"]
        skip = row.get("probe_skip_rate", 0.0)
        hit = row.get("probe_cache_hit_rate", 0.0)
        replans = row.get("plan_replans", 0)
        line += (f"speedup x{speedup:.2f} "
                 f"({twin['ns_per_step']:.0f} -> {row['ns_per_step']:.0f} "
                 f"ns/step), skip {skip * 100:.1f}%, "
                 f"memo hit {hit * 100:.1f}%, {replans} replans")
        if row["counted_results"] != twin["counted_results"]:
            line += (f"  COUNTED_RESULTS DIVERGE ({twin['counted_results']} "
                     f"vs {row['counted_results']})")
            mismatches += 1
        print(line)
    return mismatches


def serve_summary(rows):
    """Serve load sweep: throughput and step-latency tails per cell."""
    printed_header = False
    for key, row in sorted(rows.items(), key=lambda kv: (kv[0][7],
                                                         kv[0][8],
                                                         kv[0][5])):
        if "p50_step_ns" not in row:
            continue
        if not printed_header:
            print("\nserve load sweep (current run, aggregate throughput "
                  "and per-step latency):")
            printed_header = True
        name, _, length, _, _, threads, _, sessions, rate = key
        print(f"  {name:<18} n={sessions:<5} rate={rate:<3} t={threads} "
              f"len={length:<5} "
              f"{row['steps_per_sec']:>10.0f} steps/s  "
              f"p50 {row['p50_step_ns']:>7.0f} ns  "
              f"p99 {row['p99_step_ns']:>7.0f} ns")


def main(argv):
    threshold = 1.25
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(__doc__)
    baseline = load_rows(paths[0])
    current = load_rows(paths[1])

    missing = sorted(set(baseline) - set(current))
    for key in missing:
        print(f"MISSING  {describe(key)}: "
              "row present in baseline but absent from current run")
    extra = sorted(set(current) - set(baseline))
    for key in extra:
        print(f"note: new row {describe(key)} has no baseline yet")

    matched = sorted(set(baseline) & set(current))
    if not matched:
        sys.exit("no rows in common between baseline and current run")
    ratios = {
        key: current[key]["ns_per_step"] / baseline[key]["ns_per_step"]
        for key in matched
    }
    gated = [key for key in matched if key[5] == 1 and key[7] <= 1]
    if not gated:
        sys.exit("no threads=1 rows in common to gate on")
    median = statistics.median(ratios[key] for key in gated)
    print(f"median current/baseline ns_per_step ratio: {median:.3f} "
          "(machine-speed normalizer, threads=1 sessions<=1 rows)")

    failed = bool(missing)
    for key in matched:
        normalized = ratios[key] / median
        if key[5] != 1 or key[7] > 1:
            verdict = "info"
        elif normalized > threshold:
            verdict = f"REGRESSED >{(threshold - 1) * 100:.0f}%"
            failed = True
        else:
            verdict = "ok"
        tag = "a" if key[4] else ""
        tag += "p" if key[6] else ""
        serve_cell = f" n={key[7]} rate={key[8]}" if key[7] > 1 else ""
        print(f"{verdict:>14}  {key[0]:<18} {key[1]:<6} len={key[2]:<5} "
              f"s{key[3]}{tag}/t{key[5]:<2} "
              f"ns/step {baseline[key]['ns_per_step']:>12.0f} -> "
              f"{current[key]['ns_per_step']:>12.0f} "
              f"(raw x{ratios[key]:.3f}, normalized x{normalized:.3f})"
              f"{serve_cell}")

    thread_scaling_summary(current)
    serve_summary(current)
    if probe_plan_summary(current) > 0:
        print("planner pair counted_results mismatch — the probe planner "
              "must be cost-only")
        failed = True

    if failed:
        print("perf regression check FAILED")
        return 1
    print("perf regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
