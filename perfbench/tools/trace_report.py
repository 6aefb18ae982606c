#!/usr/bin/env python3
"""Where a step's time goes: layer self times from a traced run's spans.

Usage: python3 perfbench/tools/trace_report.py SPANS.csv [SPANS.csv ...]

Each SPANS.csv is the span table a traced run writes to
.bench_build/results/<workload>-seed<n>-trace1.spans.csv (format in
perfbench/driver/spans.h). For every traced phase this prints each layer's
self time (its spans minus the child spans nested in them), its share of
the phase's wall time and its cost per executed step, and checks that the
layers add up to the wall time within 5%. Worker-time spans (engine slices
and policy selects) are divided by the phase's worker count, so a layer's
self time is the wall time it accounts for. Exits 1 if a check fails.
"""

import csv
import os
import sys

TOLERANCE = 0.05

# (layer, description); the order is the nesting order, outermost first.
LAYERS = (
    ("driver.wait", "generator idle until the next offer is due"),
    ("driver.gen", "generator copying arrivals into offers"),
    ("serve.offer", "SessionScheduler::Offer"),
    ("serve.round", "RunRound minus the engine slices it ran"),
    ("engine", "Advance / façade Run minus SelectRetained"),
    ("policy.select", "EnginePolicy::SelectRetained"),
    ("driver.account", "latency and counter bookkeeping"),
)


def self_times(rows):
    """Layer self times (ns) of one phase's rows, plus wall ns and steps."""
    t = {name: 0.0 for name, _ in LAYERS}
    wall = 0.0
    steps = 0
    for row in rows:
        w = float(row["workers"])
        start, end = int(row["start_ns"]), int(row["end_ns"])
        if row["kind"] == "phase":
            wall = float(end - start)
            continue
        slice_ns, select_ns = int(row["slice_ns"]), int(row["select_ns"])
        steps += int(row["steps"])
        t["driver.wait"] += int(row["wait_ns"])
        t["driver.gen"] += int(row["gen_ns"])
        t["driver.account"] += int(row["account_ns"])
        t["serve.offer"] += int(row["offer_ns"])
        t["serve.round"] += (end - start) - slice_ns / w
        t["engine"] += (slice_ns - select_ns) / w
        t["policy.select"] += select_ns / w
    return t, wall, steps


def report(path, title=None):
    """Returns (table text, every phase within tolerance)."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    phases = []
    for row in rows:
        if row["kind"] == "phase" and row["phase"] not in phases:
            phases.append(row["phase"])
    lines = [f"where a step's time goes: {title or os.path.basename(path)}"]
    ok = True
    for phase in phases:
        t, wall, steps = self_times([r for r in rows if r["phase"] == phase])
        accounted = sum(t.values())
        gap = abs(wall - accounted) / wall if wall > 0 else 1.0
        negative = [name for name, value in t.items() if value < -0.01 * wall]
        phase_ok = gap <= TOLERANCE and not negative
        ok = ok and phase_ok
        lines.append(f"  phase {phase}: wall {wall / 1e6:.1f} ms, "
                     f"{steps} steps")
        lines.append(f"    {'layer':<16}{'self ms':>11}{'share':>8}"
                     f"{'ns/step':>11}  what")
        for name, what in LAYERS:
            value = t[name]
            if value == 0:
                continue
            per_step = value / steps if steps else 0.0
            lines.append(f"    {name:<16}{value / 1e6:>11.2f}"
                         f"{value / wall:>8.1%}{per_step:>11.0f}  {what}")
        lines.append(f"    {'sum':<16}{accounted / 1e6:>11.2f}"
                     f"{accounted / wall:>8.1%}   "
                     f"{'ok' if phase_ok else 'FAILED'} (|wall - sum| "
                     f"{gap:.2%}, limit {TOLERANCE:.0%})")
        if negative:
            lines.append("    negative self time: " + ", ".join(negative))
    return "\n".join(lines), ok


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    all_ok = True
    for path in paths:
        text, ok = report(path)
        print(text)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
