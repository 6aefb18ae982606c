#!/usr/bin/env python3
"""Print the perf_smoke counted_results fingerprint as the golden table.

Usage:
    perf_smoke_counts.py PATH/TO/perf_smoke > tests/golden/perf_smoke_counts.json

Runs perf_smoke at --len=2000 --runs=1 (the run bench_harness_test makes)
and prints one (name, workload, len, planner, counted_results) entry per
row, in row order. bench_harness_test fails when a row's entry differs
from the committed table or counts zero results. A change that rewrites
the table says why in CHANGES.md.
"""

import json
import os
import subprocess
import sys
import tempfile

ARGS = ["--len=2000", "--runs=1"]
KEYS = ("name", "workload", "len", "planner", "counted_results")


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "perf_smoke.json")
        subprocess.run([argv[1], *ARGS, "--out=" + out], check=True,
                       stderr=subprocess.DEVNULL)
        with open(out) as f:
            rows = json.load(f)["results"]
    print('{"args": "' + " ".join(ARGS) + '", "rows": [')
    print(",\n".join(json.dumps({key: row[key] for key in KEYS})
                     for row in rows))
    print("]}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
