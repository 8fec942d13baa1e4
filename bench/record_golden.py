"""Record bench/golden.json: sha256 of every output the benchmark checks.

    python3 bench/record_golden.py

For every workload and seed offset it runs one cycle (run, baseline,
budget) and stores the digests of each seed CSV, each aggregate.csv and
the budget table. Run it only on a commit whose outputs are the
reference: the benchmark fails any operation whose outputs differ.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import harness
import workloads


def main() -> int:
    work = os.path.join(harness.BENCH, "_work", "record_golden")
    shutil.rmtree(work, ignore_errors=True)
    golden = {"environment": harness.environment(), "workloads": {}}
    for name in workloads.WORKLOADS:
        golden["workloads"][name] = harness.record(workloads.get(name), work)
        print(f"recorded {name}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    with open(harness.GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
