"""ldpagg benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload sc_paper --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and drives `ldpagg.cli.main`
in-process (no install needed). With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
The last stdout line is the JSON result; the line before it is the
environment. Everything it writes goes under bench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import harness
        import workloads
    except ImportError as e:
        print(f"error: cannot load the program: {e}", file=sys.stderr)
        return 2
    try:
        w = workloads.get(args.workload)
        golden = harness.load_golden(w)
    except (KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    work = os.path.join(harness.BENCH, "_work",
                        f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = harness.measure(w, golden, args.seed, args.seconds,
                             bool(args.trace), work)
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env = harness.environment()
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"workload": w.name, "spec": harness.spec_dict(w),
                   "seed": args.seed, "trace": args.trace,
                   "raw": result.raw, "environment": env,
                   "result": json.loads(result.line())}, f, indent=2)
    print("raw " + json.dumps(result.raw, sort_keys=True))
    print("environment " + json.dumps(env, sort_keys=True))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
