"""Self-check of the ldpagg benchmark.

    python3 bench/selfcheck.py

1. Runs every workload at tiny T, traced and untraced, against golden
   digests recorded on the spot, and confirms that every metric named in
   BENCHMARK.json is reported, finite, with no failed operation.
2. Flips one byte of a written seed CSV and confirms that the output
   check reports the operation as failed, and that a CLI argument error
   is an exit code rather than an escaping SystemExit.
3. At full size, makes a short untraced run, a short traced run and a
   one-cycle traced run per workload. It confirms that the counters of
   the two traced runs are equal, and that the layer self times plus
   cli.self_s of a traced run account for the untraced run_s within the
   tracing overhead stated below, both probe-scaled; it reports that
   overhead.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import harness
import workloads

TINY = {"T": 120, "horizon": 50}
FULL_SECONDS = 5
# The traced run's self times may exceed the untraced run_s by at most
# MAX_TRACING_OVERHEAD of it (measured on a 2-core x86-64 VM: 20-62 % on
# sc_paper, 9-36 % on ncvx_oracle, 14-46 % on ring_wide), and fall short
# of it by at most RUN_S_NOISE, the spread between two short runs.
MAX_TRACING_OVERHEAD = 0.8
RUN_S_NOISE = 0.15


def _names(kind):
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def _finite(metrics):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v, _ in metrics.values())


def main() -> int:
    work = os.path.join(harness.BENCH, "_work", "selfcheck")
    shutil.rmtree(work, ignore_errors=True)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    wanted = {0: _names("end_to_end"), 1: _names("per_layer")}
    for name in workloads.WORKLOADS:
        w = workloads.get(name, **TINY)
        golden = harness.record(w, work)["offsets"]
        for trace in (0, 1):
            r = harness.measure(w, golden, seed=0, seconds=0, trace=trace, work=work)
            expect(r.correct and r.failed == 0 and r.attempted == 3,
                   f"{name} tiny trace={trace}: all operations pass {r.problems}")
            expect(set(r.metrics) == wanted[trace],
                   f"{name} tiny trace={trace}: metrics match BENCHMARK.json "
                   f"{sorted(set(r.metrics) ^ wanted[trace])}")
            expect(_finite(r.metrics),
                   f"{name} tiny trace={trace}: every metric is finite")

    w = workloads.get("sc_paper", **TINY)
    golden = harness.record(w, work)["offsets"]
    inputs = workloads.write_configs(w, harness.ROOT, os.path.join(work, "configs"))[0]
    op = harness.run_cycle(w, inputs, work)[0]
    expected = golden["0"]["run"]
    expect(not harness.check(op, w, expected), "untouched seed CSV passes the check")
    path = os.path.join(op.out_dir, sorted(n for n in os.listdir(op.out_dir)
                                           if n.startswith("seed_"))[0])
    with open(path, "rb") as f:
        data = bytearray(f.read())
    pos = data.index(b"1", data.index(b"\n"))  # a digit in the first data row
    data[pos] = ord("2")
    with open(path, "wb") as f:
        f.write(data)
    problems = harness.check(op, w, expected)
    expect(bool(problems), f"one flipped byte fails the operation {problems}")
    rc = harness.call_cli(["run", "--no-such-option"])[0]
    expect(rc not in (0, None), f"a rejected CLI argument is exit code {rc}")

    print("\nfull size: tracing overhead and accounting")
    for name in workloads.WORKLOADS:
        w = workloads.get(name)
        golden = harness.load_golden(w)
        plain, *traced = [harness.measure(w, golden, seed=0, seconds=seconds,
                                          trace=trace, work=work)
                          for trace, seconds in ((0, FULL_SECONDS),
                                                 (1, FULL_SECONDS), (1, 0))]
        expect(all(r.correct for r in [plain] + traced),
               f"{name}: all full-size operations pass")
        counts = [{k: v for k, (v, u) in r.metrics.items() if u == "count"}
                  for r in traced]
        expect(counts[0] == counts[1], f"{name}: counters equal in two traced runs")
        # Self times are medians over the traced cycles; scale them as run_s.
        m = traced[0].metrics
        scale = traced[0].end_to_end["run_s"][0] / traced[0].raw["run_s"]
        accounted = scale * (m["cli.self_s"][0] + sum(
            v for k, (v, _) in m.items() if k.endswith(".run_self_s")))
        untraced = plain.end_to_end["run_s"][0]
        overhead = accounted / untraced - 1
        expect(-RUN_S_NOISE <= overhead <= MAX_TRACING_OVERHEAD,
               f"{name}: layer self times + cli.self_s = {accounted:.4f} s "
               f"account for untraced run_s {untraced:.4f} s with tracing "
               f"overhead {overhead:.1%} (probe-scaled)")
    shutil.rmtree(work, ignore_errors=True)
    print(f"\n{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
