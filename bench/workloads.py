"""Workloads of the ldpagg benchmark and the configs they generate.

Every workload is a closed loop over one cycle of CLI commands: `run`,
then `baseline`, then `budget --horizon H`; the next command starts when
the previous one returns, and every simulator command uses `--threads 1`.
A cycle's inputs are fixed by its seed offset k in [0, OFFSETS): the run
and baseline configs use master_seed = base + 1000 * k. The benchmark
draws the offsets of its cycles from `--seed`, so stored golden output
hashes exist for every input it can generate.

Why each workload exists, and what it is meant to move:

* sc_paper -- `configs/quadratic_sc.json` (m = 5, sensitivity block kept)
  at reduced T with several seeds, mirroring the strongly convex
  acceptance fixture. The state is small, so per-agent Python overhead
  dominates: noise-frame and data draws and the per-iteration `F_true`
  behind `F_gap_runmean`. It is the only workload whose `run` builds the
  eps columns. Meant to move run_s, baseline_s and budget_s through
  schedules.noise_draw_*, problems.truth_*, problems.data_draw_*,
  privacy.* and cli.*.
* ncvx_oracle -- `configs/personalized_ncvx.json`. The softmax ERM oracle
  materialises the (m, N, K, d) tensor and dominates. No optimizer (no
  per-iteration `F_true`) and no sensitivity block in the run config, so
  its `run` bypasses F-gap and accountant work. Meant to move run_s and
  baseline_s through problems.erm_*; problems.F_true_calls stays at zero
  (truth time is only `grad_F_true` at the metric snapshots).
* ring_wide -- `quadratic_sc.json` with `topology.m` raised to 200
  (n = 400), one seed, sensitivity block removed from the run config.
  The dense O(m^2 n) `W0 @ hat` consensus and the m-long per-agent draw
  loops dominate; with one seed, seed batching is bypassed. Meant to move
  run_s and baseline_s through algorithm.iterate_self_* and
  schedules.noise_draw_*, and budget_s through the m-agent accountant.

The benchmark contract asks for every end-to-end metric on every
workload, so all three run `baseline` and `budget`. Workloads whose run
config has no sensitivity block take `budget` on a copy of it with the
sensitivity constants of `configs/quadratic_sc.json`.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, replace

OFFSETS = 8
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    base: str            # shipped config the workload starts from
    T: int
    seeds: int
    horizon: int         # `budget --horizon`
    m: int | None = None  # ring size override
    run_sensitivity: bool = True

    @property
    def quadratic(self) -> bool:
        return "quadratic" in self.base


WORKLOADS = {
    w.name: w for w in (
        Workload("sc_paper", "configs/quadratic_sc.json",
                 T=2000, seeds=3, horizon=10000),
        Workload("ncvx_oracle", "configs/personalized_ncvx.json",
                 T=1000, seeds=2, horizon=10000, run_sensitivity=False),
        Workload("ring_wide", "configs/quadratic_sc.json",
                 T=200, seeds=1, horizon=300, m=200, run_sensitivity=False),
    )
}


def get(name: str, **overrides) -> Workload:
    """The named workload, with fields such as T or horizon overridden."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of "
                       f"{sorted(WORKLOADS)}")
    return replace(WORKLOADS[name], **overrides)


@dataclass(frozen=True)
class CycleInputs:
    offset: int
    run_config: str
    budget_config: str


def write_configs(w: Workload, root: str, out_dir: str) -> list:
    """Write each offset's run and budget configs; return CycleInputs by offset."""
    with open(os.path.join(root, w.base)) as f:
        base = json.load(f)
    with open(os.path.join(root, "configs/quadratic_sc.json")) as f:
        sensitivity = json.load(f)["sensitivity"]
    base["T"] = w.T
    base["seeds"] = w.seeds
    if w.m is not None:
        base["topology"]["m"] = w.m
    base.pop("sensitivity", None)
    os.makedirs(out_dir, exist_ok=True)
    cycles = []
    for k in range(OFFSETS):
        cfg = copy.deepcopy(base)
        cfg["master_seed"] = base["master_seed"] + SEED_STRIDE * k
        with_sens = dict(cfg, sensitivity=sensitivity)
        run_path = os.path.join(out_dir, f"run_{k}.json")
        budget_path = os.path.join(out_dir, f"budget_{k}.json")
        for path, c in ((run_path, with_sens if w.run_sensitivity else cfg),
                        (budget_path, with_sens)):
            with open(path, "w") as f:
                json.dump(c, f, indent=2, sort_keys=True)
        cycles.append(CycleInputs(k, run_path, budget_path))
    return cycles
