"""JSON run-configuration loading, validation, and object construction.

Unknown keys are rejected with a path-to-key diagnostic (typo safety).
Structural problems (bad weight matrix, malformed schema) are fatal;
assumption violations (stepsize chain, noise-rate conditions) are
downgraded to warnings so ablation runs remain possible.
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import problems, schedules as sched, topology as topo
from .privacy import SensitivityParams
from .schedules import ConvexityCase, ScheduleSet, StepsizeSchedule, broadcast_noise


class ConfigError(ValueError):
    pass


def _integer(v):
    """v as an int: an integral number such as 3 or 1e5, but not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v % 1:
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _real(v):
    """v as a float: an int or float that is a finite float, but not a bool."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):  # NaN compares false
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _reals(v, one=_real):
    """one of v, or of each element of a list v (per-agent values)."""
    return [one(x) for x in v] if isinstance(v, list) else one(v)


def _box(v):
    """v as a box (lo, hi), each bound a number or a list of them, one per
    coordinate, as _reals takes it, or +-Infinity for an unbounded side."""
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError(f"box: expected [lo, hi], got {v!r}")
    inf = (-float("inf"), float("inf"))
    return tuple(_checked("box", _reals, b, lambda x: x if x in inf else _real(x))
                 for b in v)


_TOP_KEYS = {"topology", "schedules", "problem", "T", "seeds", "master_seed",
             "case", "sensitivity", "out"}
_TOPOLOGY_KEYS = {"type", "m", "w", "weights"}
_SCHED_KEYS = {"preset", "delta", "lambda0", "sigma", "stepsize", "noise"}
_STEP_KEYS = {"lambda0", "v"}
_NOISE_KEYS = {"sigma", "varsigma"}
# per family: the factory and the conversion of each optional key (every
# factory parameter but m), typed by its default; a key left out takes it
_PROBLEMS = {fam: (make, {k: {int: _integer, float: _real, tuple: _box}[type(q.default)]
                          for k, q in inspect.signature(make).parameters.items()
                          if k != "m"})
             for fam, make in (("quadratic", problems.make_quadratic_problem),
                               ("personalized", problems.make_personalized_problem))}
_SENS_KEYS = {"L_l", "L_h", "Lbar_l", "Lbar_h", "d_l", "d_z"}

_PRESETS = {f"corollary1-{c.value}": c for c in ConvexityCase}


def _checked(path, build, *args):
    """build(*args), with a missing key or a bad value reported as a
    ConfigError on path."""
    try:
        return build(*args)
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _check_keys(block, allowed, path):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    for k in block:
        if k not in allowed:
            raise ConfigError(f"{path}.{k}: unknown key")


@dataclass
class RunConfig:
    raw: dict
    topology: topo.NetworkTopology
    schedules: ScheduleSet
    case: ConvexityCase
    schedule_conditions: tuple  # check_conditions(schedules, case)
    problem: problems.ProblemInstance
    T: int
    seeds: int
    master_seed: int
    sensitivity: SensitivityParams | None
    out: str
    warnings: list = field(default_factory=list)


def _build_topology(block):
    _check_keys(block, _TOPOLOGY_KEYS, "topology")
    kind = block.get("type")
    if kind == "ring":
        return _checked("topology", lambda: topo.ring_topology(
            _integer(block["m"]), _real(block["w"])))
    if kind == "trivial":
        return topo.trivial_topology()
    if kind == "matrix":
        return _checked("topology.weights", lambda: topo.from_matrix(
            np.asarray(block["weights"], dtype=float)))
    raise ConfigError(f"topology.type: expected ring|trivial|matrix, got {kind!r}")


def _triple(block, key, default):
    v = block.get(key, default)
    if np.isscalar(v):
        v = [v, v, v]
    if not isinstance(v, list) or len(v) != 3:
        raise ConfigError(f"schedules.{key}: expected a scalar or a 3-list")
    return v


def _build_schedules(block, m):
    _check_keys(block, _SCHED_KEYS, "schedules")
    if "preset" in block:
        if "stepsize" in block or "noise" in block:
            raise ConfigError("schedules: preset excludes explicit stepsize/noise blocks")
        name = block["preset"]
        if not isinstance(name, str) or name not in _PRESETS:
            raise ConfigError(f"schedules.preset: unknown preset {name!r}")
        case = _PRESETS[name]
        lambda0 = _triple(block, "lambda0", 1.0)
        sigma = _triple(block, "sigma", 1.0)
        return _checked("schedules.preset", lambda: sched.corollary1_preset(
            case, _real(block.get("delta", 0.01)), m=m,
            lambda0=[_real(x) for x in lambda0],
            sigma=[_reals(x) for x in sigma])), case
    for part in ("stepsize", "noise"):
        if part not in block:
            raise ConfigError(f"schedules.{part}: required without a preset")
    built = []  # lambda_x, lambda_y, lambda_z, noise_x, noise_y, noise_z
    for part, keys, build in (
            ("stepsize", _STEP_KEYS,
             lambda b: StepsizeSchedule(_real(b["lambda0"]), _real(b["v"]))),
            ("noise", _NOISE_KEYS,
             lambda b: broadcast_noise(_reals(b["sigma"]), _reals(b["varsigma"]), m))):
        _check_keys(block[part], {"x", "y", "z"}, f"schedules.{part}")
        for ax in ("x", "y", "z"):
            path = f"schedules.{part}.{ax}"
            b = block[part].get(ax)
            if b is None:
                raise ConfigError(f"{path}: required")
            _check_keys(b, keys, path)
            built.append(_checked(path, build, b))
    return ScheduleSet(*built), None


def with_noise_scales(raw: dict, sigmas) -> dict:
    """A copy of raw whose schedules block sets the noise scales
    (sigma_x, sigma_y, sigma_z) = sigmas, as its own form keys them: a
    preset's sigma list, or each explicit noise axis's sigma."""
    patched = json.loads(json.dumps(raw))
    block = patched["schedules"]
    if "preset" in block:
        block["sigma"] = list(sigmas)
    else:
        for ax, s in zip(("x", "y", "z"), sigmas):
            block["noise"][ax]["sigma"] = s
    return patched


def _build_problem(block, m):
    if not isinstance(block, dict) or "family" not in block:
        raise ConfigError("problem.family: required")
    fam = block["family"]
    if not isinstance(fam, str) or fam not in _PROBLEMS:
        raise ConfigError(f"problem.family: expected quadratic|personalized, got {fam!r}")
    make, types = _PROBLEMS[fam]
    _check_keys(block, {"family", *types}, "problem")
    return _checked("problem", lambda: make(
        m=m, **{k: types[k](v) for k, v in block.items() if k != "family"}))


def _top_level(raw, key, default, least):
    """raw[key], or default when absent, as an integer >= least."""
    v = _checked(f"config.{key}", _integer, raw.get(key, default))
    if v < least:
        raise ConfigError(f"config.{key}: must be at least {least}")
    return v


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    _check_keys(raw, _TOP_KEYS, "config")
    for req in ("topology", "schedules", "problem"):
        if req not in raw:
            raise ConfigError(f"config.{req}: required")
    warnings_list = []
    topology = _build_topology(raw["topology"])
    schedule_set, preset_case = _build_schedules(raw["schedules"], topology.m)
    case_name = raw.get("case")
    if case_name is not None:
        try:
            case = ConvexityCase(case_name)
        except ValueError:
            raise ConfigError(f"config.case: expected sc|cvx|ncvx, got {case_name!r}") from None
    else:
        case = preset_case or ConvexityCase.STRONGLY_CONVEX
    problem = _build_problem(raw["problem"], topology.m)

    conditions = sched.check_conditions(schedule_set, case)
    failures = [name for name, passed in conditions[0] if not passed]
    if failures:
        warnings_list.append(
            "schedule conditions violated (run proceeds as an ablation): "
            + "; ".join(failures))

    sens = None
    if "sensitivity" in raw:
        _check_keys(raw["sensitivity"], _SENS_KEYS, "sensitivity")
        b = raw["sensitivity"]
        sens = _checked("sensitivity", lambda: SensitivityParams(
            **{k: _real(b[k]) for k in _SENS_KEYS},
            w_bar=topology.w_bar if topology.m > 1 else 0.5,
            n_i=problem.ni, r=problem.r, lambda_x=schedule_set.lambda_x,
            lambda_y=schedule_set.lambda_y, lambda_z=schedule_set.lambda_z))
        if topology.m == 1:
            warnings_list.append("sensitivity accounting with m=1 uses w_bar=0.5 "
                                 "(no consensus damping exists)")

    out = raw.get("out", "runs")
    if not isinstance(out, str):
        raise ConfigError(f"config.out: expected a string, got {out!r}")
    return RunConfig(
        raw=raw, topology=topology, schedules=schedule_set, case=case,
        schedule_conditions=conditions, problem=problem,
        T=_top_level(raw, "T", 1000, 0),
        seeds=_top_level(raw, "seeds", 1, 1),
        master_seed=_top_level(raw, "master_seed", 0, 0),
        sensitivity=sens, out=out, warnings=warnings_list)
