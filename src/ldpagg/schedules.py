"""Stepsize and Laplace-noise schedules, rate-condition checks, presets.

Schedules follow the power-law form value(t) = scale / (t+1)^exponent.
The Laplace parameter of a noise schedule at time t is
sigma / (sqrt(2) * (t+1)^varsigma), so a variate has variance
sigma^2 / (t+1)^(2*varsigma).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


class ConvexityCase(enum.Enum):
    STRONGLY_CONVEX = "sc"
    CONVEX = "cvx"
    NONCONVEX = "ncvx"


@dataclass(frozen=True)
class StepsizeSchedule:
    lambda0: float
    v: float

    def __post_init__(self):
        if self.lambda0 <= 0:
            raise ValueError("initial stepsize must be positive")
        if not (0.0 < self.v < 1.0):
            raise ValueError("stepsize decay exponent must lie in (0, 1)")

    def value(self, t: int) -> float:
        return self.lambda0 / (t + 1) ** self.v


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-agent DP-noise scale; sigma = 0 disables the noise (ablations)."""

    sigma: float
    varsigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("noise scale must be nonnegative")

    def laplace_param(self, t: int) -> float:
        return self.sigma / (SQRT2 * (t + 1) ** self.varsigma)


@dataclass(frozen=True)
class ScheduleSet:
    """Stepsize triple plus per-agent noise schedule triples (length m each)."""

    lambda_x: StepsizeSchedule
    lambda_y: StepsizeSchedule
    lambda_z: StepsizeSchedule
    noise_x: tuple
    noise_y: tuple
    noise_z: tuple

    @property
    def m(self) -> int:
        return len(self.noise_x)

    def __post_init__(self):
        if not (len(self.noise_x) == len(self.noise_y) == len(self.noise_z)):
            raise ValueError("noise schedule lists must have equal length")

    def min_varsigmas(self):
        """(varsigma_x, varsigma_y, varsigma_z) minimized over agents."""
        return (
            min(s.varsigma for s in self.noise_x),
            min(s.varsigma for s in self.noise_y),
            min(s.varsigma for s in self.noise_z),
        )

    def max_varsigmas(self):
        return (
            max(s.varsigma for s in self.noise_x),
            max(s.varsigma for s in self.noise_y),
            max(s.varsigma for s in self.noise_z),
        )


def broadcast_noise(sigma, varsigma, m: int) -> tuple:
    """Expand scalar or per-agent sigma/varsigma into an m-tuple of schedules."""
    sigmas = np.broadcast_to(np.asarray(sigma, dtype=float), (m,))
    vss = np.broadcast_to(np.asarray(varsigma, dtype=float), (m,))
    return tuple(NoiseSchedule(float(s), float(v)) for s, v in zip(sigmas, vss))


@dataclass
class ConditionReport:
    """Inequality-by-inequality report; rate_exponent set when all pass."""

    case: ConvexityCase
    checks: list
    rate_exponent: float | None

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def failures(self):
        return [name for name, passed in self.checks if not passed]


def check_conditions(s: ScheduleSet, case: ConvexityCase) -> ConditionReport:
    """Check the stepsize chain, the noise-rate admissibility inequalities,
    and the case-specific rate conditions; all comparisons are strict with
    zero tolerance since exponents are exact configuration values.
    """
    vx, vy, vz = s.lambda_x.v, s.lambda_y.v, s.lambda_z.v
    cx, cy, cz = s.min_varsigmas()
    mx, my, mz = s.max_varsigmas()

    checks = [
        ("1 > v_x > v_z", 1.0 > vx > vz),
        ("1/2 > v_z > v_y > 0", 0.5 > vz > vy > 0.0),
        ("max varsigma_x < v_x - v_z", mx < vx - vz),
        ("max varsigma_y < v_y", my < vy),
        ("max varsigma_z < v_z", mz < vz),
    ]
    if case is ConvexityCase.STRONGLY_CONVEX:
        checks += [
            ("varsigma_x > max{v_z - varsigma_z, v_y - varsigma_y, v_x/2}",
             cx > max(vz - cz, vy - cy, vx / 2.0)),
            ("varsigma_y > v_y - 1/2", cy > vy - 0.5),
            ("varsigma_z > v_z - 1/2", cz > vz - 0.5),
        ]
        rate = min(2.0 * cx - vx, 0.5 - vy + cy, 0.5 - vz + cz)
    else:
        checks += [
            ("varsigma_x > 1/2", cx > 0.5),
            ("varsigma_y > v_y - 1/2 + (1 - v_x)", cy > vy - 0.5 + (1.0 - vx)),
            ("varsigma_z > v_z - 1/2 + (1 - v_x)", cz > vz - 0.5 + (1.0 - vx)),
        ]
        rate = 1.0 - vx
    ok = all(passed for _, passed in checks)
    return ConditionReport(case=case, checks=checks, rate_exponent=rate if ok else None)


def corollary1_exponents(case: ConvexityCase, delta: float):
    """Preset exponents (v_x, v_y, v_z, vs_x, vs_y, vs_z) for a given delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if case is ConvexityCase.STRONGLY_CONVEX:
        exps = (0.5 + 7 * delta, 2 * delta, 3 * delta, 0.5 + 3 * delta, delta, 2 * delta)
    else:
        exps = (0.5 + 5 * delta, 2 * delta, 3 * delta, 0.5 + delta, delta, 2 * delta)
    return exps


def corollary1_preset(
    case: ConvexityCase,
    delta: float,
    m: int = 1,
    lambda0=(1.0, 1.0, 1.0),
    sigma=(1.0, 1.0, 1.0),
) -> ScheduleSet:
    """Build a ScheduleSet from the preset exponents and verify it passes
    check_conditions for its case; an inadmissible delta is rejected.
    """
    vx, vy, vz, sx, sy, sz = corollary1_exponents(case, delta)
    if not (1.0 > vx > vz and 0.5 > vz > vy > 0.0):
        raise ValueError(f"delta={delta} pushes preset exponents out of range")
    s = ScheduleSet(
        lambda_x=StepsizeSchedule(lambda0[0], vx),
        lambda_y=StepsizeSchedule(lambda0[1], vy),
        lambda_z=StepsizeSchedule(lambda0[2], vz),
        noise_x=broadcast_noise(sigma[0], sx, m),
        noise_y=broadcast_noise(sigma[1], sy, m),
        noise_z=broadcast_noise(sigma[2], sz, m),
    )
    report = check_conditions(s, case)
    if not report.ok:
        raise ValueError(f"delta={delta} fails conditions: {report.failures()}")
    return s


# ---------------------------------------------------------------------------
# Laplace sampling and per-agent RNG streams


def laplace_from_uniform(u: np.ndarray, nu) -> np.ndarray:
    """Inverse-CDF transform: u uniform on [-1/2, 1/2) -> Laplace(nu).

    nu may be a scalar or any shape broadcastable against u (used to
    transform a whole stacked frame with per-agent parameters at once).
    """
    arg = np.maximum(1.0 - 2.0 * np.abs(u), 1e-300)
    return -nu * np.sign(u) * np.log(arg)


class AgentBank:
    """Lockstep bank of per-agent streams of dim-vectors, one row per
    generator (S*m rows for a batch of S seeds).

    One (rows, rounds, dim) buffer; a refill writes row i from generator
    i, so row i of every draw continues that generator's own sequence
    exactly as a per-agent stream would (generator output does not
    depend on how draws are blocked). fill names the Generator method
    that refills a row: "random" or "standard_normal" (in place through
    out=), or "integers", which makes an int64 bank of integers(high)
    draws (k scalar integers(high) calls and one of size k give the same
    values and leave the generator in the same state).
    A refill draws about _BLOCK values per row, so a bank over S seeds
    holds S times the bytes of a one-seed bank (measured faster than
    splitting one seed's block across the rows).
    """

    _BLOCK = 2048

    def __init__(self, rngs, dim: int, fill: str = "random", high: int | None = None):
        self._rngs = list(rngs)
        self._fill = fill
        self._high = high
        rounds = max(1, self._BLOCK // max(dim, 1))
        self._buf = np.empty((len(self._rngs), rounds, dim),
                             dtype=np.int64 if fill == "integers" else float)
        self._pos = self._buf.shape[1]

    def next(self) -> np.ndarray:
        """The next (m, dim) draw: a view that a later refill overwrites."""
        if self._pos == self._buf.shape[1]:
            for rng, row in zip(self._rngs, self._buf):
                if self._fill == "integers":
                    row[...] = rng.integers(self._high, size=row.shape)
                else:
                    getattr(rng, self._fill)(out=row)
            self._pos = 0
        out = self._buf[:, self._pos]
        self._pos += 1
        return out

    def draw_centered(self) -> np.ndarray:
        """Fresh (m, dim) uniforms on [-1/2, 1/2); row i continues
        rngs[i].random() (reference.LaplaceStream replays it)."""
        return self.next() - 0.5


class LaplaceParams:
    """Per-agent Laplace parameters of a noise-schedule tuple as an (m, 1)
    column, evaluated once per distinct schedule and gathered by index."""

    def __init__(self, noise):
        self.distinct = list(dict.fromkeys(noise))
        self.index = np.array([self.distinct.index(s) for s in noise])

    def at(self, t: int) -> np.ndarray:
        return np.array([s.laplace_param(t) for s in self.distinct])[self.index, None]


def agent_rng(master_seed: int, agent_id: int, stream_tag: str) -> np.random.Generator:
    """Deterministic per-agent, per-stream generator.

    The (master_seed, agent_id, tag-hash) entropy tuple makes streams
    independent of scheduling order and of each other.
    """
    tag = int.from_bytes(stream_tag.encode(), "little") % (2 ** 63)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, agent_id, tag])))
