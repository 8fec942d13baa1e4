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
CHUNK = 8192  # values per chunked pass: bank chunks, metric stacks, flushes


class ConvexityCase(enum.Enum):
    STRONGLY_CONVEX = "sc"
    CONVEX = "cvx"
    NONCONVEX = "ncvx"


@dataclass(frozen=True)
class StepsizeSchedule:
    lambda0: float
    v: float

    def __post_init__(self):
        if not 0 < self.lambda0 < math.inf:
            raise ValueError("initial stepsize must be finite and positive")
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
        if not 0 <= self.sigma < math.inf:
            raise ValueError("noise scale must be finite and nonnegative")
        if not math.isfinite(self.varsigma):
            raise ValueError("noise decay exponent must be finite")

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

    def varsigmas(self, over):
        """(varsigma_x, varsigma_y, varsigma_z), each reduced over the
        agents by over (min or max)."""
        return tuple(over(s.varsigma for s in noise)
                     for noise in (self.noise_x, self.noise_y, self.noise_z))


def broadcast_noise(sigma, varsigma, m: int) -> tuple:
    """Expand scalar or per-agent sigma/varsigma into an m-tuple of schedules."""
    sigmas = np.broadcast_to(np.asarray(sigma, dtype=float), (m,))
    vss = np.broadcast_to(np.asarray(varsigma, dtype=float), (m,))
    return tuple(NoiseSchedule(float(s), float(v)) for s, v in zip(sigmas, vss))


def check_conditions(s: ScheduleSet, case: ConvexityCase):
    """Check the stepsize chain, the noise-rate admissibility inequalities,
    and the case-specific rate conditions; all comparisons are strict with
    zero tolerance since exponents are exact configuration values.

    Returns (checks, rate_exponent): checks lists (inequality, passed)
    pairs, and the rate exponent is None unless every check passes.
    """
    vx, vy, vz = s.lambda_x.v, s.lambda_y.v, s.lambda_z.v
    cx, cy, cz = s.varsigmas(min)
    mx, my, mz = s.varsigmas(max)

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
    return checks, rate if all(passed for _, passed in checks) else None


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
    s = ScheduleSet(
        lambda_x=StepsizeSchedule(lambda0[0], vx),
        lambda_y=StepsizeSchedule(lambda0[1], vy),
        lambda_z=StepsizeSchedule(lambda0[2], vz),
        noise_x=broadcast_noise(sigma[0], sx, m),
        noise_y=broadcast_noise(sigma[1], sy, m),
        noise_z=broadcast_noise(sigma[2], sz, m),
    )
    checks, rate = check_conditions(s, case)
    if rate is None:
        raise ValueError(f"delta={delta} fails conditions: "
                         f"{[name for name, passed in checks if not passed]}")
    return s


# ---------------------------------------------------------------------------
# Laplace sampling and per-agent RNG streams


def laplace_from_uniform(u: np.ndarray, nu) -> np.ndarray:
    """Inverse-CDF transform: u uniform on [-1/2, 1/2) -> Laplace(nu).

    Returns a fresh array of u's shape and leaves u unmodified. nu may be
    a scalar or an array that broadcasts to u's shape without widening it
    (a (k, G, 1, m, 1) array of per-round, per-agent parameters transforms
    k rounds of stacked frames at once).
    """
    arg = np.abs(u)
    arg *= 2.0
    np.subtract(1.0, arg, out=arg)
    np.maximum(arg, 1e-300, out=arg)
    np.log(arg, out=arg)
    out = np.sign(u)
    out *= -nu
    out *= arg
    return out


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
    A refill draws about _BLOCK values per row (measured faster than
    splitting one seed's block across the rows), but at most horizon
    rounds, the number of draws the bank's owner will make: an owner
    that draws fewer rounds than a block generates none past its last,
    and a bank over S seeds holds at most S times the bytes of a one-seed
    bank. The horizon sizes the buffer only; a draw past it refills.
    """

    _BLOCK = 2048

    def __init__(self, rngs, dim: int, fill: str = "random", high: int | None = None,
                 *, horizon: int):
        self._rngs = list(rngs)
        self._fill = fill
        self._high = high
        rounds = max(1, min(self._BLOCK // max(dim, 1), horizon))
        self._buf = np.empty((len(self._rngs), rounds, dim),
                             dtype=np.int64 if fill == "integers" else float)
        self._pos = self._buf.shape[1]

    def _take(self, k: int) -> np.ndarray:
        """The next k rounds, at most to the block's end, as a view."""
        if self._pos == self._buf.shape[1]:
            for rng, row in zip(self._rngs, self._buf):
                if self._fill == "integers":
                    row[...] = rng.integers(self._high, size=row.shape)
                else:
                    getattr(rng, self._fill)(out=row)
            self._pos = 0
        out = self._buf[:, self._pos:self._pos + k]
        self._pos += out.shape[1]
        return out

    def chunk(self, width: int = 0) -> np.ndarray:
        """The next CHUNK // (rows * width) rounds (at least one, within a
        refill block), (k, rows, dim): a view a later refill overwrites.
        width, the values its owner makes of a row's draw, defaults to dim."""
        rows, _, dim = self._buf.shape
        return self._take(max(1, CHUNK // (rows * max(width or dim, 1)))).transpose(1, 0, 2)


class NoiseBank(AgentBank):
    """AgentBank of G noise tags (noise[g]: tag g's per-agent schedules)
    that yields Laplace noise: row (g*S + s)*m + i of round t, entry
    [g, s, i] of its (G, S, m, dim) slab, is laplace_from_uniform(u - 1/2,
    noise[g][i].laplace_param(t)) on agent i's next dim tag-g uniforms
    under seed s (reference.LaplaceStream replays it). A refill draws at
    most horizon rounds, as in AgentBank; a transform call covers one
    chunk() and, being elementwise, changes no value."""

    def __init__(self, rngs, noise, dim: int, *, horizon: int):
        super().__init__(rngs, dim, horizon=horizon)
        self.distinct = list(dict.fromkeys(s for tag in noise for s in tag))
        self._index = np.array([[self.distinct.index(s) for s in tag] for tag in noise])
        self._shape = (len(noise), len(self._rngs) // self._index.size, len(noise[0]), dim)
        self._t = 0  # the round of the next draw
        self._slabs = []  # the chunk's rounds not yet drawn, last first

    def laplace_params(self, ts) -> np.ndarray:
        """(len(ts), G, m) per-agent Laplace parameters of every tag at the
        rounds ts, evaluated once per distinct schedule and gathered."""
        return np.array([[s.laplace_param(t) for s in self.distinct]
                         for t in ts])[:, self._index]

    def next(self) -> np.ndarray:
        """The next round's (G, S, m, dim) noise: a contiguous slab of a
        fresh chunk that the bank never writes again."""
        if not self._slabs:
            u = self.chunk()
            k = len(u)
            u = np.subtract(u, 0.5, out=np.empty(u.shape))  # round-major
            nu = self.laplace_params(range(self._t, self._t + k))
            chunk = laplace_from_uniform(u.reshape((k,) + self._shape),
                                         nu[:, :, None, :, None])
            self._slabs = list(chunk[::-1])
        self._t += 1
        return self._slabs.pop()


def agent_rng(master_seed: int, agent_id: int, stream_tag: str) -> np.random.Generator:
    """Deterministic per-agent, per-stream generator.

    The (master_seed, agent_id, tag-hash) entropy tuple makes streams
    independent of scheduling order and of each other.
    """
    tag = int.from_bytes(stream_tag.encode(), "little") % (2 ** 63)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, agent_id, tag])))
