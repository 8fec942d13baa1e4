"""Sensitivity recursions, cumulative budgets, noise calibration: every
accounting decision, including whether a run has a budget (eps_at).

The numeric recursion tracks the dominating upper-bound dynamics of the
per-agent sensitivities with equality (the true sensitivities are
intractable); the closed-form constants give the certificate bounds
Delta_y <= C_y/(t+1)^(1+v_y), Delta_x <= C_x/(t+1)^(1+v_x-v_z),
Delta_z <= C_z/(t+1)^(1+v_z). Budgets compose as
eps_i(T) = sum_{t=1..T} (Dx/nu_x + Dy/nu_y + Dz/nu_z).

t_contract, on each trajectory, checks only Delta_x's own coefficient
(Delta_y's and Delta_z's are 1 - w_bar): the first t < T at which it is
below 1, else T. It is not a dominance condition, and the certificates
need not bound the coupled recursion after it: on quadratic_sc it is 1,
yet Delta_x peaks at 5.47e22 at t = 221 (ROADMAP item 2).

sensitivity_trajectory walks T in blocks of 128 rounds: a numpy pass
computes a block's coefficients, each associated as in reference's
scalar step so that it rounds the same, and a Python-float loop folds
them. The powers stay Python's pow: on an AVX-512 Xeon, np.power differs
from libm pow in 10.4K-11.5K of 200K elements per exponent tried. Blocks
bound the floats alive at once (about 0.6 KB per round): one pass over
T = 1e4 raised the sc_paper benchmark's peak RSS from 44.2 to 49.7 MB,
and 512-round blocks ncvx_oracle's by 0.7 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .schedules import SQRT2, ScheduleSet, StepsizeSchedule


@dataclass(frozen=True)
class SensitivityParams:
    """Lipschitz/bound constants and stepsize schedules for one agent.

    L_l: Lipschitz constant of l in the decision variable, as Lbar_l and
    Lbar_h are of the l- and h-gradients (coupling terms); L_h: of the
    h-gradients in the data argument (forcing terms alone); d_l bounds
    ||l||_1 on the feasible box, d_z bounds ||z_i^t||_2.
    """

    L_l: float
    L_h: float
    Lbar_l: float
    Lbar_h: float
    d_l: float
    d_z: float
    w_bar: float
    n_i: int
    r: int
    lambda_x: StepsizeSchedule
    lambda_y: StepsizeSchedule
    lambda_z: StepsizeSchedule

    def __post_init__(self):
        for name in ("L_l", "L_h", "Lbar_l", "Lbar_h", "d_l", "d_z"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not (0 < self.w_bar < 1):
            raise ValueError("w_bar must lie in (0, 1)")
        if self.n_i < 1 or self.r < 1:
            raise ValueError("dimensions must be positive")


_BLOCK = 128  # rounds per coefficient pass


def _coefficients(p: SensitivityParams, t1: np.ndarray) -> np.ndarray:
    """The recursion's coefficients at rounds t = t1 - 1, one row per
    round: Delta_y's multiplier of Delta_x and forcing; Delta_z's
    multipliers of Delta_x and Delta_y' + Delta_y, and forcing; Delta_x's
    own coefficient, multipliers of Delta_y' + Delta_y and
    Delta_z' + Delta_z, and two forcing terms."""
    ts = t1.tolist()
    lam_x, lam_y, lam_z = (
        s.lambda0 / np.fromiter(map(pow, ts, repeat(s.v)), float, len(ts))
        for s in (p.lambda_x, p.lambda_y, p.lambda_z))
    sr, sn = math.sqrt(p.r), math.sqrt(p.n_i)
    lh_z = sr * p.Lbar_h * lam_z
    lh_x = sn * p.Lbar_h * lam_x
    return np.column_stack((
        p.L_l * sr * lam_y, 2.0 * p.d_l * lam_y / t1,
        lh_z, lh_z / lam_y, 2.0 * sr * p.L_h * lam_z / t1,
        1.0 - p.w_bar + lh_x + sn * p.Lbar_l * p.d_z * lam_x / lam_z,
        lh_x / lam_y, sn * p.L_l * lam_x / lam_z,
        2.0 * sn * p.L_h * lam_x / t1,
        2.0 * sn * p.d_z * p.L_l * lam_x / (lam_z * t1)))


@dataclass
class SensitivityTrajectory:
    """Recursion outputs Delta^0..Delta^T plus contraction diagnostics."""

    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    t_contract: int


def sensitivity_trajectory(T: int, p: SensitivityParams) -> SensitivityTrajectory:
    """Iterate the recursion from Delta^0 = 0 up to horizon T, updating
    y -> z -> x as reference.sensitivity_step does."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    dxs, dys, dzs = np.zeros(T + 1), np.zeros(T + 1), np.zeros(T + 1)
    t_contract = T
    c = 1.0 - p.w_bar
    dx = dy = dz = 0.0
    for lo in range(0, T, _BLOCK):
        coef = _coefficients(p, np.arange(lo + 1, min(lo + _BLOCK, T) + 1,
                                           dtype=float))
        below = np.flatnonzero(coef[:, 5] < 1.0)
        if t_contract == T and below.size:
            t_contract = lo + int(below[0])
        xs, ys, zs = [], [], []
        for ay, fy, bz, ez, fz, cx, gx, hx, fx, fxz in coef.tolist():
            y = c * dy + ay * dx + fy
            z = c * dz + bz * dx + ez * (y + dy) + fz
            dx, dy, dz = cx * dx + gx * (y + dy) + hx * (z + dz) + fx + fxz, y, z
            xs.append(dx)
            ys.append(dy)
            zs.append(dz)
        hi = lo + 1 + len(xs)
        dxs[lo + 1:hi], dys[lo + 1:hi], dzs[lo + 1:hi] = xs, ys, zs
    return SensitivityTrajectory(dxs, dys, dzs, t_contract)


@dataclass(frozen=True)
class ClosedFormConstants:
    C0: float
    C1: float
    C2: float
    C3: float
    C4: float
    Cx: float
    Cy: float
    Cz: float


def closed_form_constants(p: SensitivityParams) -> ClosedFormConstants:
    """Certificate constants of the sensitivity decay bounds."""
    vx, vy, vz = p.lambda_x.v, p.lambda_y.v, p.lambda_z.v
    if not (1.0 > vx > vz > vy > 0.0):
        raise ValueError("constants require 1 > v_x > v_z > v_y > 0")
    lx0, ly0, lz0 = p.lambda_x.lambda0, p.lambda_y.lambda0, p.lambda_z.lambda0
    sr, sn, w = math.sqrt(p.r), math.sqrt(p.n_i), p.w_bar
    e = math.e

    C0 = 2.0 * (p.d_l * ly0 + sn * lx0 * (p.L_h + p.d_z * p.L_l / lz0)
                + sr * p.L_h * lz0)
    mu = min(1.0 + vx - vz, 1.0 + vy)
    C1 = (4.0 * C0 / w) * (4.0 * mu / (e * math.log(4.0 / (4.0 - w)))) ** mu
    C2 = (C1 * p.L_l * sr + 2.0 * p.d_l) * ly0
    Cy = (2.0 * C2 / w) * (4.0 * (1.0 + vy)
                           / (e * math.log(2.0 / (2.0 - w)))) ** (1.0 + vy)
    C3 = (2.0 * Cy * sn * p.Lbar_h * lx0 / ly0
          + 2.0 * (C1 + p.d_z) * sr * p.L_l * lx0 / lz0
          + 2.0 * sn * p.L_h * lx0)
    Cx = (4.0 * C3 / w) * (4.0 * (1.0 + vx - vz)
                           / (e * math.log(4.0 / (4.0 - w)))) ** (1.0 + vx - vz)
    C4 = (Cx * sr * p.Lbar_h * lz0 + 2.0 * Cy * sr * p.Lbar_h * lz0 / ly0
          + 2.0 * sr * p.L_h * lz0)
    Cz = (2.0 * C4 / w) * (4.0 * (1.0 + vz)
                           / (e * math.log(2.0 / (2.0 - w)))) ** (1.0 + vz)
    return ClosedFormConstants(C0, C1, C2, C3, C4, Cx, Cy, Cz)


@dataclass
class PrivacyAccount:
    """Per-agent cumulative budget and closed-form certificates."""

    eps_x: float
    eps_y: float
    eps_z: float
    bound_inf: float

    @property
    def eps_total(self) -> float:
        return self.eps_x + self.eps_y + self.eps_z


def _noise_exponent_gaps(p: SensitivityParams, vs_x, vs_y, vs_z):
    """Decay-exponent gaps (x, y, z) of the sensitivities over the noise."""
    return (p.lambda_x.v - p.lambda_z.v - vs_x, p.lambda_y.v - vs_y,
            p.lambda_z.v - vs_z)


def infinite_horizon_bound(p: SensitivityParams, noise_x, noise_y, noise_z) -> float:
    """T -> infinity certificate; +inf when any exponent gap is nonpositive
    or the stepsize exponents admit no closed-form constants."""
    gx, gy, gz = _noise_exponent_gaps(p, noise_x.varsigma, noise_y.varsigma,
                                      noise_z.varsigma)
    if min(gx, gy, gz) <= 0:
        return float("inf")
    try:
        c = closed_form_constants(p)
    except ValueError:
        return float("inf")
    return (SQRT2 * c.Cx / (noise_x.sigma * gx)
            + SQRT2 * c.Cy / (noise_y.sigma * gy)
            + SQRT2 * c.Cz / (noise_z.sigma * gz))


def accountable(schedules: ScheduleSet) -> bool:
    """Whether budgets accepts schedules: no noise scale sigma is <= 0."""
    s = schedules
    return not any(n.sigma <= 0 for n in s.noise_x + s.noise_y + s.noise_z)


def budgets(T: int, p: SensitivityParams, schedules: ScheduleSet):
    """Cumulative budget of every agent over t = 1..T from one recursion.

    Returns one (PrivacyAccount, eps_cum) pair per agent, where eps_cum
    holds the running sum of Delta^t/nu^t at t = 0..T. Agents with equal
    noise schedules share one pair.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if not accountable(schedules):
        raise ValueError("budget accounting requires positive noise scales")
    triples = list(zip(schedules.noise_x, schedules.noise_y, schedules.noise_z))
    ts = np.arange(1, T + 1, dtype=float)
    traj = sensitivity_trajectory(T, p)
    out = {}
    for triple in dict.fromkeys(triples):
        ex, ey, ez = (d[1:] / n.laplace_param(ts)
                      for d, n in zip((traj.dx, traj.dy, traj.dz), triple))
        eps_cum = np.zeros(T + 1)
        eps_cum[1:] = np.cumsum(ex + ey + ez)
        acct = PrivacyAccount(
            eps_x=float(np.sum(ex)), eps_y=float(np.sum(ey)),
            eps_z=float(np.sum(ez)), bound_inf=infinite_horizon_bound(p, *triple))
        out[triple] = (acct, eps_cum)
    return [out[triple] for triple in triples]


def eps_at(T: int, p: SensitivityParams | None, schedules: ScheduleSet, ts):
    """Each agent's eps_cum of budgets(T, p, schedules) at the iterations
    ts, or None with nothing to account (p is None, or a sigma <= 0)."""
    if p is None or not accountable(schedules):
        return None
    return [eps_cum[ts] for _, eps_cum in budgets(T, p, schedules)]


def calibrate_noise(eps_target: float, p: SensitivityParams, schedules: ScheduleSet):
    """Noise scales (sigma_x, sigma_y, sigma_z) meeting a target budget
    under the closed-form certificate: each of its components equals
    eps_target/3, so its bound_inf is <= eps_target. Each axis is sized at
    its agents' largest varsigma, whose exponent gap is the smallest, so
    every agent's bound_inf is within eps_target. The recursion's budget
    may exceed it where the certificate fails (quadratic_sc)."""
    if not 0 < eps_target < math.inf:
        raise ValueError("target budget must be finite and positive")
    gaps = np.array(_noise_exponent_gaps(p, *schedules.varsigmas(max)))
    if gaps.min() <= 0:
        raise ValueError("noise decay exponents leave no positive gap")
    c = closed_form_constants(p)
    with np.errstate(all="ignore"):  # each scale as the scalar formula gives it
        sigma = 3.0 * SQRT2 * np.array([c.Cx, c.Cy, c.Cz]) / (gaps * eps_target)
    if not np.isfinite(sigma).all():
        raise ValueError(f"epsilon {eps_target} needs noise scales beyond the float range")
    return tuple(sigma.tolist())
