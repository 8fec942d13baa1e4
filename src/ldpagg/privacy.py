"""Sensitivity recursions, cumulative privacy budgets, noise calibration.

The numeric recursion tracks the dominating upper-bound dynamics of the
per-agent sensitivities with equality (the true sensitivities are
intractable); the closed-form constants give the certificate bounds
Delta_y <= C_y/(t+1)^(1+v_y), Delta_x <= C_x/(t+1)^(1+v_x-v_z),
Delta_z <= C_z/(t+1)^(1+v_z). Budgets compose as
eps_i(T) = sum_{t=1..T} (Dx/nu_x + Dy/nu_y + Dz/nu_z).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .schedules import SQRT2, ScheduleSet, StepsizeSchedule


@dataclass(frozen=True)
class SensitivityParams:
    """Lipschitz/bound constants and stepsize schedules for one agent.

    L_l, L_h: Lipschitz constants of l and of the h-gradients in the
    data argument (difference forcing terms); Lbar_l, Lbar_h: Lipschitz
    constants in the decision arguments (coupling terms); d_l bounds
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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (0 < self.w_bar < 1):
            raise ValueError("w_bar must lie in (0, 1)")
        if self.n_i < 1 or self.r < 1:
            raise ValueError("dimensions must be positive")


def contraction_coefficients(t: int, p: SensitivityParams):
    """Own-Delta multipliers of the recursion at time t, order (y, z, x)."""
    lam_x = p.lambda_x.value(t)
    lam_z = p.lambda_z.value(t)
    sn = math.sqrt(p.n_i)
    coef_x = 1.0 - p.w_bar + sn * p.Lbar_h * lam_x \
        + sn * p.Lbar_l * p.d_z * lam_x / lam_z
    return (1.0 - p.w_bar, 1.0 - p.w_bar, coef_x)


def sensitivity_step(dx, dy, dz, t, p: SensitivityParams):
    """One recursion step (equality on the dominating dynamics).

    Evaluation order y -> z -> x: the z update consumes Delta_y', the x
    update consumes both Delta_y' and Delta_z'.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam_y = p.lambda_y.value(t)
    lam_z = p.lambda_z.value(t)
    lam_x = p.lambda_x.value(t)
    sr = math.sqrt(p.r)
    sn = math.sqrt(p.n_i)
    c = 1.0 - p.w_bar

    dy_new = c * dy + p.L_l * sr * lam_y * dx + 2.0 * p.d_l * lam_y / (t + 1)
    dz_new = (
        c * dz
        + sr * p.Lbar_h * lam_z * dx
        + (sr * p.Lbar_h * lam_z / lam_y) * (dy_new + dy)
        + 2.0 * sr * p.L_h * lam_z / (t + 1)
    )
    coef_x = contraction_coefficients(t, p)[2]
    dx_new = (
        coef_x * dx
        + (sn * p.Lbar_h * lam_x / lam_y) * (dy_new + dy)
        + (sn * p.L_l * lam_x / lam_z) * (dz_new + dz)
        + 2.0 * sn * p.L_h * lam_x / (t + 1)
        + 2.0 * sn * p.d_z * p.L_l * lam_x / (lam_z * (t + 1))
    )
    return dx_new, dy_new, dz_new


@dataclass
class SensitivityTrajectory:
    """Recursion outputs Delta^0..Delta^T plus contraction diagnostics."""

    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    t_contract: int       # first t with all own-coefficients < 1
    contraction_ok: bool  # True when t_contract == 0


def sensitivity_trajectory(T: int, p: SensitivityParams,
                           warn: bool = True) -> SensitivityTrajectory:
    """Iterate the recursion from Delta^0 = 0 up to horizon T."""
    dx = np.zeros(T + 1)
    dy = np.zeros(T + 1)
    dz = np.zeros(T + 1)
    t_contract = None
    for t in range(T):
        if t_contract is None and max(contraction_coefficients(t, p)) < 1.0:
            t_contract = t
        dx[t + 1], dy[t + 1], dz[t + 1] = sensitivity_step(
            dx[t], dy[t], dz[t], t, p)
    if t_contract is None:
        # either T == 0 or the coefficient never dropped below 1
        t_contract = 0 if T == 0 and max(contraction_coefficients(0, p)) < 1.0 else T
    if t_contract > 0 and warn:
        warnings.warn(
            f"sensitivity contraction coefficient >= 1 until t={t_contract}; "
            "closed-form dominance only holds from there on",
            RuntimeWarning, stacklevel=2)
    return SensitivityTrajectory(dx=dx, dy=dy, dz=dz, t_contract=t_contract,
                                 contraction_ok=(t_contract == 0))


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

    T: int
    eps_x: float
    eps_y: float
    eps_z: float
    bound_inf: float
    source: str
    t_contract: int = 0

    @property
    def eps_total(self) -> float:
        return self.eps_x + self.eps_y + self.eps_z


def _noise_exponent_gaps(p: SensitivityParams, vs_x, vs_y, vs_z):
    """Decay-exponent gaps (x, y, z) of the sensitivities over the noise."""
    return (p.lambda_x.v - p.lambda_z.v - vs_x, p.lambda_y.v - vs_y,
            p.lambda_z.v - vs_z)


def infinite_horizon_bound(p: SensitivityParams, noise_x, noise_y, noise_z,
                           consts: ClosedFormConstants = None) -> float:
    """T -> infinity certificate; +inf when any exponent gap is nonpositive
    or the stepsize exponents admit no closed-form constants."""
    gx, gy, gz = _noise_exponent_gaps(p, noise_x.varsigma, noise_y.varsigma,
                                      noise_z.varsigma)
    if min(gx, gy, gz) <= 0:
        return float("inf")
    try:
        c = consts if consts is not None else closed_form_constants(p)
    except ValueError:
        return float("inf")
    return (SQRT2 * c.Cx / (noise_x.sigma * gx)
            + SQRT2 * c.Cy / (noise_y.sigma * gy)
            + SQRT2 * c.Cz / (noise_z.sigma * gz))


def budgets(T: int, p: SensitivityParams, schedules: ScheduleSet,
            source: str = "recursion", warn: bool = True):
    """Cumulative budget of every agent over t = 1..T from one recursion.

    Returns one (PrivacyAccount, eps_cum) pair per agent, where eps_cum
    holds the cumulative eps_total at t = 0..T. source "recursion" sums
    Delta^t/nu^t with the numeric recursion (the tighter accountant);
    "closed_form" sums the certificate bounds
    sqrt(2) C / (sigma (t+1)^{1+..-varsigma}) instead. Agents with equal
    noise schedules share one pair.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    triples = list(zip(schedules.noise_x, schedules.noise_y, schedules.noise_z))
    if any(s.sigma <= 0 for triple in triples for s in triple):
        raise ValueError("budget accounting requires positive noise scales")
    t_contract = 0
    if source == "recursion":
        traj = sensitivity_trajectory(T, p, warn=warn)
        t_contract = traj.t_contract
        ts = np.arange(1, T + 1)

        def terms(nx, ny, nz):
            return (traj.dx[1:] / nx.laplace_param(ts),
                    traj.dy[1:] / ny.laplace_param(ts),
                    traj.dz[1:] / nz.laplace_param(ts))
    elif source == "closed_form":
        c = closed_form_constants(p)
        vx, vy, vz = p.lambda_x.v, p.lambda_y.v, p.lambda_z.v
        ts = np.arange(1, T + 1, dtype=float)

        def terms(nx, ny, nz):
            return (SQRT2 * c.Cx / (nx.sigma * (ts + 1) ** (1 + vx - vz - nx.varsigma)),
                    SQRT2 * c.Cy / (ny.sigma * (ts + 1) ** (1 + vy - ny.varsigma)),
                    SQRT2 * c.Cz / (nz.sigma * (ts + 1) ** (1 + vz - nz.varsigma)))
    else:
        raise ValueError(f"unknown budget source {source!r}")
    out = {}
    for triple in dict.fromkeys(triples):
        ex, ey, ez = terms(*triple)
        eps_cum = np.zeros(T + 1)
        eps_cum[1:] = np.cumsum(ex + ey + ez)
        acct = PrivacyAccount(
            T=T, eps_x=float(np.sum(ex)), eps_y=float(np.sum(ey)),
            eps_z=float(np.sum(ez)),
            bound_inf=infinite_horizon_bound(p, *triple), source=source,
            t_contract=t_contract)
        out[triple] = (acct, eps_cum)
    return [out[triple] for triple in triples]


def budget(T: int, p: SensitivityParams, noise_x, noise_y, noise_z,
           source: str = "recursion", warn: bool = True) -> PrivacyAccount:
    """Cumulative budget for one agent over t = 1..T (see budgets)."""
    one = ScheduleSet(p.lambda_x, p.lambda_y, p.lambda_z,
                      (noise_x,), (noise_y,), (noise_z,))
    return budgets(T, p, one, source, warn)[0][0]


def calibrate_noise(eps_target: float, p: SensitivityParams,
                    varsigma_x: float, varsigma_y: float, varsigma_z: float):
    """Noise scales (sigma_x, sigma_y, sigma_z) meeting a target budget.

    Each closed-form component equals eps_target/3 by construction, so
    the infinite-horizon bound is <= eps_target.
    """
    if eps_target <= 0:
        raise ValueError("target budget must be positive")
    gx, gy, gz = _noise_exponent_gaps(p, varsigma_x, varsigma_y, varsigma_z)
    if min(gx, gy, gz) <= 0:
        raise ValueError("noise decay exponents leave no positive gap")
    c = closed_form_constants(p)
    return (3.0 * SQRT2 * c.Cx / (gx * eps_target),
            3.0 * SQRT2 * c.Cy / (gy * eps_target),
            3.0 * SQRT2 * c.Cz / (gz * eps_target))


@dataclass
class BoundCheckReport:
    """Post-hoc audit of the configured d_z / d_l against a finished run."""

    empirical_d_z: float
    empirical_d_l: float
    configured_d_z: float
    configured_d_l: float
    ok: bool


def empirical_bound_check(record, p: SensitivityParams) -> BoundCheckReport:
    """Compare a run's trajectory suprema with the configured bounds.

    A violation flags the budget as unsound for that run (the recursion
    premises did not hold).
    """
    emp_z = float(np.max(record.z_norm_max))
    emp_l = float(np.max(record.l_norm1_max))
    ok = emp_z <= p.d_z and emp_l <= p.d_l
    return BoundCheckReport(empirical_d_z=emp_z, empirical_d_l=emp_l,
                            configured_d_z=p.d_z, configured_d_l=p.d_l, ok=ok)
