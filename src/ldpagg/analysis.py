"""Metric evaluation, sampling grids, and log-log rate-slope fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DENSE_BELOW = 100  # the sampling grid holds every t below this
PER_DECADE = 30    # and about this many log-spaced t per decade above it
MIN_POINTS = 5     # sampled points a rate fit needs in its window


def sampling_grid(T: int) -> np.ndarray:
    """Iteration indices at which metrics are recorded.

    Every t below DENSE_BELOW, then ~PER_DECADE log-spaced integers per
    decade, always including T. Sorted, unique, within [0, T].
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    pts = set(range(0, min(DENSE_BELOW, T + 1)))
    if T >= DENSE_BELOW:
        lo, hi = np.log10(DENSE_BELOW), np.log10(max(T, DENSE_BELOW + 1))
        k = max(int(np.ceil((hi - lo) * PER_DECADE)), 2)
        pts.update(int(round(v)) for v in np.logspace(lo, hi, k))
        pts.add(T)
    return np.array(sorted(p for p in pts if 0 <= p <= T), dtype=int)


def metric_eval(problem, X, Y, Z):
    """The metric columns of stacked states (..., m, .), each a (...,)
    array whose slices are bitwise the one-seed call's.
    Columns requiring a truth optimizer (the problem's x_star and F_star)
    are omitted (not zero-filled) when the problem does not provide one.
    """
    def spread(A):  # squared distance from the agent mean, summed
        return ((A - A.mean(axis=-2, keepdims=True)) ** 2).sum(axis=(-2, -1))
    xown = problem.own_block(X).reshape(X.shape[:-2] + (problem.n,))
    row = {"consensus_x": spread(X), "consensus_y": spread(Y),
           "consensus_z": spread(Z),
           "grad_norm_sq": (problem.grad_F_true(xown) ** 2).sum(axis=-1)}
    if problem.has_optimizer:
        row["err_to_opt_sq"] = ((xown - problem.x_star) ** 2).sum(axis=-1)
        row["F_gap"] = problem.F_true(xown) - problem.F_star
    return row


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    window: tuple  # (lo, hi): the fit uses the sampled t in [lo, hi]
    n_points: int
    n_seeds: int
    ci: float = float("nan")


def fit_rate(ts, values_per_seed, window=None) -> SlopeFit:
    """Least-squares slope of log10(cross-seed mean) against log10(t).

    values_per_seed is (n_seeds, len(ts)); all seeds must share the grid
    ts. Window defaults to [max(ts)/100, max(ts)]. Rejects non-finite or
    nonpositive mean values inside the window.
    """
    ts = np.asarray(ts, dtype=float)
    V = np.atleast_2d(np.asarray(values_per_seed, dtype=float))
    if V.shape[1] != ts.size:
        raise ValueError("per-seed series must share the sampling grid")
    if window is None:  # (0, 0) on an empty grid, which has too few points
        hi = ts.max(initial=0.0)
        window = (hi / 100.0, hi)
    lo, hi = window
    mask = (ts >= lo) & (ts <= hi) & (ts > 0)
    mean = V.mean(axis=0)[mask]
    tw = ts[mask]
    if tw.size < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} sampled points in the window")
    if not np.all(np.isfinite(mean)) or np.any(mean <= 0):
        raise ValueError("non-finite or nonpositive values in the fit window")
    lx, ly = np.log10(tw), np.log10(mean)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum((A @ coef - ly) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    # rough 95% interval on the slope from the residual variance
    if tw.size > 2 and ss_tot > 0:
        svar = ss_res / (tw.size - 2) / float(np.sum((lx - lx.mean()) ** 2))
        ci = 1.96 * np.sqrt(max(svar, 0.0))
    else:
        ci = float("nan")
    return SlopeFit(slope, intercept, r2, (float(lo), float(hi)),
                    int(tw.size), int(V.shape[0]), ci)
