"""Independent oracles that the simulator is checked against.

Centralized solvers, the single-agent Laplace noise stream, the
per-sample objective h, the batched softmax pass built sample-major,
the ERM oracle recomputed sample by sample from raw samples, the
tracker updates of both drivers one tracker at a time, the scalar
sensitivity recursion step, the closed-form certificate budget, the
closed-form ring spectrum and the cross-seed stacking of a metric
column. Deliberately written without reuse of the simulator code paths
so the distributed implementation can be checked against them.
"""

from __future__ import annotations

import math

import numpy as np

from .privacy import closed_form_constants
from .schedules import laplace_from_uniform


def centralized_minimize(grad, lo, hi, step, x0=None, max_iter=200000,
                         tol=1e-12):
    """Projected gradient descent on exact expectations.

    Runs x <- clip(x - step * grad(x)) until the update norm drops below
    tol. grad takes and returns flat vectors.
    """
    x = np.zeros_like(lo) if x0 is None else np.array(x0, dtype=float)
    x = np.clip(x, lo, hi)
    for _ in range(max_iter):
        x_new = np.clip(x - step * grad(x), lo, hi)
        if np.linalg.norm(x_new - x) < tol:
            return x_new
        x = x_new
    return x


def centralized_trajectory(problem, schedules, T, x0):
    """Deterministic single-node projected-gradient trajectory.

    Mirrors what the noise-free distributed iteration should collapse to
    for m = 1: trackers reproduce g and grad_y f exactly, so each step is
    x <- clip(x - lambda_x(t) * (grad_x f + grad_g . grad_y f)) on the
    expected objective. Returns the (T+1, n) array of iterates.
    """
    x = np.array(x0, dtype=float)
    out = [x.copy()]
    for t in range(T):
        # expected-value gradients at (x, g(x)) via the population oracle
        g = problem.g_true(x[None, :])[0]
        if problem.family == "quadratic":
            gx = problem.alpha * (x - problem.c[0])
            gy = problem.gamma * (g - problem.d[0])
            gdot = problem.A[0].T @ gy
        else:
            raise NotImplementedError("centralized trajectory oracle is quadratic-only")
        step = schedules.lambda_x.value(t)
        x = np.clip(x - step * (gx + gdot), problem.box_lo, problem.box_hi)
        out.append(x.copy())
    return np.stack(out)


def sample_laplace(rng: np.random.Generator, nu: float, dim: int) -> np.ndarray:
    """dim independent Laplace(nu) variates, one uniform draw per coordinate."""
    if nu < 0:
        raise ValueError("Laplace parameter must be nonnegative")
    return LaplaceStream(rng).draw(nu, dim)


class LaplaceStream:
    """Single-agent Laplace noise stream: each draw takes the generator's
    next uniforms in order, so results are independent of how draws are
    batched. It is the per-agent reference that AgentBank rows and the
    frame-audit replays are checked against."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def draw_centered(self, dim: int) -> np.ndarray:
        """dim uniforms on [-1/2, 1/2), consumed in stream order."""
        return self.rng.random(dim) - 0.5

    def draw(self, nu: float, dim: int) -> np.ndarray:
        return laplace_from_uniform(self.draw_centered(dim), nu)


def _softmax_loss(problem, i, x, idx):
    """Agent i's softmax loss at sample idx and its gradient in x (ni,)."""
    W = x.reshape(problem.K, problem.dim)
    feat = problem.feats[i, idx]
    logits = W @ feat
    lmax = logits.max()
    ex = np.exp(logits - lmax)
    L = np.log(ex.sum()) + lmax - logits[problem.labels[i, idx]]
    resid = ex / ex.sum()
    resid[problem.labels[i, idx]] -= 1.0
    return L, np.outer(resid, feat).reshape(-1)


def softmax_pass_sample_major(problem, Xown):
    """The batched softmax pass at Xown (..., m, ni), built sample-major:
    logits (..., m, N, K), the max over their last axis, the own-label
    logit by a fancy-index gather and the gradient tensor (..., m, N, K, d)
    by an outer-product einsum. Returns (ex, Zs, loss, grad), the values
    problems.SoftmaxPass must give bitwise."""
    m, N = problem.m, problem.N
    W = Xown.reshape(Xown.shape[:-2] + (m, problem.K, problem.dim))
    logits = np.einsum("mnd,...mkd->...mnk", problem.feats, W)
    lmax = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - lmax)
    Zs = ex.sum(axis=-1)
    label_index = (Ellipsis, np.arange(m)[:, None], np.arange(N)[None, :],
                   problem.labels)
    loss = np.log(Zs) + lmax[..., 0] - logits[label_index]
    resid = ex / Zs[..., None] - problem.onehot
    grad = np.einsum("...mnk,mnd->...mnkd", resid, problem.feats)
    return ex, Zs, loss, grad


def h_value(problem, i, x, y, sample):
    """Agent i's per-sample objective h_i(x, y; sample)."""
    if problem.family == "quadratic":
        return (0.5 * problem.alpha * np.sum((x - problem.c[i] - sample) ** 2)
                + 0.5 * problem.gamma * np.sum((y - problem.d[i]) ** 2))
    L = _softmax_loss(problem, i, x, sample)[0]
    return L + problem.lam * float(np.sum((L - y) ** 2))


def _sample_terms(problem, i, x, y, sample):
    """Per-sample (l, dl/dx (r, ni), dh/dx, dh/dy) of agent i at (x, y)."""
    if problem.family == "quadratic":
        return (problem.A[i] @ x + problem.b[i] + sample, problem.A[i],
                problem.alpha * (x - problem.c[i] - sample),
                problem.gamma * (y - problem.d[i]))
    L, dL = _softmax_loss(problem, i, x, sample)
    resid = L - y
    return (np.array([L]), dL[None, :],
            (1.0 + 2.0 * problem.lam * resid[0]) * dL,
            -2.0 * problem.lam * resid)


class ErmReference:
    """The ERM oracle bundle at Xown (m, ni), recomputed one agent and one
    sample at a time from raw samples: xis[k] and phis[k] are an
    unbatched store's last_xi and last_phi after draw k. The l terms
    average over the xi samples, the h terms over the phi samples."""

    def __init__(self, problem, xis, phis, Xown):
        if len(xis) < 1:
            raise ValueError("empty sample store")
        self.problem, self.xis, self.phis = problem, xis, phis
        self.X = np.asarray(Xown, dtype=float)
        self.g = self._mean(xis, 0)

    def _mean(self, samples, k, Y=None):
        """Each agent's mean over samples of term k of _sample_terms."""
        p = self.problem
        Y = np.zeros((p.m, p.r)) if Y is None else Y
        return np.array([
            np.mean([_sample_terms(p, i, self.X[i], Y[i], s[i])[k]
                     for s in samples], axis=0) for i in range(p.m)])

    def grad_f_x(self, Y):
        return self._mean(self.phis, 2, Y)

    def grad_f_y(self, Y):
        return self._mean(self.phis, 3, Y)

    def grad_g_dot(self, Z):
        return np.einsum("mrn,mr->mn", self._mean(self.xis, 1), Z)


def tracker_round(Y, Z, hat_y, hat_z, W0, diagw, lam_y, lam_z, ev):
    """The main algorithm's tracker update, one tracker at a time, from
    the trackers Y, Z, their obscured values hat_y, hat_z and the round's
    ERM oracle bundle ev; c = W0 @ hat + diagw * raw is a tracker's
    consensus term. Y' = (Y + c_y) + lam_y g, Ytil = (Y' - Y) / lam_y,
    then Z' = (Z + c_z) + lam_z grad_f_y(Ytil), Ztil = (Z' - Z) / lam_z.
    Returns (Y', Z', Ytil, Ztil)."""
    Y_new = Y + (W0 @ hat_y + diagw * Y) + lam_y * ev.g
    Ytil = (Y_new - Y) / lam_y
    Z_new = Z + (W0 @ hat_z + diagw * Z) + lam_z * ev.grad_f_y(Ytil)
    return Y_new, Z_new, Ytil, (Z_new - Z) / lam_z


def baseline_tracker_round(G, Q, hat_g, hat_q, W0, diagw, ev, ev2):
    """The gradient-tracking baseline's tracker update, one tracker at a
    time, with ev the bundle at the old points and ev2 at the new ones:
    G' = ((G + c_g) + ev2.g) - ev.g, then
    Q' = ((Q + c_q) + ev2.grad_f_y(G')) - ev.grad_f_y(G). Returns (G', Q')."""
    G_new = G + (W0 @ hat_g + diagw * G) + ev2.g - ev.g
    Q_new = Q + (W0 @ hat_q + diagw * Q) + ev2.grad_f_y(G_new) - ev.grad_f_y(G)
    return G_new, Q_new


def sensitivity_step(dx, dy, dz, t, p):
    """One step of the sensitivity recursion (equality on the dominating
    dynamics) for a privacy.SensitivityParams p, one scalar at a time.

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
    dx_new = (
        (c + sn * p.Lbar_h * lam_x + sn * p.Lbar_l * p.d_z * lam_x / lam_z) * dx
        + (sn * p.Lbar_h * lam_x / lam_y) * (dy_new + dy)
        + (sn * p.L_l * lam_x / lam_z) * (dz_new + dz)
        + 2.0 * sn * p.L_h * lam_x / (t + 1)
        + 2.0 * sn * p.d_z * p.L_l * lam_x / (lam_z * (t + 1))
    )
    return dx_new, dy_new, dz_new


def closed_form_budget(T, p, nx, ny, nz):
    """The paper's per-round certificate sum for one agent with noise
    schedules nx, ny, nz under a privacy.SensitivityParams p: the
    components (eps_x, eps_y, eps_z) of
    sum_{t=1..T} sqrt(2) C_a / (sigma_a (t+1)^(1 + r_a - varsigma_a)),
    with C_a the certificate constants and r = (v_x - v_z, v_y, v_z).
    The recursion budget is at most their sum once the certificates
    dominate, and their sum is at most the infinite-horizon bound."""
    c = closed_form_constants(p)
    vx, vy, vz = p.lambda_x.v, p.lambda_y.v, p.lambda_z.v
    s = np.arange(2.0, T + 2.0)  # t + 1
    return tuple(
        float(np.sum(math.sqrt(2.0) * C / (n.sigma * s ** (1.0 + r - n.varsigma))))
        for C, r, n in ((c.Cx, vx - vz, nx), (c.Cy, vy, ny), (c.Cz, vz, nz)))


def ring_spectrum(m: int, w: float) -> np.ndarray:
    """Closed-form circulant spectrum of the ring weight matrix, sorted ascending.

    m = 2 is special: the two ring edges coincide, so the graph has a
    single edge of weight w and the spectrum is {-2w, 0}.
    """
    if m == 2:
        return np.array([-2.0 * w, 0.0])
    k = np.arange(m)
    return np.sort(2.0 * w * (np.cos(2.0 * np.pi * k / m) - 1.0))


def mean_over_seeds(records, column):
    """Stack one metric column across RunRecords sharing a grid; return (ts, matrix)."""
    ts = records[0].ts
    for r in records[1:]:
        if not np.array_equal(r.ts, ts):
            raise ValueError("records do not share a sampling grid")
    V = np.stack([np.asarray(r.columns[column]) for r in records])
    return ts, V
