"""Stochastic problem families and streaming ERM sample stores.

Two families are provided:

* quadratic -- per-agent h(x, y; phi) = alpha/2 ||x - c - phi||^2
  + gamma/2 ||y - d||^2 and l(x; xi) = A x + b + xi, with Gaussian data
  noise and an analytic truth oracle (alpha > 0 gives strong convexity,
  alpha = 0 a merely convex objective).
* personalized -- a linear softmax model with a scalar mean-loss aggregate
  (r = 1): h = L(x; s) + lam * (L(x; s) - y)^2 over a fixed finite
  per-agent dataset, so population expectations are exact finite sums.

ERM averages are maintained through exact sufficient statistics (running
sums for the quadratic family, sample multiplicity counts for the finite
personalized datasets); reference.ErmReference recomputes them sample by
sample for equality testing.

Oracles take stacked per-agent arrays (..., m, .): leading axes are batch
axes (the seeds of a batched run), and every batched call gives each
slice bitwise what the unbatched call gives it. A store built with
batch=(S,) holds its statistics as (S, m, .) and draws from S*m
generators, seed-major (entry s*m + i is agent i under seed s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .schedules import AgentBank


class SampleStore:
    """Append-only per-run streaming sample state for all m agents (of
    every seed, with a leading batch shape such as (S,)).

    Family-specific sufficient statistics live in subclass fields;
    last_xi and last_phi hold the newest draw's samples.
    """

    def __init__(self, batch: tuple = ()):
        self.batch = tuple(batch)
        self.count = 0
        self.last_xi = None
        self.last_phi = None
        # lockstep bank over the data generators, bound to the generators
        # of the first draw
        self.bank = None


class ProblemInstance:
    """Common interface: dimensions, box, streaming oracles, truth oracles."""

    family = "abstract"

    m: int
    ni: int
    r: int
    box_lo: np.ndarray
    box_hi: np.ndarray
    own_index: tuple  # (..., rows, cols) of each agent's own block in X (..., m, n)

    @property
    def n(self) -> int:
        return self.m * self.ni

    def _set_own_index(self) -> None:
        rows = np.arange(self.m)[:, None]
        cols = rows * self.ni + np.arange(self.ni)[None, :]
        self.own_index = (Ellipsis, rows, cols)
        self._own_flat = rows * self.n + cols

    def own_block(self, X: np.ndarray) -> np.ndarray:
        """Each agent's own block (..., m, ni) of stacked estimates X (..., m, n).

        The result is C-contiguous (X[own_index] would put the batch axis
        innermost), so batched reductions over it add in the one-seed order.
        """
        return np.take(X.reshape(X.shape[:-2] + (-1,)), self._own_flat, axis=-1)

    # -- streaming ------------------------------------------------------
    def new_store(self, batch: tuple = ()) -> SampleStore:
        raise NotImplementedError

    def draw(self, store: SampleStore, data_rngs) -> None:
        """Acquire one (phi_i, xi_i) pair per agent (and seed) and append
        to the store; data_rngs holds one generator per store row."""
        raise NotImplementedError

    def erm_eval(self, store: SampleStore, Xown: np.ndarray):
        """ERM oracle bundle at the agents' own points. Its
        reweighted(store) is the bundle at the same points against the
        store's current samples, without recomputing what depends on the
        points only; l_newest() is l(x_i; xi_i) at the newest sample and
        g_population() is g_true at the points, both (..., m, r)."""
        raise NotImplementedError

    # -- truth ----------------------------------------------------------
    has_optimizer = False

    def g_true(self, Xown: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def F_true(self, xown: np.ndarray):
        """Population objective at x = col(x_1..x_m), additive constants
        dropped; a float for xown (n,), an (S,) array for xown (S, n)."""
        raise NotImplementedError

    def grad_F_true(self, xown: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class ErmEvalQuadratic:
    """Closed-form ERM quantities for the quadratic family at fixed points."""

    prob: "QuadraticProblem"
    Xown: np.ndarray
    lin: np.ndarray  # A_i x + b_i: depends on the points only
    xi_mean: np.ndarray
    phi_mean: np.ndarray
    last_xi: np.ndarray
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        # g_i^t(x) = (A_i x + b_i) + mean(xi)
        self.g = self.lin + self.xi_mean

    def reweighted(self, store: "QuadraticStore") -> "ErmEvalQuadratic":
        return self.prob._eval(store, self.Xown, self.lin)

    def l_newest(self) -> np.ndarray:
        return self.lin + self.last_xi

    def g_population(self) -> np.ndarray:
        return self.lin

    def grad_f_y(self, Ytil: np.ndarray) -> np.ndarray:
        return self.prob.gamma * (Ytil - self.prob.d)

    def grad_f_x(self, Ytil: np.ndarray) -> np.ndarray:
        return self.prob.alpha * (self.Xown - self.prob.c - self.phi_mean)

    def grad_g_dot(self, Ztil: np.ndarray) -> np.ndarray:
        # nabla g_i^t = A_i^T (constant in x and data)
        return np.einsum("mrn,...mr->...mn", self.prob.A, Ztil)


class QuadraticStore(SampleStore):
    def __init__(self, m, r, ni, batch=()):
        super().__init__(batch)
        self.xi_sum = np.zeros(self.batch + (m, r))
        self.phi_sum = np.zeros(self.batch + (m, ni))


class QuadraticProblem(ProblemInstance):
    family = "quadratic"
    has_optimizer = True

    def __init__(self, A, b, c, d, gamma, alpha=1.0, noise_std_g=0.0,
                 noise_std_f=0.0, box=(-1e6, 1e6)):
        A = np.asarray(A, dtype=float)
        if A.ndim != 3:
            raise ValueError("A must have shape (m, r, n_i)")
        self.m, self.r, self.ni = A.shape
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if alpha < 0:
            raise ValueError("own-term weight must be nonnegative")
        self.A = A
        self.b = np.asarray(b, dtype=float).reshape(self.m, self.r)
        self.c = np.asarray(c, dtype=float).reshape(self.m, self.ni)
        self.d = np.asarray(d, dtype=float).reshape(self.m, self.r)
        self.gamma = float(gamma)
        self.alpha = float(alpha)
        self.noise_std_g = float(noise_std_g)
        self.noise_std_f = float(noise_std_f)
        lo, hi = box
        if not np.all(np.asarray(lo) <= np.asarray(hi)):
            raise ValueError("box bounds inverted")
        self.box_lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.n,)).copy()
        self.box_hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.n,)).copy()
        self._x_star = None
        self._set_own_index()

    # -- streaming ------------------------------------------------------
    def new_store(self, batch: tuple = ()) -> QuadraticStore:
        return QuadraticStore(self.m, self.r, self.ni, batch)

    def draw(self, store: QuadraticStore, data_rngs) -> None:
        k = self.r + self.ni
        if store.bank is None:
            store.bank = AgentBank(data_rngs, k, "standard_normal")
        z = store.bank.next().reshape(store.batch + (self.m, k))
        xi = self.noise_std_g * z[..., :self.r]
        phi = self.noise_std_f * z[..., self.r:]
        store.xi_sum += xi
        store.phi_sum += phi
        store.last_xi, store.last_phi = xi, phi
        store.count += 1

    def erm_eval(self, store: QuadraticStore, Xown: np.ndarray) -> ErmEvalQuadratic:
        return self._eval(store, Xown, self.g_true(Xown))

    def _eval(self, store, Xown, lin):
        if store.count < 1:
            raise ValueError("empty sample store")
        return ErmEvalQuadratic(self, Xown, lin, store.xi_sum / store.count,
                                store.phi_sum / store.count, store.last_xi)

    # -- truth ----------------------------------------------------------
    def g_true(self, Xown: np.ndarray) -> np.ndarray:
        return np.einsum("mrn,...mn->...mr", self.A, Xown) + self.b

    def _aggregate(self, Xown: np.ndarray) -> np.ndarray:
        # the agent mean; sum / m is how ndarray.mean computes it
        return self.g_true(Xown).sum(axis=-2) / self.m

    def F_true(self, xown: np.ndarray):
        Xown = xown.reshape(xown.shape[:-1] + (self.m, self.ni))
        u = self._aggregate(Xown)[..., None, :]
        own = 0.5 * self.alpha * ((Xown - self.c) ** 2).sum(axis=(-2, -1))
        agg = 0.5 * self.gamma * ((u - self.d) ** 2).sum(axis=(-2, -1))
        F = own + agg
        return float(F) if F.ndim == 0 else F

    def grad_F_true(self, xown: np.ndarray) -> np.ndarray:
        Xown = xown.reshape(self.m, self.ni)
        u = self._aggregate(Xown)
        coup = self.gamma * (u - self.d.mean(axis=0))
        grad = self.alpha * (Xown - self.c) + np.einsum("mrn,r->mn", self.A, coup)
        return grad.reshape(self.n)

    @property
    def x_star(self) -> np.ndarray:
        if self._x_star is None:
            from .reference import centralized_minimize
            hess_bound = self.alpha + self.gamma * np.linalg.norm(
                np.concatenate([self.A[i] for i in range(self.m)], axis=1), 2
            ) ** 2 / self.m
            self._x_star = centralized_minimize(
                self.grad_F_true, self.box_lo, self.box_hi,
                step=1.0 / max(hess_bound, 1e-12),
            )
        return self._x_star

    @property
    def F_star(self) -> float:
        return self.F_true(self.x_star)


def make_quadratic_problem(m, ni, r, gamma, alpha=1.0, noise_std_g=0.1,
                           noise_std_f=0.1, box=(-1e6, 1e6), seed=0,
                           coeff_scale=0.3):
    """Random quadratic instance with a reproducible seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 9041])))
    A = coeff_scale * rng.standard_normal((m, r, ni))
    b = rng.standard_normal((m, r))
    c = rng.standard_normal((m, ni))
    d = rng.standard_normal((m, r))
    return QuadraticProblem(A, b, c, d, gamma=gamma, alpha=alpha,
                            noise_std_g=noise_std_g, noise_std_f=noise_std_f,
                            box=box)


# ---------------------------------------------------------------------------
# Personalized linear-softmax family over fixed finite datasets


class PersonalizedStore(SampleStore):
    def __init__(self, m, dataset_size, batch=()):
        super().__init__(batch)
        self.counts_f = np.zeros(self.batch + (m, dataset_size))
        self.counts_g = np.zeros(self.batch + (m, dataset_size))


class SoftmaxPass:
    """The linear softmax model at fixed points Xown (..., m, ni): the
    per-sample losses (..., m, N), and the per-sample gradient tensor
    (..., m, N, K, d), built on its first read."""

    def __init__(self, prob, Xown):
        self.prob = prob
        lead = Xown.shape[:-2]
        W = Xown.reshape(lead + (prob.m, prob.K, prob.dim))
        logits = np.einsum("mnd,...mkd->...mnk", prob.feats, W)
        lmax = logits.max(axis=-1, keepdims=True)
        self._ex = np.exp(logits - lmax)
        self._Zs = self._ex.sum(axis=-1)
        lse = np.log(self._Zs) + lmax[..., 0]
        self.loss = lse - logits[prob.label_index]       # (..., m, N) per-sample L

    @cached_property
    def grad(self):
        p = self._ex / self._Zs[..., None]
        resid = p - self.prob.onehot  # p - 1 at the label, p elsewhere (exact)
        return np.einsum("...mnk,mnd->...mnkd", resid, self.prob.feats)

    def _own(self, out):
        """(..., m, K, d) -> each agent's own block (..., m, ni)."""
        return out.reshape(out.shape[:-2] + (self.prob.ni,))

    def _population(self):
        """Uniform weights over each dataset and the mean loss G_i (..., m)."""
        uni = np.full_like(self.loss, 1.0 / self.prob.N)
        return uni, np.einsum("...mn,...mn->...m", uni, self.loss)


class ErmEvalPersonalized:
    """ERM quantities from one softmax pass and the store's multiplicity
    weights; the pass depends on the points only."""

    def __init__(self, sm, store):
        self.sm = sm
        self.prob = sm.prob
        self.loss = sm.loss
        self.wf = store.counts_f / store.count
        self.wg = store.counts_g / store.count
        self.last_xi = store.last_xi
        # g_i^t(x): multiplicity-weighted mean loss over the g-stream samples
        self.g = np.einsum("...mn,...mn->...m", self.wg, self.loss)[..., None]

    def reweighted(self, store: PersonalizedStore) -> "ErmEvalPersonalized":
        return self.prob._eval(store, self.sm)

    def l_newest(self):
        xi = self.last_xi  # one loss per (seed, agent) row
        l = self.loss.reshape(-1, self.prob.N)[np.arange(xi.size), xi.reshape(-1)]
        return l.reshape(xi.shape + (1,))

    def g_population(self):
        return self.sm._population()[1][..., None]

    def grad_f_y(self, Ytil):
        lbar = np.einsum("...mn,...mn->...m", self.wf, self.loss)[..., None]
        return -2.0 * self.prob.lam * (lbar - Ytil)

    def grad_f_x(self, Ytil):
        scale = self.wf * (1.0 + 2.0 * self.prob.lam * (self.loss - Ytil))
        return self.sm._own(np.einsum("...mn,...mnkd->...mkd", scale, self.sm.grad))

    def grad_g_dot(self, Ztil):
        gg = self.sm._own(np.einsum("...mn,...mnkd->...mkd", self.wg, self.sm.grad))
        return gg * Ztil  # r = 1: scalar tracker per agent


class PersonalizedProblem(ProblemInstance):
    family = "personalized"
    has_optimizer = False

    def __init__(self, feats, labels, lam, box=(-1e6, 1e6)):
        feats = np.asarray(feats, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if lam < 0:
            raise ValueError("penalty weight must be nonnegative")
        self.m, self.N, self.dim = feats.shape
        self.K = int(labels.max()) + 1
        self.ni = self.K * self.dim
        self.r = 1
        self.lam = float(lam)
        self.feats = feats
        self.labels = labels
        self.onehot = np.zeros((self.m, self.N, self.K))
        np.put_along_axis(self.onehot, labels[:, :, None], 1.0, axis=2)
        # (..., agent, sample, label) index of each sample's own logit
        self.label_index = (Ellipsis, np.arange(self.m)[:, None],
                            np.arange(self.N)[None, :], labels)
        lo, hi = box
        self.box_lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.n,)).copy()
        self.box_hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.n,)).copy()
        self._set_own_index()

    def new_store(self, batch: tuple = ()) -> PersonalizedStore:
        return PersonalizedStore(self.m, self.N, batch)

    def draw(self, store: PersonalizedStore, data_rngs) -> None:
        if store.bank is None:
            store.bank = AgentBank(data_rngs, 2, "integers", high=self.N)
        idx = store.bank.next().copy()  # (f, g) index per generator
        rows = np.arange(len(idx))
        store.counts_f.reshape(-1, self.N)[rows, idx[:, 0]] += 1
        store.counts_g.reshape(-1, self.N)[rows, idx[:, 1]] += 1
        idx = idx.reshape(store.batch + (self.m, 2))
        idx_f, idx_g = idx[..., 0], idx[..., 1]
        store.last_phi, store.last_xi = idx_f, idx_g
        store.count += 1

    def erm_eval(self, store, Xown):
        return self._eval(store, SoftmaxPass(self, Xown))

    def _eval(self, store, sm):
        if store.count < 1:
            raise ValueError("empty sample store")
        return ErmEvalPersonalized(sm, store)

    # -- truth (population = uniform over the fixed dataset) ------------
    def g_true(self, Xown):
        return SoftmaxPass(self, Xown)._population()[1][..., None]

    def _population_pass(self, xown):
        return SoftmaxPass(self, xown.reshape(xown.shape[:-1] + (self.m, self.ni)))

    def F_true(self, xown):
        sm = self._population_pass(xown)
        uni, G = sm._population()
        g = G.mean(axis=-1)[..., None, None]
        per_agent = np.einsum("...mn,...mn->...m", uni,
                              sm.loss + self.lam * (sm.loss - g) ** 2)
        F = per_agent.sum(axis=-1)
        return float(F) if F.ndim == 0 else F

    def grad_F_true(self, xown):
        sm = self._population_pass(xown)
        uni, G = sm._population()
        gradG = sm._own(np.einsum("...mn,...mnkd->...mkd", uni, sm.grad))
        g = G.mean()
        scale = uni * (1.0 + 2.0 * self.lam * (sm.loss - g))
        gx = np.einsum("mn,mnkd->mkd", scale, sm.grad).reshape(self.m, self.ni)
        dy_sum = float(np.sum(uni * (-2.0 * self.lam * (sm.loss - g))))
        grad = gx + (gradG / self.m) * dy_sum
        return grad.reshape(self.n)


def make_personalized_problem(m, classes, features, lam, dataset_size=32,
                              box=(-1e6, 1e6), seed=0, spread=1.5,
                              primary_frac=0.6):
    """Synthetic Gaussian-cluster datasets with heterogeneous class mixtures.

    Agent i draws primary_frac of its data from classes i mod K and
    2i mod K and the rest uniformly from the other classes.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7177])))
    centers = spread * rng.standard_normal((classes, features))
    feats = np.empty((m, dataset_size, features))
    labels = np.empty((m, dataset_size), dtype=int)
    for i in range(m):
        primary = {i % classes, (2 * i) % classes}
        others = [k for k in range(classes) if k not in primary]
        for j in range(dataset_size):
            if rng.random() < primary_frac or not others:
                k = int(rng.choice(sorted(primary)))
            else:
                k = int(rng.choice(others))
            labels[i, j] = k
            feats[i, j] = centers[k] + rng.standard_normal(features)
    return PersonalizedProblem(feats, labels, lam=lam, box=box)
