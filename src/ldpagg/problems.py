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
sample for equality testing. Both families' draws hand out precomputed
rounds (see SampleStore), CHUNK // (S*m*w) at a time (AgentBank.chunk),
w being an agent's values per round: r + ni samples, or N counts.

Oracles take stacked per-agent arrays (..., m, .): leading axes are batch
axes (the seeds of a batched run), and every batched call gives each
slice bitwise what the unbatched call gives it. A store is built on its
data generators, one per row: new_store(data_rngs, batch=(S,),
horizon=H) holds its statistics as (S, m, .) and draws from S*m
generators, seed-major (entry s*m + i is agent i under seed s), through
an AgentBank whose refills hold at most H rounds (the drivers pass T + 1).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .schedules import AgentBank


class SampleStore:
    """Append-only per-run streaming sample state for all m agents (of
    every seed, with a leading batch shape such as (S,)).

    Each keyword names a sufficient statistic, zeros of batch + its shape;
    last_xi and last_phi hold the newest draw's samples, and bank is the
    lockstep bank over the data generators that every draw reads. A draw
    pops its round's fresh arrays from ahead, bitwise what per-round adds
    and divisions give: the quadratic xi_sum, phi_sum, xi_mean, phi_mean
    and samples; the personalized counts_f, counts_g, weights wf, wg
    (counts / count), last_phi, last_xi and xi_flat, the flat index
    row * N + last_xi of each newest g sample in (..., m, N) arrays.
    """

    def __init__(self, bank: AgentBank, batch: tuple = (), **stats):
        self.bank = bank
        self.batch = tuple(batch)
        self.count = 0
        self.last_xi = None
        self.last_phi = None
        self.ahead = []  # rounds a chunked draw made, not yet handed out, last first
        for name, shape in stats.items():
            setattr(self, name, np.zeros(self.batch + shape))


class ProblemInstance:
    """Common interface: dimensions, box, streaming oracles, truth oracles."""

    family: str  # "quadratic" or "personalized"
    m: int
    ni: int
    r: int
    box_lo: np.ndarray
    box_hi: np.ndarray
    own_flat: np.ndarray  # (m, ni) flat index of each agent's own block in X (m, n)

    @property
    def n(self) -> int:
        return self.m * self.ni

    def _set_box_and_index(self, box) -> None:
        """The (n,) box arrays, rejecting lo > hi, and the own-block index."""
        lo, hi = box
        if not np.all(np.asarray(lo) <= np.asarray(hi)):
            raise ValueError("box bounds inverted")
        self.box_lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.n,)).copy()
        self.box_hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.n,)).copy()
        rows = np.arange(self.m)[:, None]
        cols = rows * self.ni + np.arange(self.ni)[None, :]
        self.own_flat = rows * self.n + cols
        self._own_index = {}

    def own_index(self, size: int) -> np.ndarray:
        """The 1-D index of every own block in size floats of stacked
        estimates (..., m, n), flattened; built once per size."""
        if size not in self._own_index:
            starts = np.arange(0, size, self.m * self.n)[:, None, None]
            self._own_index[size] = (starts + self.own_flat).reshape(-1)
        return self._own_index[size]

    def own_block(self, X: np.ndarray) -> np.ndarray:
        """Each agent's own block (..., m, ni) of stacked estimates X (..., m, n).

        The result is C-contiguous (indexing the (m, n) axes would put the
        batch axis innermost), so batched reductions add in the one-seed order.
        """
        return np.take(X.reshape(X.shape[:-2] + (-1,)), self.own_flat, axis=-1)

    # -- streaming ------------------------------------------------------
    def new_store(self, data_rngs, batch: tuple = (), *,
                  horizon: int) -> SampleStore:
        raise NotImplementedError  # see the module docstring

    def draw(self, store: SampleStore) -> None:
        """Acquire one (phi_i, xi_i) pair per agent (and seed) from the
        store's generators and append it to the store."""
        raise NotImplementedError

    def erm_eval(self, store: SampleStore, Xown: np.ndarray):
        """ERM oracle bundle at the agents' own points. Its
        reweighted(store) is the bundle at the same points against the
        store's current samples, without recomputing what depends on the
        points only; l_newest() is l(x_i; xi_i) at the newest sample and
        g_population() is g_true at the points, both (..., m, r)."""
        raise NotImplementedError

    # -- truth ----------------------------------------------------------
    has_optimizer = False  # whether the problem has x_star and F_star

    def g_true(self, Xown: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def F_true(self, xown: np.ndarray):
        """Population objective at x = col(x_1..x_m), additive constants
        dropped: a float for xown (n,), a (...,) array for xown (..., n).
        grad_F_true(xown) is its gradient, of xown's shape."""
        raise NotImplementedError

    def grad_F_true(self, xown: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ErmEvalQuadratic:
    """Closed-form ERM quantities for the quadratic family at fixed points
    Xown against a store's samples, read from its sample means; lin =
    A_i x + b_i depends on the points only."""

    def __init__(self, prob, store, Xown, lin):
        if store.count < 1:
            raise ValueError("empty sample store")
        self.prob, self.Xown, self.lin = prob, Xown, lin
        self.phi_mean = store.phi_mean
        self.last_xi = store.last_xi
        # g_i^t(x) = (A_i x + b_i) + mean(xi)
        self.g = lin + store.xi_mean

    def reweighted(self, store: SampleStore) -> "ErmEvalQuadratic":
        return ErmEvalQuadratic(self.prob, store, self.Xown, self.lin)

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


class QuadraticProblem(ProblemInstance):
    family = "quadratic"
    has_optimizer = True

    def __init__(self, A, b, c, d, gamma, alpha, noise_std_g, noise_std_f, box):
        A = np.asarray(A, dtype=float)
        if A.ndim != 3 or min(A.shape) < 1:
            raise ValueError("A must have shape (m, r, n_i), each at least 1")
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
        self._set_box_and_index(box)

    # -- streaming ------------------------------------------------------
    def new_store(self, data_rngs, batch: tuple = (), *,
                  horizon: int) -> SampleStore:
        bank = AgentBank(data_rngs, self.r + self.ni, "standard_normal",
                         horizon=horizon)
        return SampleStore(bank, batch, xi_sum=(self.m, self.r),
                           phi_sum=(self.m, self.ni))

    def draw(self, store: SampleStore) -> None:
        # a chunk of rounds in fresh slabs; the cumsum adds as a per-round +=
        if not store.ahead:
            z = store.bank.chunk()
            z = z.reshape((len(z),) + store.batch + (self.m, -1))
            xi = np.concatenate([store.xi_sum[None], self.noise_std_g * z[..., :self.r]])
            phi = np.concatenate([store.phi_sum[None], self.noise_std_f * z[..., self.r:]])
            xi_sum, phi_sum = np.cumsum(xi, axis=0)[1:], np.cumsum(phi, axis=0)[1:]
            count = (store.count + np.arange(1, len(z) + 1)).reshape((-1,) + (1,) * (xi.ndim - 1))
            store.ahead = list(zip(xi_sum, xi_sum / count, xi[1:],
                                   phi_sum, phi_sum / count, phi[1:]))[::-1]
        (store.xi_sum, store.xi_mean, store.last_xi,
         store.phi_sum, store.phi_mean, store.last_phi) = store.ahead.pop()
        store.count += 1

    def erm_eval(self, store: SampleStore, Xown: np.ndarray) -> ErmEvalQuadratic:
        return ErmEvalQuadratic(self, store, Xown, self.g_true(Xown))

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
        return own + agg

    def grad_F_true(self, xown: np.ndarray) -> np.ndarray:
        Xown = xown.reshape(xown.shape[:-1] + (self.m, self.ni))
        u = self._aggregate(Xown)
        coup = self.gamma * (u - self.d.mean(axis=0))
        grad = self.alpha * (Xown - self.c) + np.einsum("mrn,...r->...mn", self.A, coup)
        return grad.reshape(xown.shape)

    @cached_property
    def x_star(self) -> np.ndarray:
        from .reference import centralized_minimize
        hess_bound = self.alpha + self.gamma * np.linalg.norm(
            np.concatenate([self.A[i] for i in range(self.m)], axis=1), 2
        ) ** 2 / self.m
        return centralized_minimize(self.grad_F_true, self.box_lo, self.box_hi,
                                    step=1.0 / max(hess_bound, 1e-12))

    @cached_property
    def F_star(self) -> float:
        return self.F_true(self.x_star)


def make_quadratic_problem(m, ni=2, r=2, gamma=1.0, alpha=1.0,
                           noise_std_g=0.1, noise_std_f=0.1, box=(-1e6, 1e6),
                           seed=0):
    """Random quadratic instance with a reproducible seed. The defaults
    are those of a config problem block that omits the key."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 9041])))
    A = 0.3 * rng.standard_normal((m, r, ni))
    b = rng.standard_normal((m, r))
    c = rng.standard_normal((m, ni))
    d = rng.standard_normal((m, r))
    return QuadraticProblem(A, b, c, d, gamma=gamma, alpha=alpha,
                            noise_std_g=noise_std_g, noise_std_f=noise_std_f,
                            box=box)


# ---------------------------------------------------------------------------
# Personalized linear-softmax family over fixed finite datasets


class SoftmaxPass:
    """The linear softmax model at fixed points Xown (..., m, ni): the
    per-sample losses (..., m, N), and the per-sample gradient tensor
    (..., m, N, K, d), built on its first read. The logits are built
    class-major, (..., K, m, N), so each ufunc loops over m*N, not K; _ex
    and grad keep the (..., m, N, K[, d]) C layout whose sums and
    contractions over K and d give the oracle's bits."""

    def __init__(self, prob, Xown):
        self.prob = prob
        lead = Xown.shape[:-2]
        W = Xown.reshape(lead + (prob.m, prob.K, prob.dim))
        lk = np.einsum("mnd,...mkd->...kmn", prob.feats, W, order="C")
        own = lk.reshape(lead + (-1,)).take(prob.label_flat, axis=-1)
        lmax = np.maximum.reduce(lk, axis=-3)
        lk -= lmax[..., None, :, :]
        self._ex = np.empty(lead + (prob.m, prob.N, prob.K))
        np.exp(lk, out=self._ex.swapaxes(-1, -2).swapaxes(-2, -3))
        self._Zs = self._ex.sum(axis=-1)
        self.loss = np.log(self._Zs) + lmax - own  # (..., m, N) per-sample L

    @cached_property
    def grad(self):
        p = self._ex / self._Zs[..., None]
        resid = p - self.prob.onehot  # p - 1 at the label, p elsewhere (exact)
        # 0.0 + resid * feat, as an outer-product einsum adds it (-0.0 -> +0.0)
        out = resid.repeat(self.prob.dim, axis=-1)
        out *= self.prob.feats_tiled
        out += 0.0
        return out.reshape(resid.shape + (self.prob.dim,))

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
        if store.count < 1:
            raise ValueError("empty sample store")
        self.sm = sm
        self.prob = sm.prob
        self.loss = sm.loss
        self.wf, self.wg, self.xi_flat = store.wf, store.wg, store.xi_flat
        # g_i^t(x): multiplicity-weighted mean loss over the g-stream samples
        self.g = np.einsum("...mn,...mn->...m", self.wg, self.loss)[..., None]

    def reweighted(self, store: SampleStore) -> "ErmEvalPersonalized":
        return ErmEvalPersonalized(self.sm, store)

    def l_newest(self):
        return self.loss.take(self.xi_flat)  # one loss per (seed, agent) row

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

    def __init__(self, feats, labels, classes, lam, box):
        feats = np.asarray(feats, dtype=float)
        if lam < 0:
            raise ValueError("penalty weight must be nonnegative")
        if isinstance(classes, (bool, np.bool_)) or not float(classes).is_integer():
            raise ValueError(f"classes must be an integer, not {classes!r}")
        labels = np.asarray(labels)
        if feats.ndim != 3 or labels.shape != feats.shape[:2] or np.any(labels % 1):
            raise ValueError("feats must be (m, N, features), labels (m, N) integers")
        if not np.all((0 <= labels) & (labels < classes)):
            raise ValueError(f"labels must lie in [0, {classes})")
        self.m, self.N, self.dim = feats.shape
        self.K = int(classes)
        self.ni = self.K * self.dim
        self.r = 1
        self.lam = float(lam)
        self.feats = feats
        self.labels = labels.astype(int)
        self.onehot = np.zeros((self.m, self.N, self.K))
        np.put_along_axis(self.onehot, self.labels[:, :, None], 1.0, axis=2)
        self._set_box_and_index(box)

    @cached_property
    def label_flat(self):
        """(m, N) flat index of each sample's own logit in a (K, m, N) block."""
        m, N = self.m, self.N
        return self.labels * (m * N) + np.arange(m)[:, None] * N + np.arange(N)

    @cached_property
    def feats_tiled(self):
        """feats repeated K times along the feature axis, (m, N, K*d)."""
        return np.tile(self.feats, (1, 1, self.K))

    def new_store(self, data_rngs, batch: tuple = (), *,
                  horizon: int) -> SampleStore:
        bank = AgentBank(data_rngs, 2, "integers", high=self.N, horizon=horizon)
        return SampleStore(bank, batch, counts_f=(self.m, self.N),
                           counts_g=(self.m, self.N))

    def draw(self, store: SampleStore) -> None:
        # a chunk of rounds in fresh arrays: the (f, g) draws scatter as 0/1
        # hits onto the current counts, integer-valued floats that add exactly
        if not store.ahead:
            idx = store.bank.chunk(self.N)  # (k, rows, 2): each row's (f, g)
            k, rows = idx.shape[:2]
            flat = (idx + self.N * np.arange(rows)[:, None]).transpose(0, 2, 1)
            counts = np.zeros((k + 1, 2, rows * self.N))
            counts[0] = store.counts_f.reshape(-1), store.counts_g.reshape(-1)
            np.put_along_axis(counts[1:], flat, 1.0, axis=-1)
            for j in range(k):  # the cumsum as k adds: an axis-0 cumsum loops per count
                counts[j + 1] += counts[j]
            w = counts[1:] / (store.count + np.arange(1, k + 1))[:, None, None]
            shape = (k, 2) + store.batch + (self.m,)
            counts, w = (a.reshape(shape + (self.N,)) for a in (counts[1:], w))
            last = idx.transpose(0, 2, 1).reshape(shape).copy()
            xi_flat = flat.reshape(shape + (1,))[:, 1]
            store.ahead = list(zip(counts[:, 0], counts[:, 1], w[:, 0], w[:, 1],
                                   last[:, 0], last[:, 1], xi_flat))[::-1]
        (store.counts_f, store.counts_g, store.wf, store.wg,
         store.last_phi, store.last_xi, store.xi_flat) = store.ahead.pop()
        store.count += 1

    def erm_eval(self, store, Xown):
        return ErmEvalPersonalized(SoftmaxPass(self, Xown), store)

    # -- truth (population = uniform over the fixed dataset) ------------
    def g_true(self, Xown):
        return SoftmaxPass(self, Xown)._population()[1][..., None]

    def F_true(self, xown):
        sm = SoftmaxPass(self, xown.reshape(xown.shape[:-1] + (self.m, self.ni)))
        uni, G = sm._population()
        g = G.mean(axis=-1)[..., None, None]
        per_agent = np.einsum("...mn,...mn->...m", uni,
                              sm.loss + self.lam * (sm.loss - g) ** 2)
        return per_agent.sum(axis=-1)

    def grad_F_true(self, xown):
        sm = SoftmaxPass(self, xown.reshape(xown.shape[:-1] + (self.m, self.ni)))
        uni, G = sm._population()
        gradG = sm._own(np.einsum("...mn,...mnkd->...mkd", uni, sm.grad))
        g = G.mean(axis=-1)[..., None, None]
        scale = uni * (1.0 + 2.0 * self.lam * (sm.loss - g))
        gx = sm._own(np.einsum("...mn,...mnkd->...mkd", scale, sm.grad))
        dy_sum = np.sum(uni * (-2.0 * self.lam * (sm.loss - g)), axis=(-2, -1))
        grad = gx + (gradG / self.m) * dy_sum[..., None, None]
        return grad.reshape(xown.shape)


def make_personalized_problem(m, classes=5, features=2, lam=1.0,
                              dataset_size=32, box=(-1e6, 1e6), seed=0):
    """Synthetic Gaussian-cluster datasets with heterogeneous class mixtures.
    The defaults are those of a config problem block that omits the key.

    Agent i draws 60 % of its data from classes i mod K and 2i mod K and
    the rest uniformly from the other classes.
    """
    if min(classes, features, dataset_size) < 1:
        raise ValueError("classes, features and dataset_size must be at least 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7177])))
    centers = 1.5 * rng.standard_normal((classes, features))
    feats = np.empty((m, dataset_size, features))
    labels = np.empty((m, dataset_size), dtype=int)
    for i in range(m):
        primary = {i % classes, (2 * i) % classes}
        others = [k for k in range(classes) if k not in primary]
        for j in range(dataset_size):
            if rng.random() < 0.6 or not others:
                k = int(rng.choice(sorted(primary)))
            else:
                k = int(rng.choice(others))
            labels[i, j] = k
            feats[i, j] = centers[k] + rng.standard_normal(features)
    return PersonalizedProblem(feats, labels, classes, lam=lam, box=box)
