"""Stochastic problem families, streaming ERM sample stores, box projection.

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
personalized datasets); an O(t) full-recompute path over raw stored
samples is kept for equality testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedules import AgentBank


def project_box(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Componentwise clamp onto the product box; idempotent."""
    return np.clip(x, lo, hi)


class SampleStore:
    """Append-only per-run streaming sample state for all m agents.

    Family-specific sufficient statistics live in subclass fields; raw
    samples are retained only when keep_raw is set (used by the slow
    recompute path in tests -- O(t) memory and time).
    """

    def __init__(self, m: int, keep_raw: bool = False):
        self.m = m
        self.count = 0
        self.keep_raw = keep_raw
        self.raw_xi = [[] for _ in range(m)] if keep_raw else None
        self.raw_phi = [[] for _ in range(m)] if keep_raw else None
        self.last_xi = None
        self.last_phi = None

    @property
    def t(self) -> int:
        """Index of the newest sample; -1 when empty."""
        return self.count - 1


class ProblemInstance:
    """Common interface: dimensions, box, streaming oracles, truth oracles."""

    family = "abstract"

    m: int
    ni: int
    r: int
    box_lo: np.ndarray
    box_hi: np.ndarray
    own_index: tuple  # (rows, cols) of each agent's own block in X (m, n)

    @property
    def n(self) -> int:
        return self.m * self.ni

    def _set_own_index(self) -> None:
        rows = np.arange(self.m)[:, None]
        self.own_index = (rows, rows * self.ni + np.arange(self.ni)[None, :])

    def own_block(self, X: np.ndarray) -> np.ndarray:
        """Extract each agent's own block from stacked estimates X (m, n)."""
        return X[self.own_index]

    # -- streaming ------------------------------------------------------
    def new_store(self, keep_raw: bool = False) -> SampleStore:
        raise NotImplementedError

    def draw(self, store: SampleStore, data_rngs) -> None:
        """Acquire one (phi_i, xi_i) pair per agent and append to the store."""
        raise NotImplementedError

    def erm_eval(self, store: SampleStore, Xown: np.ndarray):
        """ERM oracle bundle at the agents' own points (fast path)."""
        raise NotImplementedError

    def erm_eval_slow(self, store: SampleStore, Xown: np.ndarray):
        """Full recomputation over raw stored samples; requires keep_raw."""
        if store.raw_xi is None:
            raise ValueError("slow path requires a store built with keep_raw=True")
        return self._erm_eval_from_raw(store, Xown)

    def _erm_eval_from_raw(self, store, Xown):
        raise NotImplementedError

    def sample_l_norm1(self, store: SampleStore, Xown: np.ndarray) -> np.ndarray:
        """||l(x_i; xi_i^t)||_1 at the newest sample, for the d_l audit."""
        raise NotImplementedError

    # -- truth ----------------------------------------------------------
    has_optimizer = False

    def g_true(self, Xown: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def F_true(self, xown: np.ndarray) -> float:
        """Population objective at x = col(x_1..x_m), additive constants dropped."""
        raise NotImplementedError

    def grad_F_true(self, xown: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class ErmEvalQuadratic:
    """Closed-form ERM quantities for the quadratic family at fixed points."""

    prob: "QuadraticProblem"
    Xown: np.ndarray
    xi_mean: np.ndarray
    phi_mean: np.ndarray
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        # g_i^t(x) = A_i x + b_i + mean(xi)
        self.g = (
            np.einsum("mrn,mn->mr", self.prob.A, self.Xown)
            + self.prob.b
            + self.xi_mean
        )

    def grad_f_y(self, Ytil: np.ndarray) -> np.ndarray:
        return self.prob.gamma * (Ytil - self.prob.d)

    def grad_f_x(self, Ytil: np.ndarray) -> np.ndarray:
        return self.prob.alpha * (self.Xown - self.prob.c - self.phi_mean)

    def grad_g_dot(self, Ztil: np.ndarray) -> np.ndarray:
        # nabla g_i^t = A_i^T (constant in x and data)
        return np.einsum("mrn,mr->mn", self.prob.A, Ztil)


class QuadraticStore(SampleStore):
    def __init__(self, m, r, ni, keep_raw=False):
        super().__init__(m, keep_raw)
        self.xi_sum = np.zeros((m, r))
        self.phi_sum = np.zeros((m, ni))
        # lockstep bank of standard normals over the data generators,
        # bound to the generators of the first draw
        self.normals = None


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
    def new_store(self, keep_raw: bool = False) -> QuadraticStore:
        return QuadraticStore(self.m, self.r, self.ni, keep_raw)

    def draw(self, store: QuadraticStore, data_rngs) -> None:
        if store.normals is None:
            store.normals = AgentBank(data_rngs, self.r + self.ni,
                                      "standard_normal")
        z = store.normals.next()
        xi = self.noise_std_g * z[:, :self.r]
        phi = self.noise_std_f * z[:, self.r:]
        store.xi_sum += xi
        store.phi_sum += phi
        store.last_xi, store.last_phi = xi, phi
        if store.keep_raw:
            for i in range(self.m):
                store.raw_xi[i].append(xi[i])
                store.raw_phi[i].append(phi[i])
        store.count += 1

    def erm_eval(self, store: QuadraticStore, Xown: np.ndarray) -> ErmEvalQuadratic:
        if store.count < 1:
            raise ValueError("empty sample store")
        return ErmEvalQuadratic(
            prob=self,
            Xown=Xown,
            xi_mean=store.xi_sum / store.count,
            phi_mean=store.phi_sum / store.count,
        )

    def _erm_eval_from_raw(self, store, Xown):
        xi_mean = np.stack([np.mean(store.raw_xi[i], axis=0) for i in range(self.m)])
        phi_mean = np.stack([np.mean(store.raw_phi[i], axis=0) for i in range(self.m)])
        return ErmEvalQuadratic(prob=self, Xown=Xown, xi_mean=xi_mean, phi_mean=phi_mean)

    def sample_l_norm1(self, store, Xown):
        l = np.einsum("mrn,mn->mr", self.A, Xown) + self.b + store.last_xi
        return np.abs(l).sum(axis=1)

    # -- per-sample primitives (slow path / finite differences) --------
    def l_value(self, i, x, xi):
        return self.A[i] @ x + self.b[i] + xi

    def h_value(self, i, x, y, phi):
        return (
            0.5 * self.alpha * np.sum((x - self.c[i] - phi) ** 2)
            + 0.5 * self.gamma * np.sum((y - self.d[i]) ** 2)
        )

    # -- truth ----------------------------------------------------------
    def g_true(self, Xown: np.ndarray) -> np.ndarray:
        return np.einsum("mrn,mn->mr", self.A, Xown) + self.b

    def _aggregate(self, xown: np.ndarray) -> np.ndarray:
        Xown = xown.reshape(self.m, self.ni)
        return self.g_true(Xown).mean(axis=0)

    def F_true(self, xown: np.ndarray) -> float:
        Xown = xown.reshape(self.m, self.ni)
        u = self._aggregate(xown)
        own = 0.5 * self.alpha * np.sum((Xown - self.c) ** 2)
        agg = 0.5 * self.gamma * np.sum((u - self.d) ** 2)
        return float(own + agg)

    def grad_F_true(self, xown: np.ndarray) -> np.ndarray:
        Xown = xown.reshape(self.m, self.ni)
        u = self._aggregate(xown)
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
    def __init__(self, m, dataset_size, keep_raw=False):
        super().__init__(m, keep_raw)
        self.counts_f = np.zeros((m, dataset_size))
        self.counts_g = np.zeros((m, dataset_size))


class ErmEvalPersonalized:
    """One softmax forward/backward pass shared by all ERM quantities."""

    def __init__(self, prob, store, Xown):
        self.prob = prob
        W = Xown.reshape(prob.m, prob.K, prob.dim)
        logits = np.einsum("mnd,mkd->mnk", prob.feats, W)
        lmax = logits.max(axis=2, keepdims=True)
        ex = np.exp(logits - lmax)
        Zs = ex.sum(axis=2)
        p = ex / Zs[:, :, None]
        lse = np.log(Zs) + lmax[:, :, 0]
        own_logit = np.take_along_axis(logits, prob.labels[:, :, None], axis=2)[:, :, 0]
        self.loss = lse - own_logit                      # (m, N) per-sample L
        resid = p.copy()
        np.put_along_axis(resid, prob.labels[:, :, None],
                          np.take_along_axis(resid, prob.labels[:, :, None], axis=2) - 1.0,
                          axis=2)
        self.grad = np.einsum("mnk,mnd->mnkd", resid, prob.feats)  # (m,N,K,d)
        cnt = max(store.count, 1)
        self.wf = store.counts_f / cnt
        self.wg = store.counts_g / cnt
        # g_i^t(x): multiplicity-weighted mean loss over the g-stream samples
        self.g = np.einsum("mn,mn->m", self.wg, self.loss)[:, None]

    def grad_f_y(self, Ytil):
        lbar = np.einsum("mn,mn->m", self.wf, self.loss)[:, None]
        return -2.0 * self.prob.lam * (lbar - Ytil)

    def grad_f_x(self, Ytil):
        scale = self.wf * (1.0 + 2.0 * self.prob.lam * (self.loss - Ytil))
        out = np.einsum("mn,mnkd->mkd", scale, self.grad)
        return out.reshape(self.prob.m, self.prob.ni)

    def grad_g_dot(self, Ztil):
        gg = np.einsum("mn,mnkd->mkd", self.wg, self.grad).reshape(self.prob.m, self.prob.ni)
        return gg * Ztil  # r = 1: scalar tracker per agent

    # uniform-weight variants used by the truth oracle
    def _population(self):
        N = self.prob.N
        uni = np.full_like(self.wf, 1.0 / N)
        G = np.einsum("mn,mn->m", uni, self.loss)
        gradG = np.einsum("mn,mnkd->mkd", uni, self.grad).reshape(self.prob.m, self.prob.ni)
        return G, gradG, uni


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
        lo, hi = box
        self.box_lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.n,)).copy()
        self.box_hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.n,)).copy()
        self._set_own_index()

    def new_store(self, keep_raw: bool = False) -> PersonalizedStore:
        return PersonalizedStore(self.m, self.N, keep_raw)

    def draw(self, store: PersonalizedStore, data_rngs) -> None:
        idx_f = np.array([int(data_rngs[i].integers(self.N)) for i in range(self.m)])
        idx_g = np.array([int(data_rngs[i].integers(self.N)) for i in range(self.m)])
        store.counts_f[np.arange(self.m), idx_f] += 1
        store.counts_g[np.arange(self.m), idx_g] += 1
        store.last_phi, store.last_xi = idx_f, idx_g
        if store.keep_raw:
            for i in range(self.m):
                store.raw_phi[i].append(idx_f[i])
                store.raw_xi[i].append(idx_g[i])
        store.count += 1

    def erm_eval(self, store, Xown):
        if store.count < 1:
            raise ValueError("empty sample store")
        return ErmEvalPersonalized(self, store, Xown)

    def _erm_eval_from_raw(self, store, Xown):
        # rebuild multiplicity counts from the raw index lists
        rebuilt = PersonalizedStore(self.m, self.N)
        rebuilt.count = store.count
        for i in range(self.m):
            for j in store.raw_phi[i]:
                rebuilt.counts_f[i, j] += 1
            for j in store.raw_xi[i]:
                rebuilt.counts_g[i, j] += 1
        return ErmEvalPersonalized(self, rebuilt, Xown)

    def sample_l_norm1(self, store, Xown):
        ev = ErmEvalPersonalized(self, store, Xown)
        return np.abs(ev.loss[np.arange(self.m), store.last_xi])

    # -- per-sample primitives ------------------------------------------
    def _sample_loss_grad(self, i, x, idx):
        W = x.reshape(self.K, self.dim)
        f = self.feats[i, idx]
        logits = W @ f
        lmax = logits.max()
        ex = np.exp(logits - lmax)
        p = ex / ex.sum()
        L = np.log(ex.sum()) + lmax - logits[self.labels[i, idx]]
        resid = p.copy()
        resid[self.labels[i, idx]] -= 1.0
        return L, np.outer(resid, f).reshape(self.ni)

    def l_value(self, i, x, idx):
        return np.array([self._sample_loss_grad(i, x, idx)[0]])

    def h_value(self, i, x, y, idx):
        L, _ = self._sample_loss_grad(i, x, idx)
        return L + self.lam * float((L - y) ** 2)

    # -- truth (population = uniform over the fixed dataset) ------------
    def g_true(self, Xown):
        dummy = self.new_store()
        dummy.count = 1
        ev = ErmEvalPersonalized(self, dummy, Xown)
        G, _, _ = ev._population()
        return G[:, None]

    def _population_eval(self, xown):
        Xown = xown.reshape(self.m, self.ni)
        dummy = self.new_store()
        dummy.count = 1
        ev = ErmEvalPersonalized(self, dummy, Xown)
        G, gradG, uni = ev._population()
        return ev, G, gradG, uni

    def F_true(self, xown):
        ev, G, _, uni = self._population_eval(xown)
        g = G.mean()
        per_agent = np.einsum("mn,mn->m", uni, ev.loss + self.lam * (ev.loss - g) ** 2)
        return float(per_agent.sum())

    def grad_F_true(self, xown):
        ev, G, gradG, uni = self._population_eval(xown)
        g = G.mean()
        scale = uni * (1.0 + 2.0 * self.lam * (ev.loss - g))
        gx = np.einsum("mn,mnkd->mkd", scale, ev.grad).reshape(self.m, self.ni)
        dy_sum = float(np.sum(uni * (-2.0 * self.lam * (ev.loss - g))))
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
