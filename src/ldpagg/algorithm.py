"""Iteration loops for the LDP aggregative-tracking algorithm and a
conventional gradient-tracking baseline.

One call advances a batch of S seeds through one Python loop. State is
stacked across seeds and agents: X is (S, m, n) (each agent carries a
full-network estimate), trackers Y and Z are (S, m, r). All cross-agent
reads go through BroadcastFrame, which holds the obscured values
state + Laplace noise; raw peer state is never consumed. Rounds are
synchronous: every agent reads the iteration-t frame and writes the
iteration-(t+1) frame.

Random streams: every (seed, agent, tag) triple has its own generator
from agent_rng (tags theta, chi, zeta for the x, y, z noise, data for
the samples, init for the start point; the baseline prefixes
"baseline-"). Each noise tag and the data tag is drawn through one
lockstep AgentBank over the S*m generators, whose row (s, i) (flat row
s*m + i) is agent i's stream under seed s: uniforms for the noise,
standard normals for the quadratic data, and the (f, g) sample indices
for the personalized data. All banks advance by one (S*m, dim) draw per
round, so a round's frame and samples for every agent of every seed are
built at once while each agent's values stay those of its own stream.

Seeds never mix: every batched operation gives each seed's slice bitwise
what the one-seed call gives it, so a seed's RunRecord does not depend on
the batch it ran in. A seed whose state goes non-finite stops recording
at that iteration; its rows stay in the batch arrays, where its
non-finite values reach no other seed, and the others continue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import metric_eval, sampling_grid
from .schedules import AgentBank, LaplaceParams, agent_rng, laplace_from_uniform


@dataclass
class BroadcastFrame:
    """Obscured per-agent messages for one round; the only sharable values."""

    x: np.ndarray  # (S, m, n); (m, n) in a seed's record
    y: np.ndarray  # (S, m, r)
    z: np.ndarray  # (S, m, r)
    noise_x: np.ndarray = None
    noise_y: np.ndarray = None
    noise_z: np.ndarray = None

    def row(self, k):
        """Batch row k of this frame as a one-seed frame (views)."""
        return BroadcastFrame(*(None if a is None else a[k] for a in (
            self.x, self.y, self.z, self.noise_x, self.noise_y, self.noise_z)))


@dataclass
class RunRecord:
    """Sampled metric series plus final state for one seeded run."""

    ts: np.ndarray
    columns: dict
    final_x: np.ndarray
    final_y: np.ndarray
    final_z: np.ndarray
    master_seed: int
    baseline: bool = False
    aborted_at: int | None = None
    z_norm_max: np.ndarray = None       # per-agent sup_t ||z_i^t||_2
    l_norm1_max: np.ndarray = None      # per-agent sampled sup ||l||_1
    frames: list = field(default_factory=list)
    states: list = field(default_factory=list)  # (X, Y, Z) per emitted frame


class _AgentStreams:
    """Per-(seed, agent) generators, independently seeded, one seed-major
    list per stream tag: entry s*m + i is agent i's under seeds[s]."""

    def __init__(self, seeds, m, prefix=""):
        self.seeds = [int(s) for s in (seeds if np.iterable(seeds) else [seeds])]

        def rngs(tag):
            return [agent_rng(s, i, prefix + tag)
                    for s in self.seeds for i in range(m)]
        self.theta = rngs("theta")
        self.chi = rngs("chi")
        self.zeta = rngs("zeta")
        self.data = rngs("data")
        self.init = rngs("init")


def _check_agents(problem, topology, schedules):
    if topology.m != problem.m:
        raise ValueError("topology and problem disagree on the agent count")
    if schedules.m != problem.m:
        raise ValueError("noise schedules and problem disagree on the agent count")


def _split_weights(topology):
    W = np.asarray(topology.weights, dtype=float)
    W0 = W.copy()
    np.fill_diagonal(W0, 0.0)
    return W0, np.diag(W).copy()


def _consensus(W0, diagw, hat, raw):
    # sum_{j in N_i} w_ij (hat_j - raw_i), using the zero-sum identity;
    # W0 @ hat multiplies each seed's (m, .) slice of a batch
    return W0 @ hat + diagw[:, None] * raw


def _init_x(problem, rngs, init_radius):
    """Uniform random start in the box truncated to +-init_radius, (S, m, n)."""
    lo = np.maximum(problem.box_lo, -init_radius)
    hi = np.minimum(problem.box_hi, init_radius)
    U = np.array([rng.random(problem.n) for rng in rngs])
    return (lo + (hi - lo) * U).reshape(-1, problem.m, problem.n)


class _Batch:
    """What both drivers share for one batch of seeds: the agent-count
    check, weights, streams, noise banks, sample store, start point and
    grid, plus each seed's metric rows, frames, final state and abort
    iteration. Batch row s is seeds[s]; alive[s] turns false when that
    seed goes non-finite."""

    def __init__(self, problem, topology, schedules, T, seeds, prefix,
                 x0, init_radius, grid, record_frames):
        _check_agents(problem, topology, schedules)
        m, n, r = problem.m, problem.n, problem.r
        self.W0, self.diagw = _split_weights(topology)
        streams = _AgentStreams(seeds, m, prefix)
        self.seeds = streams.seeds
        S = len(self.seeds)
        self.data = streams.data
        # one lockstep bank per noise tag plus the per-agent Laplace
        # parameters; bank draws are views that the next refill overwrites
        self.noise = tuple(
            (AgentBank(rngs, dim), LaplaceParams(sched), dim)
            for rngs, sched, dim in ((streams.theta, schedules.noise_x, n),
                                     (streams.chi, schedules.noise_y, r),
                                     (streams.zeta, schedules.noise_z, r)))
        self.store = problem.new_store(batch=(S,))
        X = _init_x(problem, streams.init, init_radius) if x0 is None \
            else np.broadcast_to(np.asarray(x0, dtype=float), (S, m, n))
        self.X0 = np.clip(X, problem.box_lo, problem.box_hi)
        if grid is None:
            grid = sampling_grid(T)
        self.grid = set(int(g) for g in np.asarray(grid, dtype=int))
        self.record_frames = record_frames
        self.alive = np.ones(S, dtype=bool)
        self.rows = [[] for _ in range(S)]
        self.frames = [[] for _ in range(S)]
        self.states = [[] for _ in range(S)]
        self.final = [None] * S
        self.aborted_at = [None] * S

    def draw_frame(self, X, Y, Z, t):
        """The broadcast frame of the iteration-t state, for every seed and
        agent at once (recorded per live seed when record_frames is set)."""
        shape = X.shape[:-1]  # (S, m)
        Tx, Ty, Tz = (laplace_from_uniform(
            bank.draw_centered().reshape(shape + (dim,)), nu.at(t))
            for bank, nu, dim in self.noise)
        frame = BroadcastFrame(x=X + Tx, y=Y + Ty, z=Z + Tz)
        if self.record_frames:
            frame.noise_x, frame.noise_y, frame.noise_z = Tx, Ty, Tz
            for s in np.flatnonzero(self.alive):
                self.frames[s].append(frame.row(s))
                self.states[s].append((X[s].copy(), Y[s].copy(), Z[s].copy()))
        return frame

    def retire_nonfinite(self, t, X, Y, Z, on_nonfinite="record"):
        """End the live seeds whose state went non-finite at iteration t,
        keeping that state and t for their records (on_nonfinite "raise"
        raises instead). Returns whether any seed is still alive."""
        total = X.sum(axis=(1, 2)) + Y.sum(axis=(1, 2)) + Z.sum(axis=(1, 2))
        bad = self.alive & ~np.isfinite(total)
        for s in np.flatnonzero(bad):
            if on_nonfinite == "raise":
                raise FloatingPointError(
                    f"seed {self.seeds[s]}: non-finite state at iteration "
                    f"{t}; reduce the initial stepsizes")
            self.final[s] = (X[s], Y[s], Z[s])
            self.aborted_at[s] = t
        self.alive &= ~bad
        return self.alive.any()

    def records(self, X, Y, Z, baseline=False, z_max=None, l_max=None):
        """One RunRecord per seed, in seed order; X, Y, Z is the final
        state of the seeds still alive."""
        for s in np.flatnonzero(self.alive):
            self.final[s] = (X[s], Y[s], Z[s])
        out = []
        for s, seed in enumerate(self.seeds):
            rows = self.rows[s]
            keys = [c for c in rows[0] if c != "t"] if rows else []
            fx, fy, fz = self.final[s]
            out.append(RunRecord(
                ts=np.array([row["t"] for row in rows]),
                columns={c: np.array([row[c] for row in rows]) for c in keys},
                final_x=fx, final_y=fy, final_z=fz, master_seed=seed,
                baseline=baseline, aborted_at=self.aborted_at[s],
                z_norm_max=None if z_max is None else z_max[s],
                l_norm1_max=None if l_max is None else l_max[s],
                frames=self.frames[s], states=self.states[s]))
        return out


def iterate(X, Y, Z, frame, t, schedules, W0, diagw, problem, store):
    """One synchronous round of the main algorithm (order y -> z -> x).

    State is (S, m, .) for a batch of seeds or (m, .) for one. frame
    carries the iteration-t obscured values; the caller has drawn the
    round's (phi, xi) pair into the store. Returns the new (X, Y, Z).
    Frame emission is handled by the caller.
    """
    lam_y = schedules.lambda_y.value(t)
    lam_z = schedules.lambda_z.value(t)
    lam_x = schedules.lambda_x.value(t)
    Xown = problem.own_block(X)
    ev = problem.erm_eval(store, Xown)

    Y_new = Y + _consensus(W0, diagw, frame.y, Y) + lam_y * ev.g
    Ytil = (Y_new - Y) / lam_y
    Z_new = Z + _consensus(W0, diagw, frame.z, Z) + lam_z * ev.grad_f_y(Ytil)
    Ztil = (Z_new - Z) / lam_z

    grad_own = ev.grad_f_x(Ytil) + ev.grad_g_dot(Ztil)
    U = np.zeros_like(X)
    U[problem.own_index] = grad_own
    X_new = np.clip(X + _consensus(W0, diagw, frame.x, X) - lam_x * U,
                    problem.box_lo, problem.box_hi)
    return X_new, Y_new, Z_new


def run_seeds(problem, topology, schedules, T, seeds, x0=None,
              init_radius=10.0, record_frames=False, grid=None,
              on_nonfinite="raise"):
    """Drive T rounds for every seed in seeds at once and record metrics
    on a log sampling grid; returns one RunRecord per seed, in order.

    Each record is bitwise the one that seed gives run alone. x0, an
    (m, n) start shared by all seeds, replaces the random start.
    Non-finite state aborts with the offending seed and iteration
    (on_nonfinite "record" instead ends that seed's record there, sets
    its aborted_at and keeps running the others).
    """
    b = _Batch(problem, topology, schedules, T, seeds, "", x0, init_radius,
               grid, record_frames)
    S, m, n, r = len(b.seeds), problem.m, problem.n, problem.r
    X = b.X0
    Y = np.zeros((S, m, r))
    Z = np.zeros((S, m, r))
    x_star = problem.x_star if problem.has_optimizer else None
    F_star = problem.F_star if problem.has_optimizer else None
    z_max = np.zeros((S, m))
    l_max = np.zeros((S, m))
    fgap_sum = np.zeros(S)

    def emit(t):
        """Frame and metrics of the iteration-t state."""
        if F_star is not None:
            fgap_sum[:] += problem.F_true(
                problem.own_block(X).reshape(S, n)) - F_star
        frame = b.draw_frame(X, Y, Z, t)
        if t in b.grid:
            if b.store.count > 0:
                np.maximum(l_max, problem.sample_l_norm1(
                    b.store, problem.own_block(X)), out=l_max, where=live_rows)
            for s in np.flatnonzero(b.alive):
                row = metric_eval(problem, X[s], Y[s], Z[s], t,
                                  x_star=x_star, F_star=F_star)
                if F_star is not None:
                    row["F_gap_runmean"] = fgap_sum[s] / (t + 1)
                b.rows[s].append(row)
        return frame

    live_rows = b.alive[:, None]  # a view: follows b.alive
    frame = emit(0)
    for t in range(T):
        problem.draw(b.store, b.data)
        X, Y, Z = iterate(X, Y, Z, frame, t, schedules, b.W0, b.diagw,
                          problem, b.store)
        if not b.retire_nonfinite(t + 1, X, Y, Z, on_nonfinite):
            break
        # ||z_i||_2 as np.linalg.norm computes it, without its dispatch
        np.maximum(z_max, np.sqrt((Z * Z).sum(axis=-1)), out=z_max,
                   where=live_rows)
        frame = emit(t + 1)
    return b.records(X, Y, Z, z_max=z_max, l_max=l_max)


def run(problem, topology, schedules, T, master_seed, **kwargs):
    """One seed: the S = 1 call of run_seeds (same keyword arguments)."""
    return run_seeds(problem, topology, schedules, T, [master_seed], **kwargs)[0]


def baseline_seeds(problem, topology, schedules, T, seeds, x0=None,
                   init_radius=10.0, grid=None, record_frames=False):
    """Conventional gradient-tracking template with DP noise on every
    shared variable and constant stepsizes, for every seed in seeds at
    once; returns one RunRecord per seed, bitwise what it gives alone.

    Trackers follow the standard form
    s' = sum_j (I+W)_ij (s_j + noise) + g_i^t(x') - g_i^t(x)
    (written below via the zero-sum consensus identity), so injected
    noise accumulates in the tracked aggregate instead of being damped.
    Divergence is recorded per seed, not raised; it is the expected
    phenomenon.
    """
    b = _Batch(problem, topology, schedules, T, seeds, "baseline-", x0,
               init_radius, grid, record_frames)
    X = b.X0
    store = b.store
    problem.draw(store, b.data)
    ev = problem.erm_eval(store, problem.own_block(X))
    G = ev.g.copy()  # aggregate tracker
    Q = ev.grad_f_y(G)

    lam = schedules.lambda_x.lambda0  # constant stepsize, no decay
    x_star = problem.x_star if problem.has_optimizer else None
    F_star = problem.F_star if problem.has_optimizer else None

    def emit(t):
        """Frame and metrics of the iteration-t state."""
        frame = b.draw_frame(X, G, Q, t)
        if t in b.grid:
            gbar = problem.g_true(problem.own_block(X)).mean(axis=-2)
            for s in np.flatnonzero(b.alive):
                row = metric_eval(problem, X[s], G[s], Q[s], t,
                                  x_star=x_star, F_star=F_star)
                row["tracker_err"] = float(np.sum((G[s] - gbar[s]) ** 2))
                b.rows[s].append(row)
        return frame

    frame = emit(0)
    for t in range(T):
        # ev is the oracle at X: last round's ev2, reweighted after the draw
        if store.count == t:
            problem.draw(store, b.data)
            ev = ev.reweighted(store)
        grad_own = ev.grad_f_x(G) + ev.grad_g_dot(Q)
        U = np.zeros_like(X)
        U[problem.own_index] = grad_own
        X_new = np.clip(X + _consensus(b.W0, b.diagw, frame.x, X) - lam * U,
                        problem.box_lo, problem.box_hi)
        ev2 = problem.erm_eval(store, problem.own_block(X_new))
        G_new = G + _consensus(b.W0, b.diagw, frame.y, G) + ev2.g - ev.g
        Q_new = Q + _consensus(b.W0, b.diagw, frame.z, Q) \
            + ev2.grad_f_y(G_new) - ev.grad_f_y(G)
        X, G, Q, ev = X_new, G_new, Q_new, ev2
        if not b.retire_nonfinite(t + 1, X, G, Q):
            break
        frame = emit(t + 1)
    return b.records(X, G, Q, baseline=True)


def baseline_gradient_tracking(problem, topology, schedules, T, master_seed,
                               **kwargs):
    """One seed: the S = 1 call of baseline_seeds (same keyword arguments)."""
    return baseline_seeds(problem, topology, schedules, T, [master_seed],
                          **kwargs)[0]
