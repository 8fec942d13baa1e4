"""Iteration loops for the LDP aggregative-tracking algorithm and a
conventional gradient-tracking baseline.

One call advances a batch of S seeds through one Python loop. State is
stacked across seeds and agents: X is (S, m, n) (each agent carries a
full-network estimate), trackers Y and Z are (S, m, r). All cross-agent
reads go through BroadcastFrame, which holds the obscured values
state + Laplace noise; raw peer state is never consumed. Rounds are
synchronous: every agent reads the iteration-t frame and writes the
iteration-(t+1) frame.

Both drivers run one round loop, _Batch.drive, with their own step
(iterate, or the gradient-tracking update) and observers. An observer
obs(t, state, frame, ev, alive) sees each emitted frame, t = 0..T: the
iteration-t state (X, Y, Z), its broadcast frame, the ERM oracle bundle
ev the round's step built at that state (at t = T the bundle carried to
it, None for the main algorithm) and the live-seed mask; callers add
theirs through observers=. The round works in place only on arrays it
has just allocated (a frame in the fresh noise slabs the banks hand out
once), so an emitted state or frame is never written again and may be
kept uncopied. The built-in observers never feed back into the
iteration, so none reduces per round and seed: the metric columns come
from one batched metric_eval call per grid point (the baseline's
tracker error likewise), and run_seeds copies each round's own blocks,
z and l into buffers to reduce the F_gap running mean and the z/l
premise audit once per chunk of rounds.

Random streams: every (seed, agent, tag) triple has its own generator
from agent_rng (tags theta, chi, zeta for the x, y, z noise, data for
the samples, init for the start point; the baseline prefixes
"baseline-"). Each tag is drawn through one lockstep bank over the S*m
generators, a NoiseBank per noise tag and the sample store's AgentBank
for the data; row s*m + i of a bank is agent i's stream under seed s,
and every bank advances one draw per round.

Seeds never mix: every batched operation gives each seed's slice bitwise
what the one-seed call gives it, so a seed's RunRecord does not depend on
the batch it ran in. A seed whose state goes non-finite stops recording
at that iteration, which its record keeps as aborted_at; its rows stay in
the batch arrays, where its non-finite values reach no other seed, and
the others continue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import metric_eval, sampling_grid
from .schedules import NoiseBank, agent_rng


@dataclass
class BroadcastFrame:
    """Obscured per-agent messages for one round; the only sharable values."""

    x: np.ndarray  # (S, m, n)
    y: np.ndarray  # (S, m, r)
    z: np.ndarray  # (S, m, r)


@dataclass
class RunRecord:
    """Sampled metric series plus final state for one seeded run."""

    ts: np.ndarray
    columns: dict
    final_x: np.ndarray
    final_y: np.ndarray
    final_z: np.ndarray
    master_seed: int
    aborted_at: int | None = None
    z_norm_max: np.ndarray = None       # per-agent sup_t ||z_i^t||_2
    l_norm1_max: np.ndarray = None      # per-agent sup_{t<T} ||l(x_i^t; xi_i^t)||_1


def _split_weights(topology):
    W = np.asarray(topology.weights, dtype=float)
    return W - np.diag(np.diag(W)), np.diag(W).copy()  # off-diagonal, diagonal


def _consensus(W0, diagw, hat, raw):
    # sum_{j in N_i} w_ij (hat_j - raw_i), using the zero-sum identity;
    # W0 @ hat multiplies each seed's (m, .) slice of a batch
    return W0 @ hat + diagw[:, None] * raw


def _descend(problem, W0, diagw, X, frame_x, lam, grad_own):
    """clip(X + (W0 @ frame_x + diagw X) - lam U, lo, hi) in one fresh
    array, U being grad_own on the own blocks and 0 elsewhere; v - lam * 0.0
    is v bitwise, so only the own blocks are stepped."""
    out = np.matmul(W0, frame_x)
    out += diagw[:, None] * X
    out += X
    out.reshape(out.shape[:-2] + (-1,))[..., problem.own_flat] -= lam * grad_own
    return np.clip(out, problem.box_lo, problem.box_hi, out=out)


class _Batch:
    """What both drivers share for one batch of seeds: the set-up, the
    round loop and what it records (metric columns, final states, aborts).
    Batch row s is seeds[s]; alive[s] turns false when that seed goes
    non-finite."""

    def __init__(self, problem, topology, schedules, T, seeds, prefix,
                 x0, init_radius):
        m, n, r = problem.m, problem.n, problem.r
        if topology.m != m:
            raise ValueError("topology and problem disagree on the agent count")
        if schedules.m != m:
            raise ValueError("noise schedules and problem disagree on the agent count")
        self.problem, self.T = problem, T
        self.W0, self.diagw = _split_weights(topology)
        self.seeds = [int(s) for s in seeds]
        S = len(self.seeds)

        def rngs(tag):
            # independently seeded, seed-major: entry s*m + i is agent i's
            # generator under seeds[s]
            return [agent_rng(s, i, prefix + tag)
                    for s in self.seeds for i in range(m)]
        # one lockstep bank per noise tag; its round counter is the clock
        self.noise = tuple(
            NoiseBank(rngs(tag), sched, dim)
            for tag, sched, dim in (("theta", schedules.noise_x, n),
                                    ("chi", schedules.noise_y, r),
                                    ("zeta", schedules.noise_z, r)))
        self.store = problem.new_store(rngs("data"), batch=(S,))
        if x0 is None:
            # uniform in the box truncated to +-init_radius
            lo = np.maximum(problem.box_lo, -init_radius)
            hi = np.minimum(problem.box_hi, init_radius)
            U = np.array([rng.random(n) for rng in rngs("init")])
            X = (lo + (hi - lo) * U).reshape(S, m, n)
        else:
            X = np.broadcast_to(np.asarray(x0, dtype=float), (S, m, n))
        self.X0 = np.clip(X, problem.box_lo, problem.box_hi)
        self.grid = set(sampling_grid(T).tolist())
        self.alive = np.ones(S, dtype=bool)
        self.cols = []  # per grid point: column name -> (S,) values
        self.n_rows = np.zeros(S, dtype=int)
        self.final, self.aborted_at = [None] * S, [None] * S

    def draw_frame(self, X, Y, Z):
        """The broadcast frame of the next round's state, for every seed
        and agent at once; the noise banks count the rounds."""
        Tx, Ty, Tz = (bank.next().reshape(A.shape)
                      for bank, A in zip(self.noise, (X, Y, Z)))
        Tx += X  # the noise slabs are fresh: add the state in place
        Ty += Y
        Tz += Z
        return BroadcastFrame(x=Tx, y=Ty, z=Tz)

    def retire_nonfinite(self, t, X, Y, Z):
        """End the live seeds whose state went non-finite at iteration t,
        keeping that state and t for their records. Returns whether any
        seed is still alive."""
        total = X.sum(axis=(1, 2)) + Y.sum(axis=(1, 2)) + Z.sum(axis=(1, 2))
        bad = self.alive & ~np.isfinite(total)
        for s in np.flatnonzero(bad):
            self.final[s] = (X[s], Y[s], Z[s])
            self.aborted_at[s] = t
        self.alive &= ~bad
        return self.alive.any()

    def drive(self, step, state, ev, observers):
        """The round loop of both drivers; returns the last state. Round t
        draws the frame of the iteration-t state, advances it with
        step(t, state, frame, ev) -> (new state, bundle built at state,
        bundle carried to the new state or None) and calls the observers;
        it stops early once every seed has gone non-finite."""
        for t in range(self.T):
            frame = self.draw_frame(*state)
            new, ev_t, ev = step(t, state, frame, ev)
            for obs in observers:
                obs(t, state, frame, ev_t, self.alive)
            state = new
            if not self.retire_nonfinite(t + 1, *state):
                return state
        frame = self.draw_frame(*state)
        for obs in observers:
            obs(self.T, state, frame, ev, self.alive)
        return state

    def metric_rows(self, t, state, frame, ev, alive):
        """Observer: every seed's metric columns at the grid points (one
        metric_eval call), which column observers listed after it extend."""
        if t in self.grid:
            self.cols.append(metric_eval(self.problem, *state, t))
            self.n_rows += alive

    def records(self, state, z_max=None, l_max=None):
        """One RunRecord per seed, in seed order; state is the final
        (X, Y, Z) of the seeds still alive."""
        for s in np.flatnonzero(self.alive):
            self.final[s] = tuple(a[s] for a in state)
        cols = {c: np.array([g[c] for g in self.cols]) for c in self.cols[0]}
        out = []
        for s, (seed, n) in enumerate(zip(self.seeds, self.n_rows)):
            fx, fy, fz = self.final[s]
            out.append(RunRecord(
                ts=cols["t"][:n, s],  # a seed's rows end where it leaves
                columns={c: v[:n, s] for c, v in cols.items() if c != "t"},
                final_x=fx, final_y=fy, final_z=fz, master_seed=seed,
                aborted_at=self.aborted_at[s],
                z_norm_max=None if z_max is None else z_max[s],
                l_norm1_max=None if l_max is None else l_max[s]))
        return out


def iterate(X, Y, Z, frame, t, schedules, W0, diagw, problem, ev):
    """One synchronous round of the main algorithm (order y -> z -> x).

    State is (S, m, .) for a batch of seeds or (m, .) for one. frame
    carries the iteration-t obscured values and ev is the ERM oracle at
    the agents' own points against the round's samples. Returns the new
    (X, Y, Z).
    """
    lam_y = schedules.lambda_y.value(t)
    lam_z = schedules.lambda_z.value(t)
    Y_new = Y + _consensus(W0, diagw, frame.y, Y) + lam_y * ev.g
    Ytil = (Y_new - Y) / lam_y
    Z_new = Z + _consensus(W0, diagw, frame.z, Z) + lam_z * ev.grad_f_y(Ytil)
    Ztil = (Z_new - Z) / lam_z
    grad_own = ev.grad_f_x(Ytil) + ev.grad_g_dot(Ztil)
    X_new = _descend(problem, W0, diagw, X, frame.x,
                     schedules.lambda_x.value(t), grad_own)
    return X_new, Y_new, Z_new


def run_seeds(problem, topology, schedules, T, seeds, x0=None,
              init_radius=10.0, observers=()):
    """Drive T rounds for every seed in seeds at once and record metrics
    on a log sampling grid; returns one RunRecord per seed, in order (see
    the module docstring). x0, an (m, n) start shared by all seeds,
    replaces the random start; observers are called after the built-in
    ones."""
    b = _Batch(problem, topology, schedules, T, seeds, "", x0, init_radius)
    S, m, n, r = len(b.seeds), problem.m, problem.n, problem.r
    top = np.zeros((2, S, m))  # per agent: sup ||z_i||_2, sup ||l_i||_1
    fgap_sum = np.zeros(S)
    k = max(1, NoiseBank._CHUNK // (S * n))  # rounds per flush
    own, Z, l = np.empty((k, S, n)), np.empty((k, S, m, r)), np.empty((k, S, m, r))
    live, grid_cols, kept = np.empty((k, S, 1), dtype=bool), [], 0

    def step(t, state, frame, _):
        problem.draw(b.store)
        ev = problem.erm_eval(b.store, problem.own_block(state[0]))
        return iterate(*state, frame, t, schedules, b.W0, b.diagw, problem,
                       ev), ev, None

    def keep(t, state, frame, ev, alive):
        """Observer: copy what flush needs of round t (l is 0 at t = T)."""
        nonlocal kept
        own[kept] = problem.own_block(state[0]).reshape(S, n)
        Z[kept] = state[2]
        l[kept] = 0.0 if ev is None else ev.l_newest()
        live[kept, :, 0] = alive
        if t in b.grid:
            grid_cols.append((kept, t, b.cols[-1]))
        kept += 1
        if kept == k:
            flush()

    def flush():
        """The kept rounds at once: the z/l premise suprema on the live
        seeds, and the F_gap running sum with its mean on the grid."""
        nonlocal kept
        z = Z[:kept]
        # ||z_i||_2 as np.linalg.norm computes it, without its dispatch;
        # a max is exact in any order, so one reduction serves the chunk
        norms = np.array([np.sqrt((z * z).sum(axis=-1)),
                          np.abs(l[:kept]).sum(axis=-1)])
        np.maximum(top, norms.max(axis=1, where=live[:kept], initial=0.0),
                   out=top)
        if problem.has_optimizer:
            # one F_true call on the (kept, S, n) own blocks; cumsum adds
            # in the order of a per-round +=
            gap = problem.F_true(own[:kept]) - problem.F_star
            run = np.cumsum(np.vstack([fgap_sum, gap]), axis=0)[1:]
            fgap_sum[:] = run[-1]
            for i, t, cols in grid_cols:
                cols["F_gap_runmean"] = run[i] / (t + 1)
        grid_cols.clear()
        kept = 0

    state = b.drive(step, (b.X0, np.zeros((S, m, r)), np.zeros((S, m, r))),
                    None, [b.metric_rows, keep, *observers])
    if kept:
        flush()
    return b.records(state, *top)


def baseline_seeds(problem, topology, schedules, T, seeds, x0=None,
                   init_radius=10.0, observers=()):
    """Conventional gradient-tracking template with DP noise on every
    shared variable and constant stepsizes, for every seed in seeds at
    once; returns one RunRecord per seed, as run_seeds does.

    Trackers follow the standard form
    s' = sum_j (I+W)_ij (s_j + noise) + g_i^t(x') - g_i^t(x)
    (written below via the zero-sum consensus identity), so injected
    noise accumulates in the tracked aggregate instead of being damped:
    divergence is the expected phenomenon.
    """
    b = _Batch(problem, topology, schedules, T, seeds, "baseline-", x0,
               init_radius)
    store = b.store
    problem.draw(store)
    ev = problem.erm_eval(store, problem.own_block(b.X0))
    G = ev.g.copy()  # aggregate tracker
    lam = schedules.lambda_x.lambda0  # constant stepsize, no decay

    def step(t, state, frame, ev):
        X, G, Q = state
        # ev is the oracle at X: last round's ev2, reweighted after the
        # draw; round 0 uses the draw made before the loop
        if t:
            problem.draw(store)
            ev = ev.reweighted(store)
        X_new = _descend(problem, b.W0, b.diagw, X, frame.x, lam,
                         ev.grad_f_x(G) + ev.grad_g_dot(Q))
        ev2 = problem.erm_eval(store, problem.own_block(X_new))
        G_new = G + _consensus(b.W0, b.diagw, frame.y, G) + ev2.g - ev.g
        Q_new = Q + _consensus(b.W0, b.diagw, frame.z, Q) \
            + ev2.grad_f_y(G_new) - ev.grad_f_y(G)
        return (X_new, G_new, Q_new), ev, ev2

    def tracker_err(t, state, frame, ev, alive):
        """Squared distance of the aggregate tracker from the population
        aggregate, on the grid."""
        if t in b.grid:
            gbar = ev.g_population().mean(axis=-2, keepdims=True)
            b.cols[-1]["tracker_err"] = ((state[1] - gbar) ** 2).sum(axis=(-2, -1))

    state = b.drive(step, (b.X0, G, ev.grad_f_y(G)), ev,
                    [b.metric_rows, tracker_err, *observers])
    return b.records(state)
