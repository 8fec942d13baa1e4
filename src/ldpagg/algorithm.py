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
it, None for the main algorithm) and the live-seed mask. Metric rows,
the F_gap running mean, the z/l premise audits and the baseline's
tracker error are observers; callers add theirs through observers=.
The round works in place only on arrays it has just allocated (a frame
in the fresh noise slabs the banks hand out once), so an emitted state
or frame is never written again and may be kept uncopied.

Random streams: every (seed, agent, tag) triple has its own generator
from agent_rng (tags theta, chi, zeta for the x, y, z noise, data for
the samples, init for the start point; the baseline prefixes
"baseline-"). Each noise tag is drawn through one lockstep NoiseBank
over the S*m generators, which transforms by chunks of rounds, and the
data tag through the AgentBank of the sample store built on them; row
(s, i) (flat row s*m + i) of a bank is agent i's stream under seed s:
Laplace noise, standard normals for the quadratic data, and the (f, g)
sample indices for the personalized data. All banks advance by one
draw per round, so a round's frame and samples for every agent of every
seed are built at once while each agent's values stay its stream's.

Seeds never mix: every batched operation gives each seed's slice bitwise
what the one-seed call gives it, so a seed's RunRecord does not depend on
the batch it ran in. A seed whose state goes non-finite stops recording
at that iteration, which its record keeps as aborted_at; its rows stay in
the batch arrays, where its non-finite values reach no other seed, and
the others continue. Both drivers handle divergence this way.
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
    W0 = W.copy()
    np.fill_diagonal(W0, 0.0)
    return W0, np.diag(W).copy()


def _consensus(W0, diagw, hat, raw):
    # sum_{j in N_i} w_ij (hat_j - raw_i), using the zero-sum identity;
    # W0 @ hat multiplies each seed's (m, .) slice of a batch
    return W0 @ hat + diagw[:, None] * raw


def _descend(problem, W0, diagw, X, frame_x, lam, grad_own):
    """Consensus on the x frame, a step along each agent's own-block
    gradient, and the projection onto the box, in one fresh array.

    Elementwise this is clip(X + (W0 @ frame_x + diagw X) - lam U, lo, hi)
    with U = grad_own on the own blocks and 0 elsewhere; v - lam * 0.0 is
    v bitwise, so only the own blocks are stepped.
    """
    out = np.matmul(W0, frame_x)
    out += diagw[:, None] * X
    out += X
    out[problem.own_index] -= lam * grad_own
    return np.clip(out, problem.box_lo, problem.box_hi, out=out)


class _Batch:
    """What both drivers share for one batch of seeds: the agent-count
    check, weights, streams, noise banks, sample store, start point and
    grid, the round loop, plus each seed's metric rows, final state and
    abort iteration. Batch row s is seeds[s]; alive[s] turns false when
    that seed goes non-finite."""

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
        self.x_star = problem.x_star if problem.has_optimizer else None
        self.F_star = problem.F_star if problem.has_optimizer else None
        self.alive = np.ones(S, dtype=bool)
        self.rows = [[] for _ in range(S)]
        self.final = [None] * S
        self.aborted_at = [None] * S

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
        """The round loop of both drivers; returns the last state.

        Round t draws the frame of the iteration-t state, advances it with
        step(t, state, frame, ev) -> (new state, bundle built at state,
        bundle carried to the new state or None) and calls the observers;
        then the final state is observed with the carried bundle. Stops
        early once every seed has gone non-finite.
        """
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
        """Observer: each live seed's metric row at the grid points. Column
        observers listed after it extend the row it has just added."""
        if t in self.grid:
            for s in np.flatnonzero(alive):
                self.rows[s].append(metric_eval(
                    self.problem, *(a[s] for a in state), t,
                    x_star=self.x_star, F_star=self.F_star))

    def records(self, state, z_max=None, l_max=None):
        """One RunRecord per seed, in seed order; state is the final
        (X, Y, Z) of the seeds still alive."""
        for s in np.flatnonzero(self.alive):
            self.final[s] = tuple(a[s] for a in state)
        out = []
        for s, seed in enumerate(self.seeds):
            rows = self.rows[s]
            keys = [c for c in rows[0] if c != "t"] if rows else []
            fx, fy, fz = self.final[s]
            out.append(RunRecord(
                ts=np.array([row["t"] for row in rows]),
                columns={c: np.array([row[c] for row in rows]) for c in keys},
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
    on a log sampling grid; returns one RunRecord per seed, in order.

    Each record is bitwise the one that seed gives run alone. x0, an
    (m, n) start shared by all seeds, replaces the random start.
    observers are called after the built-in ones (see the module
    docstring). A seed whose state goes non-finite ends its record there
    with its aborted_at set; the others keep running.
    """
    b = _Batch(problem, topology, schedules, T, seeds, "", x0, init_radius)
    S, m, n, r = len(b.seeds), problem.m, problem.n, problem.r
    z_max = np.zeros((S, m))
    l_max = np.zeros((S, m))
    fgap_sum = np.zeros(S)

    def step(t, state, frame, _):
        problem.draw(b.store)
        ev = problem.erm_eval(b.store, problem.own_block(state[0]))
        return iterate(*state, frame, t, schedules, b.W0, b.diagw, problem,
                       ev), ev, None

    def fgap_runmean(t, state, frame, ev, alive):
        """F_gap summed over every iteration; its running mean on the grid."""
        fgap_sum[:] += problem.F_true(
            problem.own_block(state[0]).reshape(S, n)) - b.F_star
        if t in b.grid:
            for s in np.flatnonzero(alive):
                b.rows[s][-1]["F_gap_runmean"] = fgap_sum[s] / (t + 1)

    def premise_audit(t, state, frame, ev, alive):
        """The budget premises on the live seeds: sup ||z_i||_2 over every
        iterate and sup ||l(x_i^t; xi_i^t)||_1 over every round."""
        Z, live = state[2], alive[:, None]
        # ||z_i||_2 as np.linalg.norm computes it, without its dispatch
        np.maximum(z_max, np.sqrt((Z * Z).sum(axis=-1)), out=z_max,
                   where=live)
        if ev is not None:
            np.maximum(l_max, np.abs(ev.l_newest()).sum(axis=-1), out=l_max,
                       where=live)

    own = [b.metric_rows] + ([fgap_runmean] if b.F_star is not None else [])
    state = b.drive(step, (b.X0, np.zeros((S, m, r)), np.zeros((S, m, r))),
                    None, own + [premise_audit, *observers])
    return b.records(state, z_max=z_max, l_max=l_max)


def run(problem, topology, schedules, T, master_seed, **kwargs):
    """One seed: the S = 1 call of run_seeds (same keyword arguments)."""
    return run_seeds(problem, topology, schedules, T, [master_seed], **kwargs)[0]


def baseline_seeds(problem, topology, schedules, T, seeds, x0=None,
                   init_radius=10.0, observers=()):
    """Conventional gradient-tracking template with DP noise on every
    shared variable and constant stepsizes, for every seed in seeds at
    once; returns one RunRecord per seed, bitwise what it gives alone.

    Trackers follow the standard form
    s' = sum_j (I+W)_ij (s_j + noise) + g_i^t(x') - g_i^t(x)
    (written below via the zero-sum consensus identity), so injected
    noise accumulates in the tracked aggregate instead of being damped.
    Divergence is the expected phenomenon; it is recorded per seed as in
    run_seeds.
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
        # ev is the oracle at X: last round's ev2, reweighted after the draw
        if store.count == t:
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
            G, gbar = state[1], ev.g_population().mean(axis=-2)
            for s in np.flatnonzero(alive):
                b.rows[s][-1]["tracker_err"] = float(np.sum((G[s] - gbar[s]) ** 2))

    state = b.drive(step, (b.X0, G, ev.grad_f_y(G)), ev,
                    [b.metric_rows, tracker_err, *observers])
    return b.records(state)


def baseline_gradient_tracking(problem, topology, schedules, T, master_seed,
                               **kwargs):
    """One seed: the S = 1 call of baseline_seeds (same keyword arguments)."""
    return baseline_seeds(problem, topology, schedules, T, [master_seed],
                          **kwargs)[0]
