"""Iteration loops for the LDP aggregative-tracking algorithm and a
conventional gradient-tracking baseline.

One call advances a batch of S seeds through one Python loop. State is
stacked across seeds and agents: X is (S, m, n) (each agent carries a
full-network estimate), and the trackers Y and Z (S, m, r), or the
baseline's G and Q, travel as one (2, S, m, r) pair P. All cross-agent
reads go through BroadcastFrame, which holds the obscured values
state + Laplace noise; raw peer state is never consumed. Rounds are
synchronous: every agent reads the iteration-t frame and writes the
iteration-(t+1) frame.

Both drivers run one round loop, _Batch.drive, with their own step
(iterate, or the gradient-tracking update) and observers. An observer
obs(t, state, frame, ev, alive) sees each emitted frame, t = 0..T: the
iteration-t state (X, Y, Z) (Y, Z the pair's halves), its broadcast
frame, the ERM oracle bundle ev the round's step built at that state (at
t = T the bundle carried to it, None for the main algorithm) and the
live-seed mask; callers add theirs through observers=. The round works
in place only on arrays it has just allocated (a frame in the fresh
noise slabs the banks hand out once, a new mask when a seed ends), so an
emitted state, frame or mask is never written again and may be kept
uncopied. The built-in observers never feed back into the iteration,
so none reduces per round and seed; each writes (grid rows, S) columns
by grid row. One call of the driver's column function per CHUNK // (S m n)
grid states, on their stack, writes its columns' consecutive rows from one
truth bundle (the baseline adds tracker_err); run_seeds copies each round's
z, l and, for an F gap, own blocks, and per chunk of rounds reduces the z/l
premise audit and writes the F_gap_runmean rows of the rounds it kept.

Random streams: every (seed, agent, tag) triple has its own generator
from agent_rng (tags theta, chi, zeta for the x, y, z noise, data for
the samples, init for the start point, which unless x0 is given is
uniform on the box cut to +-INIT_RADIUS; the baseline prefixes
"baseline-"). One lockstep bank per state block draws them, a NoiseBank
for theta, one for chi then zeta and the sample store's AgentBank for
the data; row s*m + i of a tag's rows is agent i's stream under seed s,
and every bank advances one draw per round. The drivers give each bank
the horizon T + 1, so a refill holds at most the rounds the run draws
(the streams do not depend on the refill size).

Seeds never mix: every batched operation gives each seed's slice bitwise
what the one-seed call gives it, so a seed's RunRecord does not depend
on the batch it ran in. A seed whose state sum goes non-finite ends at
that iteration, the one record of its abort: its live mask, rows,
aborted_at and audited rounds derive from it; a round looks seed by seed
only if the live seeds' sums add up to a non-finite value. Its rows stay
in the batch arrays, where its non-finite values reach no other seed,
and the others continue.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .analysis import metric_eval, sampling_grid
from .schedules import CHUNK, NoiseBank, agent_rng

INIT_RADIUS = 10.0  # the random start's bound on |x| in every coordinate


@dataclass
class BroadcastFrame:
    """Obscured per-agent messages for one round; the only sharable values."""

    x: np.ndarray   # (S, m, n)
    yz: np.ndarray  # (2, S, m, r): the y and z messages, read as .y and .z
    y = property(lambda self: self.yz[0])
    z = property(lambda self: self.yz[1])


@dataclass
class RunRecord:
    """Sampled metric series plus final state for one seed's run."""

    ts: np.ndarray
    columns: dict
    final_x: np.ndarray
    final_y: np.ndarray
    final_z: np.ndarray
    aborted_at: int | None = None
    z_norm_max: np.ndarray = None       # per-agent sup_t ||z_i^t||_2
    l_norm1_max: np.ndarray = None      # per-agent sup_{t<T} ||l(x_i^t; xi_i^t)||_1


def _split_weights(topology):
    W = np.asarray(topology.weights, dtype=float)  # off-diagonal, diagonal column
    return W - np.diag(np.diag(W)), np.diag(W)[:, None].copy()


def _mix(W0, diagw, hat, raw):
    # raw + sum_{j in N_i} w_ij (hat_j - raw_i) as (W0 @ hat + diagw raw) + raw
    out = W0 @ hat
    out += diagw * raw
    out += raw
    return out


def _descend(problem, W0, diagw, X, frame_x, lam, grad_own):
    """clip(_mix(frame_x, X) - lam U, lo, hi) in one fresh array, U being
    grad_own on the own blocks and 0 elsewhere; v - lam * 0.0 is v bitwise,
    so only the own blocks are stepped."""
    out = _mix(W0, diagw, frame_x, X)
    out.reshape(-1)[problem.own_index(out.size)] -= (lam * grad_own).reshape(-1)
    np.maximum(out, problem.box_lo, out=out)  # np.clip's bytes but at a +-0 bound
    return np.minimum(out, problem.box_hi, out=out)


class _Batch:
    """What both drivers share for one batch of seeds: the set-up, the
    round loop and what it records (grid columns, final states, aborts).
    Batch row s is seeds[s]; end[s] is its first non-finite iteration
    (T + 1 for none), and it is live at iteration t while end[s] > t.
    columns(problem, X, Y, Z) gives the grid columns, as metric_eval does."""

    def __init__(self, problem, topology, schedules, T, seeds, prefix, x0, columns):
        m, n, r = problem.m, problem.n, problem.r
        if topology.m != m:
            raise ValueError("topology and problem disagree on the agent count")
        if schedules.m != m:
            raise ValueError("noise schedules and problem disagree on the agent count")
        self.problem, self.T, self.columns = problem, T, columns
        self.W0, self.diagw = _split_weights(topology)
        self.seeds = [int(s) for s in seeds]
        S = len(self.seeds)

        def rngs(*tags):
            # independently seeded, tag- then seed-major: entry
            # (g*S + s)*m + i is agent i's generator for tags[g] under seeds[s]
            return [agent_rng(s, i, prefix + tag)
                    for tag in tags for s in self.seeds for i in range(m)]
        # one lockstep bank per state block; its round counter is the clock
        self.noise = [NoiseBank(rngs(*tags), noise, dim, horizon=T + 1) for tags, noise, dim in
                      ((["theta"], [schedules.noise_x], n),
                       (["chi", "zeta"], [schedules.noise_y, schedules.noise_z], r))]
        self.store = problem.new_store(rngs("data"), batch=(S,), horizon=T + 1)
        if x0 is None:
            lo = np.maximum(problem.box_lo, -INIT_RADIUS)
            hi = np.minimum(problem.box_hi, INIT_RADIUS)
            U = np.array([rng.random(n) for rng in rngs("init")])
            X = (lo + (hi - lo) * U).reshape(S, m, n)
        else:
            X = np.broadcast_to(np.asarray(x0, dtype=float), (S, m, n))
        self.X0 = np.clip(X, problem.box_lo, problem.box_hi)
        self.grid = sampling_grid(T).astype(float)
        self.row = {int(t): i for i, t in enumerate(self.grid)}  # t -> grid row
        # column name -> (grid rows, S) values, made on first write; the
        # factory must not hold self, or the cycle keeps the banks alive
        shape = (len(self.grid), S)
        self.cols = defaultdict(lambda: np.full(shape, np.nan))
        # grid states per columns call, on their stack
        self.per_call = max(1, CHUNK // (S * m * n))
        self.pending = []  # (row, state) of the grid points not yet evaluated
        self.end, self.final, self.live = np.full(S, T + 1), [None] * S, np.full(S, True)
        self.gate = True  # the sum's where=: True until a seed ends, then live

    def draw_frame(self, X, P):
        """The broadcast frame of the next round's state (X, pair P), for
        every seed and agent at once; the noise banks count the rounds."""
        nx, npair = self.noise[0].next()[0], self.noise[1].next()
        nx += X  # the noise slabs are fresh: add the state in place
        npair += P
        return BroadcastFrame(nx, npair)

    def retire_nonfinite(self, t, X, P):
        """End the live seeds whose state sum went non-finite at iteration
        t, keeping that state for their records; returns the mask end > t,
        which is a new array only if a seed ended."""
        p = P.sum(axis=(2, 3))  # each tracker's per-seed sums, as (S, m, r) sums them
        total = X.sum(axis=(1, 2)) + p[0] + p[1]
        if not math.isfinite(total.sum(where=self.gate)):
            for s in np.flatnonzero(self.live & ~np.isfinite(total)):
                self.final[s] = (X[s], P[0, s], P[1, s])
                self.end[s] = t
                self.live = self.gate = self.end > t
        return self.live

    def drive(self, step, state, ev, observers):
        """The round loop of both drivers; returns the last state (X, P).
        Round t draws the frame of the iteration-t state, advances it with
        step(t, state, frame, ev) -> (new state, bundle built at state,
        bundle carried to the new state or None) and calls the observers
        on (X, Y, Z); it stops early once every seed has gone non-finite."""
        live = self.live
        for t in range(self.T):
            frame = self.draw_frame(*state)
            new, ev_t, ev = step(t, state, frame, ev)
            seen = (state[0], state[1][0], state[1][1])
            for obs in observers:
                obs(t, seen, frame, ev_t, live)
            state, seen = new, None  # seen must not keep the old X alive
            live, was = self.retire_nonfinite(t + 1, *state), live
            if live is not was and not live.any():
                return state
        frame = self.draw_frame(*state)
        for obs in observers:
            obs(self.T, (state[0], *state[1]), frame, ev, live)
        return state

    def metric_rows(self, t, state, frame, ev, alive):
        """Observer: queue the grid states, kept uncopied (the drivers never
        write them again), until per_call of them are pending."""
        if t in self.row:
            self.pending.append((self.row[t], state))
            if len(self.pending) == self.per_call:
                self.snapshots()

    def snapshots(self):
        """Write the grid columns' rows of the pending grid states from one
        columns call on their (g*S, m, .) stack, a lone state going in
        unstacked; each slice is bitwise the per-state call's."""
        rows, states = zip(*self.pending)
        stack = states[0] if len(rows) == 1 else [np.concatenate(a) for a in zip(*states)]
        for c, v in self.columns(self.problem, *stack).items():
            self.cols[c][rows[0]:rows[-1] + 1] = v.reshape(len(rows), -1)
        self.pending = []

    def records(self, state, z_max=None, l_max=None):
        """One RunRecord per seed, in seed order; state is the final
        (X, P) of the seeds still live."""
        if self.pending:
            self.snapshots()
        out = []
        for s, end in enumerate(self.end):
            n = np.searchsorted(self.grid, end)  # grid points < end
            fx, fy, fz = self.final[s] if end <= self.T else (state[0][s], *state[1][:, s])
            out.append(RunRecord(
                ts=self.grid[:n],
                columns={c: v[:n, s] for c, v in sorted(self.cols.items())},
                final_x=fx, final_y=fy, final_z=fz,
                aborted_at=None if end > self.T else int(end),
                z_norm_max=None if z_max is None else z_max[s],
                l_norm1_max=None if l_max is None else l_max[s]))
        return out


def iterate(X, P, frame, t, schedules, W0, diagw, problem, ev):
    """One synchronous round of the main algorithm (order y -> z -> x).

    State is X (S, m, n) and the tracker pair P (2, S, m, r) for a batch
    of seeds, or (m, n) and (2, m, r) for one. frame carries the
    iteration-t obscured values and ev is the ERM oracle at the agents'
    own points against the round's samples. Returns the new (X, P).
    """
    lam_y, lam_z = schedules.lambda_y.value(t), schedules.lambda_z.value(t)
    P_new = _mix(W0, diagw, frame.yz, P)  # each half is stepped in place
    Y, Z, Y_new, Z_new = P[0], P[1], P_new[0], P_new[1]
    Y_new += lam_y * ev.g
    Ytil = (Y_new - Y) / lam_y
    Z_new += lam_z * ev.grad_f_y(Ytil)
    Ztil = (Z_new - Z) / lam_z
    grad_own = ev.grad_f_x(Ytil) + ev.grad_g_dot(Ztil)
    X_new = _descend(problem, W0, diagw, X, frame.x,
                     schedules.lambda_x.value(t), grad_own)
    return X_new, P_new


def _track(W0, diagw, P, frame, ev, ev2):
    """The baseline's new pair from P = (G, Q), _mix giving G + c_g, Q + c_q:
    G' = G + c_g + ev2.g - ev.g, then Q' = Q + c_q + ev2.grad_f_y(G') - ev.grad_f_y(G)."""
    P_new = _mix(W0, diagw, frame.yz, P)
    P_new[0] += ev2.g
    P_new[0] -= ev.g
    P_new[1] += ev2.grad_f_y(P_new[0])
    P_new[1] -= ev.grad_f_y(P[0])
    return P_new


def run_seeds(problem, topology, schedules, T, seeds, x0=None, observers=()):
    """Drive T rounds for every seed in seeds at once and record metrics
    on a log sampling grid; returns one RunRecord per seed, in order (see
    the module docstring). x0, an (m, n) start shared by all seeds,
    replaces the random start; observers are called after the built-in
    ones."""
    b = _Batch(problem, topology, schedules, T, seeds, "", x0, metric_eval)
    S, m, n, r = len(b.seeds), problem.m, problem.n, problem.r
    top = np.zeros((2, S, m))  # per agent: sup ||z_i||_2, sup ||l_i||_1
    fgap_sum = np.zeros(S)
    k = max(1, CHUNK // (S * n))  # rounds per flush
    own, Z, l = np.empty((k, S, n)), np.empty((k, S, m, r)), np.empty((k, S, m, r))
    ts, kept = np.empty((k, 1, 1), dtype=int), 0

    def step(t, state, frame, _):
        problem.draw(b.store)
        ev = problem.erm_eval(b.store, problem.own_block(state[0]))
        return iterate(*state, frame, t, schedules, b.W0, b.diagw, problem,
                       ev), ev, None

    def keep(t, state, frame, ev, alive):
        """Observer: copy what flush needs of round t (l is 0 at t = T)."""
        nonlocal kept
        if problem.has_optimizer:
            own[kept] = (problem.own_block(state[0]) if ev is None else ev.Xown).reshape(S, n)
        Z[kept] = state[2]
        l[kept] = 0.0 if ev is None else ev.l_newest()
        ts[kept] = t
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
        live = ts[:kept] < b.end[:, None]  # (kept, S, 1)
        np.maximum(top, norms.max(axis=1, where=live, initial=0.0), out=top)
        if problem.has_optimizer:
            # one F_true call on the (kept, S, n) own blocks; cumsum adds
            # in the order of a per-round +=
            gap = problem.F_true(own[:kept]) - problem.F_star
            run = np.cumsum(np.vstack([fgap_sum, gap]), axis=0)[1:]
            fgap_sum[:] = run[-1]
            t0 = ts[0, 0, 0]  # kept rounds t0.. hold grid rows lo..hi-1
            lo, hi = np.searchsorted(b.grid, (t0, t0 + kept))
            i = b.grid[lo:hi].astype(int) - t0
            b.cols["F_gap_runmean"][lo:hi] = run[i] / (ts[i, 0] + 1)
        kept = 0

    state = b.drive(step, (b.X0, np.zeros((2, S, m, r))), None,
                    [b.metric_rows, keep, *observers])
    if kept:
        flush()
    return b.records(state, *top)


def _baseline_columns(problem, X, Y, Z):
    """metric_eval's columns and tracker_err, the aggregate tracker's squared
    distance from the agent mean of g, from one truth bundle per stack."""
    truth = problem.truth(problem.own_block(X))
    return {**metric_eval(problem, X, Y, Z, truth), "tracker_err": (
        (Y - truth.g.mean(axis=-2, keepdims=True)) ** 2).sum(axis=(-2, -1))}


def baseline_seeds(problem, topology, schedules, T, seeds, x0=None,
                   observers=()):
    """Conventional gradient-tracking template with DP noise on every
    shared variable and constant stepsizes, for every seed in seeds at
    once; returns one RunRecord per seed, as run_seeds does.

    Trackers follow the standard form
    s' = sum_j (I+W)_ij (s_j + noise) + g_i^t(x') - g_i^t(x)
    (written below via the zero-sum consensus identity), so injected
    noise accumulates in the tracked aggregate instead of being damped:
    divergence is the expected phenomenon.
    """
    b = _Batch(problem, topology, schedules, T, seeds, "baseline-", x0, _baseline_columns)
    problem.draw(b.store)
    ev = problem.erm_eval(b.store, problem.own_block(b.X0))
    P = np.stack([ev.g, ev.grad_f_y(ev.g)])  # aggregate tracker G, Q
    lam = schedules.lambda_x.lambda0  # constant stepsize, no decay

    def step(t, state, frame, ev):
        X, P = state
        # ev is the oracle at X: last round's ev2, reweighted after the
        # draw; round 0 uses the draw made before the loop
        if t:
            problem.draw(b.store)
            ev = ev.reweighted(b.store)
        X_new = _descend(problem, b.W0, b.diagw, X, frame.x, lam,
                         ev.grad_f_x(P[0]) + ev.grad_g_dot(P[1]))
        ev2 = problem.erm_eval(b.store, problem.own_block(X_new))
        return (X_new, _track(b.W0, b.diagw, P, frame, ev, ev2)), ev, ev2

    state = b.drive(step, (b.X0, P), ev, [b.metric_rows, *observers])
    return b.records(state)
