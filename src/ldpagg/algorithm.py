"""Iteration loop for the LDP aggregative-tracking algorithm and a
conventional gradient-tracking baseline.

State is kept stacked across agents: X is (m, n) (each agent carries a
full-network estimate), trackers Y and Z are (m, r). All cross-agent
reads go through BroadcastFrame, which holds the obscured values
state + Laplace noise; raw peer state is never consumed. Rounds are
synchronous: every agent reads the iteration-t frame and writes the
iteration-(t+1) frame.

Random streams: every (agent, tag) pair has its own generator from
agent_rng (tags theta, chi, zeta for the x, y, z noise, data for the
samples, init for the start point; the baseline prefixes "baseline-").
Each noise tag and the quadratic data tag is drawn through one lockstep
AgentBank whose row i is agent i's stream, and all banks advance by one
(m, dim) draw per round, so a round's frame for every agent is built at
once while each agent's values stay those of its own stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import metric_eval, sampling_grid
from .schedules import AgentBank, LaplaceParams, agent_rng, laplace_from_uniform


@dataclass
class BroadcastFrame:
    """Obscured per-agent messages for one round; the only sharable values."""

    x: np.ndarray  # (m, n)
    y: np.ndarray  # (m, r)
    z: np.ndarray  # (m, r)
    noise_x: np.ndarray = None
    noise_y: np.ndarray = None
    noise_z: np.ndarray = None


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
    wall_time: float = 0.0


class _AgentStreams:
    """Per-agent generators, independently seeded, one list per stream tag."""

    def __init__(self, master_seed, m, prefix=""):
        def rngs(tag):
            return [agent_rng(master_seed, i, prefix + tag) for i in range(m)]
        self.theta = rngs("theta")
        self.chi = rngs("chi")
        self.zeta = rngs("zeta")
        self.data = rngs("data")
        self.init = rngs("init")


class _FrameSource:
    """Draws each round's broadcast frame for all agents at once: one
    lockstep bank per noise tag plus the per-agent Laplace parameters.
    Bank draws are views that the next refill overwrites; only the fresh
    noise arrays computed from them are kept in frames."""

    def __init__(self, streams, schedules, n, r):
        self._noise = (
            (AgentBank(streams.theta, n), LaplaceParams(schedules.noise_x)),
            (AgentBank(streams.chi, r), LaplaceParams(schedules.noise_y)),
            (AgentBank(streams.zeta, r), LaplaceParams(schedules.noise_z)),
        )

    def draw(self, X, Y, Z, t, keep_noise=False):
        Tx, Ty, Tz = (laplace_from_uniform(bank.draw_centered(), nu.at(t))
                      for bank, nu in self._noise)
        frame = BroadcastFrame(x=X + Tx, y=Y + Ty, z=Z + Tz)
        if keep_noise:
            frame.noise_x, frame.noise_y, frame.noise_z = Tx, Ty, Tz
        return frame


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
    # sum_{j in N_i} w_ij (hat_j - raw_i), using the zero-sum identity
    return W0 @ hat + diagw[:, None] * raw


def _init_x(problem, streams, init_radius):
    """Uniform random start in the box truncated to +-init_radius."""
    lo = np.maximum(problem.box_lo, -init_radius)
    hi = np.minimum(problem.box_hi, init_radius)
    X = np.empty((problem.m, problem.n))
    for i in range(problem.m):
        X[i] = lo + (hi - lo) * streams.init[i].random(problem.n)
    return X


def iterate(X, Y, Z, frame, t, schedules, W0, diagw, problem, store):
    """One synchronous round of the main algorithm (order y -> z -> x).

    frame carries the iteration-t obscured values. Draws the round's
    (phi, xi) pair into the store before evaluating the ERM oracles.
    Returns the new (X, Y, Z). Frame emission is handled by the caller.
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


def run(problem, topology, schedules, T, master_seed, x0=None,
        init_radius=10.0, record_frames=False, grid=None,
        on_nonfinite="raise"):
    """Drive T rounds and record metrics on a log sampling grid.

    Deterministic for fixed (problem, config, master_seed). Non-finite
    state aborts with the offending iteration index (on_nonfinite
    "record" truncates instead, used by the baseline).
    """
    import time
    t0_wall = time.perf_counter()
    _check_agents(problem, topology, schedules)
    m, n, r = problem.m, problem.n, problem.r
    W0, diagw = _split_weights(topology)
    streams = _AgentStreams(master_seed, m)
    frame_source = _FrameSource(streams, schedules, n, r)
    X = _init_x(problem, streams, init_radius) if x0 is None else np.array(x0, float)
    X = np.clip(X, problem.box_lo, problem.box_hi)
    Y = np.zeros((m, r))
    Z = np.zeros((m, r))
    store = problem.new_store()

    x_star = problem.x_star if problem.has_optimizer else None
    F_star = problem.F_star if problem.has_optimizer else None
    if grid is None:
        grid = sampling_grid(T)
    grid = np.asarray(grid, dtype=int)
    grid_set = set(int(g) for g in grid)

    rows = []
    frames = []
    states = []
    z_max = np.zeros(m)
    l_max = np.zeros(m)
    fgap_sum = 0.0
    aborted_at = None

    def snapshot(t):
        row = metric_eval(problem, X, Y, Z, t, x_star=x_star, F_star=F_star)
        if F_star is not None:
            row["F_gap_runmean"] = fgap_sum / (t + 1)
        l_now = problem.sample_l_norm1(store, problem.own_block(X)) \
            if store.count > 0 else np.zeros(m)
        np.maximum(l_max, l_now, out=l_max)
        rows.append(row)

    if F_star is not None:
        fgap_sum += problem.F_true(problem.own_block(X).reshape(n)) - F_star
    frame = frame_source.draw(X, Y, Z, 0, keep_noise=record_frames)
    if record_frames:
        frames.append(frame)
        states.append((X.copy(), Y.copy(), Z.copy()))
    if 0 in grid_set:
        snapshot(0)

    for t in range(T):
        problem.draw(store, streams.data)
        X, Y, Z = iterate(X, Y, Z, frame, t, schedules, W0, diagw, problem, store)
        if not np.isfinite(X.sum() + Y.sum() + Z.sum()):
            if on_nonfinite == "raise":
                raise FloatingPointError(
                    f"non-finite state at iteration {t + 1}; "
                    "reduce the initial stepsizes")
            aborted_at = t + 1
            break
        np.maximum(z_max, np.linalg.norm(Z, axis=1), out=z_max)
        if F_star is not None:
            fgap_sum += problem.F_true(problem.own_block(X).reshape(n)) - F_star
        frame = frame_source.draw(X, Y, Z, t + 1, keep_noise=record_frames)
        if record_frames:
            frames.append(frame)
            states.append((X.copy(), Y.copy(), Z.copy()))
        if (t + 1) in grid_set:
            snapshot(t + 1)

    ts = np.array([row["t"] for row in rows])
    keys = [k for k in rows[0] if k != "t"] if rows else []
    columns = {k: np.array([row[k] for row in rows]) for k in keys}
    return RunRecord(
        ts=ts, columns=columns, final_x=X, final_y=Y, final_z=Z,
        master_seed=master_seed, aborted_at=aborted_at,
        z_norm_max=z_max, l_norm1_max=l_max, frames=frames, states=states,
        wall_time=time.perf_counter() - t0_wall,
    )


def baseline_gradient_tracking(problem, topology, schedules, T, master_seed,
                               x0=None, init_radius=10.0, grid=None):
    """Conventional gradient-tracking template with DP noise on every
    shared variable and constant stepsizes.

    Trackers follow the standard form
    s' = sum_j (I+W)_ij (s_j + noise) + g_i^t(x') - g_i^t(x)
    (written below via the zero-sum consensus identity), so injected
    noise accumulates in the tracked aggregate instead of being damped.
    Divergence is recorded, not raised; it is the expected phenomenon.
    """
    import time
    t0_wall = time.perf_counter()
    _check_agents(problem, topology, schedules)
    m, n, r = problem.m, problem.n, problem.r
    W0, diagw = _split_weights(topology)
    streams = _AgentStreams(master_seed, m, prefix="baseline-")
    frame_source = _FrameSource(streams, schedules, n, r)
    X = _init_x(problem, streams, init_radius) if x0 is None else np.array(x0, float)
    X = np.clip(X, problem.box_lo, problem.box_hi)
    store = problem.new_store()
    problem.draw(store, streams.data)
    ev0 = problem.erm_eval(store, problem.own_block(X))
    S = ev0.g.copy()
    Q = ev0.grad_f_y(S)

    lam = schedules.lambda_x.lambda0  # constant stepsize, no decay
    x_star = problem.x_star if problem.has_optimizer else None
    F_star = problem.F_star if problem.has_optimizer else None
    if grid is None:
        grid = sampling_grid(T)
    grid_set = set(int(g) for g in np.asarray(grid, dtype=int))

    rows = []
    aborted_at = None

    def snapshot(t):
        row = metric_eval(problem, X, S, Q, t, x_star=x_star, F_star=F_star)
        gbar = problem.g_true(problem.own_block(X)).mean(axis=0)
        row["tracker_err"] = float(np.sum((S - gbar) ** 2))
        rows.append(row)

    frame = frame_source.draw(X, S, Q, 0)
    if 0 in grid_set:
        snapshot(0)

    for t in range(T):
        if store.count == t:
            problem.draw(store, streams.data)
        Xown = problem.own_block(X)
        ev = problem.erm_eval(store, Xown)
        grad_own = ev.grad_f_x(S) + ev.grad_g_dot(Q)
        U = np.zeros_like(X)
        U[problem.own_index] = grad_own
        X_new = np.clip(X + _consensus(W0, diagw, frame.x, X) - lam * U,
                        problem.box_lo, problem.box_hi)
        ev2 = problem.erm_eval(store, problem.own_block(X_new))
        S_new = S + _consensus(W0, diagw, frame.y, S) + ev2.g - ev.g
        Q_new = Q + _consensus(W0, diagw, frame.z, Q) \
            + ev2.grad_f_y(S_new) - ev.grad_f_y(S)
        X, S, Q = X_new, S_new, Q_new
        if not np.isfinite(X.sum() + S.sum() + Q.sum()):
            aborted_at = t + 1
            break
        frame = frame_source.draw(X, S, Q, t + 1)
        if (t + 1) in grid_set:
            snapshot(t + 1)

    ts = np.array([row["t"] for row in rows])
    keys = [k for k in rows[0] if k != "t"] if rows else []
    columns = {k: np.array([row[k] for row in rows]) for k in keys}
    return RunRecord(
        ts=ts, columns=columns, final_x=X, final_y=S, final_z=Q,
        master_seed=master_seed, baseline=True, aborted_at=aborted_at,
        wall_time=time.perf_counter() - t0_wall,
    )
