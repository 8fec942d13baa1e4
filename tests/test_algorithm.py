import gc
import sys
import weakref
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpagg.algorithm import (BroadcastFrame, _Batch, _descend, _mix,
                              _split_weights, _track, baseline_seeds,
                              iterate, run_seeds)
from ldpagg.analysis import metric_eval, sampling_grid
from ldpagg.problems import (QuadraticProblem, make_personalized_problem,
                             make_quadratic_problem)
from ldpagg.reference import (ErmReference, LaplaceStream,
                              baseline_tracker_round, centralized_trajectory,
                              tracker_round)
from ldpagg.schedules import (CHUNK, AgentBank, ConvexityCase,
                              ScheduleSet, StepsizeSchedule, agent_rng,
                              broadcast_noise, corollary1_preset,
                              laplace_from_uniform)
from ldpagg.topology import ring_topology, trivial_topology


class Recorder:
    """Observer that keeps copies of each live seed's frames and states,
    keyed by batch row."""

    def __init__(self):
        self.frames = defaultdict(list)
        self.states = defaultdict(list)

    def __call__(self, t, state, frame, ev, alive):
        for s in np.flatnonzero(alive):
            self.frames[s].append(BroadcastFrame(frame.x[s].copy(),
                                                 frame.yz[:, s].copy()))
            self.states[s].append(tuple(a[s].copy() for a in state))


def noisefree_schedules(m, lambda0=(0.5, 1.0, 1.0)):
    return corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=m,
                             lambda0=lambda0, sigma=(0.0, 0.0, 0.0))


def clean_quadratic(m=5, seed=7, **over):
    kw = dict(m=m, ni=2, r=2, gamma=1.0, noise_std_g=0.0, noise_std_f=0.0,
              box=(-10, 10), seed=seed)
    kw.update(over)
    return make_quadratic_problem(**kw)


class TestCentralizedReduction:
    def test_noise_free_single_agent_matches_reference(self):
        prob = clean_quadratic(m=1, ni=4, r=2)
        s = noisefree_schedules(1)
        x0 = np.full((1, 4), 0.5)
        rec = Recorder()
        run_seeds(prob, trivial_topology(), s, 2000, [0], x0=x0,
                  observers=[rec])
        ref = centralized_trajectory(prob, s, 2000, x0[0])
        dev = max(np.max(np.abs(st[0][0] - ref[t]))
                  for t, st in enumerate(rec.states[0]))
        assert dev < 1e-10

    def test_converges_to_reference_optimum(self):
        prob = clean_quadratic(m=1, ni=4, r=2)
        s = noisefree_schedules(1)
        rec = run_seeds(prob, trivial_topology(), s, 20000, [0],
                        x0=np.zeros((1, 4)))[0]
        assert np.max(np.abs(rec.final_x[0] - prob.x_star)) < 1e-4


class TestIterate:
    def test_descent_noise_free(self):
        prob = clean_quadratic()
        topo = ring_topology(5, 0.3)
        s = noisefree_schedules(5)
        rec = run_seeds(prob, topo, s, 5000, [1])[0]
        err = rec.columns["err_to_opt_sq"]
        assert err[-1] < 1e-3 * err[0]
        fgap = rec.columns["F_gap"]
        assert fgap[-1] < 1e-3 * abs(fgap[0]) + 1e-12

    def test_identical_agents_stay_symmetric(self):
        # identical local data and identical starts: the noise-free
        # dynamics cannot break the permutation symmetry
        m, ni, r = 4, 2, 2
        rng = np.random.default_rng(3)
        A = np.tile(0.3 * rng.standard_normal((1, r, ni)), (m, 1, 1))
        b = np.tile(rng.standard_normal((1, r)), (m, 1))
        c = np.tile(rng.standard_normal((1, ni)), (m, 1))
        d = np.tile(rng.standard_normal((1, r)), (m, 1))
        prob = QuadraticProblem(A, b, c, d, gamma=1.0, alpha=1.0, noise_std_g=0.0,
                                noise_std_f=0.0, box=(-10, 10))
        # identical estimates of the full stacked vector as well
        own = np.tile(np.linspace(-1, 1, ni), m)
        x0 = np.tile(own, (m, 1))
        s = noisefree_schedules(m)
        rec = run_seeds(prob, ring_topology(m, 0.3), s, 500, [2], x0=x0)[0]
        # cyclic equivariance: rotating the agent index rotates the
        # stacked estimate by one block
        for i in range(m):
            assert np.max(np.abs(np.roll(rec.final_x[i], -i * ni)
                                 - rec.final_x[0])) < 1e-11
        assert np.max(np.abs(rec.final_y - rec.final_y[0])) < 1e-11

    def test_tracker_mean_invariant(self):
        # zero-sum mixing preserves the agent mean of y up to the exact
        # per-round injection lambda_y * mean(g); checked step by step
        prob = clean_quadratic(noise_std_g=0.2, noise_std_f=0.2)
        topo = ring_topology(5, 0.3)
        s = noisefree_schedules(5)
        W0, diagw = _split_weights(topo)
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (5, prob.n))
        P = np.zeros((2, 5, 2))  # the tracker pair (Y, Z)
        store = prob.new_store([agent_rng(11, i, "data") for i in range(5)],
                               horizon=30)
        for t in range(30):
            frame = BroadcastFrame(x=X, yz=P)  # noise-free frames
            prob.draw(store)
            ev = prob.erm_eval(store, prob.own_block(X))
            expect = P[0].mean(axis=0) + s.lambda_y.value(t) * ev.g.mean(axis=0)
            X, P = iterate(X, P, frame, t, s, W0, diagw, prob, ev)
            assert np.max(np.abs(P[0].mean(axis=0) - expect)) < 1e-12

    def test_consensus_identity_matches_neighbor_sum(self):
        topo = ring_topology(6, 0.2)
        W = np.asarray(topo.weights)
        W0, diagw = _split_weights(topo)
        rng = np.random.default_rng(5)
        hat = rng.normal(0, 1, (6, 3))
        raw = rng.normal(0, 1, (6, 3))
        out = _mix(W0, diagw, hat, raw)
        for i in range(6):
            neighbours = [j for j in range(6) if j != i and W[i, j] > 0.0]
            direct = raw[i] + sum(W[i, j] * (hat[j] - raw[i]) for j in neighbours)
            assert np.allclose(out[i], direct, atol=1e-14)
        # bitwise, it adds as (W0 @ hat + diagw raw) + raw
        assert out.tobytes() == ((W0 @ hat + diagw * raw) + raw).tobytes()


class TestRunMechanics:
    def test_zero_horizon(self):
        prob = clean_quadratic()
        rec = run_seeds(prob, ring_topology(5, 0.3), noisefree_schedules(5), 0,
                        [0])[0]
        assert np.array_equal(rec.ts, [0.0])
        assert rec.final_x.shape == (5, prob.n)
        assert rec.aborted_at is None

    def test_determinism_same_seed(self):
        prob = make_quadratic_problem(m=3, ni=2, r=2, gamma=1.0,
                                      box=(-10, 10), seed=7)
        topo = ring_topology(3, 0.3)
        s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=3,
                              lambda0=(0.5, 1, 1), sigma=(0.5, 0.5, 0.5))
        a = run_seeds(prob, topo, s, 300, [42])[0]
        b = run_seeds(prob, topo, s, 300, [42])[0]
        assert np.array_equal(a.final_x, b.final_x)
        assert np.array_equal(a.columns["err_to_opt_sq"],
                              b.columns["err_to_opt_sq"])

    def test_different_seed_differs(self):
        prob = clean_quadratic(m=3)
        topo = ring_topology(3, 0.3)
        s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=3,
                              lambda0=(0.5, 1, 1), sigma=(0.5, 0.5, 0.5))
        a = run_seeds(prob, topo, s, 100, [1])[0]
        b = run_seeds(prob, topo, s, 100, [2])[0]
        assert not np.array_equal(a.final_x, b.final_x)

    def test_agent_count_mismatch_rejected(self):
        prob = clean_quadratic(m=3)
        with pytest.raises(ValueError):
            run_seeds(prob, ring_topology(4, 0.3), noisefree_schedules(4), 10,
                      [0])

    @pytest.mark.parametrize("driver", [run_seeds, baseline_seeds],
                             ids=["run", "baseline_gradient_tracking"])
    def test_topology_size_mismatch_rejected(self, driver):
        prob = clean_quadratic(m=3)
        with pytest.raises(ValueError, match="topology"):
            driver(prob, ring_topology(4, 0.3), noisefree_schedules(3), 10,
                   [0])

    @pytest.mark.parametrize("driver", [run_seeds, baseline_seeds],
                             ids=["run", "baseline_gradient_tracking"])
    def test_schedule_size_mismatch_rejected(self, driver):
        # a 1-agent schedule set must not be broadcast to all agents
        prob = clean_quadratic(m=3)
        with pytest.raises(ValueError, match="schedules"):
            driver(prob, ring_topology(3, 0.3), noisefree_schedules(1), 10,
                   [0])

    def test_nonfinite_recorded(self):
        # unbounded box so blow-up is not clipped away
        prob = clean_quadratic(m=3, box=(-np.inf, np.inf))
        s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=3,
                              lambda0=(1e150, 1, 1), sigma=(0.0, 0.0, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            rec = run_seeds(prob, ring_topology(3, 0.3), s, 100, [0])[0]
        assert rec.aborted_at is not None and rec.aborted_at >= 1

    def test_z_and_l_suprema_tracked(self):
        prob = clean_quadratic(m=3)
        rec = run_seeds(prob, ring_topology(3, 0.3), noisefree_schedules(3),
                        200, [0])[0]
        assert rec.z_norm_max.shape == (3,)
        assert np.all(rec.z_norm_max >= 0)
        assert np.all(rec.l_norm1_max > 0)


class TestFrameAudit:
    def test_frames_are_state_plus_replayed_noise(self):
        # privacy hygiene: every broadcast equals raw state plus Laplace
        # noise that an auditor can replay exactly from the seed
        prob = make_quadratic_problem(m=3, ni=2, r=2, gamma=1.0,
                                      box=(-10, 10), seed=7)
        topo = ring_topology(3, 0.3)
        s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=3,
                              lambda0=(0.5, 1, 1), sigma=(0.8, 0.8, 0.8))
        T = 50
        rec = Recorder()
        run_seeds(prob, topo, s, T, [9], observers=[rec])
        assert len(rec.frames[0]) == T + 1 and len(rec.states[0]) == T + 1

        theta = [LaplaceStream(agent_rng(9, i, "theta")) for i in range(3)]
        chi = [LaplaceStream(agent_rng(9, i, "chi")) for i in range(3)]
        zeta = [LaplaceStream(agent_rng(9, i, "zeta")) for i in range(3)]
        for t, (frame, (X, Y, Z)) in enumerate(zip(rec.frames[0],
                                                   rec.states[0])):
            for i in range(3):
                nx = laplace_from_uniform(theta[i].draw_centered(prob.n),
                                          s.noise_x[i].laplace_param(t))
                ny = laplace_from_uniform(chi[i].draw_centered(prob.r),
                                          s.noise_y[i].laplace_param(t))
                nz = laplace_from_uniform(zeta[i].draw_centered(prob.r),
                                          s.noise_z[i].laplace_param(t))
                assert np.array_equal(frame.x[i], X[i] + nx)
                assert np.array_equal(frame.y[i], Y[i] + ny)
                assert np.array_equal(frame.z[i], Z[i] + nz)

    @pytest.mark.parametrize(
        "driver, prefix, T", [(run_seeds, "", None),
                              (baseline_seeds, "baseline-", None),
                              (run_seeds, "", 7),
                              (baseline_seeds, "baseline-", 7)],
        ids=["run-", "baseline_gradient_tracking-baseline-", "run-T7",
             "baseline_gradient_tracking-baseline-T7"])
    def test_frames_replay_across_chunk_and_refill_boundaries(self, driver,
                                                              prefix, T):
        # per-agent schedules, one with sigma = 0, and T past a chunk
        # boundary inside a refill block and past a refill boundary of the
        # theta and chi banks, or T = 7, below every bank's block, so that
        # every refill holds T + 1 rounds: the chunked transform gives each
        # frame bitwise what the per-round reference gives it
        m, seed = 5, 4
        prob = make_quadratic_problem(m=m, ni=2, r=2, gamma=1.0,
                                      box=(-10, 10), seed=7)
        for dim in (prob.n, prob.r):  # a chunk ends inside a refill block
            assert CHUNK // (m * dim) < AgentBank._BLOCK // dim
        T = T or max(AgentBank._BLOCK // dim for dim in (prob.n, prob.r)) + 1
        s = ScheduleSet(
            lambda_x=StepsizeSchedule(0.05, 0.58),
            lambda_y=StepsizeSchedule(1.0, 0.02),
            lambda_z=StepsizeSchedule(1.0, 0.03),
            noise_x=broadcast_noise([0.8, 0.0, 0.3, 0.8, 0.3],
                                    [0.55, 0.5, 0.6, 0.55, 0.6], m),
            noise_y=broadcast_noise([0.2, 0.0, 0.2, 0.5, 0.2],
                                    [0.01, 0.0, 0.01, 0.015, 0.01], m),
            noise_z=broadcast_noise([0.2, 0.0, 0.4, 0.4, 0.2],
                                    [0.02, 0.0, 0.025, 0.025, 0.02], m))
        rec = Recorder()
        driver(prob, ring_topology(m, 0.3), s, T, [seed], observers=[rec])
        assert len(rec.frames[0]) == T + 1

        streams = [[LaplaceStream(agent_rng(seed, i, prefix + tag))
                    for i in range(m)] for tag in ("theta", "chi", "zeta")]
        noise = (s.noise_x, s.noise_y, s.noise_z)
        dims = (prob.n, prob.r, prob.r)
        for t, (frame, state) in enumerate(zip(rec.frames[0],
                                               rec.states[0])):
            for sent, A, tag_streams, sched, dim in zip(
                    (frame.x, frame.y, frame.z), state, streams, noise, dims):
                for i in range(m):
                    nu = sched[i].laplace_param(t)
                    expect = A[i] + laplace_from_uniform(
                        tag_streams[i].draw_centered(dim), nu)
                    assert sent[i].tobytes() == expect.tobytes()


class TestBaseline:
    def test_zero_noise_baseline_converges(self):
        prob = clean_quadratic(m=5)
        topo = ring_topology(5, 0.3)
        s = ScheduleSet(
            lambda_x=StepsizeSchedule(0.05, 0.9),  # lambda0 used as constant
            lambda_y=StepsizeSchedule(1.0, 0.02),
            lambda_z=StepsizeSchedule(1.0, 0.03),
            noise_x=broadcast_noise(0.0, 0.0, 5),
            noise_y=broadcast_noise(0.0, 0.0, 5),
            noise_z=broadcast_noise(0.0, 0.0, 5),
        )
        rec = baseline_seeds(prob, topo, s, 20000, [0])[0]
        xown = prob.own_block(rec.final_x).reshape(prob.n)
        assert np.max(np.abs(xown - prob.x_star)) < 1e-6
        assert rec.columns["tracker_err"][-1] < 1e-10

    def test_noise_accumulates_in_tracker(self):
        prob = clean_quadratic(m=5, noise_std_g=0.0)
        topo = ring_topology(5, 0.3)
        s = ScheduleSet(
            lambda_x=StepsizeSchedule(0.01, 0.9),
            lambda_y=StepsizeSchedule(1.0, 0.02),
            lambda_z=StepsizeSchedule(1.0, 0.03),
            noise_x=broadcast_noise(0.05, 0.0, 5),
            noise_y=broadcast_noise(0.05, 0.0, 5),
            noise_z=broadcast_noise(0.05, 0.0, 5),
        )
        recs = [baseline_seeds(prob, topo, s, 2000, [k])[0]
                for k in range(5)]
        err = np.mean([r.columns["tracker_err"] for r in recs], axis=0)
        ts = recs[0].ts
        late = err[ts >= 500].mean()
        early = err[(ts >= 10) & (ts < 100)].mean()
        assert late > 2 * early


# -- seed batching ------------------------------------------------------------

BATCH_PROBLEMS = {
    "quadratic": make_quadratic_problem(m=3, ni=2, r=2, gamma=1.0,
                                        box=(-10, 10), seed=7),
    "personalized": make_personalized_problem(m=3, classes=3, features=2,
                                              lam=0.8, dataset_size=8, seed=6),
}
DRIVERS = {"run": run_seeds, "baseline": baseline_seeds}


def batch_schedules(sigma_x=0.1, sigma_y=0.1):
    # a sigma near the float range makes seeds diverge at different rounds
    return ScheduleSet(
        lambda_x=StepsizeSchedule(0.5, 0.57),
        lambda_y=StepsizeSchedule(1.0, 0.02),
        lambda_z=StepsizeSchedule(1.0, 0.03),
        noise_x=broadcast_noise(sigma_x, 0.0, 3),
        noise_y=broadcast_noise(sigma_y, 0.0, 3),
        noise_z=broadcast_noise(0.1, 0.0, 3),
    )


def run_batch_and_solo(driver, prob, schedules, T, seeds):
    """Batched and solo records of seeds, each with the frames and states
    a Recorder kept for it: lists of (record, frames, states)."""
    batched = DRIVERS[driver]
    args = (prob, ring_topology(3, 0.3), schedules, T)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = Recorder()
        recs = batched(*args, seeds, observers=[rec])
        recs = [(r, rec.frames[s], rec.states[s]) for s, r in enumerate(recs)]
        alone = []
        for seed in seeds:
            rec = Recorder()
            r = batched(*args, [seed], observers=[rec])[0]
            alone.append((r, rec.frames[0], rec.states[0]))
    return recs, alone


def assert_same_record(batched, solo):
    (a, frames_a, states_a), (b, frames_b, states_b) = batched, solo
    same = lambda x, y: np.array_equal(x, y, equal_nan=True)  # noqa: E731
    assert a.aborted_at == b.aborted_at
    assert same(a.ts, b.ts)
    assert list(a.columns) == list(b.columns)
    for c in a.columns:
        assert same(a.columns[c], b.columns[c]), c
    for name in ("final_x", "final_y", "final_z", "z_norm_max", "l_norm1_max"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or same(x, y), name
    assert len(frames_a) == len(frames_b) and len(states_a) == len(states_b)
    for fa, fb in zip(frames_a, frames_b):
        for name in ("x", "y", "z"):
            assert same(getattr(fa, name), getattr(fb, name)), name
    for sa, sb in zip(states_a, states_b):
        assert all(same(x, y) for x, y in zip(sa, sb))


@settings(max_examples=30, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4),
       family=st.sampled_from(sorted(BATCH_PROBLEMS)),
       driver=st.sampled_from(sorted(DRIVERS)),
       sigma_y=st.sampled_from([0.1, 1e307]))
def test_batch_records_equal_solo_runs(seeds, family, driver, sigma_y):
    # every seed of a batch gets bitwise the record it gets alone, also
    # when other seeds of the batch diverge and leave it early
    recs, alone = run_batch_and_solo(driver, BATCH_PROBLEMS[family],
                                     batch_schedules(sigma_y=sigma_y), 40,
                                     seeds)
    assert len(recs) == len(seeds)
    for rec, solo in zip(recs, alone):
        assert_same_record(rec, solo)


DIVERGING = {
    # x noise near the float range on an unbounded box; gamma = 0 keeps
    # z, and so the recorded z suprema, finite up to the abort
    "run": (make_quadratic_problem(m=3, ni=2, r=2, gamma=0.0,
                                   box=(-np.inf, np.inf), seed=7),
            batch_schedules(sigma_x=1e307)),
    "baseline": (BATCH_PROBLEMS["quadratic"], batch_schedules(sigma_y=1e307)),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_aborted_seeds_leave_the_batch(driver):
    recs, alone = run_batch_and_solo(driver, *DIVERGING[driver], 60,
                                     list(range(10)))
    aborted = [r.aborted_at for r, _, _ in recs]
    assert None in aborted and any(a is not None for a in aborted)
    assert len(set(aborted)) > 2  # seeds leave at different rounds
    for rec, solo in zip(recs, alone):
        assert_same_record(rec, solo)
        rec = rec[0]
        # rows end with the last finite state
        assert len(rec.ts) == (rec.aborted_at or 61)
        if driver == "run":
            assert np.isfinite(rec.z_norm_max).all()


class Keeper:
    """Observer that keeps the emitted frames and states themselves, not
    copies, with the live-seed mask of each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, t, state, frame, ev, alive):
        self.calls.append((frame, state, alive.copy()))


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("family", sorted(BATCH_PROBLEMS))
def test_emitted_arrays_are_never_written_again(driver, family):
    # the drivers work in place on fresh arrays only: every frame and state
    # an observer was handed still holds what a copying Recorder saw
    keep, rec = Keeper(), Recorder()
    DRIVERS[driver](BATCH_PROBLEMS[family], ring_topology(3, 0.3),
                    batch_schedules(), 30, [3, 4], observers=[keep, rec])
    seen = defaultdict(int)
    for frame, state, alive in keep.calls:
        for s in np.flatnonzero(alive):
            k, seen[s] = seen[s], seen[s] + 1
            for name in ("x", "y", "z"):
                assert np.array_equal(getattr(frame, name)[s],
                                      getattr(rec.frames[s][k], name))
            for a, b in zip(state, rec.states[s][k]):
                assert np.array_equal(a[s], b)
    assert dict(seen) == {0: 31, 1: 31}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), S=st.integers(1, 3),
       family=st.sampled_from(sorted(BATCH_PROBLEMS)))
def test_round_leaves_its_inputs_unchanged(seed, S, family):
    # iterate, _descend and the baseline's _track read X, the tracker pair
    # and the frame without writing them, and
    # _descend gives bitwise clip(X + consensus - lam U), U being grad_own
    # on the own blocks and zero elsewhere, also at -0.0 and the box ends
    prob = BATCH_PROBLEMS[family]
    m, n, r = prob.m, prob.n, prob.r
    s = batch_schedules()
    W0, diagw = _split_weights(ring_topology(m, 0.3))
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 20.0, (S, m, n))
    X.reshape(-1)[rng.choice(X.size, 2, replace=False)] = -0.0
    P = rng.normal(0.0, 1.0, (2, S, m, r))
    Y, Z = P
    frame = BroadcastFrame(*(a + rng.normal(0.0, 1.0, a.shape) for a in (X, P)))
    inputs = [a.copy() for a in (X, P, frame.x, frame.yz)]
    store = prob.new_store([agent_rng(seed, i, "data") for i in range(S * m)],
                           batch=(S,), horizon=1)
    prob.draw(store)
    ev = prob.erm_eval(store, prob.own_block(X))
    grad_own = ev.grad_f_x(Y) + ev.grad_g_dot(Z)
    U = np.zeros_like(X)
    for i in range(m):  # agent i's own block is columns i*ni .. (i+1)*ni - 1
        U[:, i, i * prob.ni:(i + 1) * prob.ni] = grad_own[:, i]
    expect = np.clip((W0 @ frame.x + diagw * X) + X - 0.7 * U,
                     prob.box_lo, prob.box_hi)
    got = _descend(prob, W0, diagw, X, frame.x, 0.7, grad_own)
    assert got.tobytes() == expect.tobytes()
    iterate(X, P, frame, 3, s, W0, diagw, prob, ev)
    _track(W0, diagw, P, frame, ev, ev)
    for a, b in zip((X, P, frame.x, frame.yz), inputs):
        assert a.tobytes() == b.tobytes()


PAIR_PROBLEMS = {
    "quadratic-r1": make_quadratic_problem(m=3, ni=2, r=1, gamma=1.0,
                                           box=(-10, 10), seed=7),
    "quadratic-r2": BATCH_PROBLEMS["quadratic"],
    "personalized": BATCH_PROBLEMS["personalized"],  # r = 1
}


@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["unbatched", "S1", "S3"])
@pytest.mark.parametrize("family", sorted(PAIR_PROBLEMS))
def test_one_round_equals_the_per_tracker_update(family, lead):
    # one round of iterate and of the baseline's tracker step on the pair
    # (one consensus product on its (2, ..., m, r) stack) gives each
    # tracker bitwise what its own update gives it, for (m, .) states and
    # batches of S seeds
    prob = PAIR_PROBLEMS[family]
    m, n, r, t = prob.m, prob.n, prob.r, 4
    s = batch_schedules()
    W0, diagw = _split_weights(ring_topology(m, 0.3))
    rng = np.random.default_rng(len(lead) and lead[0])
    X = rng.normal(0.0, 2.0, lead + (m, n))
    P = rng.normal(0.0, 1.0, (2,) + lead + (m, r))
    frame = BroadcastFrame(X + rng.normal(0.0, 1.0, X.shape),
                           P + rng.normal(0.0, 1.0, P.shape))
    rows = (lead[0] if lead else 1) * m
    store = prob.new_store([agent_rng(3, i, "data") for i in range(rows)],
                           batch=lead, horizon=2)
    prob.draw(store)
    ev = prob.erm_eval(store, prob.own_block(X))
    Y, Z, hat_y, hat_z = (a.copy() for a in (*P, *frame.yz))  # one array each

    X_new, P_new = iterate(X, P, frame, t, s, W0, diagw, prob, ev)
    Y_new, Z_new, Ytil, Ztil = tracker_round(
        Y, Z, hat_y, hat_z, W0, diagw, s.lambda_y.value(t), s.lambda_z.value(t), ev)
    assert P_new.shape == P.shape
    assert P_new[0].tobytes() == Y_new.tobytes()
    assert P_new[1].tobytes() == Z_new.tobytes()
    X_want = _descend(prob, W0, diagw, X, frame.x, s.lambda_x.value(t),
                      ev.grad_f_x(Ytil) + ev.grad_g_dot(Ztil))
    assert X_new.tobytes() == X_want.tobytes()

    prob.draw(store)
    ev2 = prob.erm_eval(store, prob.own_block(X_new))
    P_new = _track(W0, diagw, P, frame, ev.reweighted(store), ev2)
    G_new, Q_new = baseline_tracker_round(Y, Z, hat_y, hat_z, W0, diagw,
                                          ev.reweighted(store), ev2)
    assert P_new.shape == P.shape
    assert P_new[0].tobytes() == G_new.tobytes()
    assert P_new[1].tobytes() == Q_new.tobytes()


def poisoned_draw(prob, row, count):
    """prob's draw, which at store count `count` makes batch row `row`'s
    aggregate samples infinite: the quadratic xi mean, the personalized
    g-stream counts and weights."""
    draw = type(prob).draw

    def draw_poisoned(self, store):
        draw(self, store)
        if store.count == count:
            stats = ((store.xi_mean,) if self.family == "quadratic"
                     else (store.counts_g, store.w[1]))
            for stat in stats:
                stat[row] = np.inf
    return draw_poisoned


def replay_per_tracker(driver, prob, s, seeds, calls):
    """Replay a batch's rounds from its seeds alone: every frame from the
    agents' reference noise streams, each tracker by its own update
    (reference.tracker_round, baseline_tracker_round); asserts that every
    emitted state and frame in calls (a Keeper's) is bitwise the replay's."""
    m, S, prefix = prob.m, len(seeds), "" if driver == "run" else "baseline-"
    W0, diagw = _split_weights(ring_topology(m, 0.3))
    noise = {"theta": s.noise_x, "chi": s.noise_y, "zeta": s.noise_z}
    streams = {tag: [LaplaceStream(agent_rng(sd, i, prefix + tag))
                     for sd in seeds for i in range(m)] for tag in noise}
    store = prob.new_store([agent_rng(sd, i, prefix + "data")
                            for sd in seeds for i in range(m)],
                           batch=(S,), horizon=len(calls))

    def obscured(t, A, tag):
        dim = A.shape[-1]
        return A + np.array([
            laplace_from_uniform(st.draw_centered(dim),
                                 noise[tag][k % m].laplace_param(t))
            for k, st in enumerate(streams[tag])]).reshape(A.shape)

    X = calls[0][1][0]  # the start point
    if driver == "run":
        Y = Z = np.zeros((S, m, prob.r))
    else:
        prob.draw(store)
        ev = prob.erm_eval(store, prob.own_block(X))
        Y, Z = ev.g, ev.grad_f_y(ev.g)
    for t, (frame, state, _) in enumerate(calls):
        for got, want in zip(state, (X, Y, Z)):
            assert got.tobytes() == want.tobytes()
        hx, hy, hz = obscured(t, X, "theta"), obscured(t, Y, "chi"), obscured(t, Z, "zeta")
        for got, want in zip((frame.x, frame.y, frame.z), (hx, hy, hz)):
            assert got.tobytes() == want.tobytes()
        if t == len(calls) - 1:
            break
        if driver == "run":
            prob.draw(store)
            ev = prob.erm_eval(store, prob.own_block(X))
            Y, Z, Ytil, Ztil = tracker_round(Y, Z, hy, hz, W0, diagw,
                                             s.lambda_y.value(t),
                                             s.lambda_z.value(t), ev)
            X = _descend(prob, W0, diagw, X, hx, s.lambda_x.value(t),
                         ev.grad_f_x(Ytil) + ev.grad_g_dot(Ztil))
        else:
            if t:
                prob.draw(store)
                ev = ev.reweighted(store)
            X = _descend(prob, W0, diagw, X, hx, s.lambda_x.lambda0,
                         ev.grad_f_x(Y) + ev.grad_g_dot(Z))
            ev2 = prob.erm_eval(store, prob.own_block(X))
            Y, Z = baseline_tracker_round(Y, Z, hy, hz, W0, diagw, ev, ev2)
            ev = ev2


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("family", sorted(BATCH_PROBLEMS))
def test_runs_replay_the_per_tracker_update(driver, family, monkeypatch):
    # whole batches of 3 seeds over two chunks of the pair bank and more,
    # with seed 1 ending inside the second chunk: every state, frame and
    # record is bitwise the per-tracker replay's
    prob, seeds = BATCH_PROBLEMS[family], [5, 6, 7]
    k = CHUNK // (2 * len(seeds) * prob.m * prob.r)  # pair chunk
    T, end = 2 * k + 10, k + 7
    monkeypatch.setattr(type(prob), "draw", poisoned_draw(prob, 1, end))
    keep, s = Keeper(), batch_schedules()
    with np.errstate(over="ignore", invalid="ignore"):
        recs = DRIVERS[driver](prob, ring_topology(3, 0.3), s, T, seeds,
                               observers=[keep])
        replay_per_tracker(driver, prob, s, seeds, keep.calls)
    assert len(keep.calls) == T + 1
    assert [r.aborted_at for r in recs] == [None, end, None]
    for row, r in enumerate(recs):
        last = keep.calls[T][1] if r.aborted_at is None else \
            keep.calls[r.aborted_at][1]
        for got, want in zip((r.final_x, r.final_y, r.final_z), last):
            assert got.tobytes() == want[row].tobytes()


def replay_data(prob, seed, T):
    """Each round's (xi, phi) for all agents of one seed, replayed from
    the agents' data streams in the order the store draws them."""
    rngs = [agent_rng(seed, i, "data") for i in range(prob.m)]
    rounds = []
    for _ in range(T):
        if prob.family == "quadratic":
            z = np.array([rng.standard_normal(prob.r + prob.ni) for rng in rngs])
            rounds.append((prob.noise_std_g * z[:, :prob.r],
                           prob.noise_std_f * z[:, prob.r:]))
        else:
            f_g = np.array([[rng.integers(prob.N), rng.integers(prob.N)]
                            for rng in rngs])
            rounds.append((f_g[:, 1], f_g[:, 0]))
    return rounds


@pytest.mark.parametrize("family", sorted(BATCH_PROBLEMS))
def test_l_audit_covers_every_round(family):
    # l_norm1_max is the max over every round t < T of ||l(x^t; xi^t)||_1,
    # the pair the update uses; l is replayed as the one-sample reference
    # ERM oracle's g at the recorded x^t and the replayed xi^t
    prob, T, seeds = BATCH_PROBLEMS[family], 40, [5, 6]
    rec = Recorder()
    recs = run_seeds(prob, ring_topology(3, 0.3), batch_schedules(), T, seeds,
                     observers=[rec])
    for s, (seed, batched) in enumerate(zip(seeds, recs)):
        data = replay_data(prob, seed, T)
        expect = np.max([np.abs(ErmReference(
            prob, [xi], [phi], prob.own_block(state[0])).g).sum(axis=-1)
            for state, (xi, phi) in zip(rec.states[s], data)], axis=0)
        solo = run_seeds(prob, ring_topology(3, 0.3), batch_schedules(), T,
                         [seed])[0]
        for r in (batched, solo):
            np.testing.assert_allclose(r.l_norm1_max, expect, rtol=1e-12,
                                       atol=0)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_one_softmax_pass_per_round(driver, monkeypatch):
    # the audits read the round's oracle bundle: run builds one softmax
    # pass per round, the baseline one per round plus one at the start;
    # the truth pass of each grid-column stack (which metric_eval and the
    # baseline's tracker_err share) is not counted
    import ldpagg.problems as problems
    built, paused = [0], [False]
    init, snapshots = problems.SoftmaxPass.__init__, _Batch.snapshots

    def counting_init(self, *args):
        built[0] += not paused[0]
        init(self, *args)

    def uncounted_snapshots(self):
        paused[0] = True
        try:
            return snapshots(self)
        finally:
            paused[0] = False

    monkeypatch.setattr(problems.SoftmaxPass, "__init__", counting_init)
    monkeypatch.setattr(_Batch, "snapshots", uncounted_snapshots)
    T = 150
    DRIVERS[driver](BATCH_PROBLEMS["personalized"], ring_topology(3, 0.3),
                    batch_schedules(), T, [1, 2])
    assert built[0] == T + (driver == "baseline")


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_one_softmax_pass_per_snapshot_call(driver, monkeypatch):
    # the grid columns of a stack read one truth bundle: each snapshot
    # call builds one softmax pass, the baseline's tracker_err included
    import ldpagg.problems as problems
    built, calls = [0], []
    init, snapshots = problems.SoftmaxPass.__init__, _Batch.snapshots

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counting_snapshots(self):
        before = built[0]
        snapshots(self)
        calls.append(built[0] - before)

    monkeypatch.setattr(problems.SoftmaxPass, "__init__", counting_init)
    monkeypatch.setattr(_Batch, "snapshots", counting_snapshots)
    DRIVERS[driver](BATCH_PROBLEMS["personalized"], ring_topology(3, 0.3),
                    batch_schedules(), 2000, [1, 2])
    assert len(calls) > 1 and calls == [1] * len(calls)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_einsum_calls_per_round(driver, monkeypatch):
    # a personalized round of run makes 4 einsum calls (the pass's logits,
    # the pair's weighted loss means, grad_f_x, grad_g_dot); the
    # baseline's 5 (the reweighted pair in addition) after 2 for the
    # start's bundle and 4 in round 0, which reuses it; the grid columns'
    # einsums are not counted
    calls, paused = [0], [False]
    einsum, snapshots = np.einsum, _Batch.snapshots

    def counting_einsum(*args, **kwargs):
        calls[0] += not paused[0]
        return einsum(*args, **kwargs)

    def uncounted_snapshots(self):
        paused[0] = True
        try:
            return snapshots(self)
        finally:
            paused[0] = False

    monkeypatch.setattr(np, "einsum", counting_einsum)
    monkeypatch.setattr(_Batch, "snapshots", uncounted_snapshots)
    T = 150
    DRIVERS[driver](BATCH_PROBLEMS["personalized"], ring_topology(3, 0.3),
                    batch_schedules(), T, [1, 2])
    assert calls[0] == (4 * T if driver == "run" else 5 * T + 1)


def test_one_transform_call_per_noise_chunk(monkeypatch):
    # at the sc_paper shape (m = 5, S = 3, n = 10, r = 2) each noise bank
    # (theta, and the chi and zeta pair on 2 S m rows) transforms a chunk
    # of rounds per laplace_from_uniform call; a chunk ends at the bank's
    # chunk size or at the end of a refill block
    import ldpagg.schedules as schedules
    calls = [0]
    transform = schedules.laplace_from_uniform

    def counting(u, nu):
        calls[0] += 1
        return transform(u, nu)

    monkeypatch.setattr(schedules, "laplace_from_uniform", counting)
    m, S, T = 5, 3, 2000
    prob = make_quadratic_problem(m=m, ni=2, r=2, gamma=1.0, box=(-10, 10),
                                  seed=7)
    s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=m,
                          lambda0=(0.5, 1, 1), sigma=(1, 1, 1))
    run_seeds(prob, ring_topology(m, 0.3), s, T, list(range(S)))
    expect = 0
    for rows, dim in ((S * m, prob.n), (2 * S * m, prob.r)):  # theta, pair
        block = max(1, AgentBank._BLOCK // dim)
        chunk = min(block, max(1, CHUNK // (rows * dim)))
        per_block = -(-block // chunk)
        draws = T + 1
        expect += draws // block * per_block + -(-(draws % block) // chunk)
    assert calls[0] == expect < 3 * (T + 1)


@pytest.mark.parametrize("prefix", ["", "baseline-"])
@pytest.mark.parametrize("family", ["quadratic", "personalized"])
def test_banks_refill_no_more_rounds_than_the_run_draws(family, prefix):
    # every noise bank and the data bank of a T-round batch refill at most
    # T + 1 rounds, and a whole block when the run is longer; the pair bank
    # has a row per tracker, seed and agent
    m = 4
    prob = (make_quadratic_problem(m=m, ni=2, r=2, box=(-10, 10), seed=7)
            if family == "quadratic" else make_personalized_problem(m=m, seed=7))
    s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=m)
    data_dim = prob.r + prob.ni if family == "quadratic" else 2
    for T in (0, 7, 3000):
        b = _Batch(prob, ring_topology(m, 0.3), s, T, [0, 1], prefix, None,
                   metric_eval)
        for bank, rows, dim in zip((*b.noise, b.store.bank), (2 * m, 4 * m, 2 * m),
                                   (prob.n, prob.r, data_dim)):
            assert bank._buf.shape == (rows, min(AgentBank._BLOCK // dim, T + 1),
                                       dim)


def sc_paper_problem():
    """The problem of the sc_paper shape (m = 5, n = 10, r = 2), with its
    F_star computed."""
    prob = make_quadratic_problem(m=5, ni=2, r=2, gamma=1.0, box=(-10, 10),
                                  seed=7)
    prob.F_star
    return prob


def sc_paper_run(prob, T, S=3, driver=run_seeds, observers=()):
    s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=prob.m,
                          lambda0=(0.5, 1, 1), sigma=(1, 1, 1))
    return driver(prob, ring_topology(prob.m, 0.3), s, T, list(range(S)),
                  observers=observers)


def test_aborted_seeds_across_observer_chunks():
    # run_seeds reduces the F_gap running mean and the premise audit once
    # per k rounds (k = 136 for 10 seeds of n = 6); T = 400 crosses two
    # chunk boundaries, and seeds leave inside more than one chunk
    prob, T, seeds = DIVERGING["run"][0], 400, list(range(10))
    k = CHUNK // (len(seeds) * prob.n)
    recs, alone = run_batch_and_solo("run", prob,
                                     batch_schedules(sigma_x=1e306), T, seeds)
    aborted = [r.aborted_at for r, _, _ in recs]
    assert T > 2 * k and None in aborted
    assert len({a // k for a in aborted if a is not None}) > 1
    grid = sampling_grid(T)
    for rec, solo in zip(recs, alone):
        assert_same_record(rec, solo)
        rec = rec[0]
        assert np.array_equal(rec.ts, grid[grid < (rec.aborted_at or T + 1)])
        assert np.isfinite(rec.z_norm_max).all()


def test_aborts_at_observer_chunk_edges(monkeypatch):
    # seeds end at the first and the second round of an observer chunk, at
    # its last round and the round after, and at T; the data draw that
    # makes a seed's xi sum and mean infinite at store count a makes its y,
    # so its state, non-finite at iteration a, while l, on the newest xi
    # alone, and z up to a stay finite
    prob, T, seeds = BATCH_PROBLEMS["quadratic"], 400, list(range(7))
    k = CHUNK // (len(seeds) * prob.n)
    ends = {1: k, 2: k + 1, 3: 2 * k - 1, 4: 2 * k, 5: T}
    draw = QuadraticProblem.draw

    def draw_to_end(self, store):
        draw(self, store)
        rows = store.xi_sum.reshape((-1,) + store.xi_sum.shape[-2:])
        means = store.xi_mean.reshape(rows.shape)
        for row, mean, rng in zip(rows, means, store.bank._rngs[::self.m]):
            if ends.get(rng.bit_generator.seed_seq.entropy[0]) == store.count:
                row[...] = mean[...] = np.inf

    monkeypatch.setattr(QuadraticProblem, "draw", draw_to_end)
    recs, alone = run_batch_and_solo("run", prob, batch_schedules(), T, seeds)
    assert T > 2 * k
    assert [r.aborted_at for r, _, _ in recs] == [ends.get(s) for s in seeds]
    grid = sampling_grid(T)
    for rec, solo in zip(recs, alone):
        assert_same_record(rec, solo)
        rec = rec[0]
        assert np.array_equal(rec.ts, grid[grid < (rec.aborted_at or T + 1)])
        assert np.isfinite(rec.z_norm_max).all()
        assert np.isfinite(rec.l_norm1_max).all()


class PerRoundGate:
    """The abort check as a per-round formula: every round, end the live
    seeds whose X, Y and Z sums add to a non-finite total."""

    def __init__(self, S, T):
        self.end, self.final = np.full(S, T + 1), [None] * S

    def retire(self, t, X, Y, Z):
        total = X.sum(axis=(1, 2)) + Y.sum(axis=(1, 2)) + Z.sum(axis=(1, 2))
        for s in np.flatnonzero((self.end > t) & ~np.isfinite(total)):
            self.final[s] = (X[s], Y[s], Z[s])
            self.end[s] = t
        return self.end > t


def gate_batch(S, T):
    prob = BATCH_PROBLEMS["quadratic"]
    return _Batch(prob, ring_topology(3, 0.3), batch_schedules(), T,
                  list(range(S)), "", None, metric_eval)


def paired(X, Y, Z):
    """(X, Y, Z) as the drivers carry it: X and the tracker pair."""
    return X, np.stack([Y, Z])


def check_gate(b, rounds):
    """Feed rounds of (X, Y, Z) to b.retire_nonfinite, the trackers as a
    pair, and to the per-round formula: the same ends and final states, a
    returned mask equal to end > t at every call, and no returned mask
    ever written."""
    ref = PerRoundGate(len(b.seeds), b.T)
    masks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t, state in enumerate(rounds, start=1):
            got = b.retire_nonfinite(t, *paired(*state))
            assert np.array_equal(got, ref.retire(t, *state))
            assert np.array_equal(got, b.end > t)
            masks.append((got, got.copy()))
    assert np.array_equal(b.end, ref.end)
    for fin, want in zip(b.final, ref.final):
        assert (fin is None) == (want is None)
        if fin is not None:
            assert all(a.tobytes() == w.tobytes() for a, w in zip(fin, want))
    for mask, copy in masks:
        assert np.array_equal(mask, copy)


ENTRIES = st.sampled_from([0.0, -0.0, 1.5, -3.0, 8e307, 1e308, -1e308,
                           np.inf, -np.inf, np.nan])


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 4), T=st.integers(1, 6), data=st.data())
def test_abort_gate_equals_the_per_round_formula(S, T, data):
    # each round, a seed's state is finite and small or drawn entry by
    # entry from inf, NaN, +-1e308 and small values, so totals overflow
    # with every entry finite, and finite totals overflow their sum
    def seed_state(shape):
        if data.draw(st.booleans()):
            return np.full(shape, 0.25)
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(ENTRIES, min_size=size,
                                           max_size=size))).reshape(shape)

    m, n, r = 3, 6, 2
    rounds = [tuple(np.stack([seed_state((m, d)) for _ in range(S)])
                    for d in (n, r, r)) for _ in range(T)]
    check_gate(gate_batch(S, T), rounds)


def test_abort_gate_overflow_cases():
    # round 1: seeds 1 and 2 have finite totals (1.5e308) whose sum
    # overflows, and no seed ends; round 2: seed 0's entries are finite
    # but its X and Y sums add to inf, while seed 1's X sum cancels its X
    # sum in a sum over the whole batch, and seed 0 ends; round 3: seed 2
    # goes NaN
    m, n, r = 3, 6, 2
    big = [np.zeros((3, m, d)) for d in (n, r, r)]
    big[0][1:, 0, :2] = (1e308, 5e307)
    over = [np.zeros((3, m, d)) for d in (n, r, r)]
    over[0][0, 0, 0] = over[1][0, 0, 0] = 1e308
    over[0][1, 0, 0] = -1e308
    nan = [a.copy() for a in over]
    nan[2][2, 1, 0] = np.nan
    rounds = [tuple(big), tuple(over), tuple(nan), tuple(nan)]
    assert np.isfinite(sum(a.sum() for a in over))
    b = gate_batch(3, 4)
    check_gate(b, rounds)
    assert b.end.tolist() == [2, 5, 3]


def test_a_batch_is_freed_without_the_cycle_collector():
    # nothing a batch holds refers back to it, its column factory
    # included, so its banks go with its last reference; a cycle would
    # keep finished runs' banks alive (peak RSS of 4 sc_paper cycles in
    # one process: 40.7 -> 48.6 MB)
    gc.disable()
    try:
        b = gate_batch(2, 5)
        b.cols["x"][0] = 1.0  # a column made on first write
        ref = weakref.ref(b)
        del b
        assert ref() is None
    finally:
        gc.enable()


def test_abort_gate_keeps_its_mask_until_a_seed_ends():
    # once seed 0 has ended, its non-finite rows stay in the state; a round
    # in which no live seed ends returns the mask object it returned before
    m, n, r = 3, 6, 2
    fin = [np.zeros((3, m, d)) for d in (n, r, r)]
    nan0 = [a.copy() for a in fin]
    nan0[0][0, 0, 0] = np.nan
    nan1 = [a.copy() for a in nan0]
    nan1[1][1, 2, 1] = np.inf
    b = gate_batch(3, 6)
    first = b.retire_nonfinite(1, *paired(*fin))
    assert b.retire_nonfinite(2, *paired(*fin)) is first
    ended = b.retire_nonfinite(3, *paired(*nan0))
    assert ended is not first and ended.tolist() == [False, True, True]
    assert b.retire_nonfinite(4, *paired(*nan0)) is ended
    assert b.retire_nonfinite(5, *paired(*nan0)) is ended
    assert b.retire_nonfinite(6, *paired(*nan1)).tolist() == [False, False, True]
    assert b.end.tolist() == [3, 6, 7]


def fgap_case(case):
    """(problem, records, Recorder) of a run_seeds batch: sc_paper's shape
    at S = 3 or S = 1, or 10 diverging seeds that end at different rounds."""
    rec = Recorder()
    if case == "aborts":
        prob = DIVERGING["run"][0]
        with np.errstate(over="ignore", invalid="ignore"):
            recs = run_seeds(prob, ring_topology(3, 0.3),
                             batch_schedules(sigma_x=1e306), 400,
                             list(range(10)), observers=[rec])
        assert len({r.aborted_at for r in recs}) > 2 and recs[0].aborted_at
    else:
        prob = sc_paper_problem()
        recs = sc_paper_run(prob, {"S3": 700, "S1": 2000}[case],
                            S=int(case[1]), observers=[rec])
    return prob, recs, rec


def test_fgap_runmean_is_a_per_round_left_fold():
    # the running mean, summed once per chunk of rounds (273 at sc_paper's
    # shape for S = 3 and 819 for S = 1, so T crosses two chunk ends; 136
    # for 10 diverging seeds, which end in more than one chunk), is bitwise
    # a per-round sum += F_true(x^t) - F_star divided by t + 1 at each
    # seed's grid points below its end
    for case in ("S3", "S1", "aborts"):
        prob, recs, rec = fgap_case(case)
        for s, r in enumerate(recs):
            total, expect = 0.0, []
            with np.errstate(over="ignore", invalid="ignore"):
                for t, (X, _, _) in enumerate(rec.states[s]):
                    total += prob.F_true(prob.own_block(X).reshape(prob.n)) \
                        - prob.F_star
                    expect.append(total / (t + 1))
            got = r.columns["F_gap_runmean"]
            want = np.array(expect)[r.ts.astype(int)]
            assert got.tobytes() == want.tobytes(), (case, s)


@pytest.mark.parametrize("case", ["quadratic", "personalized", "aborts"])
def test_tracker_err_is_the_per_state_distance(case):
    # each baseline record's tracker_err is, byte for byte, the squared
    # distance of the aggregate tracker G from the agent mean of g_true at
    # the own blocks, on the states a Recorder kept at the record's grid
    # points; the diverging batch's seeds end at different rounds
    rec = Recorder()
    if case == "aborts":
        prob, schedules = DIVERGING["baseline"]
        with np.errstate(over="ignore", invalid="ignore"):
            recs = baseline_seeds(prob, ring_topology(3, 0.3), schedules, 60,
                                  list(range(10)), observers=[rec])
        assert len({r.aborted_at for r in recs}) > 2
    else:
        prob = BATCH_PROBLEMS[case]
        recs = sc_paper_run(prob, 300, driver=baseline_seeds, observers=[rec])
    for s, r in enumerate(recs):
        want = []
        with np.errstate(over="ignore", invalid="ignore"):
            for t in r.ts.astype(int):
                X, G, _ = rec.states[s][t]
                gbar = prob.g_true(prob.own_block(X)).mean(axis=0)
                want.append(((G - gbar) ** 2).sum())
        assert r.columns["tracker_err"].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_truth_calls_per_chunk_and_grid_point(driver, monkeypatch):
    # metric_eval runs once per CHUNK // (S m n) grid points (54 here) on
    # their stacked states, and run's F_gap running mean calls F_true once
    # per chunk of rounds, not once per round; each stack's columns (the
    # baseline's tracker_err among them) read one truth bundle, the only
    # one built outside the problem (erm_eval and F_true build theirs
    # within), and metric_eval calls neither F_true nor g_true
    import ldpagg.algorithm as algorithm
    prob, calls = sc_paper_problem(), defaultdict(int)
    F_true, metric_eval = QuadraticProblem.F_true, algorithm.metric_eval
    g_true, truth, stacks = QuadraticProblem.g_true, QuadraticProblem.truth, []

    def counting_F_true(self, xown):
        calls["F_true"] += 1
        return F_true(self, xown)

    def counting_g_true(self, Xown):
        calls["g_true"] += sys._getframe(1).f_globals["__name__"] != "ldpagg.problems"
        return g_true(self, Xown)

    def counting_truth(self, Xown):
        if sys._getframe(1).f_globals["__name__"] != "ldpagg.problems":
            stacks.append(Xown.shape)
        return truth(self, Xown)

    def counting_metric_eval(*args):
        calls["metric_eval"] += 1
        return metric_eval(*args)

    monkeypatch.setattr(QuadraticProblem, "F_true", counting_F_true)
    monkeypatch.setattr(QuadraticProblem, "g_true", counting_g_true)
    monkeypatch.setattr(QuadraticProblem, "truth", counting_truth)
    monkeypatch.setattr(algorithm, "metric_eval", counting_metric_eval)
    T, S = 2000, 3
    sc_paper_run(prob, T, S, DRIVERS[driver])
    grid = sampling_grid(T).size
    per_call = CHUNK // (S * prob.m * prob.n)
    chunks = -(-(T + 1) // (CHUNK // (S * prob.n)))
    assert calls["metric_eval"] == -(-grid // per_call) == 3
    assert calls["F_true"] == (chunks if driver == "run" else 0)
    assert calls["g_true"] == 0
    # the stacked grid states of each metric_eval call
    sizes = [per_call] * (grid // per_call) + [grid % per_call]
    assert stacks == [(g * S, prob.m, prob.ni) for g in sizes]


def snapshot_calls(monkeypatch):
    """The leading shape of the X each metric_eval call of a driver gets."""
    import ldpagg.algorithm as algorithm
    calls, metric_eval = [], algorithm.metric_eval

    def recording_metric_eval(problem, X, Y, Z, *truth):
        calls.append(X.shape[:-2])
        return metric_eval(problem, X, Y, Z, *truth)

    monkeypatch.setattr(algorithm, "metric_eval", recording_metric_eval)
    return calls


def assert_snapshots_per_grid_point(prob, recs, rec, T):
    """Each record holds the grid points of a T-round run below its seed's
    end, and its metric columns are, byte for byte, one-seed metric_eval
    calls on the states the Recorder kept at those points."""
    grid = sampling_grid(T)
    for s, r in enumerate(recs):
        end = T + 1 if r.aborted_at is None else r.aborted_at
        assert r.ts.tobytes() == grid[grid < end].astype(float).tobytes()
        rows = [metric_eval(prob, *rec.states[s][int(t)]) for t in r.ts]
        assert set(r.columns) >= set(rows[0])
        for c in rows[0]:
            want = np.array([row[c] for row in rows])
            assert r.columns[c].tobytes() == want.tobytes(), (s, c)


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("family", sorted(BATCH_PROBLEMS))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_snapshots_equal_per_grid_point_calls(driver, family, S, monkeypatch):
    # T = 2,000 has 140 grid points: at sc_paper's shape (the quadratic
    # case) and at S = 3 of the personalized one more than one stack of
    # CHUNK // (S m n) pending states is evaluated before the records
    prob = sc_paper_problem() if family == "quadratic" else BATCH_PROBLEMS[family]
    calls, rec, T = snapshot_calls(monkeypatch), Recorder(), 2000
    recs = sc_paper_run(prob, T, S, DRIVERS[driver], observers=[rec])
    per_call = CHUNK // (S * prob.m * prob.n)
    grid = sampling_grid(T).size
    assert calls == [(per_call * S,)] * (grid // per_call) + [(grid % per_call * S,)]
    assert_snapshots_per_grid_point(prob, recs, rec, T)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_snapshots_of_aborted_seeds(driver):
    # the pending stacks (45 states of 10 seeds here, of 61 grid points)
    # hold the non-finite states of seeds that ended, which reach no other
    # seed's slice
    prob, schedules = DIVERGING[driver]
    rec = Recorder()
    with np.errstate(over="ignore", invalid="ignore"):
        recs = DRIVERS[driver](prob, ring_topology(3, 0.3), schedules, 60,
                               list(range(10)), observers=[rec])
    assert None in [r.aborted_at for r in recs]
    assert len({r.aborted_at for r in recs}) > 2
    with np.errstate(over="ignore", invalid="ignore"):
        assert_snapshots_per_grid_point(prob, recs, rec, 60)


def test_one_state_per_snapshot_call_past_a_chunk(monkeypatch):
    # S m n = 3 * 40 * 80 > CHUNK: every grid state goes to metric_eval
    # alone, unstacked
    prob = make_quadratic_problem(m=40, ni=2, r=2, box=(-10, 10), seed=7)
    assert 3 * prob.m * prob.n > CHUNK
    calls, rec, T = snapshot_calls(monkeypatch), Recorder(), 30
    recs = sc_paper_run(prob, T, 3, observers=[rec])
    assert calls == [(3,)] * sampling_grid(T).size
    assert_snapshots_per_grid_point(prob, recs, rec, T)
