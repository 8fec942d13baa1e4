import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpagg.reference import LaplaceStream, sample_laplace
from ldpagg.schedules import (AgentBank, ConvexityCase, NoiseBank,
                              NoiseSchedule, ScheduleSet, StepsizeSchedule,
                              agent_rng, broadcast_noise, check_conditions,
                              corollary1_exponents, corollary1_preset,
                              laplace_from_uniform)


def make_set(vx, vy, vz, sx, sy, sz, m=1):
    return ScheduleSet(
        lambda_x=StepsizeSchedule(1.0, vx),
        lambda_y=StepsizeSchedule(1.0, vy),
        lambda_z=StepsizeSchedule(1.0, vz),
        noise_x=broadcast_noise(1.0, sx, m),
        noise_y=broadcast_noise(1.0, sy, m),
        noise_z=broadcast_noise(1.0, sz, m),
    )


class TestConditions:
    def test_preset_sc_beta(self):
        s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01)
        checks, rate = check_conditions(s, ConvexityCase.STRONGLY_CONVEX)
        assert all(passed for _, passed in checks)
        assert rate == pytest.approx(0.49)

    def test_stepsize_chain_violation(self):
        s = make_set(0.5, 0.02, 0.6, 0.4, 0.01, 0.02)
        checks, rate = check_conditions(s, ConvexityCase.STRONGLY_CONVEX)
        assert rate is None
        assert any("v_x" in name for name, passed in checks if not passed)

    def test_heterogeneous_offsets_pass_assumption4(self):
        # per-agent noise exponents around the published large-scale values
        m = 5
        s = ScheduleSet(
            lambda_x=StepsizeSchedule(1.0, 0.55),
            lambda_y=StepsizeSchedule(1.0, 0.02),
            lambda_z=StepsizeSchedule(1.0, 0.03),
            noise_x=broadcast_noise(1.0, [0.505 - 0.001 * i for i in range(m)], m),
            noise_y=broadcast_noise(1.0, [0.015 - 0.001 * i for i in range(m)], m),
            noise_z=broadcast_noise(1.0, [0.025 - 0.001 * i for i in range(m)], m),
        )
        checks, _ = check_conditions(s, ConvexityCase.CONVEX)
        a4 = [p for name, p in checks if "varsigma_x < v_x - v_z" in name
              or "varsigma_y < v_y" in name or "varsigma_z < v_z" in name]
        assert a4 and all(a4)

    def test_rate_exponent_none_on_failure(self):
        s = make_set(0.7, 0.02, 0.03, 0.1, 0.01, 0.02)  # varsigma_x too small (sc)
        checks, rate = check_conditions(s, ConvexityCase.STRONGLY_CONVEX)
        assert not all(passed for _, passed in checks) and rate is None


class TestPresets:
    def test_sc_exponents(self):
        assert corollary1_exponents(ConvexityCase.STRONGLY_CONVEX, 0.01) == \
            pytest.approx((0.57, 0.02, 0.03, 0.53, 0.01, 0.02))

    def test_cvx_rate(self):
        s = corollary1_preset(ConvexityCase.CONVEX, 0.01)
        checks, rate = check_conditions(s, ConvexityCase.CONVEX)
        assert s.lambda_x.v == pytest.approx(0.55)
        assert all(passed for _, passed in checks) and rate == pytest.approx(0.45)

    def test_large_delta_rejected(self):
        with pytest.raises(ValueError):
            corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.2)

    def test_preset_passes_all_cases(self):
        for case in ConvexityCase:
            s = corollary1_preset(case, 0.01)
            checks, rate = check_conditions(s, case)
            assert all(passed for _, passed in checks) and rate is not None


class TestLaplace:
    def test_moments_nu1(self):
        rng = np.random.default_rng(0)
        x = sample_laplace(rng, 1.0, 10 ** 6)
        assert abs(x.mean()) < 0.01
        assert x.var() == pytest.approx(2.0, rel=0.05)

    def test_variance_nu3(self):
        rng = np.random.default_rng(1)
        x = sample_laplace(rng, 3.0, 10 ** 6)
        assert x.var() == pytest.approx(18.0, rel=0.05)

    def test_degenerate_scale(self):
        rng = np.random.default_rng(2)
        x = sample_laplace(rng, 1e-12, 1000)
        assert np.median(np.abs(x)) < 1e-10
        assert np.max(np.abs(x)) < 1e-9

    def test_excess_kurtosis(self):
        rng = np.random.default_rng(3)
        x = sample_laplace(rng, 1.0, 10 ** 6)
        kurt = np.mean(x ** 4) / np.mean(x ** 2) ** 2
        assert kurt == pytest.approx(6.0, rel=0.10)

    def test_zero_sigma_draws_zero(self):
        stream = LaplaceStream(np.random.default_rng(4))
        assert np.all(stream.draw(0.0, 100) == 0.0)

    def test_stream_batching_invariance(self):
        a = LaplaceStream(np.random.default_rng(5))
        b = LaplaceStream(np.random.default_rng(5))
        xs = np.concatenate([a.draw(1.5, 3), a.draw(1.5, 7), a.draw(1.5, 2)])
        ys = b.draw(1.5, 12)
        assert np.array_equal(xs, ys)


@settings(max_examples=40, deadline=None)
@given(S=st.integers(1, 3), m=st.integers(1, 4), dim=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       nu=st.sampled_from(["scalar", "column", "zero"]))
def test_laplace_from_uniform_is_the_textbook_transform_bitwise(S, m, dim,
                                                                 seed, nu):
    # the in-place transform gives every element the ufunc sequence of the
    # textbook expression, also at u = -1/2 (the 1e-300 guard), u = +-0
    # and |u| next to 1/2, and never writes into u
    rng = np.random.default_rng(seed)
    u = rng.random((S, m, dim)) - 0.5
    special = [-0.5, 0.0, -0.0, np.nextafter(0.5, 0.0),
               -np.nextafter(0.5, 0.0), np.nextafter(-0.5, 0.0)]
    flat = u.reshape(-1)
    picks = rng.choice(flat.size, min(flat.size, len(special)), replace=False)
    flat[picks] = special[:len(picks)]
    nu = {"scalar": float(rng.uniform(0.0, 5.0)),
          "column": rng.uniform(0.0, 5.0, (m, 1)),
          "zero": 0.0}[nu]
    before = u.copy()
    got = laplace_from_uniform(u, nu)
    expect = -nu * np.sign(u) * np.log(np.maximum(1.0 - 2.0 * np.abs(u), 1e-300))
    assert got.shape == u.shape and got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()
    assert u.tobytes() == before.tobytes()
    assert not np.shares_memory(got, u)


class TestRngStreams:
    def test_deterministic(self):
        a = agent_rng(42, 3, "theta").random(5)
        b = agent_rng(42, 3, "theta").random(5)
        assert np.array_equal(a, b)

    def test_distinct_across_agents_and_tags(self):
        base = agent_rng(42, 0, "theta").random(5)
        assert not np.array_equal(base, agent_rng(42, 1, "theta").random(5))
        assert not np.array_equal(base, agent_rng(42, 0, "chi").random(5))
        assert not np.array_equal(base, agent_rng(43, 0, "theta").random(5))


def bank_horizon(place, dim):
    """(horizon, rounds per refill) of a bank of dim-vectors with a horizon
    below, at or above _BLOCK // dim."""
    block = max(1, AgentBank._BLOCK // max(dim, 1))
    horizon = {"below": block // 3, "at": block, "above": block + 1}[place]
    return horizon, max(1, min(block, horizon))


HORIZONS = st.sampled_from(["below", "at", "above"])


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 4), dim=st.sampled_from([0, 1, 3, 400, 2049, 5000]),
       extra=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1),
       tag=st.sampled_from(["theta", "chi", "zeta"]), place=HORIZONS)
def test_bank_rows_replay_agent_streams_across_refills(m, dim, extra, seed, tag,
                                                       place):
    # a refill holds at most horizon rounds; the rounds go at least three
    # refills past the horizon, so refill boundaries fall inside the
    # replayed sequence and a draw past the horizon still replays
    horizon, per_refill = bank_horizon(place, dim)
    bank = AgentBank([agent_rng(seed, i, tag) for i in range(m)], dim,
                     horizon=horizon)
    assert bank._buf.shape[1] == per_refill
    rounds = horizon + 3 * per_refill + extra
    streams = [LaplaceStream(agent_rng(seed, i, tag)) for i in range(m)]
    for _ in range(rounds):
        u = bank.next() - 0.5
        assert u.shape == (m, dim)
        for i in range(m):
            assert np.array_equal(u[i], streams[i].draw_centered(dim))


def hetero_noise(m, tag=0):
    """m <= 4 per-agent schedules of noise tag 0 or 1. Tag 0: agent 0 has
    sigma = 0, agents 1 and 2 share a schedule, agent 3 has its own. Tag 1:
    agents 0 and 2 share a schedule, agent 1 has sigma = 0 and agent 3
    shares tag 0's schedule of agents 1 and 2."""
    a, b = NoiseSchedule(1.3, 0.6), NoiseSchedule(0.4, 0.1)
    if tag:
        c = NoiseSchedule(0.7, 0.05)
        return (c, NoiseSchedule(0.0, 0.0), c, a)[:m]
    return (NoiseSchedule(0.0, 0.2), a, a, b)[:m]


@settings(max_examples=20, deadline=None)
@given(S=st.integers(1, 3), m=st.integers(1, 4),
       dim=st.sampled_from([0, 1, 3, 400, 2049, 5000]),
       extra=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 4),
       tags=st.sampled_from([("theta",), ("chi",), ("chi", "zeta")]),
       place=HORIZONS)
@example(S=3, m=4, dim=2, extra=1, seed=5, tags=("chi", "zeta"), place="above")
@example(S=1, m=4, dim=1, extra=0, seed=9, tags=("chi", "zeta"), place="at")
def test_noise_bank_replays_reference_streams(S, m, dim, extra, seed, tags,
                                              place):
    # row (g*S + s)*m + i of round t, entry [g, s, i] of its (G, S, m, dim)
    # slab, is agent i's reference Laplace draw for tag g under seed s, on
    # tag g's own per-agent schedule; the rounds go at least three refills
    # past the horizon and so cross at least three chunk boundaries (a
    # chunk never spans a refill)
    G = len(tags)
    noise = [hetero_noise(m, g) for g in range(G)]
    rows = [(g, s, i) for g in range(G) for s in range(S) for i in range(m)]
    horizon, per_refill = bank_horizon(place, dim)
    bank = NoiseBank([agent_rng(seed + s, i, tags[g]) for g, s, i in rows],
                     noise, dim, horizon=horizon)
    assert bank._buf.shape == (G * S * m, per_refill, dim)
    rounds = horizon + 3 * per_refill + extra + 1
    streams = [LaplaceStream(agent_rng(seed + s, i, tags[g]))
               for g, s, i in rows]
    slabs, copies = [], []
    for t in range(rounds):
        slab = bank.next()
        assert slab.shape == (G, S, m, dim) and slab.flags.c_contiguous
        for stream, (g, s, i) in zip(streams, rows):
            expect = laplace_from_uniform(stream.draw_centered(dim),
                                          noise[g][i].laplace_param(t))
            assert slab[g, s, i].tobytes() == expect.tobytes()
        slabs.append(slab)
        copies.append(slab.copy())
    # every slab is kept alive, so disjoint address ranges mean no two
    # rounds share memory; later draws left every slab as it was
    spans = sorted((a.__array_interface__["data"][0], a.nbytes)
                   for a in slabs if a.size)
    for (lo, size), (nxt, _) in zip(spans, spans[1:]):
        assert lo + size <= nxt
    for slab, copy in zip(slabs, copies):
        assert slab.tobytes() == copy.tobytes()


def test_laplace_params_gather_matches_per_agent_schedules():
    # one tag with 3 distinct schedules; a second tag that repeats one of
    # them and adds one: each (tag, agent) gathers its own schedule's value
    noise = broadcast_noise([1.0, 0.5, 1.0, 2.0, 0.5], [0.1, 0.1, 0.1, 0.3, 0.1], 5)
    bank = NoiseBank([agent_rng(0, i, "theta") for i in range(5)], [noise], 1,
                     horizon=0)
    assert len(bank.distinct) == 3
    ts = (0, 1, 17, 10 ** 5)
    params = bank.laplace_params(ts)
    assert params.shape == (len(ts), 1, 5)
    for t, row in zip(ts, params):
        assert np.array_equal(row, [[s.laplace_param(t) for s in noise]])
    pair = [noise, broadcast_noise([2.0, 3.0, 2.0, 2.0, 3.0], [0.3, 0.2, 0.3, 0.3, 0.2], 5)]
    bank = NoiseBank([agent_rng(0, i, tag) for tag in ("chi", "zeta")
                      for i in range(5)], pair, 1, horizon=0)
    assert len(bank.distinct) == 4
    params = bank.laplace_params(ts)
    assert params.shape == (len(ts), 2, 5)
    for t, row in zip(ts, params):
        assert np.array_equal(row, [[s.laplace_param(t) for s in tag]
                                    for tag in pair])


@settings(max_examples=30, deadline=None)
@given(lambda0=st.floats(0.01, 10), v=st.floats(0.01, 0.99),
       sigma=st.floats(0.01, 10), vs=st.floats(0.01, 0.99),
       t=st.integers(0, 10 ** 6))
def test_schedules_strictly_decreasing(lambda0, v, sigma, vs, t):
    step = StepsizeSchedule(lambda0, v)
    noise = NoiseSchedule(sigma, vs)
    assert step.value(t + 1) < step.value(t)
    assert noise.laplace_param(t + 1) < noise.laplace_param(t)
    assert step.value(0) == lambda0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        StepsizeSchedule(0.0, 0.5)
    with pytest.raises(ValueError):
        StepsizeSchedule(1.0, 1.5)
    with pytest.raises(ValueError):
        NoiseSchedule(-1.0, 0.5)
