import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpagg.algorithm import run_seeds
from ldpagg.analysis import metric_eval
from ldpagg.problems import (ErmEvalPersonalized, PersonalizedProblem,
                             QuadraticProblem, SoftmaxPass,
                             make_personalized_problem, make_quadratic_problem)
from ldpagg.reference import (ErmReference, h_value,
                              softmax_pass_sample_major)
from ldpagg.schedules import (AgentBank, ConvexityCase, agent_rng,
                              corollary1_preset)
from ldpagg.topology import ring_topology


def rngs_for(m, seed=0, tag="data"):
    return [agent_rng(seed, i, tag) for i in range(m)]


def fill_store(problem, t_plus_1, seed=0, raw=None):
    """An unbatched store after t_plus_1 draws; raw, when given, collects
    each draw's (last_xi, last_phi) as (raw["xi"], raw["phi"]) lists."""
    store = problem.new_store(rngs_for(problem.m, seed), horizon=t_plus_1)
    for _ in range(t_plus_1):
        problem.draw(store)
        if raw is not None:
            raw.setdefault("xi", []).append(store.last_xi.copy())
            raw.setdefault("phi", []).append(store.last_phi.copy())
    return store


class TestQuadraticErm:
    def setup_method(self):
        self.prob = make_quadratic_problem(m=3, ni=2, r=2, gamma=1.0,
                                           noise_std_g=0.5, noise_std_f=0.5,
                                           box=(-5, 5), seed=11)

    def test_single_sample_average(self):
        store = fill_store(self.prob, 1)
        Xown = np.zeros((3, 2))
        ev = self.prob.erm_eval(store, Xown)
        expect = self.prob.g_true(Xown) + store.last_xi
        assert np.allclose(ev.g, expect, atol=1e-14)

    def test_law_of_large_numbers(self):
        store = fill_store(self.prob, 1000)
        Xown = np.full((3, 2), 0.3)
        ev = self.prob.erm_eval(store, Xown)
        # zero-mean data noise: ERM g within 3 sigma/sqrt(1000) of A x + b
        tol = 3 * 0.5 / np.sqrt(1000)
        assert np.max(np.abs(ev.g - self.prob.g_true(Xown))) < 3 * tol

    def test_fast_path_equals_full_recompute(self):
        raw = {}
        store = fill_store(self.prob, 50, raw=raw)
        rng = np.random.default_rng(1)
        for _ in range(20):
            Xown = rng.uniform(-5, 5, (3, 2))
            Ytil = rng.normal(0, 1, (3, 2))
            Ztil = rng.normal(0, 1, (3, 2))
            fast = self.prob.erm_eval(store, Xown)
            slow = ErmReference(self.prob, raw["xi"], raw["phi"], Xown)
            assert np.max(np.abs(fast.g - slow.g)) < 1e-12
            assert np.max(np.abs(fast.grad_f_x(Ytil) - slow.grad_f_x(Ytil))) < 1e-12
            assert np.max(np.abs(fast.grad_f_y(Ytil) - slow.grad_f_y(Ytil))) < 1e-12
            assert np.max(np.abs(fast.grad_g_dot(Ztil) - slow.grad_g_dot(Ztil))) < 1e-12

    def test_empty_store_rejected(self):
        for prob in family_problems():
            Xown = np.zeros((prob.m, prob.ni))
            with pytest.raises(ValueError, match="empty"):
                prob.erm_eval(prob.new_store(rngs_for(prob.m), horizon=0), Xown)
            with pytest.raises(ValueError, match="empty"):
                ErmReference(prob, [], [], Xown)

    def test_grad_x_matches_linear_form(self):
        raw = {}
        store = fill_store(self.prob, 20, raw=raw)
        Xown = np.full((3, 2), 0.7)
        ev = self.prob.erm_eval(store, Xown)
        phi_mean = np.mean(raw["phi"], axis=0)
        expect = self.prob.alpha * (Xown - self.prob.c - phi_mean)
        assert np.allclose(ev.grad_f_x(np.zeros((3, 2))), expect, atol=1e-12)

    def test_gradients_vs_finite_differences(self):
        # central differences of the averaged h at fixed stored samples
        raw = {}
        store = fill_store(self.prob, 10, raw=raw)
        rng = np.random.default_rng(2)
        eps = 1e-5
        for _ in range(8):
            Xown = rng.uniform(-2, 2, (3, 2))
            Y = rng.normal(0, 1, (3, 2))
            ev = self.prob.erm_eval(store, Xown)
            gx, gy = ev.grad_f_x(Y), ev.grad_f_y(Y)

            def h_avg(i, x, y):
                return np.mean([h_value(self.prob, i, x, y, phi[i])
                                for phi in raw["phi"]])
            for i in range(3):
                for j in range(2):
                    dx = np.zeros(2); dx[j] = eps
                    fd = (h_avg(i, Xown[i] + dx, Y[i])
                          - h_avg(i, Xown[i] - dx, Y[i])) / (2 * eps)
                    assert fd == pytest.approx(gx[i, j], rel=1e-6, abs=1e-8)
                    fd = (h_avg(i, Xown[i], Y[i] + dx)
                          - h_avg(i, Xown[i], Y[i] - dx)) / (2 * eps)
                    assert fd == pytest.approx(gy[i, j], rel=1e-6, abs=1e-8)

    def test_erm_consistency_rate(self):
        # RMS of |erm_g - g| over seeds decays like t^(-1/2)
        ts = [10, 100, 1000, 10000]
        rms = []
        for t in ts:
            errs = []
            for seed in range(8):
                store = fill_store(self.prob, t, seed=seed)
                Xown = np.zeros((3, 2))
                ev = self.prob.erm_eval(store, Xown)
                errs.append(np.linalg.norm(ev.g - self.prob.g_true(Xown)))
            rms.append(np.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log10(ts), np.log10(rms), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_data_replay_across_bank_refills(self):
        # 2100 rounds of r + ni = 4 normals cross several refills of the
        # lockstep data bank; every round's (xi, phi) must be agent i's
        # own normal stream
        k = self.prob.r + self.prob.ni
        store = self.prob.new_store(rngs_for(self.prob.m, seed=5), horizon=2100)
        replay = rngs_for(self.prob.m, seed=5)
        for _ in range(2100):
            self.prob.draw(store)
            for i in range(self.prob.m):
                z = replay[i].standard_normal(k)
                assert np.array_equal(store.last_xi[i],
                                      self.prob.noise_std_g * z[:self.prob.r])
                assert np.array_equal(store.last_phi[i],
                                      self.prob.noise_std_f * z[self.prob.r:])


class TestQuadraticTruth:
    def test_gamma_zero_decouples(self):
        prob = make_quadratic_problem(m=4, ni=2, r=2, gamma=0.0, box=(-0.5, 0.5),
                                      seed=3)
        expect = np.clip(prob.c, -0.5, 0.5).reshape(-1)
        assert np.allclose(prob.x_star, expect, atol=1e-9)

    def test_fixture_instance_regression(self):
        import json, os
        path = os.path.join(os.path.dirname(__file__),
                            "quadratic_sc_xstar.json")
        with open(path) as f:
            fx = json.load(f)
        prob = make_quadratic_problem(m=5, ni=2, r=2, gamma=1.0, box=(-10, 10),
                                      seed=fx["generating_seed"])
        assert np.allclose(prob.x_star, fx["x_star"], atol=1e-8)
        assert prob.F_star == pytest.approx(fx["F_star"], abs=1e-10)

    def test_optimizer_computed_once(self, monkeypatch):
        # x_star and F_star are computed on first read and kept: a later
        # read runs neither the solver nor F_true again
        calls = []
        real = QuadraticProblem.F_true
        monkeypatch.setattr(QuadraticProblem, "F_true",
                            lambda self, x: calls.append(x) or real(self, x))
        prob = make_quadratic_problem(m=3, ni=2, r=2, seed=5)
        xs, fs = prob.x_star, prob.F_star
        assert prob.x_star is xs and prob.F_star is fs
        assert len(calls) == 1 and calls[0] is xs
        assert fs == real(prob, xs)

    def test_interior_optimum_projection_inactive(self):
        prob = make_quadratic_problem(m=5, ni=2, r=2, gamma=1.0, box=(-1e6, 1e6),
                                      seed=7)
        xs = prob.x_star
        assert np.all(np.abs(xs) < 1e6 - 1)
        # stationarity without active constraints
        assert np.linalg.norm(prob.grad_F_true(xs)) < 1e-8

    def test_grad_F_matches_finite_differences(self):
        prob = make_quadratic_problem(m=3, ni=2, r=2, gamma=0.7, seed=5)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, prob.n)
        g = prob.grad_F_true(x)
        eps = 1e-6
        for j in range(prob.n):
            d = np.zeros(prob.n); d[j] = eps
            fd = (prob.F_true(x + d) - prob.F_true(x - d)) / (2 * eps)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-8)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic_problem(m=2, ni=1, r=1, gamma=-1.0)

    def test_unbiased_oracles(self):
        prob = make_quadratic_problem(m=2, ni=2, r=2, gamma=1.0,
                                      noise_std_g=0.3, noise_std_f=0.3, seed=9)
        store = fill_store(prob, 100000)
        xi_mean = store.xi_sum / store.count
        phi_mean = store.phi_sum / store.count
        se = 0.3 / np.sqrt(store.count)
        assert np.max(np.abs(xi_mean)) < 3 * se * 2  # small union slack
        assert np.max(np.abs(phi_mean)) < 3 * se * 2


def test_inverted_box_rejected_by_constructors():
    q = make_quadratic_problem(m=2)
    p = make_personalized_problem(m=2, dataset_size=4)
    for build in (lambda box: QuadraticProblem(q.A, q.b, q.c, q.d, 1.0, alpha=1.0,
                                               noise_std_g=0.0, noise_std_f=0.0,
                                               box=box),
                  lambda box: PersonalizedProblem(p.feats, p.labels, p.K, 1.0, box=box),
                  lambda box: make_quadratic_problem(m=2, box=box),
                  lambda box: make_personalized_problem(m=2, box=box)):
        with pytest.raises(ValueError, match="box bounds inverted"):
            build((1.0, -1.0))
        build((-1.0, -1.0))  # a degenerate box is admissible


@pytest.mark.parametrize("make, key", [
    (make_quadratic_problem, "ni"), (make_quadratic_problem, "r"),
    (make_personalized_problem, "classes"),
    (make_personalized_problem, "features"),
    (make_personalized_problem, "dataset_size")])
def test_empty_dimensions_rejected_by_factories(make, key):
    # a zero dimension would divide by zero in the factory or the driver
    with pytest.raises(ValueError, match="at least 1"):
        make(m=2, **{key: 0})
    make(m=2, **{key: 1})


class TestPersonalized:
    def setup_method(self):
        self.prob = make_personalized_problem(m=3, classes=3, features=2,
                                              lam=0.8, dataset_size=16, seed=6)

    def test_dimensions(self):
        assert self.prob.r == 1
        assert self.prob.ni == 3 * 2

    def test_fast_path_equals_full_recompute(self):
        raw = {}
        store = fill_store(self.prob, 40, raw=raw)
        rng = np.random.default_rng(1)
        for _ in range(10):
            Xown = rng.normal(0, 1, (3, self.prob.ni))
            Y = rng.normal(0, 1, (3, 1))
            Z = rng.normal(0, 1, (3, 1))
            fast = self.prob.erm_eval(store, Xown)
            slow = ErmReference(self.prob, raw["xi"], raw["phi"], Xown)
            assert np.max(np.abs(fast.g - slow.g)) < 1e-12
            assert np.max(np.abs(fast.grad_f_x(Y) - slow.grad_f_x(Y))) < 1e-12
            assert np.max(np.abs(fast.grad_f_y(Y) - slow.grad_f_y(Y))) < 1e-12
            assert np.max(np.abs(fast.grad_g_dot(Z) - slow.grad_g_dot(Z))) < 1e-12

    def test_lam_zero_y_gradient_vanishes(self):
        prob = make_personalized_problem(m=2, classes=3, features=2, lam=0.0,
                                         dataset_size=8, seed=1)
        store = fill_store(prob, 5)
        ev = prob.erm_eval(store, np.zeros((2, prob.ni)))
        assert np.all(ev.grad_f_y(np.ones((2, 1))) == 0.0)

    def test_gradients_vs_finite_differences(self):
        store = fill_store(self.prob, 6)
        rng = np.random.default_rng(3)
        Xown = rng.normal(0, 0.5, (3, self.prob.ni))
        Y = rng.normal(0, 0.5, (3, 1))
        ev = self.prob.erm_eval(store, Xown)
        gx = ev.grad_f_x(Y)
        eps = 1e-5
        wf = store.counts_f / store.count

        def h_avg(i, x, y):
            tot = 0.0
            for j in range(self.prob.N):
                if wf[i, j]:
                    tot += wf[i, j] * h_value(self.prob, i, x, float(y), j)
            return tot
        for i in range(3):
            for j in range(self.prob.ni):
                d = np.zeros(self.prob.ni); d[j] = eps
                fd = (h_avg(i, Xown[i] + d, Y[i, 0])
                      - h_avg(i, Xown[i] - d, Y[i, 0])) / (2 * eps)
                assert fd == pytest.approx(gx[i, j], rel=1e-5, abs=1e-7)

    def test_grad_F_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 0.5, self.prob.n)
        g = self.prob.grad_F_true(x)
        eps = 1e-6
        idx = rng.choice(self.prob.n, 6, replace=False)
        for j in idx:
            d = np.zeros(self.prob.n); d[j] = eps
            fd = (self.prob.F_true(x + d) - self.prob.F_true(x - d)) / (2 * eps)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-7)

    def test_unbiased_index_sampling(self):
        store = fill_store(self.prob, 20000)
        freq = store.counts_g / store.count
        assert np.max(np.abs(freq - 1.0 / self.prob.N)) < 0.01

    def test_class_count_is_classes(self):
        # three samples per agent draw a subset of the five classes for
        # many seeds; the model has five classes whichever were drawn
        for seed in range(200):
            prob = make_personalized_problem(m=2, classes=5, dataset_size=3,
                                             seed=seed)
            assert (prob.K, prob.ni, prob.onehot.shape[-1]) == (5, 10, 5), seed

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_classes_rejected(self, label):
        labels = self.prob.labels.copy()
        labels[1, 4] = label
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            PersonalizedProblem(self.prob.feats, labels, 3, 0.8, (-10, 10))

    @pytest.mark.parametrize("classes", [2.5, True, np.True_, float("nan"),
                                         float("inf")])
    def test_classes_not_an_integer_rejected(self, classes):
        # a label 2 passes the range check of classes 2.5, and K = int(2.5)
        # then has no slot for it; True, with labels all 0, would be K = 1
        labels = np.zeros_like(self.prob.labels)
        labels[0, 0] = 2 if classes == 2.5 else 0
        with pytest.raises(ValueError, match="classes must be an integer"):
            PersonalizedProblem(self.prob.feats, labels, classes, 0.8, (-10, 10))

    @pytest.mark.parametrize("classes", [3, 3.0, np.int64(3)])
    def test_integral_classes_accepted(self, classes):
        p = PersonalizedProblem(self.prob.feats, self.prob.labels, classes,
                                0.8, (-10, 10))
        assert p.K == 3 and type(p.K) is int

    @pytest.mark.parametrize("case", ["one-agent labels", "fractional labels",
                                      "2-D feats"])
    def test_labels_not_matching_feats_rejected(self, case):
        # (1, N) labels would broadcast agent 0's labels to every agent,
        # and fractional labels would be truncated
        feats, labels = self.prob.feats, self.prob.labels
        if case == "one-agent labels":
            labels = labels[:1]
        elif case == "fractional labels":
            labels = labels + 0.5
        else:
            feats = feats[..., 0]
        with pytest.raises(ValueError, match=r"feats must be \(m, N, features\), "
                                             r"labels \(m, N\) integers"):
            PersonalizedProblem(feats, labels, 3, 0.8, (-10, 10))

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            make_personalized_problem(m=2, classes=2, features=2, lam=-0.1)

    def test_heterogeneous_mixtures(self):
        # ~60% of each agent's labels drawn from its two primary classes
        prob = make_personalized_problem(m=5, classes=5, features=2, lam=1.0,
                                         dataset_size=200, seed=8)
        for i in range(5):
            primary = {i % 5, (2 * i) % 5}
            frac = np.mean([lab in primary for lab in prob.labels[i]])
            assert frac > 0.45


@settings(max_examples=10, deadline=None)
@given(lo=st.floats(-1.0, 0.0), width=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_project_box_properties(lo, width, seed):
    # every state of a run on a tight box, recorded through an observer,
    # lies in the box; the noisy frames push the update out of it, so
    # the projection is active
    hi = lo + width
    prob = make_quadratic_problem(m=3, ni=2, r=2, gamma=1.0, box=(lo, hi),
                                  seed=4)
    s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=3,
                          lambda0=(0.5, 1, 1), sigma=(1.0, 1.0, 1.0))
    xs = []
    run_seeds(prob, ring_topology(3, 0.3), s, 30, [seed],
              observers=[lambda t, state, frame, ev, alive:
                         xs.append(state[0])])
    X = np.stack(xs)
    assert X.shape == (31, 1, 3, prob.n)
    assert np.all(X >= lo) and np.all(X <= hi)
    assert np.any((X == lo) | (X == hi))


def batch_rngs(m, batch, seed=0):
    """Data generators of a store with batch shape (), or (S,) seed-major."""
    seeds = range(batch[0]) if batch else [0]
    return [agent_rng(seed + s, i, "data") for s in seeds for i in range(m)]


@settings(max_examples=12, deadline=None)
@given(N=st.sampled_from([1, 2, 32, 1000]), S=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_index_replay_across_bank_refills(N, S, seed):
    # a refill holds _BLOCK // 2 rounds of (f, g) pairs; the rounds cross
    # three refills, and every round's pair must be that generator's next
    # two scalar integers(N) draws, f then g
    prob = make_personalized_problem(m=2, classes=2, features=1, lam=0.5,
                                     dataset_size=N, seed=1)
    rounds = 2 * (AgentBank._BLOCK // 2) + 52
    store = prob.new_store(batch_rngs(prob.m, (S,), seed), batch=(S,),
                           horizon=rounds)
    replay = batch_rngs(prob.m, (S,), seed)
    for _ in range(rounds):
        prob.draw(store)
        phi, xi = store.last_phi.reshape(-1), store.last_xi.reshape(-1)
        for k, rng in enumerate(replay):
            assert phi[k] == rng.integers(N)
            assert xi[k] == rng.integers(N)


@pytest.mark.parametrize("noise_std", [0.5, 0.0])
@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("horizon", [5, 3000])
def test_chunked_draws_equal_per_round_adds(horizon, batch, noise_std):
    # the quadratic draw scales and sums a chunk of rounds at once; after
    # every draw the sums and the newest samples must be bitwise those of
    # a per-round +=, signed zeros included (noise_std = 0 makes -0.0
    # samples). At batch (3,) a chunk is 227 rounds and a refill block
    # 512, so chunks end inside blocks and at their ends; horizon 5 caps
    # both at 5 rounds. Handed-out arrays are never written again.
    prob = make_quadratic_problem(m=3, ni=2, r=2, noise_std_g=noise_std,
                                  noise_std_f=noise_std, seed=4)
    m, r, ni = prob.m, prob.r, prob.ni
    store = prob.new_store(batch_rngs(m, batch), batch=batch, horizon=horizon)
    bank = AgentBank(batch_rngs(m, batch), r + ni, "standard_normal",
                     horizon=horizon)

    def rounds():  # one at a time; a chunk is used up before a refill
        while True:
            yield from bank.chunk()
    replay = rounds()
    xi_sum, phi_sum = np.zeros(batch + (m, r)), np.zeros(batch + (m, ni))
    handed = []
    for _ in range(min(horizon, 2 * (AgentBank._BLOCK // (r + ni))) + 60):
        prob.draw(store)
        z = next(replay).reshape(batch + (m, r + ni))
        xi, phi = noise_std * z[..., :r], noise_std * z[..., r:]
        xi_sum += xi
        phi_sum += phi
        got = (store.xi_sum, store.phi_sum, store.last_xi, store.last_phi)
        for a, want in zip(got, (xi_sum, phi_sum, xi, phi)):
            assert a.shape == want.shape and a.tobytes() == want.tobytes()
        handed += [(a, a.copy()) for a in got]
    assert noise_std or np.signbit(xi).any()
    for a, copy in handed:
        assert a.tobytes() == copy.tobytes()


@pytest.mark.parametrize("batch", [(), (1,), (3,)])
@pytest.mark.parametrize("horizon", [5, 3000])
def test_store_means_are_the_sums_over_the_count(horizon, batch):
    # the quadratic draw divides a chunk's running sums by their counts
    # once; every round's xi_mean and phi_mean, which the ERM oracle reads,
    # must be bitwise its sums / count. At batch (3,) a chunk is 227 rounds
    # and a refill block 512, so the rounds cross chunk ends inside blocks
    # and at their ends; unbatched and at (1,) a chunk ends at each block
    # end; horizon 5 caps both at 5 rounds
    prob = make_quadratic_problem(m=3, ni=2, r=2, noise_std_g=0.5,
                                  noise_std_f=0.5, seed=4)
    store = prob.new_store(batch_rngs(prob.m, batch), batch=batch,
                           horizon=horizon)
    for _ in range(min(horizon, 2 * (AgentBank._BLOCK // (prob.r + prob.ni))) + 60):
        prob.draw(store)
        for mean, total in ((store.xi_mean, store.xi_sum),
                            (store.phi_mean, store.phi_sum)):
            want = total / store.count
            assert mean.shape == want.shape and mean.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [(), (1,), (3,)])
@pytest.mark.parametrize("horizon", [5, 3000])
def test_chunked_personalized_draws_equal_per_round_adds(horizon, batch):
    # the personalized draw scatters, sums and divides a chunk of rounds at
    # once; after every draw the counts and the newest samples must be
    # bitwise those of a per-round scatter-add of the generators' (f, g)
    # draws, the weights bitwise counts / count, and l_newest the loss at
    # the newest g sample. At m = 3, N = 16 a chunk is 170 rounds
    # unbatched and at (1,), 56 at (3,), and a refill block 1,024, so
    # chunks end inside blocks and at their ends; horizon 5 caps both at
    # 5 rounds. Handed-out arrays are never written again.
    prob = make_personalized_problem(m=3, classes=3, features=2,
                                     dataset_size=16, seed=6)
    m, N = prob.m, prob.N
    store = prob.new_store(batch_rngs(m, batch), batch=batch, horizon=horizon)
    replay = batch_rngs(m, batch)
    sm = SoftmaxPass(prob, np.random.default_rng(1).normal(0, 1, batch + (m, prob.ni)))
    counts = np.zeros((2, len(replay), N))
    handed = []
    for t in range(min(horizon, 2 * (AgentBank._BLOCK // 2)) + 60):
        prob.draw(store)
        idx = np.array([rng.integers(N, size=2) for rng in replay])
        counts[0, np.arange(len(idx)), idx[:, 0]] += 1
        counts[1, np.arange(len(idx)), idx[:, 1]] += 1
        want = [c.reshape(batch + (m, N)) for c in counts]
        want += [idx[:, 0].reshape(batch + (m,)), idx[:, 1].reshape(batch + (m,))]
        got = (store.counts_f, store.counts_g, store.last_phi, store.last_xi)
        for a, w in zip(got, want):
            assert a.shape == w.shape and a.tobytes() == w.tobytes()
        assert store.count == t + 1
        for weight, total in ((store.wf, store.counts_f), (store.wg, store.counts_g)):
            w = total / store.count
            assert weight.shape == w.shape and weight.tobytes() == w.tobytes()
        ev = ErmEvalPersonalized(sm, store)
        l = sm.loss.reshape(-1, N)[np.arange(len(idx)), idx[:, 1]]
        assert ev.l_newest().tobytes() == l.reshape(batch + (m, 1)).tobytes()
        assert ev.l_newest().shape == batch + (m, 1)
        handed += [(a, a.copy()) for a in got + (store.wf, store.wg)]
    for a, copy in handed:
        assert a.tobytes() == copy.tobytes()


def family_problems():
    return [make_quadratic_problem(m=3, ni=2, r=2, gamma=1.0, seed=4),
            make_personalized_problem(m=3, classes=3, features=2, lam=0.8,
                                      dataset_size=16, seed=6)]


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("prob", family_problems(), ids=lambda p: p.family)
def test_reweighted_eval_equals_fresh_eval(prob, batch):
    # the baseline re-weights last round's eval at the same points after
    # each draw; that must be bitwise the fresh oracle at those points
    rng = np.random.default_rng(2)
    store = prob.new_store(batch_rngs(prob.m, batch), batch=batch, horizon=5)
    prob.draw(store)
    Xown = rng.normal(0, 1, batch + (prob.m, prob.ni))
    Y = rng.normal(0, 1, batch + (prob.m, prob.r))
    Z = rng.normal(0, 1, batch + (prob.m, prob.r))
    ev = prob.erm_eval(store, Xown)
    ev.grad_f_x(Y)  # the reweighted eval may reuse state built on read
    for _ in range(4):
        prob.draw(store)
        ev = ev.reweighted(store)
        fresh = prob.erm_eval(store, Xown)
        assert np.array_equal(ev.g, fresh.g)
        assert np.array_equal(ev.grad_f_x(Y), fresh.grad_f_x(Y))
        assert np.array_equal(ev.grad_f_y(Y), fresh.grad_f_y(Y))
        assert np.array_equal(ev.grad_g_dot(Z), fresh.grad_g_dot(Z))


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("prob", family_problems(), ids=lambda p: p.family)
def test_loss_only_truth_equals_full_pass(prob, batch):
    # g_true, F_true and the bundle's l_newest skip the
    # per-sample gradients; they must equal the values computed from the
    # oracle's full pass
    rng = np.random.default_rng(3)
    store = prob.new_store(batch_rngs(prob.m, batch), batch=batch, horizon=7)
    for _ in range(7):
        prob.draw(store)
    Xown = rng.normal(0, 1, batch + (prob.m, prob.ni))
    full = prob.erm_eval(store, Xown)
    full.grad_f_x(rng.normal(0, 1, batch + (prob.m, prob.r)))
    if prob.family == "quadratic":
        assert np.array_equal(prob.g_true(Xown), full.lin)
        assert np.array_equal(full.l_newest(), full.lin + store.last_xi)
        return
    loss = full.loss
    uni = np.full_like(loss, 1.0 / prob.N)
    G = np.einsum("...mn,...mn->...m", uni, loss)
    g = G.mean(axis=-1)[..., None, None]
    F = np.einsum("...mn,...mn->...m", uni,
                  loss + prob.lam * (loss - g) ** 2).sum(axis=-1)
    assert np.array_equal(prob.g_true(Xown), G[..., None])
    assert np.array_equal(prob.F_true(Xown.reshape(batch + (prob.n,))), F)
    assert np.array_equal(
        full.l_newest()[..., 0],
        np.take_along_axis(loss, store.last_xi[..., None], -1)[..., 0])


@pytest.mark.parametrize("K", [1, 2, 5, 8, 9, 16, 33])
def test_softmax_pass_equals_sample_major_pass_bitwise(K):
    # the class-major pass gives the bits of the sample-major formulation
    # (logits (..., m, N, K), max over K, fancy-index label gather, outer-
    # product gradient einsum), for K on both sides of numpy's 8-term
    # pairwise-sum threshold; entries out to 1e6 make the shift matter and
    # exp underflow, and one NaN seed must stay NaN where it was
    rng = np.random.default_rng(K)
    for d in (1, 2, 3, 8, 17, 32):
        for N in (1, 7, 32):
            for m in (1, 5):
                prob = make_personalized_problem(m=m, classes=K, features=d,
                                                 dataset_size=N, seed=d + N)
                for lead in [(), (1,), (3,), (4, 3)]:
                    shape = lead + (m, prob.ni)
                    Xown = rng.uniform(-1, 1, shape) * 10 ** rng.uniform(0, 6, shape)
                    nan = lead == (3,)
                    if nan:
                        Xown[1, m - 1, -1] = np.nan
                    sm = SoftmaxPass(prob, Xown)
                    got = (sm._ex, sm._Zs, sm.loss, sm.grad)
                    assert sm.grad.flags.c_contiguous
                    for a, b in zip(got, softmax_pass_sample_major(prob, Xown)):
                        assert a.shape == b.shape
                        if nan:
                            assert np.array_equal(a, b, equal_nan=True)
                            a, b = np.delete(a, 1, 0), np.delete(b, 1, 0)
                        assert a.tobytes() == b.tobytes(), (d, N, m, lead)


@pytest.mark.parametrize("m", [3, 8])
@pytest.mark.parametrize("family", ["quadratic", "personalized"])
def test_batched_truth_equals_per_seed_calls(family, m):
    # metric rows come from one metric_eval call on the stacked (S, m, .)
    # states: each seed's entry, and each slice of a batched grad_F_true,
    # must be bitwise what the one-seed call gives
    prob = (make_quadratic_problem(m=m, ni=2, r=2, gamma=1.0, seed=4)
            if family == "quadratic" else
            make_personalized_problem(m=m, classes=3, features=2, lam=0.8,
                                      dataset_size=16, seed=6))
    rng = np.random.default_rng(m)
    X = rng.normal(0, 2, (3, m, prob.n))
    Y, Z = rng.normal(0, 2, (2, 3, m, prob.r))
    xown = prob.own_block(X).reshape(3, prob.n)
    grads, cols = prob.grad_F_true(xown), metric_eval(prob, X, Y, Z)
    assert grads.shape == xown.shape
    for s in range(3):
        assert grads[s].tobytes() == prob.grad_F_true(xown[s]).tobytes()
        row = metric_eval(prob, X[s], Y[s], Z[s])
        assert list(row) == list(cols)
        for c, v in row.items():
            assert np.float64(v).tobytes() == cols[c][s].tobytes(), c
