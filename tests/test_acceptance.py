"""End-to-end acceptance checks: convergence-rate classes, privacy budget
finiteness and dominance, calibration, reductions, baseline contrast, and
statistical invariants. Heavier than the unit modules (several minutes)."""

import json
import os
import time

import numpy as np
import pytest

from ldpagg.algorithm import baseline_seeds, run_seeds
from ldpagg.analysis import fit_rate
from ldpagg.cli import main as cli_main
from ldpagg.config import load_config
from ldpagg.privacy import (calibrate_noise, closed_form_constants,
                            infinite_horizon_bound, sensitivity_trajectory)
from ldpagg.problems import make_personalized_problem, make_quadratic_problem
from ldpagg.reference import (centralized_trajectory, closed_form_budget,
                              h_value, mean_over_seeds, sample_laplace)
from ldpagg.schedules import (ConvexityCase, NoiseSchedule, ScheduleSet,
                              StepsizeSchedule, broadcast_noise,
                              corollary1_preset)
from ldpagg.topology import ring_topology, trivial_topology

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def run_config_seeds(name):
    cfg = load_config(config_path(name))
    t0 = time.perf_counter()
    recs = run_seeds(cfg.problem, cfg.topology, cfg.schedules, cfg.T,
                     [cfg.master_seed + k for k in range(cfg.seeds)])
    wall = time.perf_counter() - t0
    # the drivers record a divergence per seed; here it is a failure
    assert [r.aborted_at for r in recs] == [None] * len(recs), name
    return cfg, recs, wall


@pytest.fixture(scope="module")
def sc_run():
    return run_config_seeds("quadratic_sc.json")


@pytest.fixture(scope="module")
def budget_fixture():
    return load_config(config_path("budget_fixture.json"))


class TestRateClasses:
    def test_strongly_convex_rate(self, sc_run):
        cfg, recs, wall = sc_run
        assert cfg.seeds >= 10 and cfg.T == 100000
        assert all(r.aborted_at is None for r in recs)
        ts, V = mean_over_seeds(recs, "err_to_opt_sq")
        fit = fit_rate(ts, V, window=(1000, 100000))
        assert -0.70 <= fit.slope <= -0.30, fit
        assert fit.r2 >= 0.9, fit
        assert wall < 300.0  # one desktop core, sufficient-statistics path

    def test_consensus_decay(self, sc_run):
        cfg, recs, _ = sc_run
        # varsigma_x = 0.53 on this preset: slope bound -2*0.53 + 0.3
        ts, V = mean_over_seeds(recs, "consensus_x")
        fit = fit_rate(ts, V, window=(1000, 100000))
        assert fit.slope <= -0.76, fit

    def test_convex_rate(self):
        cfg, recs, _ = run_config_seeds("quadratic_cvx.json")
        assert cfg.seeds >= 10 and cfg.T == 100000
        assert cfg.problem.alpha == 0.0  # no strongly convex own term
        ts, V = mean_over_seeds(recs, "F_gap_runmean")
        fit = fit_rate(ts, V, window=(1000, 100000))
        assert -0.65 <= fit.slope <= -0.25, fit
        assert fit.r2 >= 0.85, fit

    def test_nonconvex_rate(self):
        cfg, recs, _ = run_config_seeds("personalized_ncvx.json")
        assert cfg.seeds >= 10 and cfg.T == 100000
        assert cfg.problem.lam > 0
        ts, V = mean_over_seeds(recs, "grad_norm_sq")
        fit = fit_rate(ts, V, window=(1000, 100000))
        assert -0.65 <= fit.slope <= -0.25, fit
        assert fit.r2 >= 0.85, fit


class TestPrivacyAccounting:
    def test_finite_cumulative_budget(self, budget_fixture):
        cfg = budget_fixture
        p = cfg.sensitivity
        s = cfg.schedules
        nx, ny, nz = s.noise_x[0], s.noise_y[0], s.noise_z[0]

        traj = sensitivity_trajectory(100000, p)
        ts = np.arange(1, 100001)
        terms = (traj.dx[1:] / np.array([nx.laplace_param(t) for t in ts])
                 + traj.dy[1:] / np.array([ny.laplace_param(t) for t in ts])
                 + traj.dz[1:] / np.array([nz.laplace_param(t) for t in ts]))
        cum = np.concatenate([[0.0], np.cumsum(terms)])
        e3, e4, e5 = cum[1000], cum[10000], cum[100000]
        assert e5 - e4 < 0.2 * (e4 - e3)

        bound = infinite_horizon_bound(p, nx, ny, nz)
        assert np.isfinite(bound)
        for T in (100, 1000, 10000, 100000):
            cf = sum(closed_form_budget(T, p, nx, ny, nz))
            assert cum[T] <= cf + 1e-12
            assert cf <= bound + 1e-12

    def test_sensitivity_dominance(self, budget_fixture, own_coef_x):
        p = budget_fixture.sensitivity
        traj = sensitivity_trajectory(100000, p)
        assert traj.t_contract < 100
        vx, vy, vz = p.lambda_x.v, p.lambda_y.v, p.lambda_z.v
        c = closed_form_constants(p)
        t = np.arange(traj.t_contract, 100001)
        shift = (t + 1).astype(float)
        assert np.all(traj.dy[t] * shift ** (1 + vy) <= c.Cy)
        assert np.all(traj.dx[t] * shift ** (1 + vx - vz) <= c.Cx)
        assert np.all(traj.dz[t] * shift ** (1 + vz) <= c.Cz)
        assert own_coef_x(traj.t_contract, p) < 1.0

    def test_calibration_round_trip(self, budget_fixture):
        p = budget_fixture.sensitivity
        vsx, vsy, vsz = 0.03, 0.05, 0.06
        c = closed_form_constants(p)
        gaps = (p.lambda_x.v - p.lambda_z.v - vsx,
                p.lambda_y.v - vsy, p.lambda_z.v - vsz)
        for eps_hat in (0.1, 1.0, 10.0):
            sx, sy, sz = calibrate_noise(eps_hat, p, vsx, vsy, vsz)
            bound = infinite_horizon_bound(
                p, NoiseSchedule(sx, vsx), NoiseSchedule(sy, vsy),
                NoiseSchedule(sz, vsz))
            assert bound <= eps_hat + 1e-12
            comps = (np.sqrt(2) * c.Cx / (sx * gaps[0]),
                     np.sqrt(2) * c.Cy / (sy * gaps[1]),
                     np.sqrt(2) * c.Cz / (sz * gaps[2]))
            for comp in comps:
                assert comp <= eps_hat / 3 + 1e-12
        full = calibrate_noise(1.0, p, vsx, vsy, vsz)
        half = calibrate_noise(0.5, p, vsx, vsy, vsz)
        for a, b in zip(full, half):
            assert b == 2.0 * a


class TestReductions:
    def test_centralized_reduction(self):
        prob = make_quadratic_problem(m=1, ni=4, r=2, gamma=1.0,
                                      noise_std_g=0.0, noise_std_f=0.0,
                                      box=(-10, 10), seed=7)
        s = corollary1_preset(ConvexityCase.STRONGLY_CONVEX, 0.01, m=1,
                              lambda0=(0.5, 1.0, 1.0), sigma=(0.0, 0.0, 0.0))
        x0 = np.full((1, 4), 0.5)
        T = 10000
        xs = []
        run_seeds(prob, trivial_topology(), s, T, [0], x0=x0,
                  observers=[lambda t, state, frame, ev, alive:
                             xs.append(state[0])])
        ref = centralized_trajectory(prob, s, T, x0[0])
        assert len(xs) == T + 1
        dev = max(np.max(np.abs(X[0, 0] - ref[t])) for t, X in enumerate(xs))
        assert dev < 1e-10

    def test_baseline_contrast(self):
        topo = ring_topology(5, 0.3)
        prob = make_quadratic_problem(m=5, ni=2, r=2, gamma=1.0, alpha=1.0,
                                      box=(-10, 10), seed=7)
        sig = 0.05  # matched constant (varsigma = 0) noise on both sides
        T = 3000
        nseeds = 20

        def sched(lx0):
            return ScheduleSet(
                lambda_x=StepsizeSchedule(lx0, 0.57),
                lambda_y=StepsizeSchedule(1.0, 0.02),
                lambda_z=StepsizeSchedule(1.0, 0.03),
                noise_x=broadcast_noise(sig, 0.0, 5),
                noise_y=broadcast_noise(sig, 0.0, 5),
                noise_z=broadcast_noise(sig, 0.0, 5),
            )

        seeds = [500 + k for k in range(nseeds)]
        recs = run_seeds(prob, topo, sched(0.5), T, seeds)
        base = baseline_seeds(prob, topo, sched(0.45), T, seeds)
        err_alg = np.mean([r.columns["err_to_opt_sq"][-1] for r in recs])
        err_base = np.mean([b.columns["err_to_opt_sq"][-1] for b in base])
        assert err_base >= 10.0 * err_alg
        ts, V = mean_over_seeds(base, "tracker_err")
        fit = fit_rate(ts, V, window=(10, 1000))
        assert fit.slope > 0.0, fit


class TestInvariants:
    def test_laplace_variance(self):
        rng = np.random.default_rng(123)
        for nu in (0.5, 1.0, 3.0):
            x = sample_laplace(rng, nu, 10 ** 6)
            assert abs(x.var() / (2 * nu ** 2) - 1.0) < 0.05

    def test_oracle_unbiasedness(self):
        prob = make_quadratic_problem(m=3, ni=2, r=2, gamma=1.0,
                                      noise_std_g=0.4, noise_std_f=0.4,
                                      box=(-10, 10), seed=3)
        N = 40000
        store = prob.new_store([np.random.default_rng([9, i]) for i in range(3)],
                               horizon=N)
        for _ in range(N):
            prob.draw(store)
        se = 0.4 / np.sqrt(N)
        assert np.max(np.abs(store.xi_sum / N)) < 3 * se * 1.5
        assert np.max(np.abs(store.phi_sum / N)) < 3 * se * 1.5

        pers = make_personalized_problem(m=2, classes=3, features=2, lam=1.0,
                                         dataset_size=16, seed=4)
        pstore = pers.new_store([np.random.default_rng([10, i]) for i in range(2)],
                                horizon=N)
        for _ in range(N):
            pers.draw(pstore)
        p_hat = pstore.counts_g / N
        se_p = np.sqrt((1 / 16) * (15 / 16) / N)
        assert np.max(np.abs(p_hat - 1 / 16)) < 4 * se_p

    def test_gradient_evaluators_vs_finite_differences(self):
        eps = 1e-5
        quad = make_quadratic_problem(m=2, ni=2, r=2, gamma=0.8,
                                      noise_std_g=0.2, noise_std_f=0.2,
                                      box=(-10, 10), seed=5)
        store = quad.new_store([np.random.default_rng([11, i]) for i in range(2)],
                               horizon=12)
        phis = []
        for _ in range(12):
            quad.draw(store)
            phis.append(store.last_phi.copy())
        rng = np.random.default_rng(6)
        Xown = rng.uniform(-1, 1, (2, 2))
        Y = rng.normal(0, 1, (2, 2))
        ev = quad.erm_eval(store, Xown)
        gx, gy = ev.grad_f_x(Y), ev.grad_f_y(Y)

        def h_avg(i, x, y):
            return np.mean([h_value(quad, i, x, y, phi[i]) for phi in phis])
        for i in range(2):
            for j in range(2):
                d = np.zeros(2); d[j] = eps
                fd = (h_avg(i, Xown[i] + d, Y[i]) - h_avg(i, Xown[i] - d, Y[i])) / (2 * eps)
                assert fd == pytest.approx(gx[i, j], rel=1e-5, abs=1e-8)
                fd = (h_avg(i, Xown[i], Y[i] + d) - h_avg(i, Xown[i], Y[i] - d)) / (2 * eps)
                assert fd == pytest.approx(gy[i, j], rel=1e-5, abs=1e-8)
        xflat = rng.normal(0, 0.5, quad.n)
        g = quad.grad_F_true(xflat)
        for j in range(quad.n):
            d = np.zeros(quad.n); d[j] = eps
            fd = (quad.F_true(xflat + d) - quad.F_true(xflat - d)) / (2 * eps)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-8)

        pers = make_personalized_problem(m=2, classes=3, features=2, lam=0.7,
                                         dataset_size=8, seed=8)
        xflat = rng.normal(0, 0.5, pers.n)
        g = pers.grad_F_true(xflat)
        for j in range(pers.n):
            d = np.zeros(pers.n); d[j] = eps
            fd = (pers.F_true(xflat + d) - pers.F_true(xflat - d)) / (2 * eps)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-7)

    def test_determinism_csv_bytes_thread_independent(self, tmp_path):
        cfg = {
            "topology": {"type": "ring", "m": 3, "w": 0.3},
            "schedules": {"preset": "corollary1-sc", "delta": 0.01,
                          "lambda0": [0.5, 1.0, 1.0], "sigma": 0.5},
            "problem": {"family": "quadratic", "ni": 2, "r": 2,
                        "gamma": 1.0, "box": [-10, 10], "seed": 7},
            "T": 500, "seeds": 3, "master_seed": 77,
        }
        outs = []
        for tag, threads in (("a", "1"), ("b", "3"), ("c", "1")):
            out = str(tmp_path / tag)
            path = tmp_path / f"cfg_{tag}.json"
            path.write_text(json.dumps(dict(cfg, out=out)))
            assert cli_main(["run", "--config", str(path),
                             "--threads", threads]) == 0
            outs.append(out)
        for fname in ("seed_77.csv", "seed_78.csv", "seed_79.csv",
                      "aggregate.csv"):
            blobs = []
            for out in outs:
                with open(os.path.join(out, fname), "rb") as f:
                    blobs.append(f.read())
            assert blobs[0] == blobs[1] == blobs[2], fname
