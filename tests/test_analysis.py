import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpagg.analysis import fit_rate, metric_eval, sampling_grid
from ldpagg.problems import make_personalized_problem, make_quadratic_problem
from ldpagg.reference import mean_over_seeds


class TestSamplingGrid:
    def test_small_horizon_is_every_iteration(self):
        assert np.array_equal(sampling_grid(50), np.arange(51))

    def test_includes_endpoints(self):
        g = sampling_grid(100000)
        assert g[0] == 0 and g[-1] == 100000

    def test_sorted_unique_in_range(self):
        g = sampling_grid(12345)
        assert np.all(np.diff(g) > 0)
        assert g[0] >= 0 and g[-1] <= 12345

    def test_log_density(self):
        g = sampling_grid(100000)
        decade = g[(g >= 1000) & (g <= 10000)]
        assert 20 <= decade.size <= 45

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sampling_grid(-1)

    def test_zero_horizon(self):
        assert np.array_equal(sampling_grid(0), [0])


class TestFitRate:
    def test_exact_power_law(self):
        ts = np.unique(np.logspace(1, 5, 60).astype(int)).astype(float)
        vals = 3.7 * ts ** -0.62
        fit = fit_rate(ts, vals[None, :], window=(10, 1e5))
        assert fit.slope == pytest.approx(-0.62, abs=1e-9)
        assert fit.intercept == pytest.approx(np.log10(3.7), abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_slope_zero(self):
        ts = np.arange(1.0, 200.0)
        vals = np.full_like(ts, 5.0)
        fit = fit_rate(ts, vals[None, :], window=(1, 199))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noise_floor_flattens_slope(self):
        # a power law plus a constant floor must fit shallower than the
        # pure power law over the same window
        ts = np.unique(np.logspace(1, 5, 80).astype(int)).astype(float)
        pure = fit_rate(ts, (ts ** -1.0)[None, :], window=(100, 1e5)).slope
        floored = fit_rate(ts, (ts ** -1.0 + 1e-4)[None, :],
                           window=(100, 1e5)).slope
        assert floored > pure + 0.1

    def test_mean_over_seeds_before_log(self):
        # fitting the mean of seeds, not the mean of logs: a single huge
        # seed dominates the mean
        ts = np.array([10.0, 100.0, 1000.0, 10000.0, 100000.0])
        low = ts ** -1.0
        high = 100 * ts ** -1.0
        fit = fit_rate(ts, np.stack([low, high]), window=(10, 1e5))
        expect = np.log10((low + high) / 2)
        slope = np.polyfit(np.log10(ts), expect, 1)[0]
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.n_seeds == 2

    def test_default_window(self):
        ts = np.unique(np.logspace(0, 4, 50).astype(int)).astype(float)
        fit = fit_rate(ts, (ts ** -0.5)[None, :])
        assert fit.window == pytest.approx((100.0, 10000.0))

    def test_rejects_too_few_points(self):
        ts = np.array([1.0, 10.0, 100.0])
        with pytest.raises(ValueError):
            fit_rate(ts, np.ones((1, 3)), window=(1, 100))

    def test_rejects_nonpositive_values(self):
        ts = np.arange(1.0, 20.0)
        vals = np.ones_like(ts)
        vals[5] = 0.0
        with pytest.raises(ValueError):
            fit_rate(ts, vals[None, :], window=(1, 19))

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError):
            fit_rate(np.arange(1.0, 10.0), np.ones((2, 5)))

    def test_ci_covers_true_slope_on_noisy_data(self):
        rng = np.random.default_rng(0)
        ts = np.unique(np.logspace(1, 5, 100).astype(int)).astype(float)
        vals = ts ** -0.5 * 10 ** rng.normal(0, 0.02, ts.size)
        fit = fit_rate(ts, vals[None, :], window=(10, 1e5))
        assert abs(fit.slope + 0.5) < 3 * fit.ci
        assert fit.r2 > 0.99


class TestMetricEval:
    def setup_method(self):
        self.prob = make_quadratic_problem(m=3, ni=2, r=2, gamma=1.0, seed=7)

    def test_zero_at_optimum_and_consensus(self):
        xs = self.prob.x_star
        X = np.tile(xs, (3, 1))
        Y = np.zeros((3, 2))
        Z = np.zeros((3, 2))
        row = metric_eval(self.prob, X, Y, Z)
        assert row["consensus_x"] < 1e-28
        assert row["err_to_opt_sq"] == 0.0
        assert abs(row["F_gap"]) < 1e-12
        assert row["grad_norm_sq"] < 1e-14

    def test_truth_columns_omitted_without_optimizer(self):
        prob = make_personalized_problem(m=3, classes=3, dataset_size=8, seed=1)
        assert not prob.has_optimizer
        X = np.zeros((3, prob.n))
        row = metric_eval(prob, X, np.zeros((3, 1)), np.zeros((3, 1)))
        assert "err_to_opt_sq" not in row and "F_gap" not in row
        assert "grad_norm_sq" in row

    def test_consensus_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (3, self.prob.n))
        Y = rng.normal(0, 1, (3, 2))
        Z = rng.normal(0, 1, (3, 2))
        row = metric_eval(self.prob, X, Y, Z)
        expect = sum(np.sum((X[i] - X.mean(axis=0)) ** 2) for i in range(3))
        assert row["consensus_x"] == pytest.approx(expect, rel=1e-12)
        expect_y = sum(np.sum((Y[i] - Y.mean(axis=0)) ** 2) for i in range(3))
        assert row["consensus_y"] == pytest.approx(expect_y, rel=1e-12)


def test_mean_over_seeds_rejects_mismatched_grids():
    class R:
        def __init__(self, ts):
            self.ts = np.asarray(ts)
            self.columns = {"v": np.ones(len(ts))}
    with pytest.raises(ValueError):
        mean_over_seeds([R([0, 1, 2]), R([0, 1, 3])], "v")
    ts, V = mean_over_seeds([R([0, 1, 2]), R([0, 1, 2])], "v")
    assert V.shape == (2, 3)


@settings(max_examples=30, deadline=None)
@given(T=st.integers(0, 10 ** 6))
def test_sampling_grid_invariants(T):
    g = sampling_grid(T)
    assert g[0] == 0 and g[-1] == T
    assert np.all(np.diff(g) > 0)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.01, 100), p=st.floats(-3, -0.05))
def test_fit_rate_recovers_power_law(a, p):
    ts = np.unique(np.logspace(1, 4, 40).astype(int)).astype(float)
    fit = fit_rate(ts, (a * ts ** p)[None, :], window=(10, 1e4))
    assert fit.slope == pytest.approx(p, abs=1e-7)
