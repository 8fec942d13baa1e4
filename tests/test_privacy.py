import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpagg.config import load_config
from ldpagg.privacy import (_BLOCK, PrivacyAccount, SensitivityParams,
                            budgets, calibrate_noise, closed_form_constants,
                            infinite_horizon_bound, sensitivity_trajectory)
from ldpagg.reference import closed_form_budget, sensitivity_step
from ldpagg.schedules import NoiseSchedule, ScheduleSet, StepsizeSchedule


def fixture_params(**over):
    """The reference parameter set used by the budget fixture config."""
    kw = dict(
        L_l=0.1, L_h=1.0, Lbar_l=0.0, Lbar_h=1.0, d_l=0.1, d_z=1.0,
        w_bar=0.6, n_i=2, r=2,
        lambda_x=StepsizeSchedule(0.01, 0.95),
        lambda_y=StepsizeSchedule(0.5, 0.1),
        lambda_z=StepsizeSchedule(0.08, 0.12),
    )
    kw.update(over)
    return SensitivityParams(**kw)


def fixture_noise():
    return (NoiseSchedule(1.0, 0.03), NoiseSchedule(1e6, 0.05),
            NoiseSchedule(1e6, 0.06))


class TestSensitivityStep:
    def test_zero_state_forcing_only(self):
        p = fixture_params()
        dx, dy, dz = sensitivity_step(0.0, 0.0, 0.0, 0, p)
        lam_y, lam_z, lam_x = 0.5, 0.08, 0.01
        sr, sn = math.sqrt(2), math.sqrt(2)
        exp_dy = 2 * 0.1 * lam_y
        exp_dz = (sr * 1.0 * lam_z / lam_y) * exp_dy + 2 * sr * 1.0 * lam_z
        exp_dx = ((sn * 1.0 * lam_x / lam_y) * exp_dy
                  + (sn * 0.1 * lam_x / lam_z) * exp_dz
                  + 2 * sn * 1.0 * lam_x
                  + 2 * sn * 1.0 * 0.1 * lam_x / lam_z)
        assert dy == pytest.approx(exp_dy, rel=1e-14)
        assert dz == pytest.approx(exp_dz, rel=1e-14)
        assert dx == pytest.approx(exp_dx, rel=1e-14)

    def test_zero_constants_stay_zero(self):
        p = fixture_params(L_l=0.0, L_h=0.0, Lbar_h=0.0, d_l=0.0, d_z=0.0)
        traj = sensitivity_trajectory(50, p)
        assert np.all(traj.dx == 0) and np.all(traj.dy == 0) and np.all(traj.dz == 0)

    def test_dl_only_scales_linearly(self):
        # with only the d_l forcing active, the whole trajectory is
        # homogeneous of degree 1 in d_l
        base = fixture_params(L_h=0.0, d_z=0.0)
        doubled = fixture_params(L_h=0.0, d_z=0.0, d_l=0.2)
        a = sensitivity_trajectory(100, base)
        b = sensitivity_trajectory(100, doubled)
        assert np.allclose(b.dy, 2 * a.dy, rtol=1e-13)
        assert np.allclose(b.dz, 2 * a.dz, rtol=1e-13)
        assert np.allclose(b.dx, 2 * a.dx, rtol=1e-13)

    def test_scalar_recursion_oracle(self):
        # independent scalar reimplementation of the recursion, written
        # directly from the update formulas
        p = fixture_params()
        dx = dy = dz = 0.0
        sr = sn = math.sqrt(2)
        for t in range(200):
            ly = 0.5 / (t + 1) ** 0.1
            lz = 0.08 / (t + 1) ** 0.12
            lx = 0.01 / (t + 1) ** 0.95
            dy2 = (1 - 0.6) * dy + 0.1 * sr * ly * dx + 2 * 0.1 * ly / (t + 1)
            dz2 = ((1 - 0.6) * dz + sr * 1.0 * lz * dx
                   + (sr * 1.0 * lz / ly) * (dy2 + dy) + 2 * sr * 1.0 * lz / (t + 1))
            cx = 1 - 0.6 + sn * 1.0 * lx + sn * 0.0 * 1.0 * lx / lz
            dx2 = (cx * dx + (sn * 1.0 * lx / ly) * (dy2 + dy)
                   + (sn * 0.1 * lx / lz) * (dz2 + dz)
                   + 2 * sn * 1.0 * lx / (t + 1)
                   + 2 * sn * 1.0 * 0.1 * lx / (lz * (t + 1)))
            ax, ay, az = sensitivity_step(dx, dy, dz, t, p)
            assert ax == pytest.approx(dx2, rel=1e-14, abs=1e-300)
            assert ay == pytest.approx(dy2, rel=1e-14, abs=1e-300)
            assert az == pytest.approx(dz2, rel=1e-14, abs=1e-300)
            dx, dy, dz = dx2, dy2, dz2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sensitivity_step(0, 0, 0, -1, fixture_params())
        for T in (-1, -2):
            with pytest.raises(ValueError, match="T must be nonnegative"):
                sensitivity_trajectory(T, fixture_params())

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            fixture_params(L_l=-1.0)
        with pytest.raises(ValueError):
            fixture_params(w_bar=1.0)
        with pytest.raises(ValueError):
            fixture_params(n_i=0)


def scalar_replay(T, p):
    """Delta^0..Delta^T from reference.sensitivity_step, one round at a time."""
    d = [(0.0, 0.0, 0.0)]
    for t in range(T):
        d.append(sensitivity_step(*d[-1], t, p))
    return np.array(d).reshape(T + 1, 3).T


def assert_replays_exactly(T, p):
    traj = sensitivity_trajectory(T, p)
    for got, want in zip((traj.dx, traj.dy, traj.dz), scalar_replay(T, p)):
        assert got.shape == (T + 1,)
        assert np.array_equal(got, want, equal_nan=True)


class TestBlockedTrajectory:
    # the blocked coefficient pass and fold round exactly as the scalar
    # step does, across block boundaries
    @pytest.mark.parametrize("T", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 5])
    @pytest.mark.parametrize("params", [
        fixture_params,
        lambda: load_config(os.path.join(os.path.dirname(__file__), "..",
                                         "configs", "quadratic_sc.json")
                            ).sensitivity,
        lambda: fixture_params(lambda_x=StepsizeSchedule(5.0, 0.95)),
    ], ids=["fixture", "quadratic_sc", "late-contraction"])
    def test_equals_scalar_replay(self, T, params):
        with np.errstate(over="ignore", invalid="ignore"):
            assert_replays_exactly(T, params())

    def test_t_contract_in_a_later_block(self, own_coef_x):
        # Delta_x's own coefficient first drops below 1 past the first
        # block, and stays below in the blocks after; at T = expect no
        # t < T contracts, so t_contract is T
        p = fixture_params(lambda_x=StepsizeSchedule(5.0, 0.3))
        expect = next(t for t in range(10_000) if own_coef_x(t, p) < 1.0)
        assert expect > _BLOCK
        for T in (expect, expect + 1, expect + 2 * _BLOCK):
            with np.errstate(over="ignore", invalid="ignore"):
                assert sensitivity_trajectory(T, p).t_contract == expect


@settings(max_examples=100, deadline=None)
@given(T=st.integers(0, 3 * _BLOCK), w_bar=st.floats(0.01, 0.99),
       n_i=st.integers(1, 5), Lbar_h=st.floats(0.0, 2.0),
       Lbar_l=st.floats(0.0, 2.0), d_z=st.floats(0.0, 2.0),
       lam_x=st.tuples(st.floats(1e-3, 0.5), st.floats(0.05, 0.95)),
       lam_z=st.tuples(st.floats(1e-2, 2.0), st.floats(0.05, 0.95)))
def test_trajectory_equals_scalar_replay(T, w_bar, n_i, Lbar_h, Lbar_l, d_z,
                                         lam_x, lam_z):
    # the ranges of test_t_contract_is_first_contracting_step; overflowing
    # trajectories are compared too, NaN against NaN
    p = fixture_params(w_bar=w_bar, n_i=n_i, Lbar_h=Lbar_h, Lbar_l=Lbar_l,
                       d_z=d_z, lambda_x=StepsizeSchedule(*lam_x),
                       lambda_z=StepsizeSchedule(*lam_z))
    with np.errstate(over="ignore", invalid="ignore"):
        assert_replays_exactly(T, p)


class TestContraction:
    def test_fixture_contracts_immediately(self, own_coef_x):
        p = fixture_params()
        assert own_coef_x(0, p) < 1.0
        traj = sensitivity_trajectory(100, p)
        assert traj.t_contract == 0

    def test_large_stepsize_delays_contraction(self, own_coef_x):
        p = fixture_params(lambda_x=StepsizeSchedule(5.0, 0.95))
        assert own_coef_x(0, p) >= 1.0
        traj = sensitivity_trajectory(1000, p)
        assert traj.t_contract > 0
        assert own_coef_x(traj.t_contract, p) < 1.0


@settings(max_examples=150, deadline=None)
@given(T=st.integers(0, 300), w_bar=st.floats(0.01, 0.99),
       n_i=st.integers(1, 5), Lbar_h=st.floats(0.0, 2.0),
       Lbar_l=st.floats(0.0, 2.0), d_z=st.floats(0.0, 2.0),
       lam_x=st.tuples(st.floats(1e-3, 0.5), st.floats(0.05, 0.95)),
       lam_z=st.tuples(st.floats(1e-2, 2.0), st.floats(0.05, 0.95)))
def test_t_contract_is_first_contracting_step(own_coef_x, T, w_bar, n_i,
                                              Lbar_h, Lbar_l, d_z, lam_x,
                                              lam_z):
    # t_contract is the first t < T at which Delta_x's own coefficient is
    # below 1, or T when there is none; the ranges give all three of
    # t_contract = 0, 0 < t_contract < T and T
    p = fixture_params(w_bar=w_bar, n_i=n_i, Lbar_h=Lbar_h, Lbar_l=Lbar_l,
                       d_z=d_z, lambda_x=StepsizeSchedule(*lam_x),
                       lambda_z=StepsizeSchedule(*lam_z))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = sensitivity_trajectory(T, p)
    expect = next((t for t in range(T) if own_coef_x(t, p) < 1.0), T)
    assert traj.t_contract == expect


class TestClosedForm:
    def test_dominates_recursion(self):
        p = fixture_params()
        c = closed_form_constants(p)
        traj = sensitivity_trajectory(10000, p)
        ts = np.arange(1, 10001) + 1.0
        assert np.all(traj.dy[1:] <= c.Cy / ts ** (1 + 0.1) + 1e-15)
        assert np.all(traj.dx[1:] <= c.Cx / ts ** (1 + 0.95 - 0.12) + 1e-15)
        assert np.all(traj.dz[1:] <= c.Cz / ts ** (1 + 0.12) + 1e-15)

    def test_constant_values_regression(self):
        c = closed_form_constants(fixture_params())
        assert c.C0 == pytest.approx(0.38991378, rel=1e-6)
        assert c.C1 == pytest.approx(32.58044, rel=1e-5)
        assert c.C2 == pytest.approx(2.40379, rel=1e-5)
        assert c.C3 == pytest.approx(3.60843, rel=1e-5)
        assert c.C4 == pytest.approx(483.0018, rel=1e-5)

    def test_requires_exponent_ordering(self):
        p = fixture_params(lambda_z=StepsizeSchedule(0.08, 0.05))  # vz < vy
        with pytest.raises(ValueError):
            closed_form_constants(p)


class TestBudget:
    def test_zero_horizon(self, one_agent_budget):
        acc = one_agent_budget(0, fixture_params(), *fixture_noise())
        assert acc.eps_total == 0.0

    def test_monotone_in_T(self, one_agent_budget):
        p = fixture_params()
        nx, ny, nz = fixture_noise()
        prev = 0.0
        for T in (10, 100, 1000):
            acc = one_agent_budget(T, p, nx, ny, nz)
            assert acc.eps_total > prev
            prev = acc.eps_total

    def test_three_way_dominance(self, one_agent_budget):
        p = fixture_params()
        nx, ny, nz = fixture_noise()
        for T in (100, 1000, 10000):
            rec = one_agent_budget(T, p, nx, ny, nz)
            cf = sum(closed_form_budget(T, p, nx, ny, nz))
            assert rec.eps_total <= cf + 1e-12
            assert cf <= rec.bound_inf + 1e-12

    def test_tail_convergence(self, one_agent_budget):
        p = fixture_params()
        nx, ny, nz = fixture_noise()
        e3 = one_agent_budget(1000, p, nx, ny, nz).eps_total
        e4 = one_agent_budget(10000, p, nx, ny, nz).eps_total
        e5 = one_agent_budget(100000, p, nx, ny, nz).eps_total
        assert e5 - e4 < 0.2 * (e4 - e3)

    def test_closed_form_sums_match_direct_expression(self,
                                                      one_agent_budget):
        # independent recomputation of the closed-form budget components
        p = fixture_params()
        nx, ny, nz = fixture_noise()
        T = 5000
        cf_x, cf_y, cf_z = closed_form_budget(T, p, nx, ny, nz)
        c = closed_form_constants(p)
        ts = np.arange(2.0, T + 2.0)
        ex = np.sum(math.sqrt(2) * c.Cx / (1.0 * ts ** (1 + 0.95 - 0.12 - 0.03)))
        ey = np.sum(math.sqrt(2) * c.Cy / (1e6 * ts ** (1 + 0.1 - 0.05)))
        ez = np.sum(math.sqrt(2) * c.Cz / (1e6 * ts ** (1 + 0.12 - 0.06)))
        assert cf_x == pytest.approx(ex, rel=1e-12)
        assert cf_y == pytest.approx(ey, rel=1e-12)
        assert cf_z == pytest.approx(ez, rel=1e-12)

    def test_inf_bound_matches_analytic_formula(self):
        p = fixture_params()
        nx, ny, nz = fixture_noise()
        c = closed_form_constants(p)
        expect = (math.sqrt(2) * c.Cx / (1.0 * (0.95 - 0.12 - 0.03))
                  + math.sqrt(2) * c.Cy / (1e6 * (0.1 - 0.05))
                  + math.sqrt(2) * c.Cz / (1e6 * (0.12 - 0.06)))
        bound = infinite_horizon_bound(p, nx, ny, nz)
        assert bound == pytest.approx(expect, rel=1e-14)
        # and the infinite bound dominates every finite closed-form budget
        assert sum(closed_form_budget(100000, p, nx, ny, nz)) <= bound

    def test_inf_bound_infinite_when_gap_closed(self):
        p = fixture_params()
        nx = NoiseSchedule(1.0, 0.83)  # vx - vz = 0.83 leaves zero gap
        _, ny, nz = fixture_noise()
        assert infinite_horizon_bound(p, nx, ny, nz) == float("inf")

    def test_rejects_nonpositive_sigma(self, one_agent_budget):
        p = fixture_params()
        _, ny, nz = fixture_noise()
        with pytest.raises(ValueError):
            one_agent_budget(10, p, NoiseSchedule(0.0, 0.03), ny, nz)

    def test_eps_total_is_component_sum(self):
        acc = PrivacyAccount(eps_x=1.0, eps_y=2.0, eps_z=3.5, bound_inf=10.0)
        assert acc.eps_total == 6.5


def mixed_schedules(p):
    """Four agents with heterogeneous sigma/varsigma; agents 0 and 3 equal."""
    nx = (NoiseSchedule(1.0, 0.03), NoiseSchedule(0.5, 0.5),
          NoiseSchedule(2.0, 0.7), NoiseSchedule(1.0, 0.03))
    ny = (NoiseSchedule(1e6, 0.05), NoiseSchedule(3.0, 0.01),
          NoiseSchedule(0.2, 0.08), NoiseSchedule(1e6, 0.05))
    nz = (NoiseSchedule(1e6, 0.06), NoiseSchedule(0.7, 0.1),
          NoiseSchedule(5.0, 0.02), NoiseSchedule(1e6, 0.06))
    return ScheduleSet(p.lambda_x, p.lambda_y, p.lambda_z, nx, ny, nz)


class TestBudgets:
    @pytest.mark.parametrize("T", [0, 1, 777])
    def test_entries_equal_single_agent_budget(self, T, one_agent_budget):
        p = fixture_params()
        s = mixed_schedules(p)
        out = budgets(T, p, s)
        assert len(out) == 4
        for i, (acct, eps_cum) in enumerate(out):
            one = one_agent_budget(T, p, s.noise_x[i], s.noise_y[i],
                                   s.noise_z[i])
            assert acct == one  # bitwise equal fields
            assert eps_cum.shape == (T + 1,) and eps_cum[0] == 0.0
            assert np.all(np.diff(eps_cum) > 0)
            assert eps_cum[-1] == pytest.approx(acct.eps_total, rel=1e-12)

    def test_equal_schedules_share_one_entry(self):
        p = fixture_params()
        out = budgets(50, p, mixed_schedules(p))
        assert out[0] is out[3]
        assert out[0][0].eps_total != out[1][0].eps_total

    def test_rejects_nonpositive_sigma_of_any_agent(self):
        p = fixture_params()
        s = mixed_schedules(p)
        s = ScheduleSet(p.lambda_x, p.lambda_y, p.lambda_z, s.noise_x,
                        s.noise_y[:3] + (NoiseSchedule(0.0, 0.05),), s.noise_z)
        with pytest.raises(ValueError, match="positive noise"):
            budgets(10, p, s)

    def test_inf_bound_infinite_without_closed_form(self, one_agent_budget):
        # v_z < v_y leaves no certificate constants, but the recursion
        # budget still exists
        p = fixture_params(lambda_z=StepsizeSchedule(0.08, 0.05))
        nx, ny, nz = fixture_noise()
        assert infinite_horizon_bound(p, nx, ny, nz) == float("inf")
        acct = one_agent_budget(100, p, nx, ny, nz)
        assert np.isfinite(acct.eps_total) and acct.bound_inf == float("inf")


class TestCalibration:
    def test_round_trip_meets_target(self):
        p = fixture_params()
        for eps_hat in (0.1, 1.0, 10.0):
            sx, sy, sz = calibrate_noise(eps_hat, p, 0.03, 0.05, 0.06)
            bound = infinite_horizon_bound(
                p, NoiseSchedule(sx, 0.03), NoiseSchedule(sy, 0.05),
                NoiseSchedule(sz, 0.06))
            assert bound <= eps_hat + 1e-12
            c = closed_form_constants(p)
            gx = 0.95 - 0.12 - 0.03
            comp_x = math.sqrt(2) * c.Cx / (sx * gx)
            assert comp_x <= eps_hat / 3 + 1e-12

    def test_halving_target_doubles_sigmas(self):
        p = fixture_params()
        s1 = calibrate_noise(1.0, p, 0.03, 0.05, 0.06)
        s2 = calibrate_noise(0.5, p, 0.03, 0.05, 0.06)
        for a, b in zip(s1, s2):
            assert b == pytest.approx(2 * a, rel=1e-14)

    def test_rejects_closed_gap(self):
        with pytest.raises(ValueError):
            calibrate_noise(1.0, fixture_params(), 0.9, 0.05, 0.06)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            calibrate_noise(0.0, fixture_params(), 0.03, 0.05, 0.06)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_nonfinite_target(self, eps):
        # nan would patch sigma = NaN into the config, inf sigma = 0
        with pytest.raises(ValueError, match="finite"):
            calibrate_noise(eps, fixture_params(), 0.03, 0.05, 0.06)

