import math

import pytest

from ldpagg.privacy import budgets
from ldpagg.schedules import ScheduleSet


@pytest.fixture
def one_agent_budget():
    """The PrivacyAccount of one agent's noise triple over t = 1..T:
    budgets on a one-agent ScheduleSet."""
    def budget(T, p, noise_x, noise_y, noise_z):
        one = ScheduleSet(p.lambda_x, p.lambda_y, p.lambda_z,
                          (noise_x,), (noise_y,), (noise_z,))
        return budgets(T, p, one)[0][0]
    return budget


@pytest.fixture(scope="session")
def own_coef_x():
    """Delta_x's own multiplier in the sensitivity recursion at time t,
    restated from the update formula (those of Delta_y and Delta_z are
    the constant 1 - w_bar)."""
    def coef(t, p):
        lam_x, lam_z = p.lambda_x.value(t), p.lambda_z.value(t)
        sn = math.sqrt(p.n_i)
        return (1.0 - p.w_bar + sn * p.Lbar_h * lam_x
                + sn * p.Lbar_l * p.d_z * lam_x / lam_z)
    return coef
