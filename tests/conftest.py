import pytest

from ldpagg.privacy import budgets
from ldpagg.schedules import ScheduleSet


@pytest.fixture
def one_agent_budget():
    """The PrivacyAccount of one agent's noise triple over t = 1..T:
    budgets on a one-agent ScheduleSet."""
    def budget(T, p, noise_x, noise_y, noise_z, source="recursion"):
        one = ScheduleSet(p.lambda_x, p.lambda_y, p.lambda_z,
                          (noise_x,), (noise_y,), (noise_z,))
        return budgets(T, p, one, source)[0][0]
    return budget
