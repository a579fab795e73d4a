import math

import numpy as np
import pytest
from hypothesis import strategies as st

from orgflow import FlexPlan, LevelSpec, OrgSpec, stationary_state


def build_org(heads, rates, ages, base=None, temp=None, growth=0.0):
    levels = []
    for j, (n, mu, tau) in enumerate(zip(heads, rates, ages)):
        levels.append(LevelSpec(
            headcount=n, attrition=mu, eligibility_age=tau,
            base_wage=None if base is None else base[j],
            temp_wage=None if temp is None else temp[j],
        ))
    return OrgSpec(levels=levels, wage_growth=growth)


@pytest.fixture
def low_turnover_org():
    """Five-level ladder with slow attrition below a fast-churn top."""
    return build_org([5500, 5200, 3800, 1800, 500],
                     [0.08, 0.08, 0.08, 0.08, 0.5], [4.0] * 5)


@pytest.fixture
def high_turnover_org():
    """Five-level ladder churning fast enough to starve internal supply."""
    return build_org([8000, 4000, 2500, 1000, 500],
                     [0.16, 0.16, 0.16, 0.16, 0.5], [4.0] * 5)


def costed_org(premium=None):
    """The wage-bearing ladder used across cost and optimizer tests."""
    base = [35.0, 49.0, 69.0, 96.0, 134.0]
    temp = None if premium is None else [(1.0 + premium) * w for w in base]
    return build_org([5500, 5200, 3800, 1800, 500],
                     [0.08, 0.08, 0.08, 0.08, 0.2], [4.0] * 5,
                     base=base, temp=temp, growth=0.04)


@pytest.fixture
def costed_org_plain():
    return costed_org()


@pytest.fixture
def costed_org_20():
    return costed_org(premium=0.20)


# the most levels a drawn org has; the strategies below draw every
# per-level value for this many levels and keep the first ones, so each
# example makes the same number of choices and none outgrows hypothesis's
# size cap for its early examples, which would reject it
MAX_LEVELS = 4


def level_values(draw, lo: float, hi: float, size: int) -> list[float]:
    return [draw(st.floats(lo, hi)) for _ in range(MAX_LEVELS)][:size]


def draw_well_posed_org(draw, plan: FlexPlan, wages: bool = False):
    """An org well posed under plan by construction: attrition and
    eligibility ages are drawn freely, then headcounts from the top down,
    each level's N_j at least the bound N_j p_j > (e^{mu_j tau_j} - 1)
    C_{j+1} / mu_j that keeps its pool positive, divided by a slack
    fraction below 1. With wages, base wages in [20, 150], temporaries at
    1.5 times them and a wage growth below every attrition rate.
    stationary_state checks the result."""
    size, alpha, p = plan.p.size, plan.alpha.tolist(), plan.p.tolist()
    mu = level_values(draw, 0.05, 0.6, size)
    tau = level_values(draw, 0.5, 6.0, size)
    heads = level_values(draw, 100.0, 5000.0, size)
    slack = level_values(draw, 0.1, 0.9, size)
    demand = 0.0  # C_{j+1}, the flux the level above draws from level j
    for j in range(size - 1, -1, -1):
        need = math.expm1(mu[j] * tau[j]) * demand / (mu[j] * p[j])
        heads[j] = max(heads[j], need / slack[j])
        demand = mu[j] * heads[j] * p[j] + demand
        if j:
            demand /= alpha[j - 1]
    base = np.array(level_values(draw, 20.0, 150.0, size)) if wages else None
    growth = draw(st.floats(0.0, 0.9)) * min(mu) if wages else 0.0
    spec = build_org(heads, mu, tau, base=base,
                     temp=None if base is None else 1.5 * base, growth=growth)
    stationary_state(spec, plan)
    return spec


@st.composite
def well_posed_orgs_and_plans(draw, wages: bool = False):
    """A random org of 1-4 levels and a plan, hiring ratios in [1, 2] and
    permanent shares in [0.3, 1], that it is well posed under."""
    size = draw(st.integers(1, MAX_LEVELS))
    plan = FlexPlan(alpha=np.array(level_values(draw, 1.0, 2.0, size)[1:]),
                    p=np.array(level_values(draw, 0.3, 1.0, size)))
    return draw_well_posed_org(draw, plan, wages), plan
