import math

import numpy as np
import pytest

from orgflow import (
    FlexPlan,
    IllPosedError,
    LevelSpec,
    MassMismatchError,
    MissingWageError,
    OrgSpec,
    OrgValidationError,
    PlanObjective,
    check_initial_condition,
    min_external_ratios,
    min_permanent_share,
    org_cost,
    promotion_demands,
    stationary_state,
    validate,
)
from orgflow.org import stationary_pools, steady_promotable_pool
from conftest import build_org, costed_org


def test_validate_accepts_well_formed_org(low_turnover_org):
    assert validate(low_turnover_org) is low_turnover_org


def test_validate_aggregates_all_violations():
    org = build_org([100.0, -5.0], [0.1, 0.05], [2.0, -1.0], growth=0.08)
    with pytest.raises(OrgValidationError) as err:
        validate(org)
    text = str(err.value)
    assert "headcount" in text
    assert "eligibility" in text
    # wage growth 0.08 >= attrition 0.05 at level 2
    assert "growth" in text


def test_wage_arrays_raise_when_wages_missing(low_turnover_org):
    with pytest.raises(MissingWageError):
        low_turnover_org.w0
    with pytest.raises(MissingWageError):
        low_turnover_org.wt


def test_temp_wage_below_base_wage_rejected():
    org = build_org([100.0], [0.1], [2.0], base=[50.0], temp=[40.0])
    with pytest.raises(OrgValidationError):
        validate(org)


def test_all_internal_plan_shape_and_values():
    plan = FlexPlan.all_internal(4)
    assert plan.alpha.shape == (3,)
    assert plan.p.shape == (4,)
    assert np.all(plan.alpha == 1.0)
    assert np.all(plan.p == 1.0)


def test_plan_check_rejects_bad_entries(low_turnover_org):
    with pytest.raises(ValueError):
        FlexPlan(alpha=np.full(4, 0.5), p=np.ones(5)).check(low_turnover_org)
    with pytest.raises(ValueError):
        FlexPlan(alpha=np.ones(4), p=np.full(5, 1.2)).check(low_turnover_org)
    with pytest.raises(ValueError):
        FlexPlan(alpha=np.ones(3), p=np.ones(5)).check(low_turnover_org)


@pytest.mark.parametrize("alpha,p,what", [
    ([math.nan, 1.0, 1.0, 1.0], [1.0] * 5, "hiring ratios"),
    ([1.0] * 4, [math.nan, 1.0, 1.0, 1.0, 1.0], "permanent shares"),
    ([1.0] * 4, [1.0, 1.0, 1.0, 1.0, math.nan], "permanent shares"),
])
def test_plan_check_rejects_nan_entries(alpha, p, what):
    # a NaN fails every comparison, so a range test written as "out of
    # range" would let it through and price the plan as NaN
    spec = costed_org(premium=0.2)
    plan = FlexPlan(alpha=alpha, p=p)
    with pytest.raises(ValueError, match=what):
        plan.check(spec)
    with pytest.raises(ValueError, match=what):
        org_cost(spec, plan)
    genes = np.concatenate((alpha, p))
    with pytest.raises(ValueError, match=what):
        PlanObjective(spec)(np.stack([np.ones(9), genes]))


def test_promotion_demands_all_internal_telescope(low_turnover_org):
    c = promotion_demands(low_turnover_org)
    assert c.shape == (6,)
    assert c[-1] == 0.0
    np.testing.assert_allclose(c[:-1], [1554.0, 1114.0, 698.0, 394.0, 250.0])
    # a ladder without levels demands nothing
    np.testing.assert_array_equal(promotion_demands(OrgSpec(levels=[])), [0.0])


def test_promotion_demands_satisfy_descending_recursion(low_turnover_org):
    rng = np.random.default_rng(42)
    spec = low_turnover_org
    for _ in range(50):
        plan = FlexPlan(alpha=1.0 + 3.0 * rng.random(4), p=rng.random(5))
        c = promotion_demands(spec, plan)
        # level 1 has no internal inflow: its ratio is 1
        alpha = np.r_[1.0, plan.alpha]
        lhs = alpha * c[:-1]
        rhs = spec.mu * spec.n * plan.p + c[1:]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_steady_pools_match_closed_form(low_turnover_org):
    pools = steady_promotable_pool(low_turnover_org)
    np.testing.assert_allclose(
        pools, [180.4450, 1386.6253, 1410.6503, 451.2840, 67.6676],
        atol=5e-4)
    # the top level has no outflow: its pool is the plain exponential tail
    assert pools[-1] == pytest.approx(500.0 * math.exp(-0.5 * 4.0))


def test_stationary_pools_on_unit_heads_match_row_calls(low_turnover_org):
    # (K, L) business-unit heads under (K, L) shares: every unit's row is
    # the organization of its own row-by-row call, bit for bit
    spec = low_turnover_org
    rng = np.random.default_rng(8)
    heads = (rng.uniform(0.05, 0.3, (12, 1)) * spec.n
             * rng.uniform(0.9, 1.1, (12, 5)))
    plan = FlexPlan(alpha=1.0 + 0.2 * rng.random(4),
                    p=rng.uniform(0.5, 1.0, (12, 5)))
    c, pools, ill = stationary_pools(spec, plan, heads)
    assert c.shape == (12, 6)
    assert pools.shape == ill.shape == (12, 5)
    assert 0 < ill.any(axis=-1).sum() < 12  # both kinds of rows
    for k in range(12):
        row = stationary_pools(spec, FlexPlan(alpha=plan.alpha, p=plan.p[k]),
                               heads[k])
        for got, want in zip((c[k], pools[k], ill[k]), row):
            np.testing.assert_array_equal(got, want)


def test_min_permanent_share_marks_pool_sign_change(low_turnover_org):
    spec = low_turnover_org
    plan = FlexPlan.all_internal(5)
    p_min = min_permanent_share(spec, plan)
    assert p_min[0] == pytest.approx(0.954819, abs=1e-6)
    # every level but the top feeds the one above; the top's floor is 0
    demanded = promotion_demands(spec, plan)[1:] > 0.0
    np.testing.assert_array_equal(demanded, [True] * 4 + [False])
    assert p_min[-1] == 0.0
    for j in np.flatnonzero(demanded):
        for delta, sign in ((1e-4, 1.0), (-1e-4, -1.0)):
            p = np.ones(5)
            p[j] = p_min[j] + delta
            pools = steady_promotable_pool(spec, FlexPlan(alpha=np.ones(4), p=p))
            assert math.copysign(1.0, pools[j]) == sign
    # where e^{-mu tau} underflows, a level nobody is promoted from still
    # has the floor 0, not 0/0
    long_wait = build_org([10000.0, 50.0], [0.1, 3.0], [1.0, 300.0])
    assert min_permanent_share(long_wait, FlexPlan.all_internal(2))[-1] == 0.0


def test_min_external_ratios_identity_on_self_sufficient_org(low_turnover_org):
    np.testing.assert_allclose(min_external_ratios(low_turnover_org), 1.0)


def test_min_external_ratios_restore_well_posedness():
    # bottom level far too small to feed the top internally
    org = build_org([100.0, 1000.0], [0.1, 0.5], [4.0, 0.0])
    with pytest.raises(IllPosedError):
        stationary_state(org)
    ratios = min_external_ratios(org)
    assert ratios[0] > 1.0
    state = stationary_state(org, FlexPlan(alpha=ratios, p=np.ones(2)))
    assert np.all(state.pool > 0.0)
    # the binding level sits exactly at the feasibility margin
    assert state.pool[0] == pytest.approx(1e-6 * 100.0, rel=1e-3)


def test_stationary_density_integrates_to_permanent_mass(low_turnover_org):
    spec = low_turnover_org
    plan = FlexPlan(alpha=np.array([1.2, 1.0, 1.1, 1.0]),
                    p=np.array([0.9, 1.0, 0.8, 1.0, 1.0]))
    state = stationary_state(spec, plan)
    s = np.linspace(0.0, 160.0, 400001)
    for j in range(5):
        mass = np.trapezoid(state.density(j + 1, s), s)
        assert mass == pytest.approx(spec.n[j] * plan.p[j], rel=1e-6)


def test_stationary_pool_equals_density_tail(low_turnover_org):
    spec = low_turnover_org
    state = stationary_state(spec)
    s = np.linspace(4.0, 200.0, 800001)
    for j in range(5):
        tail = np.trapezoid(state.density(j + 1, s), s)
        assert tail == pytest.approx(state.pool[j], rel=1e-5)


def test_stationary_boundary_value_is_total_inflow(low_turnover_org):
    spec = low_turnover_org
    state = stationary_state(spec)
    c = promotion_demands(spec)
    for j in range(5):
        rho0 = state.density(j + 1, np.array([0.0]))[0]
        assert rho0 == pytest.approx(spec.mu[j] * spec.n[j] + c[j + 1])


def test_flux_identity_promotions_balance_demands(low_turnover_org):
    state = stationary_state(low_turnover_org)
    c = promotion_demands(low_turnover_org)
    np.testing.assert_allclose(state.promotion_rate * state.pool, c[1:],
                               rtol=1e-12, atol=1e-12)


def test_ill_posed_error_names_every_bad_level():
    org = build_org([50.0, 400.0, 300.0], [0.05, 0.3, 0.4], [6.0, 5.0, 0.0])
    with pytest.raises(IllPosedError) as err:
        stationary_state(org)
    assert err.value.levels  # at least one starved level is identified
    assert "raise external hiring" in str(err.value)


def test_ill_posed_check_names_units_only_when_asked():
    # the rows of a (B, L) mask are plans unless they are named as units
    pools = np.array([[5.0, -1.0], [-2.0, 3.0]])
    with pytest.raises(IllPosedError) as err:
        IllPosedError.check(pools, pools <= 0.0)
    assert str(err.value).endswith("(level 2: pool -1, level 1: pool -2)")
    with pytest.raises(IllPosedError) as err:
        IllPosedError.check(pools, pools <= 0.0, units=True)
    assert str(err.value).endswith(
        "(unit 1, level 2: pool -1, unit 2, level 1: pool -2)")


def test_zero_eligibility_age_makes_whole_level_promotable():
    org = build_org([300.0, 200.0], [0.1, 0.2], [0.0, 0.0])
    pools = steady_promotable_pool(org)
    np.testing.assert_allclose(pools, [300.0, 200.0], rtol=1e-12)


def test_initial_condition_check_accepts_steady_profile(low_turnover_org):
    spec = low_turnover_org
    state = stationary_state(spec)
    rho0 = [lambda s, j=j: state.density(j + 1, s) for j in range(5)]
    report = check_initial_condition(spec, FlexPlan.all_internal(5), rho0)
    assert report.ok
    assert np.all(report.holds)


def test_initial_condition_check_flags_wrong_mass(low_turnover_org):
    spec = low_turnover_org
    rho0 = [lambda s: np.full_like(np.asarray(s, dtype=float), 10.0)
            for _ in range(5)]
    with pytest.raises(MassMismatchError):
        check_initial_condition(spec, FlexPlan.all_internal(5), rho0)


def test_initial_condition_check_flags_starving_margin():
    # nearly all mass parked below the eligibility age at the bottom level,
    # while the level above demands heavy promotion
    org = build_org([100.0, 1000.0], [0.1, 0.5], [4.0, 0.0])
    def bottom(s):
        s = np.asarray(s, dtype=float)
        return 100.0 * np.exp(-s)
    def top(s):
        s = np.asarray(s, dtype=float)
        return 500.0 * np.exp(-0.5 * s)
    report = check_initial_condition(org, FlexPlan.all_internal(2),
                                     [bottom, top])
    assert not report.ok
    assert not report.holds[0]


def test_levelspec_defaults():
    lv = LevelSpec(headcount=10.0, attrition=0.1)
    assert lv.eligibility_age == 0.0
    assert lv.base_wage is None and lv.temp_wage is None


def test_orgspec_size_and_arrays(high_turnover_org):
    assert high_turnover_org.size == 5
    np.testing.assert_allclose(high_turnover_org.mu,
                               [0.16, 0.16, 0.16, 0.16, 0.5])
    np.testing.assert_allclose(high_turnover_org.tau, 4.0)
