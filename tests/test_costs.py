import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orgflow import (
    BusinessUnitPlan,
    ConstantWage,
    ExponentialWage,
    FlexPlan,
    GrowthExceedsAttritionError,
    IllPosedError,
    MissingFloaterCurveError,
    MissingWageError,
    PiecewiseLinearWage,
    business_unit_cost,
    case1_diagnostics,
    case2_residuals,
    cost_quadrature_oracle,
    floater_average_cost,
    format_cost_table,
    format_plan_table,
    org_cost,
    reduce_floaters,
    write_cost_csv,
)
from orgflow.config import ConfigError, parse_config
from conftest import (
    MAX_LEVELS,
    build_org,
    costed_org,
    well_posed_orgs_and_plans,
)

MIXED_PLAN = FlexPlan(alpha=np.array([1.32, 1.04, 1.02, 1.00]),
                      p=np.array([0.23, 0.22, 0.22, 0.39, 0.99]))


def test_all_permanent_cost_closed_form(costed_org_plain):
    total = org_cost(costed_org_plain).total
    assert total == pytest.approx(1150323.84, abs=0.01)


def test_mixed_plan_cost_value(costed_org_20):
    total = org_cost(costed_org_20, MIXED_PLAN).total
    assert total == pytest.approx(1120087.0, abs=1.0)


def test_breakdown_components_sum(costed_org_20):
    bd = org_cost(costed_org_20, MIXED_PLAN)
    np.testing.assert_allclose(
        bd.per_level, bd.permanent + bd.temporary + bd.floater, rtol=1e-12)
    assert bd.total == pytest.approx(float(np.sum(bd.per_level)))
    # temporary bill is headcount times the temporary share times its wage
    spec = costed_org_20
    np.testing.assert_allclose(
        bd.temporary, (1.0 - MIXED_PLAN.p) * spec.n * spec.wt, rtol=1e-12)


def test_level_cost_matches_quadrature(costed_org_20):
    spec = costed_org_20
    per_level = org_cost(spec, MIXED_PLAN).per_level
    for level in range(1, 6):
        closed = per_level[level - 1]
        quad = cost_quadrature_oracle(spec, MIXED_PLAN, level)
        assert closed == pytest.approx(quad, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(well_posed_orgs_and_plans(wages=True),
       st.lists(st.floats(1.0, 2.0), min_size=MAX_LEVELS,
                max_size=MAX_LEVELS),
       st.lists(st.floats(0.3, 0.7), min_size=MAX_LEVELS,
                max_size=MAX_LEVELS))
def test_quadrature_agreement_on_random_orgs(case, floater_factor, split):
    spec, plan = case
    size = spec.size
    bd = org_cost(spec, plan)
    for level in range(1, size + 1):
        oracle = cost_quadrature_oracle(spec, plan, level)
        assert bd.per_level[level - 1] == pytest.approx(oracle, rel=1e-6)

    # business units promote internally: one unit is the organization
    # under alpha = 1, and both sides share the ill-posedness rule
    internal = FlexPlan(alpha=np.ones(size - 1), p=plan.p.copy())
    whole = BusinessUnitPlan(headcounts=spec.n[np.newaxis],
                             permanent_share=plan.p[np.newaxis],
                             floater_share=np.zeros((1, size)))
    try:
        expected = org_cost(spec, internal).total
    except IllPosedError:
        with pytest.raises(IllPosedError):
            business_unit_cost(spec, whole)
        return
    assert business_unit_cost(spec, whole).total == pytest.approx(
        expected, rel=1e-12)

    # the floater reduction prices the units at its own floater shares
    for lv, factor in zip(spec.levels, floater_factor):
        lv.floater_wage = ConstantWage(lv.attrition * lv.base_wage * factor)
    split = np.array(split[:size])
    bu = BusinessUnitPlan(headcounts=np.vstack([split, 1.0 - split]) * spec.n,
                          permanent_share=np.vstack([plan.p, plan.p]),
                          floater_share=np.zeros((2, size)))
    reduction = reduce_floaters(spec, bu)
    at_shares = BusinessUnitPlan(headcounts=bu.headcounts,
                                 permanent_share=bu.permanent_share,
                                 floater_share=reduction.floater_share)
    try:
        expected = business_unit_cost(spec, at_shares).total
    except IllPosedError:  # a unit too small to promote internally
        return
    assert business_unit_cost(spec, reduction).total == pytest.approx(
        expected, rel=1e-12)


def test_wage_bill_finite_where_exp_mu_tau_overflows():
    # mu_2 tau_2 = 900: e^{mu tau} overflows and e^{-mu tau} underflows
    spec = build_org([10000.0, 50.0], [0.1, 3.0], [1.0, 300.0],
                     base=[30.0, 60.0], growth=0.04)
    bd = org_cost(spec)
    assert np.all(np.isfinite(bd.per_level))
    mu, n, w0, r = 3.0, 50.0, 60.0, 0.04
    assert bd.per_level[1] == pytest.approx(w0 * mu * n / (mu - r), rel=1e-12)
    assert bd.per_level[0] == pytest.approx(
        cost_quadrature_oracle(spec, FlexPlan.all_internal(2), 1), rel=1e-6)


def test_case1_diagnostics_finite_for_long_single_level():
    spec = build_org([100.0], [3.0], [300.0], base=[30.0], temp=[45.0],
                     growth=0.04)
    diag = case1_diagnostics(spec, FlexPlan(alpha=np.ones(0), p=np.array([0.7])))
    assert np.isfinite([diag.first_derivative, diag.second_derivative,
                        diag.p_opt]).all()
    assert diag.regime == "all-permanent"


def test_cost_depends_only_on_own_and_higher_levels(costed_org_20):
    spec = costed_org_20
    base = org_cost(spec, MIXED_PLAN).per_level
    bumped = FlexPlan(alpha=MIXED_PLAN.alpha.copy(), p=MIXED_PLAN.p.copy())
    bumped.alpha[0] *= 1.5  # hiring ratio into level 2
    after = org_cost(spec, bumped).per_level
    # levels 2..5 are untouched; only level 1 feels its own inflow change
    np.testing.assert_allclose(after[1:], base[1:], rtol=1e-12)
    assert abs(after[0] - base[0]) > 1.0


def test_zero_discount_all_permanent_top_level_is_plain_wage_bill():
    spec = costed_org(premium=None)
    spec.wage_growth = 0.0
    bd = org_cost(spec)
    assert bd.permanent[-1] == pytest.approx(134.0 * 500.0, rel=1e-12)


def test_growth_reaching_attrition_rejected():
    spec = costed_org(premium=0.2)
    spec.wage_growth = 0.08
    for lv in spec.levels:
        lv.floater_wage = ConstantWage(40.0)
    units = BusinessUnitPlan(headcounts=spec.n[np.newaxis],
                             permanent_share=np.full((1, spec.size), 0.9),
                             floater_share=np.zeros((1, spec.size)))
    for cost in (lambda: org_cost(spec),
                 lambda: business_unit_cost(spec, units),
                 lambda: business_unit_cost(
                     spec, reduce_floaters(spec, units)).total):
        with pytest.raises(GrowthExceedsAttritionError):
            cost()


def test_temp_share_without_temp_wage_raises(costed_org_plain):
    plan = FlexPlan(alpha=np.ones(4), p=np.array([0.9, 1, 1, 1, 1.0]))
    with pytest.raises(MissingWageError):
        org_cost(costed_org_plain, plan)


def test_ill_posed_plan_rejected_by_cost(costed_org_20):
    plan = FlexPlan(alpha=np.ones(4), p=np.array([0.01, 1, 1, 1, 1.0]))
    with pytest.raises(IllPosedError):
        org_cost(costed_org_20, plan)


def test_wage_curves_evaluate_pointwise():
    s = np.array([0.0, 1.0, 2.5, 10.0])
    np.testing.assert_allclose(ConstantWage(40.0)(s), 40.0)
    np.testing.assert_allclose(ExponentialWage(30.0, 0.02)(s),
                               30.0 * np.exp(0.02 * s))
    curve = PiecewiseLinearWage([0.0, 2.0, 5.0], [10.0, 20.0, 20.0])
    np.testing.assert_allclose(curve(np.array([0.0, 1.0, 2.0, 5.0, 9.0])),
                               [10.0, 15.0, 20.0, 20.0, 20.0])


def test_piecewise_curve_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearWage([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        PiecewiseLinearWage([0.0], [1.0])
    with pytest.raises(ValueError):
        PiecewiseLinearWage([0.0, 1.0], [1.0, 2.0, 3.0])


def test_piecewise_laplace_with_close_knots():
    # w = 1 + ramp to 2 over a gap of 1e-310: the closed form is
    # (1 + 1) / 0.5, with no overflow in the ramp's slope
    for gap in (1e-300, 1e-310):
        curve = PiecewiseLinearWage([0.0, gap], [1.0, 2.0])
        assert curve.laplace(0.5) == pytest.approx(4.0, rel=1e-12)


def test_floater_average_cost_analytic_cases():
    org = build_org([100.0], [0.25], [2.0])
    org.levels[0].floater_wage = ConstantWage(40.0)
    assert floater_average_cost(org, 1) == 40.0 / 0.25
    org.levels[0].floater_wage = ExponentialWage(40.0, 0.05)
    assert floater_average_cost(org, 1) == 40.0 / (0.25 - 0.05)


def test_piecewise_linear_floater_cost_matches_quadrature():
    from scipy.integrate import quad
    rng = np.random.default_rng(17)
    at_zero = past_30 = 0
    for i in range(240):
        mu = rng.uniform(0.02, 0.5)
        count = int(rng.integers(2, 7))
        # every third curve starts at 0, and one in three starts below it
        start = (0.0, rng.uniform(0.0, 5.0), -rng.uniform(0.0, 5.0))[i % 3]
        gaps = rng.uniform(0.2, 15.0, count - 1)
        knots = start + np.concatenate(([0.0], np.cumsum(gaps)))
        curve = PiecewiseLinearWage(knots, rng.uniform(0.0, 200.0, count))
        org = build_org([100.0], [mu], [2.0])
        org.levels[0].floater_wage = curve
        at_zero += knots[0] == 0.0
        past_30 += knots[-1] > 30.0

        def f(s):
            return float(curve(s)) * math.exp(-mu * s)

        split = max(knots[-1], 0.0)
        inner = knots[(knots > 0.0) & (knots < split)]
        head = quad(f, 0.0, split, points=inner, limit=200, epsabs=0.0,
                    epsrel=1e-12)[0] if split > 0.0 else 0.0
        tail = quad(f, split, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        assert floater_average_cost(org, 1) == pytest.approx(head + tail,
                                                             rel=1e-9)
    assert at_zero >= 50 and past_30 >= 50


def test_floater_growth_must_stay_below_attrition():
    org = build_org([100.0], [0.1], [2.0])
    org.levels[0].floater_wage = ExponentialWage(40.0, 0.1)
    with pytest.raises(GrowthExceedsAttritionError):
        floater_average_cost(org, 1)


def test_missing_floater_curve_raises():
    org = build_org([100.0], [0.1], [2.0])
    with pytest.raises(MissingFloaterCurveError):
        floater_average_cost(org, 1)


def test_business_units_halved_recover_whole_org_cost():
    spec = costed_org(premium=0.2)
    half = spec.n / 2.0
    p = np.full(5, 0.8)
    bu = BusinessUnitPlan(headcounts=np.vstack([half, half]),
                          permanent_share=np.vstack([p, p]),
                          floater_share=np.zeros((2, 5)))
    whole = org_cost(spec, FlexPlan(alpha=np.ones(4), p=p)).total
    split = business_unit_cost(spec, bu).total
    assert split == pytest.approx(whole, rel=1e-12)


def test_unit_headcount_rule_is_the_same_in_library_and_parser():
    # level 1's units sum to 1 - 5e-9 against a headcount of 1, beyond
    # rtol = atol = 1e-9: the library and the parser both reject them
    spec = build_org([1.0, 2.0], [0.2, 0.3], [1.0, 1.0])
    rows = [[0.5, 1.0], [0.5 - 5e-9, 1.0]]
    bu = BusinessUnitPlan(headcounts=rows, permanent_share=np.ones((2, 2)),
                          floater_share=np.zeros((2, 2)))
    message = "unit headcounts do not sum to the level headcounts"
    with pytest.raises(ValueError, match=f"^{message}$"):
        bu.check(spec)
    levels = [{"headcount": lv.headcount, "attrition": lv.attrition}
              for lv in spec.levels]
    with pytest.raises(ConfigError, match=f"^org.business_units: {message}$"):
        parse_config({"org": {"levels": levels, "business_units": rows}})


def test_business_unit_cost_needs_curves_only_where_floaters_work():
    spec = costed_org(premium=0.2)
    half = spec.n / 2.0
    spec.levels[0].floater_wage = ConstantWage(30.0)  # no curve above
    p = np.full(5, 0.8)
    g = np.zeros((2, 5))
    g[:, 0] = 0.1
    bu = BusinessUnitPlan(headcounts=np.vstack([half, half]),
                          permanent_share=np.vstack([p, p]), floater_share=g)
    floater = business_unit_cost(spec, bu).floater
    assert floater[0] == pytest.approx(0.1 * spec.n[0] * 30.0 / spec.mu[0],
                                       rel=1e-12)
    np.testing.assert_array_equal(floater[1:], 0.0)


def test_floaters_replace_temporaries_only_when_cheaper():
    spec = costed_org(premium=0.2)
    half = spec.n / 2.0
    p = np.full(5, 0.8)
    bu = BusinessUnitPlan(headcounts=np.vstack([half, half]),
                          permanent_share=np.vstack([p, p]),
                          floater_share=np.zeros((2, 5)))
    for lv in spec.levels:
        lv.floater_wage = ConstantWage(1000.0)  # prohibitively expensive
    reduction = reduce_floaters(spec, bu)
    assert np.all(reduction.floater_share == 0.0)
    assert business_unit_cost(spec, reduction).total == pytest.approx(
        business_unit_cost(spec, bu).total, rel=1e-12)
    for lv in spec.levels:
        lv.floater_wage = ConstantWage(0.5)  # clearly cheaper than temps
    del spec.__dict__["mu"]  # cached arrays are stale after editing levels
    cheap = reduce_floaters(spec, bu)
    assert np.all(cheap.floater_share == pytest.approx(0.2))
    assert (business_unit_cost(spec, cheap).total
            < business_unit_cost(spec, bu).total)


def test_levels_without_floater_curves_offer_no_floaters():
    # only level 1 has a floater wage curve: its flexible staff become
    # floaters, and every other level's stay temporary
    spec = costed_org(premium=0.2)
    spec.levels[0].floater_wage = ConstantWage(0.5)
    half = spec.n / 2.0
    p = np.full(5, 0.8)
    bu = BusinessUnitPlan(headcounts=np.vstack([half, half]),
                          permanent_share=np.vstack([p, p]),
                          floater_share=np.zeros((2, 5)))
    reduction = reduce_floaters(spec, bu)
    expected = np.zeros((2, 5))
    expected[:, 0] = 1.0 - p[0]
    np.testing.assert_array_equal(reduction.floater_share, expected)
    at_shares = BusinessUnitPlan(headcounts=bu.headcounts,
                                 permanent_share=bu.permanent_share,
                                 floater_share=reduction.floater_share)
    assert business_unit_cost(spec, reduction).total == pytest.approx(
        business_unit_cost(spec, at_shares).total, rel=1e-12)


def test_units_without_flexible_staff_need_no_temp_wage():
    # all-permanent units are costed on a spec that sets no temp wages,
    # as org_cost costs an all-permanent plan; flexible staff need them
    spec = costed_org()
    half = spec.n / 2.0
    bu = BusinessUnitPlan(headcounts=np.vstack([half, half]),
                          permanent_share=np.ones((2, 5)),
                          floater_share=np.zeros((2, 5)))
    total = org_cost(spec, FlexPlan.all_internal(5)).total
    assert business_unit_cost(spec, bu).total == pytest.approx(total,
                                                               rel=1e-12)
    reduction = reduce_floaters(spec, bu)
    np.testing.assert_array_equal(reduction.floater_share, np.zeros((2, 5)))
    assert business_unit_cost(spec, reduction).total == pytest.approx(
        total, rel=1e-12)
    bu.permanent_share[1, 4] = 0.9
    with pytest.raises(MissingWageError):
        business_unit_cost(spec, bu)
    with pytest.raises(MissingWageError):
        reduce_floaters(spec, bu)


def test_case1_regimes_cover_floor_interior_and_ceiling():
    for wt1, regime in ((36.0, "min-share"), (40.5, "interior"),
                        (80.0, "all-permanent")):
        spec = costed_org(premium=0.2)
        spec.levels[0].temp_wage = wt1
        plan = FlexPlan(alpha=np.ones(4), p=np.array([0.9, 1, 1, 1, 1.0]))
        diag = case1_diagnostics(spec, plan)
        assert diag.regime == regime
        assert diag.second_derivative > 0.0
        if regime == "min-share":
            assert diag.p_opt == pytest.approx(diag.p_min)
        elif regime == "all-permanent":
            assert diag.p_opt == pytest.approx(1.0)
        else:
            assert diag.p_min < diag.p_opt < 1.0


def test_case1_interior_optimum_is_stationary():
    spec = costed_org(premium=0.2)
    spec.levels[0].temp_wage = 40.5
    plan = FlexPlan(alpha=np.ones(4), p=np.array([0.9, 1, 1, 1, 1.0]))
    diag = case1_diagnostics(spec, plan)
    at_opt = FlexPlan(alpha=np.ones(4),
                      p=np.array([diag.p_opt, 1, 1, 1, 1.0]))
    assert abs(case1_diagnostics(spec, at_opt).first_derivative) < 1e-6 * 1e6


def test_case1_derivative_matches_finite_differences():
    spec = costed_org(premium=0.2)
    spec.levels[0].temp_wage = 40.5
    h = 1e-6
    for p1 in (0.88, 0.92, 0.97):
        plan = FlexPlan(alpha=np.ones(4), p=np.array([p1, 1, 1, 1, 1.0]))
        diag = case1_diagnostics(spec, plan)
        up = FlexPlan(alpha=np.ones(4), p=np.array([p1 + h, 1, 1, 1, 1.0]))
        dn = FlexPlan(alpha=np.ones(4), p=np.array([p1 - h, 1, 1, 1, 1.0]))
        fd = (org_cost(spec, up).per_level[0]
              - org_cost(spec, dn).per_level[0]) / (2 * h)
        assert diag.first_derivative == pytest.approx(fd, rel=1e-5)
        fd2 = (case1_diagnostics(spec, up).first_derivative
               - case1_diagnostics(spec, dn).first_derivative) / (2 * h)
        assert diag.second_derivative == pytest.approx(fd2, rel=1e-5)


def test_case1_positive_curvature_across_sweep():
    spec = costed_org(premium=0.2)
    spec.levels[0].temp_wage = 40.5
    for p1 in np.linspace(0.84, 1.0, 30):
        plan = FlexPlan(alpha=np.ones(4), p=np.array([p1, 1, 1, 1, 1.0]))
        assert case1_diagnostics(spec, plan).second_derivative > 0.0


CASE2_ORG = dict(heads=[1000.0, 400.0], rates=[0.10, 0.15], ages=[3.0, 2.0],
                 base=[30.0, 60.0], temp=[44.440664, 65.080415])


def test_case2_residuals_vanish_at_numeric_optimum():
    from scipy.optimize import minimize
    spec = build_org(CASE2_ORG["heads"], CASE2_ORG["rates"],
                     CASE2_ORG["ages"], base=CASE2_ORG["base"],
                     temp=CASE2_ORG["temp"], growth=0.04)

    def total(x):
        plan = FlexPlan(alpha=np.ones(1), p=np.array(x))
        try:
            return org_cost(spec, plan).total
        except IllPosedError:
            return 1e12
    res = minimize(total, x0=[0.55, 0.45], method="L-BFGS-B",
                   bounds=[(0.30, 0.9999), (0.05, 0.9999)])
    assert res.success
    assert 0.31 < res.x[0] < 0.99 and 0.06 < res.x[1] < 0.99
    plan = FlexPlan(alpha=np.ones(1), p=res.x.copy())
    r1, r2 = case2_residuals(spec, plan)
    assert abs(r1) < 1e-4
    assert abs(r2) < 1e-4


def test_case2_residuals_large_away_from_optimum():
    spec = build_org(CASE2_ORG["heads"], CASE2_ORG["rates"],
                     CASE2_ORG["ages"], base=CASE2_ORG["base"],
                     temp=CASE2_ORG["temp"], growth=0.04)
    plan = FlexPlan(alpha=np.ones(1), p=np.array([0.9, 0.9]))
    r1, r2 = case2_residuals(spec, plan)
    assert max(abs(r1), abs(r2)) > 1e-2


def test_cost_csv_round_trip(tmp_path, costed_org_20):
    bd = org_cost(costed_org_20, MIXED_PLAN)
    path = tmp_path / "cost.csv"
    write_cost_csv(str(path), bd, ["seed = 3"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 3"
    header = lines[1].split(",")
    assert header[0] == "level"
    rows = [ln.split(",") for ln in lines[2:]]
    # five level rows plus the closing total row
    assert len(rows) == 6
    total = sum(float(r[-1]) for r in rows[:-1])
    assert total == pytest.approx(bd.total, rel=1e-6)
    assert float(rows[-1][-1]) == pytest.approx(bd.total, rel=1e-9)


def test_tables_format_without_errors(costed_org_20):
    bd = org_cost(costed_org_20, MIXED_PLAN)
    table = format_cost_table(bd)
    assert "level" in table and "total" in table
    plans = format_plan_table("base", MIXED_PLAN, bd.total)
    assert "perm share" in plans and "M/h" in plans
