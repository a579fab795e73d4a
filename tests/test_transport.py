import csv
import io
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orgflow import (
    CflViolationError,
    FlexPlan,
    IllPosedError,
    InfeasibleInitialDataError,
    SeniorityGrid,
    promotion_demands,
    run,
    stationary_state,
    write_snapshot_csv,
    write_trajectory_csv,
)
from orgflow import _output, transport
from orgflow.transport import (
    _discrete_stationary_density,
    close_policy_external_fraction,
    level_metrics,
    make_initial_density,
    step,
)
from conftest import (
    MAX_LEVELS,
    build_org,
    draw_well_posed_org,
    well_posed_orgs_and_plans,
)


def _step_args(density, spec, grid, policy, masses):
    """step's terms after a closure of density, as run() builds them: the
    ghost values mu M + P A, the columns dt P and 1 + dt (mu + P), and rho
    on the nodes below eligibility (a new array, which step overwrites)."""
    rate = policy["promotion"]
    return (spec.mu * masses + rate * policy["pool"],
            (grid.dt * rate)[:, np.newaxis],
            (1.0 + grid.dt * (spec.mu + rate))[:, np.newaxis],
            density * grid.pre_eligibility_mask(spec))


def test_grid_rejects_time_step_above_space_step():
    with pytest.raises(CflViolationError):
        SeniorityGrid(ds=0.05, dt=0.06)
    SeniorityGrid(ds=0.05, dt=0.05)  # equality allowed


@pytest.mark.parametrize("name", ["ds", "dt", "s_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_grid_rejects_non_finite_steps_and_length(name, value):
    # NaN passes every "out of range" test, and a NaN or infinite length
    # would fail later, converting the node count to an integer
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SeniorityGrid(**{name: value})


def test_grid_nodes_and_eligibility_index():
    grid = SeniorityGrid(ds=0.05, dt=0.05, s_max=50.0)
    assert grid.n_nodes == 1000
    assert grid.s[0] == pytest.approx(0.05)
    assert grid.s[-1] == pytest.approx(50.0)
    assert grid.eligibility_index(4.0) == 80
    assert grid.eligibility_index(3.99) == 79
    assert grid.eligibility_index(0.0) == 0
    assert grid.eligibility_index(999.0) == grid.n_nodes
    np.testing.assert_array_equal(
        grid.eligibility_index(np.array([4.0, 3.99, 0.0, 999.0])),
        [80, 79, 0, grid.n_nodes])


@pytest.mark.parametrize("kind", ["stationary", "uniform",
                                  "truncated-exponential"])
def test_initial_densities_carry_exact_mass(low_turnover_org, kind):
    grid = SeniorityGrid(s_max=70.0)
    density = make_initial_density(low_turnover_org, None, grid, kind=kind)
    assert density.shape == (5, grid.n_nodes)
    assert np.all(density >= 0.0)
    np.testing.assert_allclose(grid.ds * density.sum(axis=1),
                               low_turnover_org.n, rtol=1e-12)


def test_initial_density_scales_with_permanent_share(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    plan = FlexPlan(alpha=np.ones(4), p=np.array([0.9, 0.8, 1, 1, 1.0]))
    density = make_initial_density(low_turnover_org, plan, grid,
                                   kind="uniform")
    np.testing.assert_allclose(grid.ds * density.sum(axis=1),
                               low_turnover_org.n * plan.p, rtol=1e-12)


def test_unknown_initial_kind_rejected(low_turnover_org):
    with pytest.raises(ValueError):
        make_initial_density(low_turnover_org, None, SeniorityGrid(),
                             kind="gaussian")


def test_grid_too_short_for_eligibility_age():
    org = build_org([100.0], [0.1], [30.0])
    with pytest.raises(InfeasibleInitialDataError):
        make_initial_density(org, None, SeniorityGrid(s_max=20.0))


@pytest.mark.parametrize("initial", ["uniform", "truncated-exponential",
                                     "stationary"])
def test_run_refuses_a_start_with_an_empty_pool_below_demand(initial):
    # the README ladder with no permanent staff at level 2: level 3 still
    # demands promotions from it, so every start is refused; the
    # stationary one fails first in the closed forms
    org = build_org([5500, 5200, 3800, 1800, 500],
                    [0.08, 0.08, 0.08, 0.08, 0.2], [4.0] * 5)
    plan = FlexPlan(alpha=np.ones(4), p=np.array([1.0, 0.0, 1.0, 1.0, 1.0]))
    error, match = ((IllPosedError, None) if initial == "stationary" else
                    (InfeasibleInitialDataError, r"at level \[2\] although"))
    with pytest.raises(error, match=match):
        run(org, plan=plan, grid=SeniorityGrid(s_max=70.0), horizon=1.0,
            initial=initial)


def test_single_level_fixed_point_is_stationary():
    org = build_org([500.0], [0.5], [4.0])
    grid = SeniorityGrid(ds=0.05, dt=0.05, s_max=50.0)
    masses = np.array([500.0])
    density, rates = _discrete_stationary_density(
        org, FlexPlan.all_internal(1), grid)
    assert rates[0] == 0.0
    state = close_policy_external_fraction(density, org, grid, cap=np.inf,
                                           masses=masses)
    after = step(density, grid,
                 *_step_args(density, org, grid, state, masses))
    np.testing.assert_allclose(after, density, atol=1e-6)
    assert abs(grid.ds * after.sum() - 500.0) / 500.0 < 1e-10


def test_coupled_fixed_point_holds_under_simulation(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    result = run(low_turnover_org, grid=grid, policy="max-internal",
                 horizon=5.0, cap=np.inf, initial="stationary")
    drift = np.max(np.abs(result.promotion - result.promotion[0]))
    assert drift < 1e-10
    assert np.max(result.mass_error) < 1e-9


def test_fixed_point_pools_match_closed_form(low_turnover_org):
    # geometric pre-eligibility decay replaces the continuum exponential
    grid = SeniorityGrid(ds=0.05, dt=0.05, s_max=70.0)
    density, rates = _discrete_stationary_density(
        low_turnover_org, FlexPlan.all_internal(5), grid)
    pools = close_policy_external_fraction(density, low_turnover_org,
                                           grid)["pool"]
    decay = (1.0 + 0.08 * 0.05) ** (-80)
    c = promotion_demands(low_turnover_org)
    expected_4 = ((0.08 * 1800 + c[4]) * decay - c[4]) / 0.08
    assert pools[3] == pytest.approx(expected_4, rel=1e-9)
    assert pools[3] == pytest.approx(453.5675, abs=2e-4)
    np.testing.assert_allclose(rates[:4] * pools[:4], c[1:5], rtol=1e-9)


def test_stationary_kind_requires_well_posed_demands():
    org = build_org([100.0, 1000.0], [0.1, 0.5], [4.0, 0.0])
    with pytest.raises(IllPosedError):
        make_initial_density(org, None, SeniorityGrid(), kind="stationary")


def _defect_3_case(p1):
    """The two-level org whose level 1 has tau = 0, so its pool is N_1 p_1,
    under the plan p = [p1, 0.6]."""
    return (build_org([7623.87, 9211.3], [0.5, 0.38], [0.0, 5.57]),
            FlexPlan(alpha=[1.0], p=[p1, 0.6]))


@settings(max_examples=100, deadline=None)
@given(well_posed_orgs_and_plans())
@example(_defect_3_case(1e-9))
@example(_defect_3_case(1e-17))
def test_stationary_start_is_fixed_point_of_run(case):
    # row 0 of an uncapped fixed-plan run from the discrete fixed point
    # promotes at the fixed point's own rates, or the fixed point is ill
    # posed and the run raises; at p_1 = 1e-17 level 1's pool 7.6e-14 lies
    # under its empty floor 1e-12 N_1, where the closure promotes nothing
    spec, plan = case
    grid = _UNIT_GRID
    try:
        _, rates = _discrete_stationary_density(spec, plan, grid)
    except IllPosedError:
        with pytest.raises(IllPosedError):
            run(spec, plan=plan, grid=grid, policy="fixed-plan", cap=np.inf,
                initial="stationary", horizon=0.0)
        return
    result = run(spec, plan=plan, grid=grid, policy="fixed-plan", cap=np.inf,
                 initial="stationary", horizon=0.0)
    np.testing.assert_allclose(result.promotion[0], rates, rtol=1e-12,
                               atol=0.0)


# the grid of the drawn orgs: the uniform start is flat on [0, 2 tau_j]
# with tau_j >= 5 ds, so every pool starts near M_j / 2
_UNIT_GRID = SeniorityGrid(ds=0.1, dt=0.1, s_max=20.0)


@settings(max_examples=20, deadline=None)
@given(well_posed_orgs_and_plans())
@example((build_org([5500, 5200, 3800, 1800, 500],
                    [0.08, 0.08, 0.08, 0.08, 0.5], [4.0] * 5),
          FlexPlan.all_internal(5)))
def test_mass_restored_every_step(case):
    # over random well-posed orgs under their plans' shares, and the
    # low-turnover ladder: 40 closures and steps from a uniform start, each
    # closure balancing h_j M_j + P_{j-1} A_{j-1} = mu_j M_j + P_j A_j and
    # each step restoring every level's mass and keeping rho >= 0
    spec, plan = case
    grid = _UNIT_GRID
    masses = spec.n * plan.p
    frac = np.concatenate(([0.0], plan.alpha - 1.0))
    for cap in (1.0, np.inf):
        density = make_initial_density(spec, plan, grid, "uniform")
        for _ in range(40):
            state = close_policy_external_fraction(
                density, spec, grid, cap=cap, alpha_frac=frac, masses=masses)
            out = state["promotion"] * state["pool"]
            residual = (state["hiring"] * masses
                        + np.concatenate(([0.0], out[:-1]))
                        - spec.mu * masses - out)
            assert np.all(np.abs(residual) <= 1e-9 * spec.mu * masses)
            density = step(density, grid,
                           *_step_args(density, spec, grid, state, masses))
            err = np.abs(grid.ds * density.sum(axis=1) - masses) / masses
            assert np.max(err) < 1e-12
            assert np.all(density >= 0.0)


def test_unit_courant_step_is_exact_shift(low_turnover_org, high_turnover_org):
    # at dt = ds the upwind update moves every node one cell along its
    # characteristic and adds no numerical diffusion (LeVeque, Finite
    # Volume Methods for Hyperbolic Problems, 2002, ch. 4), so step gives
    # the shifted density bit for bit
    grid = SeniorityGrid(ds=0.05, dt=0.05, s_max=70.0)
    smooth = make_initial_density(low_turnover_org, None, grid,
                                  "truncated-exponential")
    # seven steps from a uniform start: level 1 holds 2017.9 at node 7 next
    # to 946.4 at node 8, more than 2x apart, where rho_i - (rho_i -
    # rho_{i-1}) is not rho_{i-1}
    jump = run(high_turnover_org, grid=grid, policy="external-fraction",
               cap=2.0, external_fraction=0.25, horizon=7 * grid.dt).density
    assert jump[0, 6] > 2.0 * jump[0, 7] > 0.0
    for org, density, cap, f in ((low_turnover_org, smooth, np.inf, 0.0),
                                 (high_turnover_org, jump, 2.0, 0.25)):
        masses = org.n.astype(float)
        state = close_policy_external_fraction(density, org, grid, cap=cap,
                                               alpha_frac=f, masses=masses)
        after = step(density, grid,
                     *_step_args(density, org, grid, state, masses))
        rate = state["promotion"]
        decay = 1.0 + grid.dt * (org.mu + rate)[:, np.newaxis]
        # node 1 comes from the mass-restoring ghost value (module docstring)
        ghost = org.mu * masses + rate * state["pool"]
        pre = grid.pre_eligibility_mask(org)
        held = grid.ds * np.sum(density * pre, axis=1)
        np.testing.assert_allclose(
            ghost, (org.mu + rate) * masses - rate * held, rtol=1e-14)
        upwind = np.column_stack((ghost, density[:, :-1]))
        source = grid.dt * rate[:, np.newaxis] * density
        np.testing.assert_array_equal(
            after, (upwind + np.where(pre, source, 0.0)) / decay)


@st.composite
def _orgs_and_jumpy_densities(draw):
    """A random well-posed org on a unit-Courant grid, with piecewise-flat
    nonnegative densities of exact mass N_j whose pieces jump by any
    factor, zeros included; the last node is empty, so nothing leaves the
    grid in one step."""
    size = draw(st.integers(1, MAX_LEVELS))
    spec = draw_well_posed_org(draw, FlexPlan.all_internal(size))
    ds = draw(st.sampled_from([0.05, 0.1]))
    grid = SeniorityGrid(ds=ds, dt=ds, s_max=12.0)
    rows = []
    for _ in range(MAX_LEVELS):
        count = draw(st.integers(1, 8))
        widths, values = [], []
        for _ in range(8):
            widths.append(draw(st.integers(1, 60)))
            zero, value = draw(st.booleans()), draw(st.floats(1e-6, 1e3))
            values.append(0.0 if zero else value)
        # an empty level gets a one-node spike
        at, spike = (draw(st.integers(0, grid.n_nodes - 2)),
                     draw(st.floats(1e-6, 1e3)))
        flat = np.repeat(values[:count], widths[:count])[:grid.n_nodes - 1]
        if not flat.any():
            flat[at % flat.size] = spike
        row = np.zeros(grid.n_nodes)
        row[:flat.size] = flat
        rows.append(row)
    density = np.array(rows[:size])
    density *= (spec.n / (ds * density.sum(axis=1)))[:, np.newaxis]
    cap = draw(st.sampled_from([0.5, 2.0, np.inf]))
    return spec, grid, density, cap, draw(st.floats(0.0, 0.5))


@settings(max_examples=60, deadline=None)
@given(_orgs_and_jumpy_densities())
def test_unit_courant_step_properties(case):
    # over random orgs and densities with jumps, at dt = ds: step is the
    # exact shift bit for bit, restores every level's mass and keeps the
    # density nonnegative (the MacIver et al., JOSS 2019, property style)
    spec, grid, density, cap, f = case
    masses = spec.n.astype(float)
    state = close_policy_external_fraction(density, spec, grid, cap=cap,
                                           alpha_frac=f, masses=masses)
    after = step(density, grid,
                 *_step_args(density, spec, grid, state, masses))
    rate = state["promotion"]
    upwind = np.column_stack((spec.mu * masses + rate * state["pool"],
                              density[:, :-1]))
    source = grid.dt * rate[:, np.newaxis] * density
    np.testing.assert_array_equal(
        after, (upwind + np.where(grid.pre_eligibility_mask(spec), source, 0.0))
        / (1.0 + grid.dt * (spec.mu + rate))[:, np.newaxis])
    held = grid.ds * after.sum(axis=1)
    assert np.all(np.abs(held - masses) <= 1e-12 * masses)
    assert np.all(after >= 0.0)


@settings(max_examples=60, deadline=None)
@given(_orgs_and_jumpy_densities())
def test_metric_sums_against_exact_sums(case):
    # the excess-wait numerator, a BLAS dot product per row, lies within
    # n 2^-52 relative of the correctly rounded sum of the products: every
    # product is nonnegative, so a blocked sum's error bound, n eps times
    # the sum of |rho weight|, is relative to the sum itself (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, ch. 3-4);
    # sum rho stays numpy's pairwise sum, bit for bit
    spec, grid, density, _, _ = case
    weight = transport._build_cuts(grid, spec).weight
    mass, wait = (np.full(spec.size, np.nan) for _ in range(2))
    transport._metric_sums(density, weight, mass, wait)
    assert _bits(mass) == _bits(np.add.reduce(density, axis=1))
    for rho, w, total in zip(density, weight, wait):
        exact = math.fsum((rho * w).tolist())
        assert abs(total - exact) <= grid.n_nodes * 2.0 ** -52 * exact


@settings(max_examples=40, deadline=None)
@given(well_posed_orgs_and_plans())
def test_recorded_trajectory_balances(case):
    # every row run() records closes the balance law
    # h_j M_j + P_{j-1} A_{j-1} = mu_j M_j + P_j A_j, whether the cap binds
    # (shortfall hiring) or not
    spec, plan = case
    for cap in (1.0, np.inf):
        result = run(spec, plan=plan, grid=_UNIT_GRID, policy="fixed-plan",
                     horizon=3.0, cap=cap)
        assert result.balance_residual.shape == result.pool.shape
        assert np.all(np.abs(result.balance_residual)
                      <= 1e-9 * spec.mu * result.masses)


@pytest.mark.parametrize("dt,cap,kind,ages", [
    (0.05, 5.0, "uniform", None),
    (0.03, np.inf, "truncated-exponential", None),
    # every eligibility age 0: the cut head has no column
    (0.05, 5.0, "uniform", [0.0] * 5),
], ids=["0.05-5.0-uniform", "0.03-inf-truncated-exponential",
        "0.05-5.0-uniform-ages-0"])
def test_buffered_step_matches_full_array_formula(high_turnover_org, dt, cap,
                                                  kind, ages):
    # reference: the update written over every node into fresh arrays
    org = high_turnover_org
    if ages is not None:
        org = build_org(org.n, org.mu, ages)
    grid = SeniorityGrid(ds=0.05, dt=dt, s_max=70.0)
    masses = org.n.astype(float)
    density = make_initial_density(org, None, grid, kind)
    state = close_policy_external_fraction(density, org, grid, cap=cap,
                                           masses=masses)
    lam, rate = grid.dt / grid.ds, state["promotion"][:, np.newaxis]
    upwind = np.empty_like(density)
    upwind[:, 0] = org.mu * masses + state["promotion"] * state["pool"]
    upwind[:, 1:] = density[:, :-1]
    # at unit Courant number the advected density is the shifted one
    advected = upwind if lam == 1.0 else density - lam * (density - upwind)
    pre = grid.pre_eligibility_mask(org)
    expected = ((advected + grid.dt * rate * pre * density)
                / (1.0 + grid.dt * (org.mu[:, np.newaxis] + rate)))

    def terms():  # held is overwritten, so each call gets its own
        return _step_args(density, org, grid, state, masses)

    out = np.full_like(density, np.nan)
    assert step(density, grid, *terms(), out=out) is out
    np.testing.assert_array_equal(out, expected)
    # any memory layout of out gives the same densities
    transposed = np.empty(density.shape[::-1]).T
    assert step(density, grid, *terms(), out=transposed) is transposed
    np.testing.assert_array_equal(transposed, expected)
    np.testing.assert_array_equal(step(density, grid, *terms()), expected)
    if lam != 1.0:
        return
    # run()'s call shape at dt = ds: the input an (L, n_nodes) view of one
    # slot of the delay line's tape, out the next slot's cut head + 1
    # columns, and held as wide as out, +0 past the cut
    cuts = transport._build_cuts(grid, org)
    line = transport._DelayLine(density, cuts, grid.ds, masses, cuts.head,
                                None)
    out = line.fresh[1]
    assert line.slots[0].shape == density.shape
    assert out.shape == (org.size, cuts.head + 1)
    ghost, source, divisor, _ = terms()
    held = np.zeros(out.shape)
    held[:, :cuts.head] = density[:, :cuts.head] * cuts.pre_head
    assert step(line.slots[0], grid, ghost, source, divisor, held,
                out=out) is out
    assert _bits(out) == _bits(expected[:, :cuts.head + 1])


# the arrays of run() that the pools alone set, bit for bit whatever the
# step, and those that also read the density past the cut head
_POLICY_ARRAYS = ("promotion", "hiring", "shortfall", "pool", "ready_ratio")
_TAIL_ARRAYS = ("excess_wait", "l1_to_steady", "mass_error")


def _delay_line_bounds(n_steps: int, n_nodes: int) -> dict[str, float]:
    """What run()'s delay line at dt = ds may move, against the full-array
    update, after n_steps steps on n_nodes nodes, from float64's eps.

    density, relative, with tiny x unit as the floor of the scale
    (_density_floor; unit is the level's unit, the largest power of 2 not
    above max(M_j, 1)): a tail node's value is rounded at most
    2 n_steps + 2 times on the way (its level's scale is divided once per
    step, the value is converted once, multiplied out once and rescaled at
    most once per step), against n_steps divisions in the full-array
    update. Each rounding moves a value by at most eps / 2 relative, or,
    where the value is subnormal, by half of 2^-1074 = tiny eps. Below
    tiny x unit the stored u = rho / S may be subnormal, with S at most
    the unit, so that rho = S u rounds to multiples of S tiny eps: each
    rounding then moves rho by at most eps / 2 relative to the floor.
    mass_error and l1_to_steady, absolute, as both are relative to the
    level mass: the density's bound, plus the tail's sums, carried over at
    most n_nodes steps between recomputations and added to the head's sum
    in another order. excess_wait, relative: the same, plus the tail's
    weights, spaced by ds from the first one (within (s + tau) eps, below
    2 n_nodes eps of the weight past the first tail node), and the carried
    sum's few roundings per step, at most doubled by the sum's fall since
    its last recomputation, which is kept above half its peak."""
    eps = np.finfo(float).eps
    sums = 2 * (n_steps + n_nodes + 1) * eps
    return {"density": 2 * (n_steps + 1) * eps, "mass_error": sums,
            "l1_to_steady": sums,
            "excess_wait": 2 * (n_steps + 8 * n_nodes + 1) * eps}


def _density_floor(masses) -> np.ndarray:
    """tiny x unit per level, as a column: the floor of the density
    bound's scale (see _delay_line_bounds)."""
    unit = [math.ldexp(1.0, math.frexp(max(m, 1.0))[1] - 1) for m in masses]
    return np.finfo(float).tiny * np.array(unit)[:, np.newaxis]


def _assert_within(name: str, got, want, bound: float,
                   floor=np.finfo(float).tiny) -> None:
    """got and want agree on NaNs and differ elsewhere by at most bound,
    times max(|got|, |want|, floor) for density and excess_wait."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(want)), name
    gap = np.abs(np.nan_to_num(got) - np.nan_to_num(want))
    scale = 1.0
    if name in ("density", "excess_wait"):
        scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    assert np.all(gap <= bound * scale), (
        f"{name}: {float(np.nanmax(gap / scale)):.3g} > {bound:.3g}")


def _replay(org, plan, grid, fractions, cap, initial, horizon, steady):
    """run()'s arrays replayed step by step with the full-array formulas:
    boolean-mask pool sums, np.where ratios, the excess-wait numerator as
    the dot product of rho with (s - tau) 1[s > tau] and the upwind update
    over every node. Returns the rows by name and the density of every
    step. The pool sums stop where the mask does, as their pairwise
    order depends on the row's length."""
    masses = org.n * plan.p
    mask = grid.pre_eligibility_mask(org)
    head = int(np.count_nonzero(mask.any(axis=0)))
    past = grid.s - org.tau[:, np.newaxis]
    lam = grid.dt / grid.ds
    density = make_initial_density(org, plan, grid, initial)
    rows = {name: [] for name in _POLICY_ARRAYS + _TAIL_ARRAYS}
    densities = []
    n_steps = int(round(horizon / grid.dt))
    for k in range(n_steps + 1):
        densities.append(density)
        pools = masses - grid.ds * np.sum((density * mask)[:, :head], axis=1)
        state = close_policy_external_fraction(density, org, grid, cap=cap,
                                               alpha_frac=fractions,
                                               masses=masses)
        np.testing.assert_array_equal(state["pool"], pools)
        with np.errstate(invalid="ignore", divide="ignore"):
            l1 = (np.full(org.size, np.nan) if steady is None else
                  grid.ds * np.sum(np.abs(density - steady), axis=1))
            weighted = grid.ds * np.vecdot(density, past * ~mask)
            empty = pools <= 1e-12 * np.maximum(org.n, 1.0)
            values = {
                "promotion": state["promotion"], "hiring": state["hiring"],
                "shortfall": state["shortfall"], "pool": pools,
                "ready_ratio": np.where(masses > 0, pools / masses, 0.0),
                "excess_wait": np.where(empty, 0.0, weighted / pools),
                "l1_to_steady": np.where(masses > 0, l1 / masses, l1),
                "mass_error": np.abs(grid.ds * np.sum(density, axis=1)
                                     - masses) / np.where(masses > 0, masses,
                                                          1.0),
            }
        for name, value in values.items():
            rows[name].append(value)
        if k == n_steps:
            break
        rate = state["promotion"][:, np.newaxis]
        upwind = np.empty_like(density)
        upwind[:, 0] = org.mu * masses + state["promotion"] * pools
        upwind[:, 1:] = density[:, :-1]
        advected = upwind if lam == 1.0 else density - lam * (density - upwind)
        density = ((advected + grid.dt * rate * mask * density)
                   / (1.0 + grid.dt * (org.mu[:, np.newaxis] + rate)))
    return {name: np.array(v) for name, v in rows.items()}, densities


def _assert_matches_replay(result, rows, densities) -> None:
    """The policy arrays bit for bit; the density and the arrays that read
    it bit for bit with dt < ds and within the delay line's bounds at
    dt = ds."""
    for name in _POLICY_ARRAYS:
        np.testing.assert_array_equal(getattr(result, name), rows[name],
                                      err_msg=name)
    grid = result.grid
    pairs = [(name, getattr(result, name), rows[name])
             for name in _TAIL_ARRAYS]
    pairs.append(("density", result.density, densities[-1]))
    if grid.dt < grid.ds:
        for name, got, want in pairs:
            np.testing.assert_array_equal(got, want, err_msg=name)
        return
    bounds = _delay_line_bounds(result.times.size - 1, grid.n_nodes)
    floor = _density_floor(result.masses)
    for name, got, want in pairs:
        _assert_within(name, got, want, bounds[name],
                       floor if name == "density" else np.finfo(float).tiny)


@pytest.mark.parametrize("variant", [
    # (seed, org, policy, cap, external fraction, initial, dt)
    (1, "high", "max-internal", 1.0, 0.0, "uniform", 0.05),
    (2, "high", "max-internal", np.inf, 0.0, "truncated-exponential", 0.05),
    (3, "low", "external-fraction", 5.0, 0.25, "uniform", 0.05),
    (4, "low", "fixed-plan", 2.0, 0.0, "truncated-exponential", 0.03),
    (5, "low", "external-fraction", np.inf, 0.4, "stationary", 0.02),
])
def test_run_matches_full_array_replay(low_turnover_org, high_turnover_org,
                                       variant):
    # every run() array replayed step by step with the full-array formulas
    # (_replay): the pools and rates bit for bit, and the arrays that read
    # the density past the cut head bit for bit with dt < ds, within the
    # delay line's bounds at dt = ds
    seed, which, policy, cap, f, initial, dt = variant
    org = high_turnover_org if which == "high" else low_turnover_org
    rng = np.random.default_rng(seed)
    plan = FlexPlan(alpha=1.0 + 0.3 * rng.random(4),
                    p=np.concatenate((rng.uniform(0.7, 1.0, 4), [1.0])))
    grid = SeniorityGrid(ds=0.05, dt=dt, s_max=40.0)
    horizon = 2.0
    result = run(org, plan=plan, grid=grid, policy=policy, horizon=horizon,
                 cap=cap, external_fraction=f, initial=initial)
    fractions = {"max-internal": np.zeros(5), "external-fraction": np.full(5, f),
                 "fixed-plan": np.concatenate(([0.0], plan.alpha - 1.0))}[policy]
    rows, densities = _replay(org, plan, grid, fractions, cap, initial,
                              horizon, result.steady_density)
    _assert_matches_replay(result, rows, densities)


@st.composite
def _delay_line_runs(draw):
    """run() arguments that reach every path of the delay line: dt = ds
    (and dt < ds, whose head is the whole grid and tail empty), horizons
    past n_nodes steps (the window's copies back to the ring's end), the
    high-turnover ladder uncapped (near-empty pools, P to 1e11 per year,
    rescales), eligibility ages all 0 (an empty head) and a one-column
    tail."""
    kind = draw(st.sampled_from(["random", "no-head", "ladder"]))
    if kind == "ladder":
        spec = build_org([8000, 4000, 2500, 1000, 500],
                         [0.16, 0.16, 0.16, 0.16, 0.5], [4.0] * 5)
        plan = FlexPlan.all_internal(5)
    else:
        spec, plan = draw(well_posed_orgs_and_plans())
        if kind == "no-head":
            # a level with tau = 0 has pool N p > 0: still well posed
            spec = build_org(spec.n, spec.mu, [0.0] * spec.size)
    ds = draw(st.sampled_from([0.1, 0.25]))
    dt = ds * draw(st.sampled_from([1.0, 1.0, 1.0, 0.6]))
    head = int(np.max(SeniorityGrid(ds=ds, dt=ds).eligibility_index(spec.tau)))
    tail = draw(st.sampled_from([1, 2, 30]))
    grid = SeniorityGrid(ds=ds, dt=dt, s_max=ds * max(head + tail, 2))
    n_steps = draw(st.integers(1, int(2.5 * grid.n_nodes)))
    cap = draw(st.sampled_from([1.0, np.inf]))
    f = draw(st.sampled_from([0.0, 0.25]))
    initial = draw(st.sampled_from(["uniform", "truncated-exponential"]))
    return spec, plan, grid, n_steps * grid.dt, cap, f, initial


@settings(max_examples=40, deadline=None)
@given(_delay_line_runs())
# the uncapped ladder on a 46-node grid for 115 steps: four rescales and
# two copies of the window, whatever hypothesis draws
@example((build_org([8000, 4000, 2500, 1000, 500],
                    [0.16, 0.16, 0.16, 0.16, 0.5], [4.0] * 5),
          FlexPlan.all_internal(5), SeniorityGrid(ds=0.25, dt=0.25, s_max=11.5),
          28.75, np.inf, 0.0, "uniform"))
# at dt = ds, a cut head that covers all 10 nodes: an empty tail, which the
# strategy's tails never give at dt = ds
@example((build_org([8000, 4000, 2500, 1000, 500], [0.16] * 4 + [0.5],
                    [1.0, 1.0, 1.5, 1.0, 2.5 - 1e-11]),
          FlexPlan.all_internal(5), SeniorityGrid(ds=0.25, dt=0.25, s_max=2.5),
          10.0, np.inf, 0.25, "uniform"))
# level 1's tail falls to about 1.5e-311 (P near 1e11 per year), where its
# stored values are subnormal: the density bound's floor of tiny x unit
@example((build_org([512.4138701806015, 482.87373560164025, 480.05374031809487,
                     370.0], [0.5, 0.25, 0.5, 0.5], [1.0, 1.0, 1.0, 4.0]),
          FlexPlan(alpha=[1.0, 2.0, 1.0], p=np.ones(4)),
          SeniorityGrid(ds=0.1, dt=0.1, s_max=7.0), 68 * 0.1, np.inf, 0.0,
          "uniform"))
def test_delay_line_matches_full_array_replay(case):
    # over random well-posed orgs and grids, run() against the full-array
    # replay: the policy arrays bit for bit, the rest within the delay
    # line's bounds; every step's materialized density (a snapshot at
    # every step) is the replayed one, and run()'s mass_error is its mass
    # error, within those bounds
    spec, plan, grid, horizon, cap, f, initial = case
    times = grid.dt * np.arange(int(round(horizon / grid.dt)) + 1)
    result = run(spec, plan=plan, grid=grid, policy="external-fraction",
                 horizon=horizon, cap=cap, external_fraction=f,
                 initial=initial, snapshot_times=times)
    rows, densities = _replay(spec, plan, grid, np.full(spec.size, f), cap,
                              initial, horizon, result.steady_density)
    _assert_matches_replay(result, rows, densities)
    bounds = _delay_line_bounds(times.size - 1, grid.n_nodes)
    masses = result.masses
    per = np.where(masses > 0, masses, 1.0)
    for k, t in enumerate(times):
        snapshot = result.snapshots[float(t)]
        _assert_within("density", snapshot, densities[k], bounds["density"],
                       _density_floor(masses))
        _assert_within("mass_error", result.mass_error[k],
                       np.abs(grid.ds * snapshot.sum(axis=1) - masses) / per,
                       bounds["mass_error"])


@pytest.mark.parametrize("cap", [np.inf, 2.0])
def test_run_scales_with_headcounts(low_turnover_org, high_turnover_org, cap):
    # the model is linear in the headcounts and run()'s arithmetic scales
    # exactly by a power of 2, the delay line's units and rescales
    # included: at headcounts near 1e293 every rate and ratio is bit for
    # bit that of the plain org, and every pool and density that times
    # 2^960, with nothing overflowing; only where the plain org's tail
    # has decayed below the normal floats (P near 1e11 uncapped) does each
    # of its 400 steps round to a multiple of 2^-1074
    grid = SeniorityGrid(s_max=40.0)
    tiny = np.finfo(float).tiny
    for org in (low_turnover_org, high_turnover_org):
        huge = build_org(np.ldexp(org.n, 960), org.mu, org.tau)
        args = dict(grid=grid, horizon=20.0, cap=cap,
                    snapshot_times=[0.0, 10.0, 20.0])
        plain, scaled = run(org, **args), run(huge, **args)
        for name in ("promotion", "hiring", "shortfall", "ready_ratio",
                     "excess_wait", "l1_to_steady", "mass_error"):
            assert _bits(getattr(scaled, name)) == _bits(getattr(plain, name)), name
        pairs = [(plain.pool, scaled.pool), (plain.density, scaled.density)]
        pairs += [(density, scaled.snapshots[t])
                  for t, density in plain.snapshots.items()]
        for small, large in pairs:
            down = np.ldexp(large, -960)
            normal = np.abs(small) >= tiny
            assert _bits(down[normal]) == _bits(small[normal])
            assert np.all(np.abs(down - small) <= 400 * 2.0 ** -1074)


def test_eligibility_mask_built_once_per_run(monkeypatch, low_turnover_org):
    # the mask, its head and the excess-wait weight depend only on the grid
    # and the eligibility ages: a run's loop builds them once, before its
    # first closure, and make_initial_density builds its own for the check
    # of the starting pools, so a run builds two whatever its length
    built = []
    original = transport._build_cuts

    def counting(grid, spec):
        built.append(grid)
        return original(grid, spec)

    monkeypatch.setattr(transport, "_build_cuts", counting)
    grid = SeniorityGrid(s_max=70.0)
    for n_steps in (40, 80):
        built.clear()
        run(low_turnover_org, grid=grid, horizon=n_steps * grid.dt,
            cap=np.inf)
        assert built == [grid, grid]

    cuts = original(grid, low_turnover_org)
    mask = grid.pre_eligibility_mask(low_turnover_org)
    np.testing.assert_array_equal(cuts.pre_head, mask[:, :cuts.head])
    assert not mask[:, cuts.head:].any()
    np.testing.assert_array_equal(
        cuts.weight, (grid.s - low_turnover_org.tau[:, np.newaxis]) * ~mask)
    assert cuts.head == grid.eligibility_index(4.0)

    # another grid, or other eligibility ages, give their own cuts
    other_grid = SeniorityGrid(ds=0.1, dt=0.1, s_max=30.0)
    later = build_org(low_turnover_org.n, low_turnover_org.mu, [6.0] * 5)
    for spec in (low_turnover_org, later):
        cuts = original(other_grid, spec)
        assert cuts.head == other_grid.eligibility_index(spec.tau[0])
        np.testing.assert_array_equal(
            cuts.pre_head,
            other_grid.pre_eligibility_mask(spec)[:, :cuts.head])


def test_run_calls_step_once_per_step(monkeypatch, low_turnover_org):
    # run() advances through the module-level step, once per time step
    # and with the density first, so a wrapper around transport.step sees
    # every node-step of the run
    seen = []
    original = transport.step

    def counting(density, *args, **kwargs):
        seen.append(density.size)
        return original(density, *args, **kwargs)

    monkeypatch.setattr(transport, "step", counting)
    grid = SeniorityGrid(s_max=40.0)
    n_steps = 30
    result = run(low_turnover_org, grid=grid, horizon=n_steps * grid.dt)
    assert len(seen) == n_steps
    assert sum(seen) == 5 * grid.n_nodes * n_steps
    assert result.times.size == n_steps + 1


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


# (org, ds, dt, s_max, horizon, cap, snapshot times) of each run whose
# arrays must not depend on run()'s block length
_BLOCK_CASES = {
    # near-empty pools drive P to 1e11 per year: rescales, and steps past
    # them whose scales overflow or underflow to 0
    "uncapped": ("high", 0.1, 0.1, 8.0, 30.0, np.inf, ()),
    # 200 steps on 80 nodes: copies of the tail back to the ring's end
    "copy-back": ("low", 0.1, 0.1, 8.0, 20.0, 5.0, ()),
    # snapshots inside blocks of every length tried
    "snapshot": ("low", 0.1, 0.1, 8.0, 12.0, 5.0, (0.0, 0.5, 4.5, 4.6, 10.3)),
    # with dt < ds the head is the whole grid and the tail empty
    "dt-below-ds": ("low", 0.1, 0.06, 8.0, 6.0, 5.0, (3.0,)),
    # a 3-node tail, narrower than the blocks
    "narrow-tail": ("high", 0.25, 0.25, 4.75, 20.0, np.inf, (7.25,)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
@pytest.mark.parametrize("l1", [True, False])
def test_block_length_changes_nothing(monkeypatch, low_turnover_org,
                                      high_turnover_org, case, l1):
    # run() sums the metrics and advances the delay line's tail once per
    # block of steps: blocks of 1, 2, 7 and the default length give every
    # array and snapshot bit for bit, with no floating-point warning (the
    # steps a block computes past a rescale are discarded)
    which, ds, dt, s_max, horizon, cap, times = _BLOCK_CASES[case]
    org = high_turnover_org if which == "high" else low_turnover_org
    grid = SeniorityGrid(ds=ds, dt=dt, s_max=s_max)
    results = []
    for length in (1, 2, 7, transport._BLOCK):
        monkeypatch.setattr(transport, "_BLOCK", length)
        results.append(run(org, grid=grid, horizon=horizon, cap=cap,
                           snapshot_times=times, l1_to_steady=l1))
    first = results[0]
    # the low-turnover ladder has a stationary reference, so its runs take
    # the l1 sums when asked
    assert (first.steady_density is not None) == (l1 and which == "low")
    assert len(first.snapshots) == len(times)
    for result in results[1:]:
        _assert_same_bits(result, first)


def _assert_same_bits(result, first) -> None:
    for name in ("times", "density", "masses", "promotion", "hiring",
                 "shortfall", "pool", "ready_ratio", "excess_wait",
                 "l1_to_steady", "mass_error"):
        assert _bits(getattr(result, name)) == _bits(
            getattr(first, name)), name
    assert result.snapshots.keys() == first.snapshots.keys()
    for t, density in first.snapshots.items():
        assert _bits(result.snapshots[t]) == _bits(density), t


# (ds, dt, s_max, top level's eligibility age or None for the org's own)
# of the runs that must read no value they have not written: a tail past
# the cut head at dt = ds, the whole grid as head with dt < ds, and at
# dt = ds a cut head that covers all 16 nodes, up to the top level's age
_UNWRITTEN_GRIDS = {
    "unit": (0.1, 0.1, 8.0, None),
    "dt-below-ds": (0.1, 0.06, 8.0, None),
    "head-covers-grid": (0.5, 0.5, 8.25, 8.0),
}


@pytest.mark.parametrize("which", ["low", "high", "mixed-ages"])
@pytest.mark.parametrize("case", sorted(_UNWRITTEN_GRIDS))
@pytest.mark.parametrize("cap", [np.inf, 2.0])
def test_run_reads_nothing_it_has_not_written(monkeypatch, low_turnover_org,
                                              high_turnover_org, which, case,
                                              cap):
    # with np.empty and np.empty_like filling their float arrays with NaN,
    # run() gives every array and snapshot bit for bit: no value it reads
    # was left unwritten, such as the column entering the delay line's
    # tail in the tape's first slot; 150 steps span blocks of 64, and the
    # snapshots fall inside them
    org = {"low": low_turnover_org, "high": high_turnover_org,
           "mixed-ages": build_org(high_turnover_org.n, high_turnover_org.mu,
                                   [0.0, 2.0, 4.0, 3.0, 1.0])}[which]
    ds, dt, s_max, top = _UNWRITTEN_GRIDS[case]
    if top is not None:
        org = build_org(org.n, org.mu, list(org.tau[:-1]) + [top])
    grid = SeniorityGrid(ds=ds, dt=dt, s_max=s_max)
    assert (transport._build_cuts(grid, org).head == grid.n_nodes) == (
        case == "head-covers-grid")
    kwargs = dict(grid=grid, horizon=150 * dt, cap=cap,
                  snapshot_times=(0.0, 37 * dt, 100 * dt))
    plain = run(org, **kwargs)

    def nan_filled(make):
        def filled(*args, **kw):
            out = make(*args, **kw)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out
        return filled

    monkeypatch.setattr(np, "empty", nan_filled(np.empty))
    monkeypatch.setattr(np, "empty_like", nan_filled(np.empty_like))
    assert np.isnan(np.empty(1)[0])
    _assert_same_bits(run(org, **kwargs), plain)


def _per_step_delay_line(result, densities, steps):
    """run()'s tail arrays at dt = ds as a step-by-step delay line gives
    them, from the heads and entering columns of the full-array replay
    (bit for bit run()'s): each level's scale S and carried sums sum u and
    sum u (s - tau) on Python floats, one step at a time, re-summed at
    the same copies (every n_nodes steps), rescales and shrinks. Returns
    mass_error, excess_wait and l1_to_steady after run()'s ratio pass,
    and the densities (head, then S u) at the given steps."""
    spec, grid, masses = result.spec, result.grid, result.masses
    ds, dt, n = grid.ds, grid.dt, grid.n_nodes
    cuts = transport._build_cuts(grid, spec)
    head, size = cuts.head, spec.size
    unit = [math.ldexp(1.0, math.frexp(max(m, 1.0))[1] - 1)
            for m in masses.tolist()]
    weight = cuts.weight[:, head:head + 1] + ds * np.arange(n - head)
    tails = list(densities[0][:, head:] / np.array(unit)[:, np.newaxis])
    carried, peak = [None] * size, [None] * size

    def resum(j, scale):
        peak[j] = float(np.vecdot(tails[j], weight[j]))
        carried[j] = (float(np.add.reduce(tails[j])), peak[j], scale)

    for j in range(size):
        resum(j, unit[j])
    steady = result.steady_density
    mass, wait, l1 = (np.empty((len(densities), size)) for _ in range(3))
    chosen = {}
    for k, density in enumerate(densities):
        if k:
            shrunk = False
            for j in range(size):
                u, w, s = carried[j]
                s /= 1.0 + dt * (spec.mu[j] + result.promotion[k - 1, j])
                rho = density[j, head] / s
                gone = tails[j][-1]
                u -= gone
                w = (w - gone * weight[j, -1]) + ds * u + rho * weight[j, 0]
                if w > peak[j]:
                    peak[j] = w
                elif w < 0.5 * peak[j]:
                    shrunk = True
                carried[j] = (u + rho, w, s)
                tails[j] = np.concatenate(([rho], tails[j][:-1]))
            if any(c[2] < 1e-100 * m for c, m in zip(carried, unit)):
                for j in range(size):
                    tails[j] = tails[j] * (carried[j][2] / unit[j])
                    resum(j, unit[j])
            elif k % n == 0 or shrunk:
                for j in range(size):
                    resum(j, carried[j][2])
        full = np.concatenate((density[:, :head], np.array(
            [tails[j] * carried[j][2] for j in range(size)])), axis=1)
        for j, (u, w, s) in enumerate(carried):
            mass[k, j] = np.add.reduce(density[j, :head]) + u * s
            wait[k, j] = np.vecdot(density[j, :head],
                                   cuts.weight[j, :head]) + w * s
            if steady is not None:
                l1[k, j] = np.add.reduce(np.abs(full[j] - steady[j]))
        if k in steps:
            chosen[k] = full
    pool = result.pool
    transport._metric_ratios(ds, masses, pool,
                             pool <= transport._empty_floor(spec),
                             steady is not None, np.empty_like(mass), wait,
                             l1, mass)
    return mass, wait, l1, chosen


@pytest.mark.parametrize("case", sorted(set(_BLOCK_CASES) - {"dt-below-ds"}))
@pytest.mark.parametrize("l1", [True, False])
def test_blocks_match_per_step_delay_line(low_turnover_org,
                                          high_turnover_org, case, l1):
    # at dt = ds every array that reads the tail is bit for bit that of a
    # delay line advanced one step at a time (_per_step_delay_line)
    which, ds, dt, s_max, horizon, cap, times = _BLOCK_CASES[case]
    org = high_turnover_org if which == "high" else low_turnover_org
    grid = SeniorityGrid(ds=ds, dt=dt, s_max=s_max)
    result = run(org, grid=grid, horizon=horizon, cap=cap,
                 snapshot_times=times, l1_to_steady=l1)
    fractions = np.zeros(org.size)
    _, densities = _replay(org, FlexPlan.all_internal(org.size), grid,
                           fractions, cap, "uniform", horizon,
                           result.steady_density)
    steps = {int(round(t / dt)): t for t in times}
    last = len(densities) - 1
    mass, wait, l1_sums, chosen = _per_step_delay_line(
        result, densities, set(steps) | {last})
    assert _bits(result.mass_error) == _bits(mass)
    assert _bits(result.excess_wait) == _bits(wait)
    assert _bits(result.l1_to_steady) == _bits(l1_sums)
    assert _bits(result.density) == _bits(chosen[last])
    for k, t in steps.items():
        assert _bits(result.snapshots[float(result.times[k])]) == _bits(
            chosen[k]), t


def test_head_tape_shortens_blocks_of_wide_heads(monkeypatch,
                                                 low_turnover_org):
    # the tape holds a block's heads: the cut head's 801 columns at dt = ds
    # fit 64 of them, the whole grid of 14,000 nodes with dt < ds only 2
    lines = []

    class Recorded(transport._DelayLine):
        def __init__(self, *args):
            super().__init__(*args)
            lines.append(self)

    monkeypatch.setattr(transport, "_DelayLine", Recorded)
    for dt, block in ((0.005, transport._BLOCK), (0.004, 2)):
        grid = SeniorityGrid(ds=0.005, dt=dt, s_max=70.0)
        run(low_turnover_org, grid=grid, horizon=5 * dt, l1_to_steady=False)
        line = lines.pop()
        assert line.block == block
        assert line.tape.size <= transport._TAPE_VALUES + 5 * grid.n_nodes


@pytest.mark.parametrize("case", ["zero-horizon", "zero-mass", "no-steady",
                                  "no-l1", "long-rows"])
def test_public_closure_and_metrics_match_run(low_turnover_org,
                                              high_turnover_org, case):
    # close_policy_external_fraction and level_metrics on the final
    # density give run()'s last rows: the public functions and the run
    # share the pool sums, the sweep, the metric sums and the ratio pass,
    # so the rows the pools set agree bit for bit, and those that read the
    # tail, which run() sums as a delay line at dt = ds, within its bounds;
    # past 10,000 nodes a row, a threaded BLAS such as OpenBLAS may split
    # each excess-wait dot product across its threads
    org, plan, policy, f, cap = high_turnover_org, None, "max-internal", 0.0, 2.0
    horizon, grid = 1.5, SeniorityGrid(s_max=40.0)
    if case == "zero-horizon":
        org, policy, f, horizon = low_turnover_org, "external-fraction", 0.3, 0.0
    elif case == "zero-mass":
        plan = FlexPlan(alpha=np.ones(4), p=np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
    elif case == "no-steady":
        # level 2 drains more than level 1 can supply: no stationary profile
        org = build_org([100.0, 1000.0], [0.1, 0.5], [4.0, 1.0])
    elif case == "long-rows":
        org, horizon = low_turnover_org, 0.1
        grid = SeniorityGrid(ds=0.004, dt=0.004, s_max=42.0)
        assert grid.n_nodes > 10_000
    else:
        org, policy, f = low_turnover_org, "external-fraction", 0.3
    args = dict(plan=plan, grid=grid, policy=policy, horizon=horizon, cap=cap,
                external_fraction=f)
    if case == "no-l1":
        args["snapshot_times"] = [0.0, horizon]
    result = run(org, **args, l1_to_steady=case != "no-l1")
    assert (result.steady_density is None) == (case in ("no-steady", "no-l1"))
    if case == "no-l1":
        # the same run with its l1 reference: only l1_to_steady and the
        # reference itself differ
        full = run(org, **args)
        assert full.steady_density is not None
        assert np.all(np.isfinite(full.l1_to_steady))
        for name, value in vars(full).items():
            if name == "snapshots":
                assert value.keys() == result.snapshots.keys()
                for t, density in value.items():
                    assert _bits(density) == _bits(result.snapshots[t]), t
            elif isinstance(value, np.ndarray) and name not in (
                    "l1_to_steady", "steady_density"):
                assert _bits(value) == _bits(getattr(result, name)), name
    state = close_policy_external_fraction(result.density, org, grid, cap=cap,
                                           alpha_frac=f, masses=result.masses)
    assert state.keys() == result.final_policy.keys()
    for name, value in result.final_policy.items():
        assert _bits(state[name]) == _bits(value), name
    metrics = level_metrics(result.density, org, grid, state, result.masses,
                            result.steady_density)
    bounds = _delay_line_bounds(result.times.size - 1, grid.n_nodes)
    for name, value in metrics.items():
        if name in _TAIL_ARRAYS:
            _assert_within(name, getattr(result, name)[-1], value,
                           bounds[name])
        else:
            assert _bits(value) == _bits(getattr(result, name)[-1]), name
    if case in ("no-steady", "no-l1"):
        assert np.all(np.isnan(result.l1_to_steady))
    if case == "zero-mass":
        assert np.all(result.pool[:, 3:] == 0.0)


@pytest.mark.parametrize("initial", ["stationary", "uniform",
                                     "truncated-exponential"])
def test_run_with_zero_mass_levels(high_turnover_org, initial):
    # the top two levels hold no permanent staff: their ratios divide by
    # nothing, and no step may raise a RuntimeWarning (the suite makes
    # them errors)
    plan = FlexPlan(alpha=np.ones(4), p=np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
    result = run(high_turnover_org, plan=plan, grid=SeniorityGrid(s_max=70.0),
                 horizon=2.0, initial=initial)
    for name in ("promotion", "hiring", "shortfall", "pool", "ready_ratio",
                 "excess_wait", "l1_to_steady", "mass_error", "density"):
        assert np.all(np.isfinite(getattr(result, name))), name
    for name in ("ready_ratio", "excess_wait", "l1_to_steady", "mass_error"):
        np.testing.assert_array_equal(getattr(result, name)[:, 3:], 0.0,
                                      err_msg=name)
    np.testing.assert_array_equal(result.density[3:], 0.0)
    assert np.all(result.ready_ratio[:, :3] > 0.0)


def test_closure_checks_fractions_and_cap(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    masses = low_turnover_org.n.astype(float)
    density = make_initial_density(low_turnover_org, None, grid, "uniform")

    def close(**kw):
        return close_policy_external_fraction(density, low_turnover_org,
                                              grid, masses=masses, **kw)

    # a scalar, a one-entry list and a per-level array give the same rates
    per_level = close(alpha_frac=np.full(5, 0.2))
    for frac in (0.2, [0.2]):
        np.testing.assert_array_equal(close(alpha_frac=frac)["promotion"],
                                      per_level["promotion"])
    for frac in (-0.1, [0.0, 0.1, -1e-300, 0.0, 0.0], math.nan,
                 [0.0, 0.1, math.nan, 0.0, 0.0]):
        with pytest.raises(ValueError, match="nonnegative"):
            close(alpha_frac=frac)
    with pytest.raises(ValueError):
        close(alpha_frac=[0.1, 0.2])
    for cap in (0.0, math.nan):
        with pytest.raises(ValueError, match="cap"):
            close(cap=cap)


@pytest.mark.parametrize("kwargs,what", [
    ({"policy": "external-fraction", "external_fraction": math.nan},
     "nonnegative"),
    ({"cap": math.nan}, "cap"),
    ({"horizon": math.nan}, "horizon"),
    ({"horizon": math.inf}, "horizon"),
])
def test_run_rejects_nan_and_infinite_arguments(low_turnover_org, kwargs,
                                                what):
    # a NaN fraction would promote at the cap, a NaN cap give NaN rates,
    # and a NaN or infinite horizon no step count
    with pytest.raises(ValueError, match=what):
        run(low_turnover_org, grid=SeniorityGrid(s_max=70.0), **kwargs)


def test_policy_closure_balances_exactly(low_turnover_org):
    # row 0 of a run is the closure of its uniform start
    result = run(low_turnover_org, grid=SeniorityGrid(s_max=70.0),
                 horizon=0.0, cap=np.inf)
    np.testing.assert_allclose(result.balance_residual, 0.0, atol=1e-9)
    state = result.final_policy
    assert state["promotion"][-1] == 0.0
    # unclipped pure-internal closure hires only at the bottom
    assert np.all(state["hiring"][1:] == 0.0)
    assert state["hiring"][0] > 0.0


def test_promotion_cap_forces_shortfall_hiring(high_turnover_org):
    result = run(high_turnover_org, grid=SeniorityGrid(s_max=70.0),
                 horizon=0.0, cap=0.3)
    state = result.final_policy
    assert np.all(state["promotion"][:-1] <= 0.3 + 1e-12)
    clipped = state["promotion"][:-1] >= 0.3 - 1e-12
    assert np.any(clipped)
    assert np.all(state["shortfall"][1:][clipped] > 0.0)
    np.testing.assert_allclose(result.balance_residual, 0.0, atol=1e-9)


def test_empty_pool_policy_degenerates_gracefully():
    org = build_org([100.0, 50.0], [0.1, 0.2], [4.0, 1.0])
    grid = SeniorityGrid(s_max=30.0)
    # park the whole bottom level below its eligibility age
    density = np.zeros((2, grid.n_nodes))
    density[0, :40] = 100.0 / (grid.ds * 40)
    density[1] = 50.0 * 0.2 * np.exp(-0.2 * grid.s)
    density[1] *= 50.0 / (grid.ds * density[1].sum())
    masses = np.array([100.0, 50.0])
    capped = close_policy_external_fraction(density, org, grid, cap=5.0,
                                            masses=masses)
    assert capped["promotion"][0] == 5.0
    assert capped["hiring"][1] > 0.0
    uncapped = close_policy_external_fraction(density, org, grid, cap=np.inf,
                                              masses=masses)
    assert uncapped["promotion"][0] == 0.0
    assert uncapped["hiring"][1] > 0.0


def test_near_empty_pool_has_no_excess_wait():
    # all but 2e-9 of level 1 sits below its eligibility age: the closure
    # treats that pool as empty, so nobody there waits for promotion
    org = build_org([8000.0, 500.0], [0.1, 0.2], [4.0, 1.0])
    grid = SeniorityGrid(s_max=30.0)
    masses = org.n.astype(float)
    density = np.zeros((2, grid.n_nodes))
    density[0, :80] = (8000.0 - 2e-9) / (grid.ds * 80)
    density[0, 100] = 2e-9 / grid.ds  # 1.05 y past the eligibility age
    density[1] = np.exp(-0.2 * grid.s)
    density[1] *= 500.0 / (grid.ds * density[1].sum())
    state = close_policy_external_fraction(density, org, grid, cap=np.inf,
                                           masses=masses)
    assert 0.0 < state["pool"][0] < 1e-12 * masses[0]
    assert state["promotion"][0] == 0.0
    wait = level_metrics(density, org, grid, state, masses)["excess_wait"]
    assert wait[0] == 0.0
    assert wait[1] > 0.0


def test_external_fraction_sets_hiring_share(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    masses = low_turnover_org.n.astype(float)
    density, _ = _discrete_stationary_density(
        low_turnover_org, FlexPlan.all_internal(5), grid)
    f = 0.25
    state = close_policy_external_fraction(density, low_turnover_org, grid,
                                           cap=np.inf, alpha_frac=f,
                                           masses=masses)
    promoted = state["promotion"][:-1] * state["pool"][:-1]
    np.testing.assert_allclose(state["hiring"][1:] * masses[1:], f * promoted,
                               rtol=1e-9)
    np.testing.assert_allclose(state["shortfall"][1:], 0.0, atol=1e-12)


def test_simulation_converges_to_external_fraction_steady(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    f = 0.3
    result = run(low_turnover_org, grid=grid, policy="external-fraction",
                 horizon=200.0, cap=np.inf, external_fraction=f,
                 initial="uniform")
    plan = FlexPlan(alpha=np.full(4, 1.0 + f), p=np.ones(5))
    reference = stationary_state(low_turnover_org, plan)
    np.testing.assert_allclose(result.promotion[-1], reference.promotion_rate,
                               rtol=5e-3, atol=1e-9)
    # hires into each level are exactly the imposed fraction of promotions
    c = promotion_demands(low_turnover_org, plan)
    np.testing.assert_allclose(result.hiring[-1, 1:] * low_turnover_org.n[1:],
                               f * c[1:-1], rtol=5e-3)


def test_simulation_converges_to_fixed_plan_demands(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    plan = FlexPlan(alpha=np.array([1.4, 1.1, 1.05, 1.0]),
                    p=np.array([0.6, 0.8, 0.9, 1.0, 1.0]))
    result = run(low_turnover_org, plan=plan, grid=grid, policy="fixed-plan",
                 horizon=200.0, cap=np.inf, initial="uniform")
    density, rates = _discrete_stationary_density(low_turnover_org, plan, grid)
    np.testing.assert_allclose(result.promotion[-1], rates, rtol=1e-6,
                               atol=1e-9)
    np.testing.assert_allclose(
        grid.ds * np.sum(np.abs(result.density - density), axis=1)
        / result.masses, 0.0, atol=1e-5)


def test_long_run_relaxes_to_continuum_profile(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    result = run(low_turnover_org, grid=grid, policy="max-internal",
                 horizon=60.0, cap=np.inf, initial="uniform")
    assert result.steady_density is not None
    # discretization keeps a small floor; transients have decayed below it
    assert np.all(result.l1_to_steady[-1] < 0.02)
    assert np.all(result.l1_to_steady[-1] < result.l1_to_steady[0])


def test_metrics_at_discrete_fixed_point(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    masses = low_turnover_org.n.astype(float)
    density, rates = _discrete_stationary_density(
        low_turnover_org, FlexPlan.all_internal(5), grid)
    state = close_policy_external_fraction(density, low_turnover_org, grid,
                                           cap=np.inf, masses=masses)
    metrics = level_metrics(density, low_turnover_org, grid, state, masses)
    expected_wait = 1.0 / (low_turnover_org.mu + rates) + grid.ds
    np.testing.assert_allclose(metrics["excess_wait"], expected_wait,
                               rtol=1e-6)
    np.testing.assert_allclose(metrics["mass_error"], 0.0, atol=1e-12)
    np.testing.assert_allclose(metrics["ready_ratio"], state["pool"] / masses,
                               rtol=1e-12)
    assert np.all(np.isnan(metrics["l1_to_steady"]))


def test_zero_horizon_returns_initial_state_only(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    result = run(low_turnover_org, grid=grid, horizon=0.0, cap=np.inf)
    assert result.times.shape == (1,)
    assert result.promotion.shape == (1, 5)
    np.testing.assert_allclose(grid.ds * result.density.sum(axis=1),
                               low_turnover_org.n, rtol=1e-12)


def test_snapshots_recorded_at_requested_times(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    result = run(low_turnover_org, grid=grid, horizon=2.0, cap=np.inf,
                 snapshot_times=(0.0, 1.0, 2.0))
    assert sorted(result.snapshots) == [0.0, 1.0, 2.0]
    for density in result.snapshots.values():
        assert density.shape == (5, grid.n_nodes)


def test_trajectory_csv_layout(tmp_path, low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    result = run(low_turnover_org, grid=grid, horizon=1.0, cap=np.inf,
                 snapshot_times=(1.0,))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), result, ["seed = 0"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 0"
    header = lines[1].split(",")
    assert header[:3] == ["t", "level", "promotion_rate"]
    assert len(lines) == 2 + (20 + 1) * 5  # (steps + 1) rows per level

    snap = tmp_path / "snap.csv"
    write_snapshot_csv(str(snap), result, 1.0, ["seed = 0"])
    snap_lines = snap.read_text().splitlines()
    assert snap_lines[1].split(",") == ["s", "rho_1", "rho_2", "rho_3",
                                        "rho_4", "rho_5"]
    assert len(snap_lines) == 2 + grid.n_nodes
    with pytest.raises(KeyError):
        write_snapshot_csv(str(snap), result, 0.5)


def _trajectory_by_csv_writer(result, header_lines) -> bytes:
    """write_trajectory_csv's bytes as the csv module writes them, each
    cell formatted on its own."""
    out = io.StringIO(newline="")
    out.write("".join(f"# {line}\n" for line in header_lines))
    writer = csv.writer(out)
    writer.writerow(["t", "level", "promotion_rate", "hiring_rate",
                     "shortfall", "pool", "ready_ratio", "excess_wait",
                     "mass_error"])
    for k, t in enumerate(result.times):
        for j in range(result.masses.size):
            writer.writerow([f"{t:.6g}", j + 1] + [
                f"{getattr(result, name)[k, j]:.8g}"
                for name in ("promotion", "hiring", "shortfall", "pool",
                             "ready_ratio", "excess_wait")
            ] + [f"{result.mass_error[k, j]:.3e}"])
    return out.getvalue().encode()


def _snapshot_by_csv_writer(result, time, header_lines) -> bytes:
    """write_snapshot_csv's bytes as the csv module writes them, each cell
    formatted on its own."""
    density = result.snapshots[time]
    out = io.StringIO(newline="")
    out.write("".join(f"# {line}\n" for line in header_lines))
    writer = csv.writer(out)
    writer.writerow(["s"] + [f"rho_{j + 1}" for j in range(len(density))])
    for i, s in enumerate(result.grid.s):
        writer.writerow([f"{s:.6g}"] + [f"{rho[i]:.8g}" for rho in density])
    return out.getvalue().encode()


def test_trajectory_csv_matches_csv_writer(tmp_path, low_turnover_org):
    # the block-deduplicating writer against the per-cell csv.writer
    # formulation, over more time steps than one written block and with
    # NaN, infinities and signed zeros among the values
    grid = SeniorityGrid(s_max=70.0)
    result = run(low_turnover_org, grid=grid, horizon=5.0, cap=np.inf)
    result.pool[3, 1] = np.nan
    result.excess_wait[70, :] = [np.inf, -np.inf, -0.0, 1e300, 5e-324]
    result.mass_error[0, 4] = np.nan
    result.promotion[99, 0] = -0.0
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), result, ["seed = 0", "cap = inf"])
    assert path.read_bytes() == _trajectory_by_csv_writer(
        result, ["seed = 0", "cap = inf"])
    assert b",nan," in path.read_bytes() and b",-inf," in path.read_bytes()


def test_snapshot_csv_matches_csv_writer(tmp_path, low_turnover_org):
    # the block-deduplicating writer against the per-cell csv.writer
    # formulation, over more nodes than one written block and with NaN,
    # infinities, signed zeros and a subnormal among the values
    grid = SeniorityGrid(s_max=70.0)
    result = run(low_turnover_org, grid=grid, horizon=1.0, cap=np.inf,
                 snapshot_times=(1.0,))
    density = result.snapshots[1.0]
    density[0, 3] = np.nan
    density[1, 300:305] = [np.inf, -np.inf, -0.0, 1e300, 5e-324]
    density[4, -1] = -0.0
    path = tmp_path / "snap.csv"
    write_snapshot_csv(str(path), result, 1.0, ["seed = 0", "levels = 5"])
    assert grid.n_nodes > _output.CSV_BLOCK
    assert path.read_bytes() == _snapshot_by_csv_writer(
        result, 1.0, ["seed = 0", "levels = 5"])
    assert b",nan," in path.read_bytes() and b",-inf," in path.read_bytes()


# NaNs of both signs and several payloads, each printed "nan", and the
# other values whose text a float-equality key could mix up or that sit at
# the ends of the float range
_SPECIAL_VALUES = np.concatenate([
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
              0xFFF0000000000ABC, 0x7FF8000000000123],
             dtype=np.uint64).view(np.float64),
    [np.inf, -np.inf, 5e-324, -5e-324, 1e300, 0.0, -0.0]])


@settings(max_examples=20, deadline=None)
@given(size=st.sampled_from([1, 7]), extra=st.sampled_from([-1, 0, 1]),
       pool=st.lists(st.floats(allow_nan=False, width=64), max_size=5),
       seed=st.integers(0, 2**32 - 1),
       column=st.integers(0, 7), level=st.integers(0, 6),
       row=st.integers(0, _output.CSV_BLOCK - 3))
def test_csv_writers_match_csv_writer_on_repeated_values(
        size, extra, pool, seed, column, level, row):
    # every cell drawn from a few values, so each block repeats them, and
    # -0.0 just above 0.0 in one column of the first block: the writers
    # format each distinct bit pattern once, and must print "-0" and "0"
    # where a key on float equality would print one of them twice; the
    # rows (time steps, nodes) number one block and one either way
    n = _output.CSV_BLOCK + extra
    rng = np.random.default_rng(seed)
    values = np.concatenate([pool, _SPECIAL_VALUES])
    times, s = rng.choice(values, (2, n))
    fields = rng.choice(values, (7, n, size))
    density = rng.choice(values, (size, n))
    level %= size
    for cells in (times if column == 0 else fields[column - 1][:, level],
                  s if column == 0 else density[level]):
        cells[row:row + 2] = -0.0, 0.0
    result = SimpleNamespace(
        times=times, masses=np.ones(size), **dict(zip(
            ("promotion", "hiring", "shortfall", "pool", "ready_ratio",
             "excess_wait", "mass_error"), fields)),
        snapshots={1.0: density}, grid=SimpleNamespace(s=s, n_nodes=n,
                                                       dt=1.0))
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "written.csv")
        write_trajectory_csv(path, result, ["seed = 0"])
        with open(path, "rb") as fh:
            assert fh.read() == _trajectory_by_csv_writer(result,
                                                          ["seed = 0"])
        write_snapshot_csv(path, result, 1.0, ["seed = 0"])
        with open(path, "rb") as fh:
            assert fh.read() == _snapshot_by_csv_writer(result, 1.0,
                                                        ["seed = 0"])


def test_snapshot_past_horizon_rejected(low_turnover_org):
    # a snapshot the run never reaches is an error, not a missing file
    grid = SeniorityGrid(s_max=70.0)
    with pytest.raises(ValueError, match="snapshot"):
        run(low_turnover_org, grid=grid, horizon=2.0,
            snapshot_times=(0.0, 500.0))
    with pytest.raises(ValueError, match="snapshot"):
        run(low_turnover_org, grid=grid, horizon=2.0, snapshot_times=(-1.0,))
    result = run(low_turnover_org, grid=grid, horizon=2.0,
                 snapshot_times=(2.0,))
    assert list(result.snapshots) == [2.0]


def test_unknown_policy_rejected(low_turnover_org):
    with pytest.raises(ValueError):
        run(low_turnover_org, policy="always-hire", horizon=1.0)
