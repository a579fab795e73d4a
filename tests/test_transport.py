import math

import numpy as np
import pytest

from orgflow import (
    CflViolationError,
    FlexPlan,
    IllPosedError,
    InfeasibleInitialDataError,
    SeniorityGrid,
    close_policy_external_fraction,
    discrete_pools,
    discrete_stationary_density,
    level_metrics,
    make_initial_density,
    promotion_demands,
    run,
    stationary_state,
    step,
    write_snapshot_csv,
    write_trajectory_csv,
)
from conftest import build_org


def test_grid_rejects_time_step_above_space_step():
    with pytest.raises(CflViolationError):
        SeniorityGrid(ds=0.05, dt=0.06)
    SeniorityGrid(ds=0.05, dt=0.05)  # equality allowed


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


def test_single_level_fixed_point_is_stationary():
    org = build_org([500.0], [0.5], [4.0])
    grid = SeniorityGrid(ds=0.05, dt=0.05, s_max=50.0)
    masses = np.array([500.0])
    density, rates = discrete_stationary_density(
        org, FlexPlan.all_internal(1), grid)
    assert rates[0] == 0.0
    state = close_policy_external_fraction(density, org, grid, cap=np.inf,
                                           masses=masses)
    after = step(density, org, grid, state, masses)
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
    density, rates = discrete_stationary_density(
        low_turnover_org, FlexPlan.all_internal(5), grid)
    pools = discrete_pools(density, low_turnover_org, grid,
                           low_turnover_org.n.astype(float))
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


def test_mass_restored_every_step(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    # the ladder plus seeded random well-posed orgs, sampled as in
    # test_quadrature_agreement_on_random_orgs, under their plans' shares
    rng = np.random.default_rng(5)
    cases = [(low_turnover_org, FlexPlan.all_internal(5))]
    while len(cases) < 13:
        size = int(rng.integers(2, 5))
        spec = build_org(rng.uniform(200.0, 5000.0, size),
                         rng.uniform(0.05, 0.6, size),
                         rng.uniform(0.5, 6.0, size))
        plan = FlexPlan(alpha=1.0 + rng.random(size - 1),
                        p=rng.uniform(0.3, 1.0, size))
        try:
            stationary_state(spec, plan)
            make_initial_density(spec, plan, grid, "uniform")
        except (IllPosedError, InfeasibleInitialDataError):
            continue
        cases.append((spec, plan))
    for spec, plan in cases:
        masses = spec.n * plan.p
        frac = np.concatenate(([0.0], plan.alpha - 1.0))
        for cap in (1.0, np.inf):
            density = make_initial_density(spec, plan, grid, "uniform")
            for _ in range(40):
                state = close_policy_external_fraction(
                    density, spec, grid, cap=cap, alpha_frac=frac,
                    masses=masses)
                residual = state.balance_residual(spec, masses)
                assert np.all(np.abs(residual) <= 1e-9 * spec.mu * masses)
                density = step(density, spec, grid, state, masses)
                err = np.abs(grid.ds * density.sum(axis=1) - masses) / masses
                assert np.max(err) < 1e-12
                assert np.all(density >= 0.0)


def test_unit_courant_step_is_exact_shift(low_turnover_org):
    # at dt = ds the upwind update moves every node one cell along its
    # characteristic and adds no numerical diffusion (LeVeque, Finite
    # Volume Methods for Hyperbolic Problems, 2002, ch. 4)
    org = low_turnover_org
    grid = SeniorityGrid(ds=0.05, dt=0.05, s_max=70.0)
    masses = org.n.astype(float)
    density = make_initial_density(org, None, grid, "truncated-exponential")
    state = close_policy_external_fraction(density, org, grid, cap=np.inf,
                                           masses=masses)
    after = step(density, org, grid, state, masses)
    rate = state.promotion
    decay = 1.0 + grid.dt * (org.mu + rate)[:, np.newaxis]
    pre = grid.pre_eligibility_mask(org)[:, 1:]
    shifted = density[:, :-1] / decay
    np.testing.assert_allclose(after[:, 1:][~pre], shifted[~pre], rtol=1e-14)
    promoted = grid.dt * rate[:, np.newaxis] * density[:, 1:] / decay
    np.testing.assert_allclose(after[:, 1:][pre], (shifted + promoted)[pre],
                               rtol=1e-14)
    # node 1 comes from the mass-restoring ghost value (module docstring)
    held = grid.ds * np.sum(density * grid.pre_eligibility_mask(org), axis=1)
    ghost = (org.mu + rate) * masses - rate * held
    np.testing.assert_allclose(
        after[:, 0], (ghost + grid.dt * rate * density[:, 0]) / decay[:, 0],
        rtol=1e-14)


def test_eligibility_mask_built_once_per_step(monkeypatch, low_turnover_org):
    # the closure builds the mask and hands it to step and level_metrics
    # through PolicyState.pre, so a run of n steps builds it once per
    # closure (n + 1) plus once for the initial-data check
    built = []
    original = SeniorityGrid.pre_eligibility_mask

    def counting(self, spec):
        built.append(1)
        return original(self, spec)

    monkeypatch.setattr(SeniorityGrid, "pre_eligibility_mask", counting)
    grid = SeniorityGrid(s_max=70.0)
    n_steps = 40
    run(low_turnover_org, grid=grid, horizon=n_steps * grid.dt, cap=np.inf)
    assert len(built) == n_steps + 2
    monkeypatch.undo()
    masses = low_turnover_org.n.astype(float)
    density = make_initial_density(low_turnover_org, None, grid, "uniform")
    state = close_policy_external_fraction(density, low_turnover_org, grid,
                                           masses=masses)
    np.testing.assert_array_equal(state.pre,
                                  grid.pre_eligibility_mask(low_turnover_org))


def test_policy_closure_balances_exactly(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    masses = low_turnover_org.n.astype(float)
    density = make_initial_density(low_turnover_org, None, grid, "uniform")
    state = close_policy_external_fraction(density, low_turnover_org, grid,
                                           cap=np.inf, masses=masses)
    np.testing.assert_allclose(
        state.balance_residual(low_turnover_org, masses), 0.0, atol=1e-9)
    assert state.promotion[-1] == 0.0
    # unclipped pure-internal closure hires only at the bottom
    assert np.all(state.hiring[1:] == 0.0)
    assert state.hiring[0] > 0.0


def test_promotion_cap_forces_shortfall_hiring(high_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    masses = high_turnover_org.n.astype(float)
    density = make_initial_density(high_turnover_org, None, grid, "uniform")
    state = close_policy_external_fraction(density, high_turnover_org, grid,
                                           cap=0.3, masses=masses)
    assert np.all(state.promotion[:-1] <= 0.3 + 1e-12)
    clipped = state.promotion[:-1] >= 0.3 - 1e-12
    assert np.any(clipped)
    assert np.all(state.shortfall[1:][clipped] > 0.0)
    np.testing.assert_allclose(
        state.balance_residual(high_turnover_org, masses), 0.0, atol=1e-9)


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
    assert capped.promotion[0] == 5.0
    assert capped.hiring[1] > 0.0
    uncapped = close_policy_external_fraction(density, org, grid, cap=np.inf,
                                              masses=masses)
    assert uncapped.promotion[0] == 0.0
    assert uncapped.hiring[1] > 0.0


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
    assert 0.0 < state.pool[0] < 1e-12 * masses[0]
    assert state.empty[0] and state.promotion[0] == 0.0
    wait = level_metrics(density, org, grid, state, masses)["excess_wait"]
    assert wait[0] == 0.0
    assert wait[1] > 0.0


def test_external_fraction_sets_hiring_share(low_turnover_org):
    grid = SeniorityGrid(s_max=70.0)
    masses = low_turnover_org.n.astype(float)
    density, _ = discrete_stationary_density(
        low_turnover_org, FlexPlan.all_internal(5), grid)
    f = 0.25
    state = close_policy_external_fraction(density, low_turnover_org, grid,
                                           cap=np.inf, alpha_frac=f,
                                           masses=masses)
    promoted = state.promotion[:-1] * state.pool[:-1]
    np.testing.assert_allclose(state.hiring[1:] * masses[1:], f * promoted,
                               rtol=1e-9)
    np.testing.assert_allclose(state.shortfall[1:], 0.0, atol=1e-12)


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
    density, rates = discrete_stationary_density(low_turnover_org, plan, grid)
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
    density, rates = discrete_stationary_density(
        low_turnover_org, FlexPlan.all_internal(5), grid)
    state = close_policy_external_fraction(density, low_turnover_org, grid,
                                           cap=np.inf, masses=masses)
    metrics = level_metrics(density, low_turnover_org, grid, state, masses)
    expected_wait = 1.0 / (low_turnover_org.mu + rates) + grid.ds
    np.testing.assert_allclose(metrics["excess_wait"], expected_wait,
                               rtol=1e-6)
    np.testing.assert_allclose(metrics["mass_error"], 0.0, atol=1e-12)
    np.testing.assert_allclose(metrics["ready_ratio"], state.pool / masses,
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


def test_unknown_policy_rejected(low_turnover_org):
    with pytest.raises(ValueError):
        run(low_turnover_org, policy="always-hire", horizon=1.0)
