import numpy as np
import pytest

from orgflow import (
    FlexPlan,
    GaConfig,
    MissingWageError,
    NoFeasibleCandidateError,
    PlanObjective,
    coordinate_descent,
    feasible_cost_ceiling,
    ga_minimize,
    golden_section,
    org_cost,
    penalized_cost,
    stationary_state,
    steady_promotable_pool,
    write_ga_csv,
)
from orgflow.org import stationary_pools
from conftest import build_org, costed_org


def sphere(x):
    # one cost per gene vector along the last axis, as ga_minimize expects
    return np.sum(x * x, axis=-1)


def test_golden_section_quadratic():
    argmin, value = golden_section(lambda x: (x - 1.7) ** 2 + 3.0, -5.0, 5.0)
    assert argmin == pytest.approx(1.7, abs=1e-7)
    assert value == pytest.approx(3.0, abs=1e-12)


def test_golden_section_endpoint_minimum():
    argmin, _ = golden_section(lambda x: x, 2.0, 9.0)
    assert argmin == pytest.approx(2.0, abs=1e-6)


def test_ga_finds_sphere_minimum():
    config = GaConfig(bounds=np.array([[-3.0, 3.0]] * 4), seed=7)
    result = ga_minimize(sphere, config)
    assert result.best.fitness < 1e-4
    np.testing.assert_allclose(result.best.genes, 0.0, atol=0.05)


def test_ga_same_seed_reproduces_run():
    config = GaConfig(bounds=np.array([[-2.0, 2.0]] * 3),
                      population_size=40, generations=30, seed=11)
    a = ga_minimize(sphere, config)
    b = ga_minimize(sphere, config)
    np.testing.assert_array_equal(a.best.genes, b.best.genes)
    np.testing.assert_array_equal(a.best_history, b.best_history)
    c = ga_minimize(sphere, GaConfig(bounds=np.array([[-2.0, 2.0]] * 3),
                                     population_size=40, generations=30,
                                     seed=12))
    assert not np.array_equal(a.best.genes, c.best.genes)


def test_ga_best_history_never_increases():
    config = GaConfig(bounds=np.array([[-4.0, 4.0]] * 5),
                      population_size=30, generations=60, seed=5)
    result = ga_minimize(sphere, config)
    assert np.all(np.diff(result.best_history) <= 1e-12)
    assert result.best_history.size == 60
    assert result.mean_history.size == 60


def test_ga_respects_bounds():
    lo, hi = 0.5, 2.5
    config = GaConfig(bounds=np.array([[lo, hi]] * 3),
                      population_size=25, generations=25, seed=2)
    seen = []

    def tracking(x):
        seen.append(x.copy())
        return sphere(x)

    ga_minimize(tracking, config)
    stacked = np.vstack(seen)
    assert np.all(stacked >= lo - 1e-12)
    assert np.all(stacked <= hi + 1e-12)


def test_ga_zero_elitism_still_tracks_best():
    config = GaConfig(bounds=np.array([[-1.0, 1.0]] * 2),
                      population_size=16, generations=20, seed=4,
                      elitism=0.0)
    result = ga_minimize(sphere, config)
    assert np.all(np.diff(result.best_history) <= 1e-12)


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(bounds=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        GaConfig(bounds=np.array([[0.0, 1.0]]), population_size=1)
    with pytest.raises(ValueError):
        GaConfig(bounds=np.array([[0.0, 1.0]]), mutation_chance=1.5)
    with pytest.raises(ValueError):
        GaConfig(bounds=np.array([[0.0, np.inf]]))


def test_ceiling_dominates_feasible_plans():
    spec = costed_org(premium=0.2)
    ceiling = feasible_cost_ceiling(spec)
    rng = np.random.default_rng(8)
    tried = 0
    while tried < 40:
        plan = FlexPlan(alpha=1.0 + 2.0 * rng.random(4),
                        p=rng.uniform(0.3, 1.0, 5))
        pools = steady_promotable_pool(spec, plan)
        if not np.all(pools[:-1] > 0.0):
            continue
        tried += 1
        assert org_cost(spec, plan).total < ceiling


def test_ceiling_defined_without_temp_wages():
    spec = costed_org()
    assert np.isfinite(feasible_cost_ceiling(spec))


def test_penalized_cost_matches_cost_when_feasible():
    spec = costed_org(premium=0.2)
    plan = FlexPlan(alpha=np.ones(4), p=np.ones(5))
    assert penalized_cost(spec, plan) == pytest.approx(
        org_cost(spec, plan).total)


def test_penalized_cost_grows_with_infeasibility():
    spec = costed_org(premium=0.2)
    ceiling = feasible_cost_ceiling(spec)
    mild = FlexPlan(alpha=np.ones(4), p=np.array([0.05, 1, 1, 1, 1.0]))
    severe = FlexPlan(alpha=np.ones(4), p=np.array([0.01, 0.01, 1, 1, 1.0]))
    assert penalized_cost(spec, mild) > ceiling
    assert penalized_cost(spec, severe) > penalized_cost(spec, mild)


def test_empty_levels_nobody_promotes_from_are_well_posed():
    # the high-turnover ladder with temporaries only at levels 4 and 5:
    # pool 4 is empty, but nothing is promoted out of it
    base = [35.0, 49.0, 69.0, 96.0, 134.0]
    spec = build_org([8000, 4000, 2500, 1000, 500],
                     [0.16, 0.16, 0.16, 0.16, 0.5], [4.0] * 5,
                     base=base, temp=[1.2 * w for w in base], growth=0.04)
    plan = FlexPlan(alpha=np.ones(4), p=np.array([1, 1, 1, 0, 0.0]))
    state = stationary_state(spec, plan)
    assert state.pool[3] == 0.0
    assert state.promotion_rate[3] == 0.0
    assert np.all(np.isfinite(state.promotion_rate))
    assert penalized_cost(spec, plan) == org_cost(spec, plan).total
    objective = PlanObjective(spec)
    assert objective.is_feasible(np.concatenate([plan.alpha, plan.p]))


def test_plan_objective_decode_round_trip():
    spec = costed_org(premium=0.2)
    objective = PlanObjective(spec)
    genes = objective.default_genes()
    assert genes.shape == (9,)
    plan = objective.decode(genes)
    np.testing.assert_array_equal(plan.alpha, 1.0)
    np.testing.assert_array_equal(plan.p, 1.0)
    assert isinstance(objective(genes), float)
    assert objective(genes) == pytest.approx(org_cost(spec).total)
    assert objective.is_feasible(genes)
    assert objective.bounds.shape == (9, 2)


def test_plan_objective_alpha_only_mode():
    spec = costed_org()
    objective = PlanObjective(spec, optimize_p=False)
    assert objective.n_p == 0
    assert objective.bounds.shape == (4, 2)
    plan = objective.decode(np.array([1.5, 1.0, 1.2, 1.0]))
    np.testing.assert_array_equal(plan.p, 1.0)
    np.testing.assert_allclose(plan.alpha, [1.5, 1.0, 1.2, 1.0])


def test_plan_objective_descending_order_visits_top_first():
    spec = costed_org(premium=0.2)
    objective = PlanObjective(spec)
    order = objective.descending_order
    assert sorted(order) == list(range(9))
    # first two genes swept: the top level's permanent share then nothing
    # above it; p-genes sit after the 4 alpha genes in the flat vector
    assert order[0] == 4 + 4  # p_5
    assert order[1] == 3      # alpha into level 5


def test_no_feasible_candidate_error():
    class Hopeless:
        bounds = np.array([[0.0, 1.0]] * 2)

        def __call__(self, genes):
            return np.sum(genes, axis=-1)

        def is_feasible(self, genes):
            return False

    config = GaConfig(bounds=Hopeless.bounds, population_size=10,
                      generations=5, seed=1)
    with pytest.raises(NoFeasibleCandidateError):
        ga_minimize(Hopeless(), config)


def test_ga_improves_on_all_permanent_baseline():
    spec = costed_org(premium=0.2)
    objective = PlanObjective(spec)
    config = GaConfig(bounds=objective.bounds, population_size=60,
                      generations=60, seed=7)
    result = ga_minimize(objective, config)
    baseline = org_cost(spec).total
    assert result.best.feasible
    assert result.best.fitness < baseline
    plan = objective.decode(result.best.genes)
    assert org_cost(spec, plan).total == pytest.approx(result.best.fitness)


def test_coordinate_descent_on_quadratic_bowl():
    class Bowl:
        bounds = np.array([[-2.0, 2.0], [-2.0, 2.0]])

        def __call__(self, x):
            return (x[0] - 0.3) ** 2 + (x[1] + 0.8) ** 2

    best = coordinate_descent(Bowl(), sweeps=3)
    np.testing.assert_allclose(best.genes, [0.3, -0.8], atol=1e-6)
    assert best.fitness == pytest.approx(0.0, abs=1e-10)


def test_coordinate_descent_improves_plan_cost():
    spec = costed_org(premium=0.2)
    objective = PlanObjective(spec)
    best = coordinate_descent(objective, sweeps=2)
    assert best.fitness < org_cost(spec).total
    plan = objective.decode(best.genes)
    assert np.all(steady_promotable_pool(spec, plan)[:-1] > 0.0)


def test_ga_csv_layout(tmp_path):
    config = GaConfig(bounds=np.array([[-1.0, 1.0]] * 2),
                      population_size=12, generations=8, seed=3)
    result = ga_minimize(sphere, config)
    path = tmp_path / "ga.csv"
    write_ga_csv(str(path), result, ["seed = 3"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 3"
    assert lines[1].split(",") == ["generation", "best_cost", "mean_cost"]
    assert len(lines) == 2 + 8


def _objective_modes():
    """Full, alpha-only and p-only objectives whose random genes include
    ill-posed plans."""
    base = [35.0, 49.0, 69.0, 96.0, 134.0]
    ladder = build_org([8000, 4000, 2500, 1000, 500],
                       [0.16, 0.16, 0.16, 0.16, 0.5], [4.0] * 5,
                       base=base, growth=0.04)
    fixed = FlexPlan(alpha=[1.2, 1.0, 1.5, 1.1], p=np.ones(5))
    return {
        "full": PlanObjective(costed_org(premium=0.2)),
        "alpha": PlanObjective(ladder, optimize_p=False, alpha_max=3.0),
        "p": PlanObjective(costed_org(premium=0.2), optimize_alpha=False,
                           fixed_plan=fixed),
    }


@pytest.mark.parametrize("mode", ["full", "alpha", "p"])
def test_batch_matches_serial_objective(mode):
    objective = _objective_modes()[mode]
    spec = objective.spec
    rng = np.random.default_rng({"full": 1, "alpha": 2, "p": 3}[mode])
    bounds = objective.bounds
    pop = rng.uniform(bounds[:, 0], bounds[:, 1], size=(64, bounds.shape[0]))
    plans = objective.decode(pop)
    assert plans.alpha.shape == (64, 4) and plans.p.shape == (64, 5)
    c, pools, ill = stationary_pools(spec, plans)
    assert 0 < ill.any(axis=-1).sum() < 64  # both kinds of rows
    serial = [objective(g) for g in pop]
    assert objective(pop).tolist() == serial
    assert penalized_cost(spec, plans).tolist() == serial
    for b, genes in enumerate(pop):
        row_c, row_pools, row_ill = stationary_pools(spec,
                                                     objective.decode(genes))
        np.testing.assert_array_equal(c[b], row_c)
        np.testing.assert_array_equal(pools[b], row_pools)
        np.testing.assert_array_equal(ill[b], row_ill)
        assert penalized_cost(spec, objective.decode(genes)) == serial[b]
        if row_ill.any():
            assert serial[b] > feasible_cost_ceiling(spec)
        else:
            assert serial[b] == org_cost(spec, objective.decode(genes)).total


def test_batch_without_temp_wages_prices_permanent_plans(costed_org_plain):
    # spec.wt is unset; with p frozen at 1 no plan needs it
    objective = PlanObjective(costed_org_plain, optimize_p=False)
    pop = np.random.default_rng(4).uniform(1.0, 10.0, size=(32, 4))
    costs = objective(pop)
    assert costs.shape == (32,)
    assert np.all(np.isfinite(costs))
    assert costs.tolist() == [objective(g) for g in pop]
    # a well-posed row with temporaries needs the missing wage
    full = PlanObjective(costed_org_plain)
    genes = np.concatenate([np.ones(4), [0.9, 1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(MissingWageError):
        full(np.vstack([full.default_genes(), genes]))


def test_ga_prices_each_generation_in_one_batch_call():
    class Spy:
        def __init__(self):
            self.rows = []

        def __call__(self, pop):
            assert pop.ndim == 2, "per-gene call"
            self.rows.append(len(pop))
            return np.sum(pop * pop, axis=1)

    spy = Spy()
    config = GaConfig(bounds=np.array([[-1.0, 1.0]] * 3),
                      population_size=20, generations=6, elitism=0.1, seed=3)
    ga_minimize(spy, config)
    assert spy.rows == [20] + [18] * 5


def test_batched_and_serial_ga_runs_are_identical():
    objective = PlanObjective(costed_org(premium=0.2))

    class Serial:
        # the same objective priced gene vector by gene vector
        def __call__(self, pop):
            return np.array([objective(g) for g in pop])

        def is_feasible(self, genes):
            return objective.is_feasible(genes)

    config = GaConfig(bounds=objective.bounds, population_size=60,
                      generations=30, seed=3)
    batched = ga_minimize(objective, config)
    serial = ga_minimize(Serial(), config)
    np.testing.assert_array_equal(batched.best.genes, serial.best.genes)
    assert batched.best.fitness == serial.best.fitness
    assert batched.best.feasible == serial.best.feasible
    np.testing.assert_array_equal(batched.best_history, serial.best_history)
    np.testing.assert_array_equal(batched.mean_history, serial.mean_history)


def test_ga_rejects_scalar_objective():
    # one float for a whole population would broadcast into every fitness
    config = GaConfig(bounds=np.array([[-1.0, 1.0]] * 2),
                      population_size=10, generations=3, seed=1)
    with pytest.raises(ValueError, match="one cost per row"):
        ga_minimize(lambda x: float(np.sum(x * x)), config)
