import numpy as np
import pytest

from orgflow import (
    FlexPlan,
    GaConfig,
    MissingWageError,
    NoFeasibleCandidateError,
    PlanObjective,
    feasible_cost_ceiling,
    ga_minimize,
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


def test_ga_prices_the_frozen_plan_when_no_gene_is_free():
    # a one-level org has no hiring ratio, and optimize_p=False freezes its
    # share: the bounds are an empty (0, 2) array and the GA prices the
    # one frozen plan
    spec = build_org([400], [0.2], [2.0], base=[50.0], growth=0.05)
    objective = PlanObjective(spec, optimize_p=False)
    assert objective.bounds.shape == (0, 2)
    result = ga_minimize(objective, GaConfig(bounds=objective.bounds,
                                             population_size=8,
                                             generations=3, seed=1))
    assert result.best.genes.shape == (0,)
    cost = org_cost(spec, FlexPlan.all_internal(1)).total
    assert result.best.fitness == cost
    assert result.best_history.tolist() == [cost] * 3
    # on five levels with both blocks frozen, once per gene vector
    spec = costed_org(premium=0.2)
    objective = PlanObjective(spec, optimize_alpha=False, optimize_p=False)
    assert objective.bounds.shape == (0, 2)
    cost = org_cost(spec, FlexPlan.all_internal(5)).total
    assert objective(np.zeros(0)) == cost
    assert objective(np.zeros((3, 0))).tolist() == [cost] * 3
    result = ga_minimize(objective, GaConfig(bounds=objective.bounds,
                                             population_size=8,
                                             generations=3, seed=1))
    assert result.best.fitness == cost
    assert result.best_history.tolist() == [cost] * 3


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
    ill-posed plans, a nine-level one (beyond the 8 levels where numpy's
    row sums turn pairwise) and the one- and two-level edges."""
    base = [35.0, 49.0, 69.0, 96.0, 134.0]
    ladder = build_org([8000, 4000, 2500, 1000, 500],
                       [0.16, 0.16, 0.16, 0.16, 0.5], [4.0] * 5,
                       base=base, growth=0.04)
    fixed = FlexPlan(alpha=[1.2, 1.0, 1.5, 1.1], p=np.ones(5))
    nine_base = [30.0 + 12.0 * j for j in range(9)]
    nine = build_org([9000, 7000, 5200, 3900, 2800, 1900, 1200, 700, 300],
                     [0.09] * 8 + [0.3], [3.0] * 9, base=nine_base,
                     temp=[1.25 * w for w in nine_base], growth=0.03)
    return {
        "full": PlanObjective(costed_org(premium=0.2)),
        "alpha": PlanObjective(ladder, optimize_p=False, alpha_max=3.0),
        "p": PlanObjective(costed_org(premium=0.2), optimize_alpha=False,
                           fixed_plan=fixed),
        "nine": PlanObjective(nine, alpha_max=3.0),
        "one": PlanObjective(build_org([400], [0.2], [2.0], base=[50.0],
                                       temp=[60.0], growth=0.05)),
        "two": PlanObjective(build_org([3000, 400], [0.1, 0.25], [5.0, 0.0],
                                       base=[40.0, 90.0], temp=[48.0, 99.0],
                                       growth=0.02)),
    }


@pytest.mark.parametrize("mode", ["full", "alpha", "p", "nine", "one", "two"])
def test_batch_matches_serial_objective(mode):
    objective = _objective_modes()[mode]
    spec = objective.spec
    rng = np.random.default_rng(
        {"full": 1, "alpha": 2, "p": 3, "nine": 4, "one": 5, "two": 6}[mode])
    bounds = objective.bounds
    pop = rng.uniform(bounds[:, 0], bounds[:, 1], size=(64, bounds.shape[0]))
    plans = objective.decode(pop)
    assert plans.alpha.shape == (64, spec.size - 1)
    assert plans.p.shape == (64, spec.size)
    c, pools, ill = stationary_pools(spec, plans)
    bad_rows = ill.any(axis=-1).sum()
    if mode == "one":
        assert bad_rows == 0  # nothing is promoted out of a lone level
    else:
        assert 0 < bad_rows < 64  # both kinds of rows
    serial = [objective(g) for g in pop]
    assert objective(pop).tolist() == serial
    # the same population column-major, as a strided column slice of a
    # wider array and under two leading axes
    wide = np.zeros((64, 3 * pop.shape[1]))
    wide[:, ::3] = pop
    for layout in (np.asfortranarray(pop), wide[:, ::3]):
        assert objective(layout).tolist() == serial
    assert (objective(pop.reshape(2, 32, -1)).tolist()
            == np.reshape(serial, (2, 32)).tolist())
    assert penalized_cost(spec, plans).tolist() == serial
    for b, genes in enumerate(pop):
        row_c, row_pools, row_ill = stationary_pools(spec,
                                                     objective.decode(genes))
        np.testing.assert_array_equal(c[b], row_c)
        np.testing.assert_array_equal(pools[b], row_pools)
        np.testing.assert_array_equal(ill[b], row_ill)
        assert penalized_cost(spec, objective.decode(genes)) == serial[b]
        assert objective.is_feasible(genes) == (not row_ill.any())
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


def test_ga_rejects_nan_costs():
    # a NaN cost would never become the best and would turn the mean NaN
    config = GaConfig(bounds=np.array([[-1.0, 1.0]] * 2),
                      population_size=10, generations=3, seed=1)
    with pytest.raises(ValueError, match="10 of 10 gene vectors as NaN"):
        ga_minimize(lambda x: np.full(len(x), np.nan), config)

    def one_nan(x):
        costs = sphere(x)
        costs[3] = np.nan
        return costs

    with pytest.raises(ValueError, match="1 of 10 gene vectors as NaN"):
        ga_minimize(one_nan, config)


# float.hex of a seeded 60x10 PlanObjective run (numpy 2.4), recorded
# before the generation loop and the level-first pricing were rewritten:
# a rewrite that shifts the random stream or any cost by one ulp shows
_GOLDEN_GA = {
    (0.05, "best"): [
        "0x1.32d4449bcd8eap+20", "0x1.2ba6eea252a3ep+20", "0x1.220fd8bae8035p+20",
        "0x1.220fd8bae8035p+20", "0x1.220fd8bae8035p+20", "0x1.1a2ef2c62a15bp+20",
        "0x1.16faba84827e6p+20", "0x1.16faba84827e6p+20", "0x1.16faba84827e6p+20",
        "0x1.169cef9d205a8p+20"
    ],
    (0.05, "mean"): [
        "0x1.0e3f706cf6f5bp+21", "0x1.87ca1d5f7e44dp+20", "0x1.717bcaff8b22cp+20",
        "0x1.6a7da4e632abfp+20", "0x1.44cf9083f7486p+20", "0x1.410b59aa22021p+20",
        "0x1.4dd0f3d0aa761p+20", "0x1.58676c2cecad9p+20", "0x1.676dd1b6b1651p+20",
        "0x1.8664c93db6d0fp+20"
    ],
    (0.05, "genes"): [
        "0x1.6a051fed16d73p+2", "0x1.45eacdba45334p+0", "0x1.2d8a556394d58p+0",
        "0x1.81d09b26ed0e8p+0", "0x1.5bba9ee0d5390p-4", "0x1.325a535f65220p-3",
        "0x1.363de088a6727p-2", "0x1.e81e8094c446cp-2", "0x1.c8d02843f111fp-1"
    ],
    (0.0, "best"): [
        "0x1.32d4449bcd8eap+20", "0x1.2e20549277979p+20", "0x1.2e20549277979p+20",
        "0x1.22618cf96a738p+20", "0x1.22618cf96a738p+20", "0x1.22618cf96a738p+20",
        "0x1.1e9406c6f05cap+20", "0x1.1c07de6639d7cp+20", "0x1.19184ccf6a789p+20",
        "0x1.17ea3442f6232p+20"
    ],
    (0.0, "mean"): [
        "0x1.0e3f706cf6f5bp+21", "0x1.884832dae34b6p+20", "0x1.45605e8ceba67p+20",
        "0x1.a10d9e056984ep+20", "0x1.3baa4c494a16bp+20", "0x1.56d37959df417p+20",
        "0x1.42319100e8dd7p+20", "0x1.3cc4c2a22d263p+20", "0x1.5bc7d5dd29573p+20",
        "0x1.8a781a182985bp+20"
    ],
    (0.0, "genes"): [
        "0x1.bfdbfa752a95fp+1", "0x1.7f89532441bd0p+0", "0x1.0000000000000p+0",
        "0x1.8aa1302792164p+1", "0x1.2eb68ed60383bp-4", "0x1.8c58304a259a0p-3",
        "0x1.713a981e60fd4p-3", "0x1.40b8877a92eafp-3", "0x1.88d8147f386bfp-1"
    ],
}


@pytest.mark.parametrize("elitism", [0.05, 0.0])
def test_ga_matches_golden_seeded_stream(elitism):
    objective = PlanObjective(costed_org(premium=0.2))
    config = GaConfig(bounds=objective.bounds, population_size=60,
                      generations=10, seed=3, elitism=elitism)
    result = ga_minimize(objective, config)
    hexes = [float(x).hex() for x in result.best_history]
    assert hexes == _GOLDEN_GA[elitism, "best"]
    assert [float(x).hex() for x in result.mean_history] \
        == _GOLDEN_GA[elitism, "mean"]
    assert [float(x).hex() for x in result.best.genes] \
        == _GOLDEN_GA[elitism, "genes"]
    assert result.best.fitness.hex() == hexes[-1]
    assert result.best.feasible
