"""Plan optimization: a real-valued genetic algorithm over the plan genes.

The decision vector collects the hiring ratios alpha_2..alpha_L and the
permanent shares p_1..p_L. Ill-posed plans (see penalized_cost) are
priced by a penalty that provably dominates every feasible cost, so the
search never needs explicit constraint repair.

An objective maps genes of shape (..., n_genes) to costs of the leading
shape: the GA prices each generation with one call on its (n, n_genes)
population. PlanObjective follows this contract through one array kernel,
org._pools and the wage bills, with the levels last as in FlexPlan; the
population is read column-major, for the reason _pools gives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .costs import (
    _check_growth,
    _permanent_wage_bill,
    _temporary_bill,
    _wage_terms,
    org_cost,  # noqa: F401  (perfbench wraps optimize.* names)
)
from .org import (
    FlexPlan,
    MissingWageError,
    OrgSpec,
    _check_ranges,
    _level_constants,
    _pools,
    steady_promotable_pool,  # noqa: F401  (perfbench wraps optimize.* names)
)

__all__ = [
    "GaConfig",
    "Candidate",
    "GaResult",
    "NoFeasibleCandidateError",
    "PlanObjective",
    "ga_minimize",
    "penalized_cost",
    "feasible_cost_ceiling",
    "write_ga_csv",
]

# Gaussian mutation step, as a fraction of each gene's bound span
_GAUSSIAN_SCALE = 0.08


class NoFeasibleCandidateError(RuntimeError):
    """The search never sampled a feasible candidate."""


@dataclass
class GaConfig:
    """Genetic-algorithm knobs.

    bounds is an (n_genes, 2) array of [low, high] per gene; mutation
    draws a fresh uniform value or a clipped Gaussian step of 0.08 bound
    spans around the current one, half and half. elitism is the fraction
    of the population copied unchanged into the next generation, which
    makes the best-so-far fitness non-increasing.
    """

    bounds: np.ndarray
    population_size: int = 200
    generations: int = 250
    mutation_chance: float = 0.10
    elitism: float = 0.05
    seed: int | None = None

    def __post_init__(self):
        self.bounds = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ValueError("bounds must be an (n_genes, 2) array")
        if np.any(~np.isfinite(self.bounds)):
            raise ValueError("bounds must be finite")
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            raise ValueError("each bound must satisfy low <= high")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not 0.0 <= self.mutation_chance <= 1.0:
            raise ValueError("mutation_chance must lie in [0, 1]")
        if not 0.0 <= self.elitism < 1.0:
            raise ValueError("elitism must lie in [0, 1)")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")


@dataclass
class Candidate:
    """One evaluated decision vector."""

    genes: np.ndarray
    fitness: float
    feasible: bool


@dataclass
class GaResult:
    best: Candidate
    best_history: np.ndarray
    mean_history: np.ndarray


def ga_minimize(objective: Callable[[np.ndarray], np.ndarray],
                config: GaConfig) -> GaResult:
    """Minimize a penalized objective with a seeded generational GA.

    Tournament selection of size 2, uniform crossover, per-gene mutation,
    and top-fraction elitism. Identical seed and config reproduce the run
    exactly.

    The objective maps an (n, n_genes) array to its n costs, row by row
    (as PlanObjective does), and is called once per generation: on the
    whole first population, then on the n_pop - n_elite children of every
    later generation. An objective returning any other shape (say, one
    float for the whole array), or any NaN cost, raises ValueError. The
    objective may expose is_feasible(genes) for one gene vector; it is
    called on the final best, and NoFeasibleCandidateError is raised if
    that is infeasible (for a penalized objective: no feasible candidate
    was sampled). Uniform draws are lo + span * U[0, 1), the doubles of
    rng.uniform(lo, hi) without its per-call broadcasting of the bounds.
    """
    rng = np.random.default_rng(config.seed)
    lo = config.bounds[:, 0]
    hi = config.bounds[:, 1]
    span = hi - lo
    n_pop = config.population_size
    n_genes = lo.size
    n_elite = max(1, int(config.elitism * n_pop)) if config.elitism > 0 else 0
    n_fill = n_pop - n_elite

    def evaluate(rows: np.ndarray) -> np.ndarray:
        costs = np.asarray(objective(rows), dtype=float)
        if costs.shape != (len(rows),):
            raise ValueError(
                f"objective priced {len(rows)} gene vectors as shape "
                f"{costs.shape}; it must return one cost per row"
            )
        nan = np.isnan(costs)
        if nan.any():
            raise ValueError(
                f"objective priced {np.count_nonzero(nan)} of {len(rows)} "
                "gene vectors as NaN"
            )
        return costs

    pop = lo + span * rng.random((n_pop, n_genes))
    fitness = evaluate(pop)
    best_hist = np.empty(config.generations)
    mean_hist = np.empty(config.generations)
    best_genes = None
    best_fit = math.inf

    for gen in range(config.generations):
        order = fitness.argsort(kind="stable")
        if fitness[order[0]] < best_fit:
            best_fit = float(fitness[order[0]])
            best_genes = pop[order[0]].copy()
        best_hist[gen] = best_fit
        mean_hist[gen] = fitness.sum() / n_pop
        if gen == config.generations - 1:
            break

        children = np.empty_like(pop)
        pop.take(order[:n_elite], axis=0, out=children[:n_elite])
        # tournament of size 2 for each left and right parent slot
        draws = rng.integers(0, n_pop, size=(2, n_fill, 2))
        drawn = fitness[draws]
        left, right = np.where(drawn[..., 0] <= drawn[..., 1],
                               draws[..., 0], draws[..., 1])
        take_left = rng.random((n_fill, n_genes)) < 0.5
        offspring = np.where(take_left, pop.take(left, axis=0),
                             pop.take(right, axis=0))
        mutate = rng.random((n_fill, n_genes)) < config.mutation_chance
        resample = rng.random((n_fill, n_genes)) < 0.5
        # a uniform resample or a Gaussian step, drawn in this order
        mutated = np.where(
            resample, lo + span * rng.random((n_fill, n_genes)),
            offspring + rng.normal(0.0, 1.0, size=(n_fill, n_genes))
            * _GAUSSIAN_SCALE * span)
        np.clip(np.where(mutate, mutated, offspring), lo, hi,
                out=children[n_elite:])
        pop = children
        fitness[:n_elite] = fitness[order[:n_elite]]
        fitness[n_elite:] = evaluate(pop[n_elite:])

    is_feasible = getattr(objective, "is_feasible", None)
    best_feasible = best_genes is not None and (
        is_feasible is None or bool(is_feasible(best_genes)))
    if not best_feasible and is_feasible is not None:
        raise NoFeasibleCandidateError(
            "no feasible candidate sampled in "
            f"{config.generations} generations"
        )
    best = Candidate(genes=best_genes, fitness=best_fit, feasible=best_feasible)
    return GaResult(best=best, best_history=best_hist, mean_history=mean_hist)


def feasible_cost_ceiling(spec: OrgSpec) -> float:
    """An hourly cost strictly above every feasible plan's cost.

    Bounds each level by a full temporary bill plus the permanent bill of
    the largest possible inflow (all shares 1, no external hiring), whose
    wage bracket is below 1:

        ceiling = sum_j N_j w_j^t + w_j^0 C_j^no / (mu_j - r),

    with C_j^no the cumulative attrition above level j (the all-internal
    demands). When temp wages are not set, no plan with p_j < 1 can be
    costed at all and the temporary term is dropped. Raises
    GrowthExceedsAttritionError where a permanent term is not finite.
    """
    ceiling = float(np.sum(_check_growth(spec)))
    try:
        ceiling += float(np.sum(spec.n * spec.wt))
    except MissingWageError:
        pass
    return ceiling


class _Pricing:
    """The one evaluation kernel behind penalized_cost and PlanObjective.

    Prices plans given levels last: ratios alpha_2..alpha_L and shares
    p_1..p_L whose leading axes broadcast (a frozen block is one (L,)
    array for all plans), against the spec's (L,) constants. A cost is
    org_cost(spec, plan).total, bit for bit, where a plan is well posed,
    and ceiling * (1 + sum_j max(0, -A_j) / N_j) where it is not; the
    ceiling is feasible_cost_ceiling, which checks the wage bill's domain.
    spec.wt is touched only when some well-posed plan has a share below 1.
    """

    def __init__(self, spec: OrgSpec):
        self.spec = spec
        self.ceiling = feasible_cost_ceiling(spec)
        self.n = spec.n
        self.outflow = spec.mu * spec.n
        self.pool_terms = _level_constants(spec)
        self.wage_terms = _wage_terms(spec)

    def pools(self, alpha: np.ndarray, p: np.ndarray):
        """C, A and the ill_posed mask of the plans."""
        return _pools(self.outflow * p, alpha, *self.pool_terms)

    def costs(self, alpha: np.ndarray, p: np.ndarray):
        """Penalized costs of the plans, of their leading shape (a float
        for one plan)."""
        c, pools, ill = self.pools(alpha, p)
        bad = ill.any(axis=-1, keepdims=True)
        # ill-posed plans are priced by the penalty; their bracket may divide
        # by a vanishing denominator and is discarded
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            perm = _permanent_wage_bill(self.wage_terms, self.n * p,
                                        c[..., 1:])
        temp = _temporary_bill(self.spec, np.where(bad, 1.0, p))
        levels = np.where(bad, np.maximum(0.0, -pools) / self.n, perm + temp)
        # each plan's levels summed as one contiguous row: the pairwise sum
        # that org_cost's total takes
        total = np.ascontiguousarray(levels).sum(axis=-1)
        costs = np.where(bad[..., 0], self.ceiling * (1.0 + total), total)
        return float(costs) if costs.ndim == 0 else costs


def penalized_cost(spec: OrgSpec, plan: FlexPlan):
    """org_cost total for well-posed plans; a dominating penalty otherwise.

    Ill-posed is org.ill_posed, as in org_cost. The penalty starts at the
    feasible cost ceiling and grows with the total pool deficit, so it
    exceeds every feasible cost and stays monotone in the violation
    magnitude. A plan
    whose alpha and p carry leading axes is priced row by row, and the
    result is an array of that leading shape; one plan gives a float.
    """
    plan.check(spec)
    return _Pricing(spec).costs(plan.alpha, plan.p)


@dataclass
class PlanObjective:
    """Penalized org cost as a function of a flat gene vector.

    Genes are the free entries of (alpha_2..alpha_L, p_1..p_L); either
    block, or both, can be frozen. Frozen entries come from fixed_plan,
    defaulting to alpha = 1 and p = 1 (disabling temporaries altogether is
    the optimize_p=False case). With no gene free the GA prices the one
    frozen plan. Exposes bounds, feasibility and decoding.

    Calling it on genes of shape (..., n_genes) prices them in one array
    call: one gene vector gives a float, a (B, n_genes) population an
    array of B costs equal to [objective(g) for g in pop] exactly,
    through the kernel of penalized_cost, with its constants, the feasible
    cost ceiling and the checks of wage growth and fixed_plan done once
    here. The genes are read column-major, so each gene's column is
    contiguous (see org._pools).
    """

    spec: OrgSpec
    optimize_alpha: bool = True
    optimize_p: bool = True
    alpha_max: float = 10.0
    fixed_plan: FlexPlan | None = None

    def __post_init__(self):
        if self.alpha_max < 1.0:
            raise ValueError("alpha_max must be at least 1")
        self._pricing = _Pricing(self.spec)
        self._fixed = (self.fixed_plan
                       or FlexPlan.all_internal(self.spec.size)).check(self.spec)

    @property
    def n_alpha(self) -> int:
        return self.spec.size - 1 if self.optimize_alpha else 0

    @property
    def n_p(self) -> int:
        return self.spec.size if self.optimize_p else 0

    @property
    def bounds(self) -> np.ndarray:
        rows = [[1.0, self.alpha_max]] * self.n_alpha + [[0.0, 1.0]] * self.n_p
        # (0, 2) when no gene is free: the GA then prices the frozen plan
        return np.array(rows).reshape(len(rows), 2)

    def default_genes(self) -> np.ndarray:
        parts = []
        if self.optimize_alpha:
            parts.append(self._fixed.alpha)
        if self.optimize_p:
            parts.append(self._fixed.p)
        return np.concatenate(parts) if parts else np.zeros(0)

    def _genes(self, genes: np.ndarray) -> np.ndarray:
        genes = np.asarray(genes, dtype=float)
        expected = self.n_alpha + self.n_p
        if genes.ndim < 1 or genes.shape[-1] != expected:
            raise ValueError(f"expected {expected} genes, got {genes.shape}")
        return genes

    def decode(self, genes: np.ndarray) -> FlexPlan:
        """The plan of one gene vector, or of each row of a (..., n_genes)
        array; frozen blocks are repeated along the leading axes."""
        alpha, p = self._blocks(genes)
        lead = np.broadcast_shapes(alpha.shape[:-1], p.shape[:-1])
        return FlexPlan(*(np.broadcast_to(a, lead + a.shape[-1:]).copy()
                          for a in (alpha, p)))

    def _blocks(self, genes: np.ndarray):
        """Ratios and shares of every gene vector, levels last: slices of
        the genes taken column-major, or the fixed plan's (L,) array for a
        frozen block. With no gene free, the shares are broadcast to the
        genes' leading shape."""
        genes = np.asfortranarray(self._genes(genes))
        alpha = (genes[..., :self.n_alpha] if self.optimize_alpha
                 else self._fixed.alpha)
        p = genes[..., self.n_alpha:] if self.optimize_p else self._fixed.p
        if not (self.optimize_alpha or self.optimize_p):
            p = np.broadcast_to(p, genes.shape[:-1] + p.shape)
        return alpha, p

    def __call__(self, genes: np.ndarray):
        alpha, p = self._blocks(genes)
        _check_ranges(alpha, p)
        return self._pricing.costs(alpha, p)

    def is_feasible(self, genes: np.ndarray) -> bool:
        return not self._pricing.pools(*self._blocks(genes))[2].any()


def write_ga_csv(path: str, result: GaResult,
                 header_lines: Sequence[str] = ()) -> None:
    """Write per-generation best and mean fitness as CSV."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["generation", "best_cost", "mean_cost"])
        for g, (b, m) in enumerate(zip(result.best_history,
                                       result.mean_history)):
            writer.writerow([g, f"{b:.6f}", f"{m:.6f}"])
