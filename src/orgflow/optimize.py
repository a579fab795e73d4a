"""Plan optimization: a real-valued genetic algorithm and a coordinate
descent baseline.

The decision vector collects the hiring ratios alpha_2..alpha_L and the
permanent shares p_1..p_L. Ill-posed plans (see penalized_cost) are
priced by a penalty that provably dominates every feasible cost, so the
search never needs explicit constraint repair. One array kernel prices a
single plan or a whole batch, and the GA hands it each generation at
once. The cost has an ascending structure (level j's cost depends only
on genes at level j and above), which the coordinate-descent baseline
exploits by sweeping genes in descending level order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .costs import (
    _check_growth,
    _permanent_wage_bill,
    _temporary_bill,
    org_cost,  # noqa: F401  (perfbench wraps optimize.* names)
)
from .org import (
    FlexPlan,
    MissingWageError,
    OrgSpec,
    stationary_pools,
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
    "coordinate_descent",
    "golden_section",
    "write_ga_csv",
]


class NoFeasibleCandidateError(RuntimeError):
    """The search never sampled a feasible candidate."""


@dataclass
class GaConfig:
    """Genetic-algorithm knobs.

    bounds is an (n_genes, 2) array of [low, high] per gene; mutation
    draws a fresh uniform value or a clipped Gaussian step around the
    current one, half and half. elitism is the fraction of the population
    copied unchanged into the next generation, which makes the best-so-far
    fitness non-increasing.
    """

    bounds: np.ndarray
    population_size: int = 200
    generations: int = 250
    mutation_chance: float = 0.10
    elitism: float = 0.05
    seed: int | None = None
    gaussian_scale: float = 0.08

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


def _is_feasible(objective, genes: np.ndarray) -> bool:
    probe = getattr(objective, "is_feasible", None)
    if probe is None:
        return True
    return bool(probe(genes))


def ga_minimize(objective: Callable[[np.ndarray], float],
                config: GaConfig) -> GaResult:
    """Minimize a penalized objective with a seeded generational GA.

    Tournament selection of size 2, uniform crossover, per-gene mutation,
    and top-fraction elitism. Identical seed and config reproduce the run
    exactly. The objective may expose is_feasible(genes); if it does and
    no feasible candidate is ever sampled, NoFeasibleCandidateError is
    raised after the final generation.

    When the objective exposes batch(pop), mapping an (n, n_genes) array
    to n fitness values equal to objective(g) row by row (as
    PlanObjective.batch does), each generation is priced in one call: the
    whole first population, then the n_pop - n_elite children of every
    later generation; otherwise the objective is called once per gene
    vector. Pricing draws no random numbers, so both ways consume the
    generator in the same order and give the same run.
    """
    rng = np.random.default_rng(config.seed)
    lo = config.bounds[:, 0]
    hi = config.bounds[:, 1]
    span = hi - lo
    n_pop = config.population_size
    n_elite = max(1, int(config.elitism * n_pop)) if config.elitism > 0 else 0

    batch = getattr(objective, "batch", None)

    def evaluate(rows: np.ndarray) -> np.ndarray:
        if batch is not None:
            return np.asarray(batch(rows), dtype=float)
        return np.array([objective(g) for g in rows], dtype=float)

    pop = rng.uniform(lo, hi, size=(n_pop, lo.size))
    fitness = evaluate(pop)
    best_hist = np.empty(config.generations)
    mean_hist = np.empty(config.generations)
    best_genes = None
    best_fit = math.inf
    best_feasible = False

    for gen in range(config.generations):
        order = np.argsort(fitness, kind="stable")
        if fitness[order[0]] < best_fit:
            best_fit = float(fitness[order[0]])
            best_genes = pop[order[0]].copy()
            best_feasible = _is_feasible(objective, best_genes)
        best_hist[gen] = best_fit
        mean_hist[gen] = float(np.mean(fitness))
        if gen == config.generations - 1:
            break

        children = np.empty_like(pop)
        children[:n_elite] = pop[order[:n_elite]]
        n_fill = n_pop - n_elite
        # tournament of size 2 for each parent slot
        draws = rng.integers(0, n_pop, size=(2, n_fill, 2))
        left = np.where(fitness[draws[0, :, 0]] <= fitness[draws[0, :, 1]],
                        draws[0, :, 0], draws[0, :, 1])
        right = np.where(fitness[draws[1, :, 0]] <= fitness[draws[1, :, 1]],
                         draws[1, :, 0], draws[1, :, 1])
        take_left = rng.random((n_fill, lo.size)) < 0.5
        offspring = np.where(take_left, pop[left], pop[right])
        mutate = rng.random((n_fill, lo.size)) < config.mutation_chance
        resample = rng.random((n_fill, lo.size)) < 0.5
        uniform_draw = rng.uniform(lo, hi, size=(n_fill, lo.size))
        gauss_draw = offspring + rng.normal(0.0, 1.0, size=(n_fill, lo.size)) \
            * config.gaussian_scale * span
        mutated = np.where(resample, uniform_draw, gauss_draw)
        offspring = np.where(mutate, mutated, offspring)
        children[n_elite:] = np.clip(offspring, lo, hi)
        pop = children
        fitness[:n_elite] = fitness[order[:n_elite]]
        fitness[n_elite:] = evaluate(pop[n_elite:])

    if not best_feasible and getattr(objective, "is_feasible", None) is not None:
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

    with C_j^no the cumulative attrition above level j. When temp wages
    are not set, no plan with p_j < 1 can be costed at all and the
    temporary term is dropped.
    """
    demand = np.cumsum((spec.mu * spec.n)[::-1])[::-1]
    ceiling = float(np.sum(spec.w0 * demand / (spec.mu - spec.wage_growth)))
    try:
        ceiling += float(np.sum(spec.n * spec.wt))
    except MissingWageError:
        pass
    return ceiling


def _plan_costs(spec: OrgSpec, plan: FlexPlan, ceiling: float) -> np.ndarray:
    """Penalized cost of every plan in a batch of any leading shape.

    The one evaluation kernel behind penalized_cost and PlanObjective:
    org_cost(spec, plan).total, bit for bit, where a plan is well posed,
    and ceiling * (1 + sum_j max(0, -A_j) / N_j) where it is not. Bounds
    and wage growth are checked once for the whole batch, and spec.wt is
    touched only when some well-posed plan has a share below 1.
    """
    plan.check(spec)
    _check_growth(spec)
    c, pools, ill = stationary_pools(spec, plan)
    bad = ill.any(axis=-1)
    # ill-posed plans are priced by the penalty; their bracket may divide
    # by a vanishing denominator and is discarded
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        perm = _permanent_wage_bill(spec.mu, spec.tau, spec.wage_growth,
                                    spec.w0, spec.n * plan.p, c[..., 1:])
    temp = _temporary_bill(spec, np.where(bad[..., None], 1.0, plan.p))
    deficit = np.maximum(0.0, -pools) / spec.n
    return np.where(bad, ceiling * (1.0 + deficit.sum(axis=-1)),
                    (perm + temp).sum(axis=-1))


def penalized_cost(spec: OrgSpec, plan: FlexPlan):
    """org_cost total for well-posed plans; a dominating penalty otherwise.

    Ill-posed, as in org_cost, means a pool A_j <= 0 while the flux C_{j+1}
    demanded from it is positive. The penalty starts at the feasible cost
    ceiling and grows with the total pool deficit, so it exceeds every
    feasible cost and stays monotone in the violation magnitude. A plan
    whose alpha and p carry leading axes is priced row by row, and the
    result is an array of that leading shape; one plan gives a float.
    """
    costs = _plan_costs(spec, plan, feasible_cost_ceiling(spec))
    return float(costs) if costs.ndim == 0 else costs


@dataclass
class PlanObjective:
    """Penalized org cost as a function of a flat gene vector.

    Genes are the free entries of (alpha_2..alpha_L, p_1..p_L); either
    block can be frozen. Frozen entries come from fixed_plan, defaulting
    to alpha = 1 and p = 1 (disabling temporaries altogether is the
    optimize_p=False case). Exposes bounds, feasibility, decoding, and the
    descending-level gene order used by coordinate descent.

    Calling it prices one gene vector; batch(pop) prices the rows of a
    (B, n_genes) array in one array call. Both go through the kernel of
    penalized_cost with the feasible cost ceiling computed once here, so
    batch(pop) equals [objective(g) for g in pop] exactly.
    """

    spec: OrgSpec
    optimize_alpha: bool = True
    optimize_p: bool = True
    alpha_max: float = 10.0
    fixed_plan: FlexPlan | None = None
    _ceiling: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        if not (self.optimize_alpha or self.optimize_p):
            raise ValueError("at least one gene block must be free")
        if self.alpha_max < 1.0:
            raise ValueError("alpha_max must be at least 1")
        self._ceiling = feasible_cost_ceiling(self.spec)

    @property
    def n_alpha(self) -> int:
        return self.spec.size - 1 if self.optimize_alpha else 0

    @property
    def n_p(self) -> int:
        return self.spec.size if self.optimize_p else 0

    @property
    def bounds(self) -> np.ndarray:
        rows = [[1.0, self.alpha_max]] * self.n_alpha + [[0.0, 1.0]] * self.n_p
        return np.array(rows)

    def default_genes(self) -> np.ndarray:
        base = self.fixed_plan or FlexPlan.all_internal(self.spec.size)
        parts = []
        if self.optimize_alpha:
            parts.append(base.alpha)
        if self.optimize_p:
            parts.append(base.p)
        return np.concatenate(parts) if parts else np.zeros(0)

    def decode(self, genes: np.ndarray) -> FlexPlan:
        """The plan of one gene vector, or of each row of a (B, n_genes)
        array; frozen blocks are repeated along the leading axes."""
        genes = np.asarray(genes, dtype=float)
        expected = self.n_alpha + self.n_p
        if genes.ndim not in (1, 2) or genes.shape[-1] != expected:
            raise ValueError(f"expected {expected} genes, got {genes.shape}")
        base = self.fixed_plan or FlexPlan.all_internal(self.spec.size)
        lead = genes.shape[:-1]
        alpha = (genes[..., :self.n_alpha] if self.optimize_alpha
                 else np.broadcast_to(base.alpha, lead + base.alpha.shape))
        p = (genes[..., self.n_alpha:] if self.optimize_p
             else np.broadcast_to(base.p, lead + base.p.shape))
        return FlexPlan(alpha=alpha.copy(), p=p.copy())

    def __call__(self, genes: np.ndarray) -> float:
        if np.ndim(genes) != 1:
            raise ValueError("pass one gene vector; use batch for many")
        return float(_plan_costs(self.spec, self.decode(genes), self._ceiling))

    def batch(self, pop: np.ndarray) -> np.ndarray:
        """Penalized cost of each row of a (B, n_genes) population."""
        if np.ndim(pop) != 2:
            raise ValueError("batch takes a (B, n_genes) population")
        return _plan_costs(self.spec, self.decode(pop), self._ceiling)

    def is_feasible(self, genes: np.ndarray) -> bool:
        return not stationary_pools(self.spec, self.decode(genes))[2].any()

    @property
    def descending_order(self) -> list[int]:
        """Gene indices from the top level down, permanent share first.

        Level j's cost depends only on genes at j and above, so sweeping
        p_L, alpha_L, p_{L-1}, ..., p_1 settles upstream genes before the
        levels they influence.
        """
        size = self.spec.size
        order = []
        for j in range(size, 0, -1):
            if self.optimize_p:
                order.append(self.n_alpha + j - 1)
            if self.optimize_alpha and j >= 2:
                order.append(j - 2)
        return order


def golden_section(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-10, max_iter: int = 200) -> tuple[float, float]:
    """Minimize a one-dimensional function on [lo, hi].

    Plain golden-section bracketing; returns (argmin, min). Exact on
    unimodal functions, and still returns the best probed point otherwise.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd


def coordinate_descent(objective, sweeps: int = 4,
                       x0: np.ndarray | None = None,
                       bounds: np.ndarray | None = None,
                       tol: float = 1e-10) -> Candidate:
    """Cyclic one-dimensional minimization along each gene.

    Uses golden-section search per gene. When the objective exposes a
    descending_order (see PlanObjective) the sweep follows it; otherwise
    genes are visited in index order. The default start is the objective's
    default genes when available, else the bound midpoints.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    if bounds is None:
        bounds = getattr(objective, "bounds", None)
        if bounds is None:
            raise ValueError("objective exposes no bounds; pass them explicitly")
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    if x0 is None:
        default = getattr(objective, "default_genes", None)
        x = default() if default is not None else bounds.mean(axis=1)
    else:
        x = np.asarray(x0, dtype=float).copy()
    order = getattr(objective, "descending_order", None) or range(x.size)
    value = float(objective(x))
    for _ in range(sweeps):
        for idx in order:
            lo, hi = bounds[idx]

            def along(t: float) -> float:
                probe = x.copy()
                probe[idx] = t
                return float(objective(probe))

            t_best, f_best = golden_section(along, lo, hi, tol=tol)
            if f_best < value:
                x[idx] = t_best
                value = f_best
    return Candidate(genes=x, fitness=value,
                     feasible=_is_feasible(objective, x))


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
