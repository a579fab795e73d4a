"""Seniority-structured workforce hierarchy: domain types and closed-form analytics.

An organization is a ladder of L job levels. Level j holds a constant
headcount N_j spread over seniority s (years spent in the level). Workers
leave at an attrition rate mu_j, become promotable once s >= tau_j, and are
promoted into level j+1 at a per-year rate P_j applied to the promotable
pool A_j = integral of the density beyond tau_j. Vacancies are filled by a
mix of internal promotion and external hiring: alpha_j >= 1 is the ratio of
total inflow at level j to its internal-promotion part (alpha_j = 1 means
promotion only; level 1 is always hired externally), and p_j in [0, 1] is
the share of level j staffed with permanent workers, the remainder being
temporary workers who sit outside the seniority dynamics.

Everything here is closed form: cumulative promotion fluxes, stationary
seniority profiles and the promotable pools they imply, and the feasibility
bounds (minimal permanent shares, minimal external hiring ratios) that keep
those pools positive.

One well-posedness rule (ill_posed) serves every caller: level j is ill
posed when its pool A_j <= 1e-12 max(N_j, 1), the empty floor, while
C_{j+1} > 0; the transient closure counts such a pool as empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

# steady_promotable_pool keeps its module-level name, off this list, only
# because perfbench/tracing.py wraps it by name (as costs.* and optimize.*)
__all__ = [
    "LevelSpec",
    "OrgSpec",
    "FlexPlan",
    "SteadyState",
    "InitialConditionReport",
    "OrgValidationError",
    "IllPosedError",
    "MassMismatchError",
    "MissingWageError",
    "validate",
    "promotion_demands",
    "stationary_pools",
    "ill_posed",
    "min_permanent_share",
    "min_external_ratios",
    "stationary_state",
    "check_initial_condition",
    "FEASIBILITY_MARGIN",
]

# The advice margin of min_external_ratios, not the emptiness rule: a pool
# is treated as safely positive only when A_j >= FEASIBILITY_MARGIN * N_j.
FEASIBILITY_MARGIN = 1e-6

# a pool at or below this fraction of max(N_j, 1) counts as empty
_POOL_EPS = 1e-12


class OrgValidationError(ValueError):
    """Aggregated structural problems in an organization description."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class IllPosedError(ValueError):
    """A stationary profile would need a promotable pool at or below its
    empty floor, or one too small for its promotion rate to be finite."""

    def __init__(self, levels: list[int], pools: list[float]):
        self.levels = list(levels)
        self.pools = list(pools)
        detail = ", ".join(
            f"level {j}: pool {a:.6g}" for j, a in zip(self.levels, self.pools)
        )
        super().__init__(
            "no stationary profile with positive promotable pools; "
            "raise external hiring or permanent shares (" + detail + ")"
        )

    @classmethod
    def check(cls, pools: np.ndarray, ill: np.ndarray) -> None:
        """Raise for every level flagged in ill, across any leading axes."""
        if ill.any():
            raise cls([int(j) + 1 for j in np.nonzero(ill)[-1]],
                      [float(a) for a in pools[ill]])


class MassMismatchError(ValueError):
    """Initial densities do not integrate to the permanent headcounts."""


class MissingWageError(ValueError):
    """A wage field needed by the requested computation is not set."""


@dataclass
class LevelSpec:
    """One hierarchy level.

    headcount       total staff N_j held constant over time
    attrition       departure rate mu_j per year
    eligibility_age seniority tau_j (years) before promotion is possible
    base_wage       entry wage of a permanent worker, currency per hour
    temp_wage       hourly cost of a temporary worker at this level
    floater_wage    optional wage curve s -> currency/hour for floaters
                    (ConstantWage, ExponentialWage or PiecewiseLinearWage
                    from orgflow.costs; its laplace method prices floaters)
    """

    headcount: float
    attrition: float
    eligibility_age: float = 0.0
    base_wage: float | None = None
    temp_wage: float | None = None
    floater_wage: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class OrgSpec:
    """An L-level organization plus economy-wide parameters.

    wage_growth is the exponential seniority premium r: a permanent worker
    hired at wage w0 costs w0 * exp(r * s) after s years in the level. It
    must stay below every attrition rate for wage bills to converge.
    business_units optionally splits each level's headcount across K units
    (a K x L array of headcounts summing per level to N_j).
    """

    levels: list[LevelSpec]
    wage_growth: float = 0.0
    business_units: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.levels)

    @cached_property
    def n(self) -> np.ndarray:
        return np.array([lv.headcount for lv in self.levels], dtype=float)

    @cached_property
    def mu(self) -> np.ndarray:
        return np.array([lv.attrition for lv in self.levels], dtype=float)

    @cached_property
    def tau(self) -> np.ndarray:
        return np.array([lv.eligibility_age for lv in self.levels], dtype=float)

    @cached_property
    def w0(self) -> np.ndarray:
        return self._wages("base_wage")

    @cached_property
    def wt(self) -> np.ndarray:
        return self._wages("temp_wage")

    def _wages(self, key: str) -> np.ndarray:
        wages = [getattr(lv, key) for lv in self.levels]
        missing = [j for j, w in enumerate(wages, start=1) if w is None]
        if missing:
            raise MissingWageError(
                f"{key} is not set on {_level_list(missing)}")
        return np.array(wages, dtype=float)


def _level_list(levels: Sequence[int]) -> str:
    """'level 2' or 'levels 2, 3', for messages that name levels."""
    return ("level" + "s" * (len(levels) > 1) + " "
            + ", ".join(str(j) for j in levels))


@dataclass
class FlexPlan:
    """Staffing flexibility choices: hiring ratios and permanent shares.

    alpha holds the external-hiring ratios alpha_2..alpha_L (level 1 has no
    internal inflow, so it carries no ratio). p holds the permanent shares
    p_1..p_L. The all-internal plan is alpha = 1, p = 1 everywhere.
    """

    alpha: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))

    @classmethod
    def all_internal(cls, size: int) -> "FlexPlan":
        return cls(alpha=np.ones(max(size - 1, 0)), p=np.ones(size))

    def check(self, spec: OrgSpec) -> "FlexPlan":
        """Shapes and bounds of every plan, across any leading axes."""
        if self.p.shape[-1] != spec.size:
            raise ValueError(
                f"plan has {self.p.shape[-1]} permanent shares "
                f"for {spec.size} levels"
            )
        if self.alpha.shape[-1] != max(spec.size - 1, 0):
            raise ValueError(
                f"plan has {self.alpha.shape[-1]} hiring ratios, "
                f"expected {spec.size - 1}"
            )
        _check_ranges(self.alpha, self.p)
        return self


def _check_ranges(alpha: np.ndarray, p: np.ndarray) -> None:
    """Plan bounds alpha_j >= 1 and 0 <= p_j <= 1, in any array layout;
    a NaN entry fails them."""
    if not (alpha >= 1.0).all():
        raise ValueError("hiring ratios must satisfy alpha_j >= 1")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("permanent shares must lie in [0, 1]")


def validate(spec: OrgSpec) -> OrgSpec:
    """Check every structural invariant, aggregating all violations."""
    violations = []
    for j, lv in enumerate(spec.levels, start=1):
        if not lv.headcount > 0:
            violations.append(f"level {j}: headcount {lv.headcount} is not positive")
        if not lv.attrition > 0:
            violations.append(f"level {j}: attrition {lv.attrition} is not positive")
        elif spec.wage_growth >= lv.attrition:
            violations.append(
                f"level {j}: wage growth {spec.wage_growth} must stay below "
                f"attrition {lv.attrition}"
            )
        if lv.eligibility_age < 0:
            violations.append(
                f"level {j}: eligibility age {lv.eligibility_age} is negative"
            )
        if lv.base_wage is not None and lv.temp_wage is not None:
            if not lv.temp_wage > lv.base_wage:
                violations.append(
                    f"level {j}: temp wage {lv.temp_wage} must exceed base wage "
                    f"{lv.base_wage}"
                )
    if spec.business_units is not None:
        units = np.asarray(spec.business_units, dtype=float)
        if units.ndim != 2 or units.shape[1] != spec.size:
            violations.append(
                "business_units must be a K x L array of per-unit headcounts"
            )
        else:
            if np.any(units < 0):
                violations.append("business unit headcounts must be nonnegative")
            totals = units.sum(axis=0)
            if not np.allclose(totals, spec.n, rtol=1e-9, atol=1e-9):
                violations.append(
                    "business unit headcounts do not sum to the level headcounts"
                )
    if violations:
        raise OrgValidationError(violations)
    return spec


def _level_index(spec: OrgSpec, level: int) -> int:
    if not 1 <= level <= spec.size:
        raise ValueError(f"level {level} outside 1..{spec.size}")
    return level - 1


def promotion_demands(spec: OrgSpec, plan: FlexPlan | None = None) -> np.ndarray:
    """Stationary promotion fluxes C_1..C_{L+1} demanded into each level.

    C_j is the flux of internal promotions entering level j per year (for
    level 1, the external replacement flux). It satisfies the descending
    recursion alpha_j C_j = mu_j N_j p_j + C_{j+1} with C_{L+1} = 0: each
    level passes down its own permanent attrition plus the flux demanded
    from above, discounted by its external-hiring ratio.
    """
    if plan is None:
        plan = FlexPlan.all_internal(spec.size)
    return stationary_pools(spec, plan)[0]


def stationary_pools(spec: OrgSpec, plan: FlexPlan,
                     heads: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Demands C_1..C_{L+1}, pools A_1..A_L and their ill_posed mask, at once.

    C solves the recursion of promotion_demands, and
    A_j = (mu_j N_j p_j e^{-mu_j tau_j} - (1 - e^{-mu_j tau_j}) C_{j+1}) / mu_j,
    the plain exponential tail at the top, where C_{L+1} = 0. heads (say,
    the (K, L) rows of K business units) replaces N_j, and plan.p and
    plan.alpha may carry leading axes too (say, a (B, L) batch of plans):
    each row is then an organization of its own, with its level's empty
    floor, and the leading axes of heads, p and alpha broadcast. Levels
    are last in every result; C is stored column-major (see _pools).
    """
    heads = spec.n if heads is None else heads
    return _pools(spec.mu * heads * plan.p, plan.alpha,
                  *_level_constants(spec))


def _empty_floor(spec: OrgSpec) -> np.ndarray:
    """Pools at or below 1e-12 max(N_j, 1) count as empty."""
    return _POOL_EPS * np.maximum(spec.n, 1.0)


def _level_constants(spec: OrgSpec) -> tuple[np.ndarray, ...]:
    """mu_j, e^{-mu_j tau_j}, 1 - e^{-mu_j tau_j} and the empty floor, each
    of shape (L,): the constants of _pools."""
    rate = -spec.mu * spec.tau
    return spec.mu, np.exp(rate), -np.expm1(rate), _empty_floor(spec)


def _pools(outflow: np.ndarray, alpha: np.ndarray, mu: np.ndarray,
           decay: np.ndarray, filled: np.ndarray, floor: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel of stationary_pools, levels last: outflow holds
    mu_j N_j p_j and alpha the ratios alpha_2..alpha_L, their leading axes
    broadcasting; mu, decay, filled and floor are the (L,) constants of
    _level_constants. Returns C, A and the ill_posed mask.

    C is stored column-major, and the GA hands in its genes column-major
    too, so that each level's column of a batch is contiguous: the
    recursion over the levels then runs numpy's inner loops over the
    plans, not over the few levels."""
    size = outflow.shape[-1]
    lead = np.broadcast_shapes(outflow.shape[:-1], alpha.shape[:-1])
    c = np.zeros(lead + (size + 1,), order="F")
    for j in range(size - 1, -1, -1):
        c[..., j] = outflow[..., j] + c[..., j + 1]
        if j:  # level 1 has alpha_1 = 1, and x / 1.0 is x
            c[..., j] /= alpha[..., j - 1]
    pools = (outflow * decay - filled * c[..., 1:]) / mu
    return c, pools, ill_posed(pools, c, floor)


def ill_posed(pools: np.ndarray, demands: np.ndarray,
              floor: np.ndarray) -> np.ndarray:
    """Ill posed per level (levels last): A_j <= floor_j while C_{j+1} > 0."""
    return (pools <= floor) & (demands[..., 1:] > 0.0)


def _promotion_rates(c: np.ndarray, pools: np.ndarray, ill: np.ndarray
                     ) -> np.ndarray:
    """P_j = C_{j+1} / A_j, 0 where no flux is demanded, from one plan's
    demands, pools and ill_posed mask. Raises IllPosedError for the levels
    ill flags, else where a rate C / A overflows (a C near 1e300 can)."""
    IllPosedError.check(pools, ill)
    rate = np.zeros(pools.shape)
    with np.errstate(over="ignore"):
        np.divide(c[1:], pools, out=rate, where=c[1:] > 0.0)
    IllPosedError.check(pools, ~np.isfinite(rate))
    return rate


def steady_promotable_pool(spec: OrgSpec,
                           plan: FlexPlan | None = None) -> np.ndarray:
    """Stationary promotable masses A_1..A_L beyond the eligibility ages
    (see stationary_pools)."""
    if plan is None:
        plan = FlexPlan.all_internal(spec.size)
    return stationary_pools(spec, plan)[1]


def min_permanent_share(spec: OrgSpec, plan: FlexPlan) -> np.ndarray:
    """Smallest permanent shares keeping each level's promotable pool positive.

    p_j^min = (1 - E_j) C_{j+1} / (mu_j N_j E_j), with E_j = e^{-mu_j tau_j},
    for every level j at once; each depends only on the plan entries of
    the levels above. A share strictly above it keeps A_j > 0; A_j above
    the empty floor f_j needs one above it by more than f_j / (N_j E_j).
    """
    mu, decay, filled, _ = _level_constants(spec)
    c_next = promotion_demands(spec, plan)[1:]
    # 0, not the 0/0 of an underflowed e^{-mu tau}, where no flux is demanded
    return np.divide(filled * c_next, mu * spec.n * decay,
                     out=np.zeros(spec.size), where=c_next > 0.0)


def min_external_ratios(spec: OrgSpec) -> np.ndarray:
    """Smallest hiring ratios alpha_2..alpha_L keeping a no-temporaries
    organization well posed.

    Works down from the top: with the ratios above level j already fixed at
    their minima, the pool below stays at or above m N_{j-1}, with
    m = FEASIBILITY_MARGIN, iff

        alpha_j >= (1 - e^{-mu_{j-1} tau_{j-1}}) (mu_j N_j + C_{j+1})
                   / (mu_{j-1} N_{j-1} (e^{-mu_{j-1} tau_{j-1}} - m)),

    clipped below at 1. Entries above 1 mark levels whose replacement needs
    exceed what the level below can supply internally.
    """
    if spec.size < 2:
        return np.zeros(0)
    mu, decay, filled, _ = _level_constants(spec)
    ratios = np.ones(spec.size - 1)
    c_next = 0.0  # C_{j+1} built from the minimal ratios above
    for j in range(spec.size - 1, 0, -1):  # 0-based level j, promoting j-1
        supply = mu[j - 1] * spec.n[j - 1] * (decay[j - 1] - FEASIBILITY_MARGIN)
        if supply <= 0:
            raise ValueError(
                f"level {j}: eligibility window too long to feed level {j + 1}"
            )
        demand = mu[j] * spec.n[j] + c_next
        ratios[j - 1] = max(1.0, filled[j - 1] * demand / supply)
        c_next = demand / ratios[j - 1]
    return ratios


@dataclass
class SteadyState:
    """Closed-form stationary profile of every level under a plan.

    pool            promotable masses A_j (top level: exponential tail)
    promotion_rate  P_j = C_{j+1} / A_j, zero where C_{j+1} = 0 (the top);
                    also the extra decay rate of the profile beyond tau_j
    inflow          boundary density rho_j(0) = mu_j N_j p_j + C_{j+1}
    """

    spec: OrgSpec
    plan: FlexPlan
    pool: np.ndarray
    promotion_rate: np.ndarray
    inflow: np.ndarray
    demands: np.ndarray = field(repr=False)

    def density(self, level: int, s) -> np.ndarray:
        """Stationary seniority density of one level, vectorized over s.

        rho_j(s) = inflow_j * exp(-mu_j s - P_j max(s - tau_j, 0)); it
        integrates to the permanent pool N_j p_j.
        """
        j = _level_index(self.spec, level)
        s = np.asarray(s, dtype=float)
        excess = np.maximum(s - self.spec.tau[j], 0.0)
        return self.inflow[j] * np.exp(-self.spec.mu[j] * s
                                       - self.promotion_rate[j] * excess)


def stationary_state(spec: OrgSpec, plan: FlexPlan | None = None) -> SteadyState:
    """Assemble the stationary profile, or raise IllPosedError.

    Ill-posed means a pool A_j at or below its empty floor 1e-12 max(N_j, 1)
    while the flux C_{j+1} demanded from it is positive, or a pool so small
    that the rate C_{j+1} / A_j overflows; the exception lists every such
    level. A level facing no demand gets P_j = 0, whatever its pool.
    """
    if plan is None:
        plan = FlexPlan.all_internal(spec.size)
    plan.check(spec)
    c, pools, ill = stationary_pools(spec, plan)
    rate = _promotion_rates(c, pools, ill)
    inflow = spec.mu * spec.n * plan.p + c[1:]
    return SteadyState(
        spec=spec,
        plan=plan,
        pool=pools,
        promotion_rate=rate,
        inflow=inflow,
        demands=c,
    )


@dataclass
class InitialConditionReport:
    """Worst-case pool margins for a starting density, per level.

    margin[j] is the minimum over the sampled window of the promotable
    pool the transported data would produce; holds[j] says it stayed above
    the empty floor, so promotion rates remain finite for all time.
    """

    margins: np.ndarray
    holds: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.holds))


def check_initial_condition(spec: OrgSpec, plan: FlexPlan,
                            rho0: Sequence[Callable[[np.ndarray], np.ndarray]]
                            ) -> InitialConditionReport:
    """Check that starting densities keep every pool above its empty floor.

    Before the first cohort of new entrants reaches the eligibility age,
    the pool at time t is driven by the transported initial data:

        A_j(t) = N_j p_j - e^{-mu_j t} int_0^{tau_j - t} rho0_j(u) du
                 - (1 - e^{-mu_j t}) (mu_j N_j p_j + C_{j+1}) / mu_j,

    and staying above the floor on [0, tau_j] guarantees it for all time.
    The margin is evaluated on 101 uniformly spaced points. Callables must
    accept numpy arrays. Raises MassMismatchError when a density's
    integral misses its permanent pool N_j p_j by more than 1e-3 relative.
    """
    if len(rho0) != spec.size:
        raise ValueError(f"expected {spec.size} densities, got {len(rho0)}")
    c = promotion_demands(spec, plan)
    margins = np.zeros(spec.size)
    for j in range(spec.size):
        mass_goal = spec.n[j] * plan.p[j]
        span = spec.tau[j] + 40.0 / spec.mu[j]
        grid = np.linspace(0.0, span, 8001)
        values = np.asarray(rho0[j](grid), dtype=float)
        mass = float(np.trapezoid(values, grid))
        if mass_goal > 0 and abs(mass - mass_goal) > 1e-3 * mass_goal:
            raise MassMismatchError(
                f"level {j + 1}: initial density integrates to {mass:.6g}, "
                f"expected {mass_goal:.6g}"
            )
        tau = spec.tau[j]
        if tau <= 0.0:
            margins[j] = mass_goal
            continue
        # cumulative integral of rho0 on a fine [0, tau] grid
        fine = np.linspace(0.0, tau, 4001)
        dens = np.asarray(rho0[j](fine), dtype=float)
        cum = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5
                                               * np.diff(fine))))
        times = np.linspace(0.0, tau, 101)
        carried = np.interp(tau - times, fine, cum)
        inflow = spec.mu[j] * mass_goal + c[j + 1]
        filled = -np.expm1(-spec.mu[j] * times)
        lhs = np.exp(-spec.mu[j] * times) * carried + filled * inflow / spec.mu[j]
        margins[j] = float(np.min(mass_goal - lhs))
    return InitialConditionReport(margins=margins,
                                  holds=margins > _empty_floor(spec))
