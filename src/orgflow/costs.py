"""Hourly labor cost of a stationary organization.

Permanent workers are paid w_j^0 e^{r s} after s years in level j, so the
permanent wage bill of a level is the integral of its stationary seniority
profile against that curve; it collapses to a closed form. Temporary
workers cost a flat premium wage w_j^t and carry no seniority. Floaters
are permanent generalists shared across business units, paid along their
own seniority curve and never promoted.

The closed form, an independent quadrature oracle for it, optimality
diagnostics for the one- and two-level relaxations of the cost program,
and the floater reduction that turns a mixed business-unit problem into
independent temporary-only problems all live here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._output import fixed, new_csv
from .org import (
    FlexPlan,
    IllPosedError,
    OrgSpec,
    _level_index,
    min_permanent_share,
    promotion_demands,
    stationary_pools,
    steady_promotable_pool,  # noqa: F401  (perfbench wraps costs.* names)
)

__all__ = [
    "CostBreakdown",
    "BusinessUnitPlan",
    "FloaterReduction",
    "Case1Diagnostics",
    "GrowthExceedsAttritionError",
    "MissingFloaterCurveError",
    "ConstantWage",
    "ExponentialWage",
    "PiecewiseLinearWage",
    "cost_quadrature_oracle",
    "org_cost",
    "floater_average_cost",
    "business_unit_cost",
    "reduce_floaters",
    "case1_diagnostics",
    "case2_residuals",
    "write_cost_csv",
    "format_cost_table",
    "format_plan_table",
]


class GrowthExceedsAttritionError(ValueError):
    """Wage growth r >= mu_j: the level's wage bill diverges."""


class MissingFloaterCurveError(ValueError):
    """floater_wage is not set on the requested level."""


@dataclass
class CostBreakdown:
    """Per-level hourly cost split by worker type, in currency/hour."""

    permanent: np.ndarray
    temporary: np.ndarray
    floater: np.ndarray

    @property
    def per_level(self) -> np.ndarray:
        return self.permanent + self.temporary + self.floater

    @property
    def total(self) -> float:
        return float(self.per_level.sum())


def _check_growth(spec: OrgSpec, *levels: int) -> np.ndarray:
    """Check the wage bill's domain at the given levels (all levels when
    none are given) and return the ceiling terms w0_j C_j^no / (mu_j - r)
    of every level, finite at the checked ones.

    Wage growth r must stay below attrition, or the wage integral
    diverges. The ceiling term, with C^no the all-internal demands, must
    be finite: it bounds w0 G / (mu - r) under every plan, so where it
    overflows the bill does too, before its bracket scales it back.
    """
    r = spec.wage_growth
    demand = promotion_demands(spec)[:-1]
    with np.errstate(all="ignore"):  # where r >= mu, checked below
        ceiling = spec.w0 * demand / (spec.mu - r)
    for level in levels or range(1, spec.size + 1):
        mu = spec.mu[level - 1]
        if r >= mu:
            raise GrowthExceedsAttritionError(
                f"level {level}: wage growth {r} must stay below attrition {mu}"
            )
        if not np.isfinite(ceiling[level - 1]):
            j = level - 1
            raise GrowthExceedsAttritionError(
                f"level {level}: the wage bill overflows at attrition {mu}: "
                f"base wage {spec.w0[j]:g} times the level's inflow "
                f"{demand[j]:.6g} (from headcount {spec.n[j]:g} and the "
                f"levels above), over attrition less wage growth {r}, "
                "exceeds the largest float")
    return ceiling


def _wage_terms(spec: OrgSpec, level=slice(None)) -> tuple:
    """The per-level constants of _permanent_wage_bill at the given levels
    (all by default): mu, r, w0, mu - r, e^{-mu tau} and e^{(r - mu) tau}."""
    mu, tau, r = spec.mu[level], spec.tau[level], spec.wage_growth
    return (mu, r, spec.w0[level], mu - r, np.exp(-mu * tau),
            np.exp((r - mu) * tau))


def _permanent_wage_bill(terms: tuple, perm_mass, c_next):
    """Closed-form stationary wage bill of permanent staff, broadcasting
    over levels and any leading axis (business units, plans).

    terms are the level constants of _wage_terms. With inflow
    G = mu N p + C_next, the profile G e^{-mu s - B (s-tau)_+} integrated
    against w0 e^{rs} equals

        (w0 G / (mu - r)) * (1 - mu C_next e^{(r - mu) tau} / D),
        D = (mu - r) G e^{-mu tau} + r C_next,

    a bracket scaled by e^{-mu tau} so that no exponential overflows. Where
    C_next = 0 the bracket is 1, not the 0/0 of an underflowed e^{-mu tau}.
    """
    mu, r, w0, gap, decay, boost = terms
    inflow = mu * perm_mass + c_next
    denom = gap * inflow * decay + r * c_next
    bracket = 1.0 - (mu * c_next * boost / np.where(c_next > 0.0, denom, 1.0))
    return w0 * inflow / gap * bracket


def _temporary_bill(spec: OrgSpec, p: np.ndarray, level=slice(None)):
    """Temporary wage bill (1 - p_j) N_j w_j^t of the given levels (all by
    default), broadcasting over any leading axis of p (plans).

    spec.wt is touched only when some share is below 1, so plans without
    temporaries are costed on a spec that sets no temp wages.
    """
    p = p[..., level]
    temps = p < 1.0
    if not temps.any():
        return np.zeros(p.shape)
    return np.where(temps, (1.0 - p) * spec.n[level] * spec.wt[level], 0.0)


def cost_quadrature_oracle(spec: OrgSpec, plan: FlexPlan, level: int) -> float:
    """Level cost by direct numerical integration of the wage integral.

    Deliberately avoids the closed form: builds the stationary profile,
    integrates it against w0 e^{rs} with composite Simpson split at the
    eligibility age, and adds the analytic exponential tail beyond the
    truncation point. Serves as an independent check of org_cost's
    per-level costs.
    """
    j = _level_index(spec, level)
    mu, tau, r, w0 = spec.mu[j], spec.tau[j], spec.wage_growth, spec.w0[j]
    _check_growth(spec, level)
    c, pools, ill = stationary_pools(spec, plan)
    perm_mass = spec.n[j] * plan.p[j]
    inflow = mu * perm_mass + c[j + 1]
    if inflow <= 0.0:
        return float(_temporary_bill(spec, plan.p, j))
    if ill[j]:
        raise IllPosedError([level], [pools[j]])
    extra_decay = c[j + 1] / pools[j] if c[j + 1] > 0.0 else 0.0
    total = 0.0
    if tau > 0.0:
        s_head = np.linspace(0.0, tau, 801)
        head = inflow * w0 * np.exp((r - mu) * s_head)
        total += _simpson(head, s_head)
    # beyond tau the decay rate is mu + B - r; cut where 40 e-foldings passed
    rate = mu + extra_decay - r
    s_cut = tau + 40.0 / rate
    s_tail = np.linspace(tau, s_cut, 4001)
    tail = inflow * w0 * np.exp((r - mu) * s_tail - extra_decay * (s_tail - tau))
    total += _simpson(tail, s_tail)
    total += tail[-1] / rate  # analytic remainder of the pure exponential
    return float(_temporary_bill(spec, plan.p, j)) + total


def _simpson(values: np.ndarray, grid: np.ndarray) -> float:
    # composite Simpson on a uniform grid with an even interval count
    h = grid[1] - grid[0]
    return float(h / 3.0 * (values[0] + values[-1]
                            + 4.0 * np.sum(values[1:-1:2])
                            + 2.0 * np.sum(values[2:-1:2])))


def org_cost(spec: OrgSpec, plan: FlexPlan | None = None) -> CostBreakdown:
    """Hourly cost of the whole organization, split by worker type.

    Per level, the temporary bill plus the closed-form permanent bill;
    fails with IllPosedError listing every ill-posed level (see
    stationary_pools) and with GrowthExceedsAttritionError outside the
    wage bill's domain (see _check_growth). Floater costs are zero here;
    they enter through business_unit_cost.
    """
    if plan is None:
        plan = FlexPlan.all_internal(spec.size)
    plan.check(spec)
    _check_growth(spec)
    c, pools, ill = stationary_pools(spec, plan)
    IllPosedError.check(pools, ill)
    perm = _permanent_wage_bill(_wage_terms(spec), spec.n * plan.p, c[1:])
    return CostBreakdown(permanent=perm,
                         temporary=_temporary_bill(spec, plan.p),
                         floater=np.zeros(spec.size))


# ---------------------------------------------------------------------------
# floater wage curves


@dataclass
class ConstantWage:
    """Flat floater wage, currency per hour."""

    value: float

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(s, dtype=float), self.value)

    def laplace(self, mu: float) -> float:
        """int_0^inf w(s) e^{-mu s} ds."""
        return self.value / mu


@dataclass
class ExponentialWage:
    """Floater wage base * e^{growth * s}; growth must stay below attrition."""

    base: float
    growth: float

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.base * np.exp(self.growth * np.asarray(s, dtype=float))

    def laplace(self, mu: float) -> float:
        """int_0^inf w(s) e^{-mu s} ds; infinite unless growth < mu."""
        if self.growth >= mu:
            return math.inf
        return self.base / (mu - self.growth)


@dataclass
class PiecewiseLinearWage:
    """Linear interpolation through (seniority, wage) knots.

    Beyond the last knot the wage is held at its final value; before the
    first knot it is held at the initial value.
    """

    knots: Sequence[float]
    values: Sequence[float]

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.knots.size != self.values.size or self.knots.size < 2:
            raise ValueError("need matching knot and value arrays, length >= 2")
        if np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(s, dtype=float), self.knots, self.values)

    def laplace(self, mu: float) -> float:
        """int_0^inf w(s) e^{-mu s} ds in closed form.

        w' is the slope m_i on each segment [a_i, b_i] (knots clipped to
        [0, inf)) and 0 outside, so integrating by parts gives

            w(0)/mu + sum_i m_i (e^{-mu a_i} - e^{-mu b_i}) / mu^2.

        With m_i = dv_i / dk_i (dk_i the unclipped knot gap), each ramp is
        written as dv_i (c_i / dk_i) e^{-mu a_i} h(mu c_i) / mu, where
        c_i = b_i - a_i and h(x) = -expm1(-x)/x with h(0) = 1: short
        segments lose no digits to cancellation, and a near-zero knot gap
        never divides a wage step.
        """
        a = np.maximum(self.knots[:-1], 0.0)
        b = np.maximum(self.knots[1:], 0.0)
        x = mu * (b - a)
        h = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0.0)
        ramps = (np.diff(self.values) * ((b - a) / np.diff(self.knots))
                 * np.exp(-mu * a) * h)
        return float((self(0.0) + ramps.sum()) / mu)


def floater_average_cost(spec: OrgSpec, level: int) -> float:
    """Seniority-discounted floater wage integral w^{fa} of one level.

    Computes int_0^inf w^{float}(s) e^{-mu_j s} ds in closed form, through
    the level's wage curve (its laplace method). Note the integral is taken
    exactly in this unnormalized form, so its value carries a factor 1/mu_j
    relative to a per-head average wage.
    """
    j = _level_index(spec, level)
    curve = spec.levels[j].floater_wage
    if curve is None:
        raise MissingFloaterCurveError(f"level {level} has no floater wage curve")
    value = curve.laplace(spec.mu[j])
    if not math.isfinite(value):
        raise GrowthExceedsAttritionError(
            f"level {level}: floater wage {curve} must grow slower than "
            f"attrition {spec.mu[j]}"
        )
    return value


# ---------------------------------------------------------------------------
# business units and floaters


@dataclass
class BusinessUnitPlan:
    """Staffing mix of K business units sharing one level structure.

    headcounts       (K, L) per-unit headcounts N_j^k, summing over units
                     to the organization's level headcounts
    permanent_share  (K, L) p_j^k
    floater_share    (K, L) g_j^k, with p + g <= 1 pointwise; the
                     remainder 1 - p - g is temporary
    temp_wage        optional (K, L) per-unit temporary wages; defaults to
                     the organization's per-level temp wages

    Promotions happen within a unit, so each unit behaves as an
    independent organization with a pure-internal hiring plan.
    """

    headcounts: np.ndarray
    permanent_share: np.ndarray
    floater_share: np.ndarray
    temp_wage: np.ndarray | None = None

    def __post_init__(self):
        self.headcounts = np.atleast_2d(np.asarray(self.headcounts, dtype=float))
        self.permanent_share = np.atleast_2d(
            np.asarray(self.permanent_share, dtype=float))
        self.floater_share = np.atleast_2d(
            np.asarray(self.floater_share, dtype=float))
        if self.temp_wage is not None:
            self.temp_wage = np.atleast_2d(np.asarray(self.temp_wage, dtype=float))

    @property
    def units(self) -> int:
        return self.headcounts.shape[0]

    def check(self, spec: OrgSpec) -> "BusinessUnitPlan":
        shape = (self.units, spec.size)
        for name, arr in (("headcounts", self.headcounts),
                          ("permanent_share", self.permanent_share),
                          ("floater_share", self.floater_share)):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        if self.temp_wage is not None and self.temp_wage.shape != shape:
            raise ValueError(f"temp_wage must have shape {shape}")
        if np.any(self.headcounts < 0):
            raise ValueError("unit headcounts must be nonnegative")
        if not np.allclose(self.headcounts.sum(axis=0), spec.n, rtol=1e-9):
            raise ValueError("unit headcounts do not sum to the level headcounts")
        bad = (self.permanent_share < 0) | (self.floater_share < 0) \
            | (self.permanent_share + self.floater_share > 1.0 + 1e-12)
        if np.any(bad):
            raise ValueError("need 0 <= p, 0 <= g, p + g <= 1 in every cell")
        return self

    def resolved_temp_wage(self, spec: OrgSpec) -> np.ndarray:
        if self.temp_wage is not None:
            return self.temp_wage
        return np.broadcast_to(spec.wt, (self.units, spec.size)).copy()


def business_unit_cost(spec: OrgSpec, bu_plan: BusinessUnitPlan) -> CostBreakdown:
    """Hourly cost of a K-unit organization with floaters.

    Per unit and level: temporary staff at the unit's temp wage, floaters
    at the level's seniority-discounted wage integral, and the permanent
    wage bill of the unit's own stationary profile (units promote
    internally, so each is costed as an independent organization whose
    permanent mass is N_j^k p_j^k). Only levels where some unit holds
    floaters need a floater wage curve. Fails with IllPosedError when any
    unit is ill posed, and with GrowthExceedsAttritionError when wage
    growth reaches any level's attrition.
    """
    bu_plan.check(spec)
    _check_growth(spec)
    wt = bu_plan.resolved_temp_wage(spec)
    heads, p, g = (bu_plan.headcounts, bu_plan.permanent_share,
                   bu_plan.floater_share)
    # wage curves are only needed at levels where some unit deploys floaters
    wfa = np.zeros(spec.size)
    for j in np.flatnonzero((g > 0.0).any(axis=0)):
        wfa[j] = floater_average_cost(spec, j + 1)
    internal = FlexPlan(alpha=np.ones(spec.size - 1), p=p)
    c, pools, ill = stationary_pools(spec, internal, heads)
    IllPosedError.check(pools, ill)
    perm = _permanent_wage_bill(_wage_terms(spec), heads * p, c[:, 1:])
    temp = heads * np.maximum(1.0 - p - g, 0.0) * wt
    return CostBreakdown(permanent=perm.sum(axis=0), temporary=temp.sum(axis=0),
                         floater=(heads * g * wfa).sum(axis=0))


@dataclass
class FloaterReduction:
    """Outcome of minimizing over floater shares for fixed permanent shares.

    The flexible part of each (unit, level) cell goes entirely to whichever
    of the temporary wage and the discounted floater wage is cheaper, so
    the mixed problem collapses to independent temporary-only unit
    problems priced at the effective wage min(w^t, w^{fa}). units holds
    that temporary-only plan; floater_share the optimal floater shares.
    """

    spec: OrgSpec
    units: BusinessUnitPlan
    floater_share: np.ndarray

    def total_cost(self) -> float:
        return business_unit_cost(self.spec, self.units).total


def reduce_floaters(spec: OrgSpec, bu_plan: BusinessUnitPlan) -> FloaterReduction:
    """Collapse floater shares to their per-cell optimum.

    For fixed permanent shares the cost is linear in each floater share
    g_j^k on [0, 1 - p_j^k], so the optimum sits at an endpoint: all
    flexible staff become floaters where the discounted floater wage
    undercuts the temporary wage, and none otherwise. Returns the
    equivalent temporary-only problem.
    """
    bu_plan.check(spec)
    wt = bu_plan.resolved_temp_wage(spec)
    wfa = np.array([floater_average_cost(spec, j + 1)
                    for j in range(spec.size)])
    flexible = 1.0 - bu_plan.permanent_share
    units = BusinessUnitPlan(
        headcounts=bu_plan.headcounts.copy(),
        permanent_share=bu_plan.permanent_share.copy(),
        floater_share=np.zeros_like(flexible),
        temp_wage=np.minimum(wt, wfa[np.newaxis, :]))
    return FloaterReduction(
        spec=spec, units=units,
        floater_share=np.where(wfa[np.newaxis, :] < wt, flexible, 0.0))


# ---------------------------------------------------------------------------
# optimality diagnostics for the one- and two-level relaxations


@dataclass
class Case1Diagnostics:
    """Optimality picture when only the bottom level uses temporaries.

    first_derivative / second_derivative are d Cost_1 / d p_1 and its
    second derivative at the plan's p_1. p_opt is the exact minimizer of
    Cost_1 over [p_min, 1] and regime classifies it: "min-share" when the
    temporary wage is low enough to pin p_1 at its feasibility floor,
    "all-permanent" when it is too high to ever pay off, and "interior"
    between the two.
    """

    first_derivative: float
    second_derivative: float
    p_opt: float
    regime: str
    p_min: float


def _case1_pieces(spec: OrgSpec, plan: FlexPlan):
    """Level 1's wage terms (see _wage_terms), the demands C, its inflow G
    and the wage bill's denominator D."""
    terms = _wage_terms(spec, 0)
    mu, r, _, gap, decay, _ = terms
    c = promotion_demands(spec, plan)
    # alpha_1 C_1 = mu_1 N_1 p_1 + C_2 regardless of the level-1 convention
    inflow = mu * spec.n[0] * plan.p[0] + c[1]
    # D = (mu - r) G + r C_2 e^{mu tau}, scaled by e^{-mu tau} as in the
    # wage bill so that no exponential overflows
    denom = gap * inflow * decay + r * c[1]
    return terms, c, inflow, denom


def case1_diagnostics(spec: OrgSpec, plan: FlexPlan) -> Case1Diagnostics:
    """Derivatives and the exact minimizer of Cost_1 in the one-level case.

    Requires p_2..p_L = 1. The first derivative is

        N_1 (-w^t + (w0 mu / (mu - r)) (1 - r mu C_2^2 e^{(r-mu) tau} / D^2)),
        D = (mu - r)(mu N_1 p_1 + C_2) e^{-mu tau} + r C_2,

    strictly increasing in p_1, so Cost_1 is strictly convex and the root
    of the derivative (clamped to [p_min, 1]) is the unique minimizer;
    it is solved in closed form by inverting D at the critical value.
    """
    plan.check(spec)
    if spec.size > 1 and not np.all(plan.p[1:] == 1.0):
        raise ValueError("one-level diagnostics need p_2..p_L = 1")
    _check_growth(spec, 1)
    (mu, r, w0, gap, decay, boost), c, _, denom = _case1_pieces(spec, plan)
    n1, c2, wt1 = spec.n[0], c[1], spec.wt[0]
    p_min = min_permanent_share(spec, plan)[0] if spec.size > 1 else 0.0

    def slack(p1: float) -> float:
        # r mu C2^2 e^{(r-mu)tau} / D(p1)^2, decreasing in p1; 0, not 0/0,
        # without demand from level 2
        d = gap * (mu * n1 * p1 + c2) * decay + r * c2
        return r * mu * c2 * c2 * boost / d ** 2 if c2 > 0.0 else 0.0

    first = n1 * (-wt1 + w0 * mu / gap * (1.0 - slack(plan.p[0])))
    # d slack / d p_1 = -2 slack (mu - r) mu N_1 e^{-mu tau} / D
    second = (2.0 * n1 * n1 * w0 * mu * mu * decay * slack(plan.p[0]) / denom
              if c2 > 0.0 else 0.0)
    critical = 1.0 - gap * wt1 / (w0 * mu)
    if c2 == 0.0 or r == 0.0:
        # derivative is constant in p_1: sign decides an endpoint optimum
        p_opt, regime = ((p_min, "min-share") if critical > 0.0
                         else (1.0, "all-permanent"))
    elif critical >= slack(p_min):
        p_opt, regime = p_min, "min-share"
    elif critical <= slack(1.0):
        p_opt, regime = 1.0, "all-permanent"
    else:
        d_star = math.sqrt(r * mu * c2 * c2 * boost / critical)
        p_opt = ((d_star - r * c2) / (gap * decay) - c2) / (mu * n1)
        regime = "interior"
    return Case1Diagnostics(first_derivative=first, second_derivative=second,
                            p_opt=p_opt, regime=regime, p_min=p_min)


def case2_residuals(spec: OrgSpec, plan: FlexPlan) -> tuple[float, float]:
    """Stationarity residuals when the two bottom levels use temporaries.

    Requires p_3..p_L = 1. Returns the two first-order conditions in
    (p_1, p_2) as relative residuals (lhs - rhs) / max(|lhs|, |rhs|); both
    vanish exactly at a critical point of the total cost. The second
    relation assumes the hiring ratio at level 2 is held at 1 while p_2
    varies; with larger ratios it is a fixed-flux variant of the true
    stationarity condition.
    """
    plan.check(spec)
    if spec.size < 2:
        raise ValueError("two-level diagnostics need at least two levels")
    if spec.size > 2 and not np.all(plan.p[2:] == 1.0):
        raise ValueError("two-level diagnostics need p_3..p_L = 1")
    _check_growth(spec, 1, 2)
    (mu, r, w0, gap, _, boost1), c, inflow1, denom1 = _case1_pieces(spec, plan)
    n1, c2, c3 = spec.n[0], c[1], c[2]
    lhs1 = gap * n1 * spec.wt[0]
    rhs1 = w0 * mu * n1 * (1.0 - r * mu * c2 * c2 * boost1 / denom1 ** 2)
    r1 = (lhs1 - rhs1) / max(abs(lhs1), abs(rhs1))

    if inflow1 <= 0.0:
        raise ValueError("two-level diagnostics need permanent staff at level 1")
    mu2, _, w02, gap2, decay2, boost2 = _wage_terms(spec, 1)
    n2, alpha2 = spec.n[1], plan.alpha[0]
    level1 = (w0 / gap) * (
        -mu * inflow1 * boost1 / denom1
        + inflow1 * mu * c2 * boost1 * r / denom1 ** 2
    )
    if c3 > 0.0:
        # scaled by e^{-mu_2 tau_2} like the level-1 denominator
        denom2 = gap2 * alpha2 * c2 * decay2 + r * c3
        bracket2 = (1.0 - mu2 * c3 * boost2 / denom2
                    + alpha2 * c2 * gap2 * mu2 * c3 * boost2 * decay2
                    / denom2 ** 2)
    else:
        # no demand from above the second level: only the direct wage term
        bracket2 = 1.0
    level2 = w02 / gap2 * bracket2
    lhs2 = n2 * spec.wt[1]
    rhs2 = mu2 * n2 * (spec.wt[0] / mu + level1 + level2)
    r2 = (lhs2 - rhs2) / max(abs(lhs2), abs(rhs2))
    return r1, r2


# ---------------------------------------------------------------------------
# export


def write_cost_csv(path: str, breakdown: CostBreakdown,
                   header_lines: Sequence[str] = ()) -> None:
    """Write per-level costs as CSV columns level, permanent, temporary,
    floater, total, with a final total row (numbers as _output.fixed
    prints them, with 6 decimals)."""
    with new_csv(path, header_lines) as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "permanent", "temporary", "floater", "total"])
        per = breakdown.per_level
        for j in range(per.size):
            writer.writerow([j + 1,
                             fixed(breakdown.permanent[j], 6),
                             fixed(breakdown.temporary[j], 6),
                             fixed(breakdown.floater[j], 6),
                             fixed(per[j], 6)])
        writer.writerow(["total", "", "", "", fixed(breakdown.total, 6)])


def format_cost_table(breakdown: CostBreakdown) -> str:
    """Plain-text per-level cost table (numbers as _output.fixed prints
    them)."""
    rows = ["level  permanent      temporary      floater        total"]
    per = breakdown.per_level
    for j in range(per.size):
        rows.append(f"{j + 1:>5}  {fixed(breakdown.permanent[j], 2):>13}  "
                    f"{fixed(breakdown.temporary[j], 2):>13}  "
                    f"{fixed(breakdown.floater[j], 2):>13}  "
                    f"{fixed(per[j], 2):>13}")
    rows.append(f"total  {'':13}  {'':13}  {'':13}  "
                f"{fixed(breakdown.total, 2):>13}")
    return "\n".join(rows)


def format_plan_table(label: str, plan: FlexPlan, total: float) -> str:
    """Plain-text table of a staffing plan and its total hourly cost.

    Under the label, a row of hiring ratios (level 1 has none) and a row
    of permanent shares across levels, then the cost in M currency/h (as
    _output.fixed prints it).
    """
    levels = range(1, plan.p.size + 1)
    alpha = ["        -"] + [f"{a:>9.2f}" for a in plan.alpha]
    return "\n".join([
        label,
        "level".ljust(14) + "".join(f"{j:>9}" for j in levels),
        "alpha".ljust(14) + "".join(alpha),
        "perm share".ljust(14) + "".join(f"{p:>9.2f}" for p in plan.p),
        f"total cost    {fixed(total / 1e6, 4)} M/h",
    ]) + "\n"
