"""Transient simulation of the seniority densities.

The hierarchy's permanent staff evolves by aging (transport in s at unit
speed), attrition, and promotion of workers past the eligibility age. The
solver discretizes each level's density on a common seniority grid with an
upwind step that treats advection explicitly and the decay terms
implicitly:

    (rho^{k+1}_i - rho^k_i)/dt + (rho^k_i - rho^k_{i-1})/ds
        + (mu + P) rho^{k+1}_i = P 1_{s_i <= tau} rho^k_i,   i >= 1,

with a ghost boundary value chosen so the discrete mass ds * sum_i rho_i
is restored to the level's permanent headcount every step:

    rho^k_0 = (mu + P) M - P ds sum_{0 < s_i <= tau} rho^k_i
            = mu M + P A^k,

where A^k = M - ds sum_{0 < s_i <= tau} rho^k_i is the promotable pool the
policy closure has just computed from the same density.

Stability needs only the advection CFL condition dt <= ds; the decay terms
are unconditionally damped, and all update weights stay nonnegative, so
positivity is preserved. Summing the update telescopes the advection term
and restores the mass exactly, up to the outflow dt * rho^k_last through
the truncated end of the grid (negligible whenever the grid extends a few
decay lengths past the eligibility ages).

Promotion rates are closed after every step by a backward sweep over
levels (Eq. balance: hiring + promotions in = attrition + promotions out),
either maximizing internal promotion or imposing an external-hiring
fraction, both capped at a promotion-rate ceiling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .org import (
    FlexPlan,
    IllPosedError,
    OrgSpec,
    ill_posed,
    promotion_demands,
    stationary_state,
)

__all__ = [
    "SeniorityGrid",
    "PolicyState",
    "SimulationResult",
    "CflViolationError",
    "InfeasibleInitialDataError",
    "discrete_pools",
    "discrete_stationary_density",
    "make_initial_density",
    "step",
    "close_policy_external_fraction",
    "run",
    "level_metrics",
    "write_trajectory_csv",
    "write_snapshot_csv",
    "DEFAULT_PROMOTION_CAP",
]

# promotion-rate ceiling applied when none is given
DEFAULT_PROMOTION_CAP = 5.0

# a pool below this fraction of the level mass counts as empty
_POOL_EPS = 1e-12


class CflViolationError(ValueError):
    """Time step exceeds the seniority step (unstable advection)."""


class InfeasibleInitialDataError(ValueError):
    """Initial densities leave no promotable staff where promotions are needed."""


@dataclass(frozen=True)
class SeniorityGrid:
    """Uniform seniority grid shared by all levels.

    Nodes sit at s_i = i * ds for i = 1..n_nodes; index 0 is the ghost
    boundary value and never stored. The advection step requires dt <= ds.
    The grid should extend a few decay lengths past the largest
    eligibility age so the truncated tail carries no visible mass.
    """

    ds: float = 0.05
    dt: float = 0.05
    s_max: float = 50.0

    def __post_init__(self):
        if self.ds <= 0 or self.dt <= 0:
            raise ValueError("ds and dt must be positive")
        if self.dt > self.ds * (1 + 1e-12):
            raise CflViolationError(
                f"dt = {self.dt} exceeds ds = {self.ds}; the explicit "
                "advection step needs dt <= ds"
            )
        if self.s_max < 2 * self.ds:
            raise ValueError("s_max must cover at least two nodes")

    @property
    def n_nodes(self) -> int:
        return int(round(self.s_max / self.ds))

    @cached_property
    def s(self) -> np.ndarray:
        return self.ds * np.arange(1, self.n_nodes + 1)

    def eligibility_index(self, tau) -> np.ndarray:
        """Number of nodes with s_i <= tau (nodes still below eligibility),
        elementwise over an array of ages.

        The node sitting exactly at tau counts as pre-eligibility; a small
        relative slack keeps that true under float division.
        """
        cut = np.floor(np.asarray(tau, dtype=float) / self.ds + 1e-9)
        return np.minimum(self.n_nodes, cut.astype(int))

    def pre_eligibility_mask(self, spec: OrgSpec) -> np.ndarray:
        idx = np.arange(1, self.n_nodes + 1)
        return idx[np.newaxis, :] <= self.eligibility_index(spec.tau)[:, np.newaxis]


@dataclass
class PolicyState:
    """Per-level promotion and hiring rates closing the balance law.

    promotion  P_j per year, applied to the promotable pool; top level 0
    hiring     h_j per year, external inflow relative to the level mass
    shortfall  delta_j >= 0, the hiring beyond the imposed external
               fraction, needed when the promotion cap binds
    pool       discrete promotable mass A_j used by the closure
    empty      pools the closure treats as empty, A_j <= 1e-12 max(M_j, 1):
               no promotion flow is drawn from them, and level_metrics
               reports no excess wait there
    pre        (L, n_nodes) mask of the nodes still below eligibility,
               s_i <= tau_j, from which the pools were computed; step and
               level_metrics read it instead of rebuilding it
    cap        the promotion-rate ceiling in force
    """

    promotion: np.ndarray
    hiring: np.ndarray
    shortfall: np.ndarray
    pool: np.ndarray
    empty: np.ndarray
    pre: np.ndarray
    cap: float

    def balance_residual(self, spec: OrgSpec, masses: np.ndarray) -> np.ndarray:
        """h_j M_j + P_{j-1} A_{j-1} - mu_j M_j - P_j A_j, per level."""
        promoted_in = np.concatenate(
            ([0.0], self.promotion[:-1] * self.pool[:-1]))
        return (self.hiring * masses + promoted_in
                - spec.mu * masses - self.promotion * self.pool)


def discrete_pools(density: np.ndarray, spec: OrgSpec, grid: SeniorityGrid,
                   masses: np.ndarray) -> np.ndarray:
    """Promotable mass per level: A_j = M_j - ds * sum_{s_i <= tau_j} rho."""
    pre = grid.pre_eligibility_mask(spec)
    return masses - grid.ds * np.sum(density * pre, axis=1)


def close_policy_external_fraction(density: np.ndarray, spec: OrgSpec,
                                   grid: SeniorityGrid,
                                   cap: float = DEFAULT_PROMOTION_CAP,
                                   alpha_frac=0.0,
                                   masses: np.ndarray | None = None
                                   ) -> PolicyState:
    """Close promotion and hiring rates, imposing an external-hiring share.

    Sweeps levels from the top down with the top promotion rate fixed at
    zero. Level j's replacement demand X_j = mu_j M_j + P_j A_j is met by
    promoting from below at

        P_{j-1} = min(cap, X_j / ((1 + alpha_frac_j) A_{j-1})),

    so external hires cover the fraction alpha_frac_j of internal
    promotions when the cap is slack; when it binds (or the pool below is
    empty), shortfall hiring delta_j makes up the difference. alpha_frac
    may be a scalar or one value per level: the j-th entry is the external
    fraction of the promotions into level j, so the first entry, for the
    bottom level that nobody is promoted into, is ignored. With
    alpha_frac = 0 this is exactly the maximize-internal-promotion rule.
    An empty pool below a positive demand forces the cap (or zero when the
    cap is infinite) with hiring absorbing the whole demand.
    """
    size = spec.size
    if masses is None:
        masses = spec.n.copy()
    frac = np.broadcast_to(np.asarray(alpha_frac, dtype=float), (size,))
    if np.any(frac < 0):
        raise ValueError("external fractions must be nonnegative")
    if cap <= 0:
        raise ValueError("promotion cap must be positive")
    pre = grid.pre_eligibility_mask(spec)
    pools = masses - grid.ds * np.sum(density * pre, axis=1)
    empty = pools <= _POOL_EPS * np.maximum(masses, 1.0)
    promotion = np.zeros(size)
    hiring = np.zeros(size)
    shortfall = np.zeros(size)
    for j in range(size - 1, -1, -1):
        demand = spec.mu[j] * masses[j] + promotion[j] * pools[j]
        if j > 0:
            below = pools[j - 1]
            if empty[j - 1]:
                promotion[j - 1] = cap if math.isfinite(cap) else 0.0
                below = max(below, 0.0)
            else:
                promotion[j - 1] = min(cap, demand / ((1.0 + frac[j]) * below))
            promoted = promotion[j - 1] * below
        else:
            promoted = 0.0
        external = max(demand - promoted, 0.0)
        if masses[j] > 0.0:
            hiring[j] = external / masses[j]
            imposed = frac[j] * promoted if j > 0 else 0.0
            shortfall[j] = max(external - imposed, 0.0) / masses[j]
    return PolicyState(promotion=promotion, hiring=hiring,
                       shortfall=shortfall, pool=pools, empty=empty, pre=pre,
                       cap=cap)


def step(density: np.ndarray, spec: OrgSpec, grid: SeniorityGrid,
         policy: PolicyState, masses: np.ndarray) -> np.ndarray:
    """Advance every level by one time step.

    Explicit upwind advection, implicit attrition and promotion decay,
    with the promotion source active below the eligibility age and the
    ghost boundary value rho_0 = mu M + P A restoring each level's discrete
    mass (see module docstring). Levels are uncoupled within a step; they
    interact only through the policy closure between steps.

    policy must be the closure of this same density with these masses (as
    run() calls it): its pool A is the promotable mass the ghost value
    needs, and its pre mask marks where the promotion source acts.
    """
    lam = grid.dt / grid.ds
    mu = spec.mu[:, np.newaxis]
    rate = policy.promotion[:, np.newaxis]
    upwind = np.empty_like(density)
    upwind[:, 0] = spec.mu * masses + policy.promotion * policy.pool
    upwind[:, 1:] = density[:, :-1]
    numer = (density - lam * (density - upwind)
             + grid.dt * rate * policy.pre * density)
    return numer / (1.0 + grid.dt * (mu + rate))


def discrete_stationary_density(spec: OrgSpec, plan: FlexPlan,
                                grid: SeniorityGrid
                                ) -> tuple[np.ndarray, np.ndarray]:
    """The scheme's exact fixed point under the plan's promotion demands.

    Node values decay geometrically with ratio 1/(1 + mu ds) below the
    eligibility age and 1/(1 + (mu + P) ds) above it, the discrete
    counterparts of the continuum exponentials. The promotion rates solve
    the closure self-consistently: with E_d the pre-eligibility decay
    factor and X = C_{j+1} the demanded flux,

        A_j = ((mu_j M_j + X) E_d - X) / mu_j,    P_j = X / A_j,

    mirroring the continuum pool formula with E_d in place of
    e^{-mu tau}. Returns (density, promotion_rates); raises IllPosedError
    when a needed pool comes out non-positive. The top level (and any
    level without demand from above) is a plain geometric profile.
    """
    masses = spec.n * plan.p
    c = promotion_demands(spec, plan)
    cuts = grid.eligibility_index(spec.tau)
    decay_pre = (1.0 + spec.mu * grid.ds) ** -cuts
    pools = ((spec.mu * masses + c[1:]) * decay_pre - c[1:]) / spec.mu
    IllPosedError.check(pools, ill_posed(pools, c))
    rates = np.zeros(spec.size)
    np.divide(c[1:], pools, out=rates, where=c[1:] > 0.0)
    # one row per level; an empty level has zero inflow, hence a zero row
    mu, n_tau = spec.mu[:, np.newaxis], cuts[:, np.newaxis]
    inflow = mu * masses[:, np.newaxis] + c[1:, np.newaxis]
    a = 1.0 / (1.0 + mu * grid.ds)
    b = 1.0 / (1.0 + (mu + rates[:, np.newaxis]) * grid.ds)
    i = np.arange(1, grid.n_nodes + 1)
    density = np.where(
        i <= n_tau,
        inflow * a ** i,
        inflow * a ** n_tau * b ** np.maximum(i - n_tau, 0),
    )
    # park the truncated tail mass on the final node to keep the discrete
    # constraint exact; a rounding-level surplus is rescaled away instead
    # so the profile never dips below zero
    held = grid.ds * density.sum(axis=1)
    short = held <= masses
    density[short, -1] += (masses[short] - held[short]) / grid.ds
    density[~short] *= (masses[~short] / held[~short])[:, np.newaxis]
    return density, rates


def make_initial_density(spec: OrgSpec, plan: FlexPlan | None,
                         grid: SeniorityGrid,
                         kind: str = "uniform") -> np.ndarray:
    """Build starting densities with exact discrete masses N_j p_j.

    kinds:
      stationary             the scheme's own fixed point (see
                             discrete_stationary_density)
      uniform                flat on [0, 2 tau_j] (on [0, 1/mu_j] where
                             tau_j = 0), the support's edge node absorbing
                             the rounding remainder
      truncated-exponential  exp(-mu_j s) over the whole grid, rescaled

    Raises InfeasibleInitialDataError when a level ends up with an empty
    promotable pool while the plan demands promotions from it.
    """
    if plan is None:
        plan = FlexPlan.all_internal(spec.size)
    if grid.s_max <= float(np.max(spec.tau)):
        raise InfeasibleInitialDataError(
            f"grid reaches {grid.s_max} years but eligibility ages go up "
            f"to {float(np.max(spec.tau))}"
        )
    masses = spec.n * plan.p
    if kind == "stationary":
        density, _ = discrete_stationary_density(spec, plan, grid)
    elif kind == "uniform":
        width = np.where(spec.tau > 0, 2.0 * spec.tau, 1.0 / spec.mu)
        edge = np.maximum(1, grid.eligibility_index(np.minimum(width, grid.s_max)))
        idx = np.arange(1, grid.n_nodes + 1)
        density = np.where(idx <= edge[:, np.newaxis],
                           (masses / (grid.ds * edge))[:, np.newaxis], 0.0)
        deficit = masses - grid.ds * density.sum(axis=1)
        density[np.arange(spec.size), edge - 1] += deficit / grid.ds
    elif kind == "truncated-exponential":
        profile = np.exp(-spec.mu[:, np.newaxis] * grid.s)
        density = profile * (masses / (grid.ds * profile.sum(axis=1)))[:, np.newaxis]
    else:
        raise ValueError(
            f"unknown initial density kind {kind!r}; expected stationary, "
            "uniform, or truncated-exponential"
        )
    pools = discrete_pools(density, spec, grid, masses)
    starved = [int(j) + 1 for j in np.flatnonzero(
        ill_posed(pools, promotion_demands(spec, plan)))]
    if starved:
        raise InfeasibleInitialDataError(
            "initial data leaves no promotable staff at level"
            f"{'s' if len(starved) > 1 else ''} {starved} although "
            "promotions are demanded from above"
        )
    return density


@dataclass
class SimulationResult:
    """Full trajectory of one simulation.

    All per-step arrays have shape (n_steps + 1, L), row k holding the
    state after k steps (row 0 is the initial state). l1_to_steady is
    measured against the continuum stationary profile matching the run's
    policy (NaN when that profile is ill posed). snapshots maps requested
    times to (L, n_nodes) density copies.
    """

    times: np.ndarray
    density: np.ndarray
    masses: np.ndarray
    promotion: np.ndarray
    hiring: np.ndarray
    shortfall: np.ndarray
    pool: np.ndarray
    ready_ratio: np.ndarray
    excess_wait: np.ndarray
    l1_to_steady: np.ndarray
    mass_error: np.ndarray
    snapshots: dict[float, np.ndarray]
    steady_density: np.ndarray | None
    grid: SeniorityGrid
    policy: str
    cap: float

    @property
    def final_policy(self) -> dict[str, np.ndarray]:
        return {
            "promotion": self.promotion[-1],
            "hiring": self.hiring[-1],
            "shortfall": self.shortfall[-1],
            "pool": self.pool[-1],
        }


def level_metrics(density: np.ndarray, spec: OrgSpec, grid: SeniorityGrid,
                  policy: PolicyState, masses: np.ndarray,
                  steady_density: np.ndarray | None = None) -> dict:
    """Per-level snapshot metrics.

    ready_ratio   promotable share A_j / M_j
    excess_wait   mean seniority past tau_j among promotable staff (years),
                  0 where the closure found the pool empty
    l1_to_steady  ds * sum |rho - steady| / M_j, NaN without a reference
    mass_error    |ds * sum rho - M_j| / M_j
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        ready = np.where(masses > 0, policy.pool / masses, 0.0)
        mass_err = np.abs(grid.ds * np.sum(density, axis=1) - masses)
        mass_err = np.where(masses > 0, mass_err / masses, mass_err)
        if steady_density is None:
            l1 = np.full(spec.size, np.nan)
        else:
            l1 = grid.ds * np.sum(np.abs(density - steady_density), axis=1)
            l1 = np.where(masses > 0, l1 / masses, l1)
    post = ~policy.pre
    excess = grid.s[np.newaxis, :] - spec.tau[:, np.newaxis]
    weighted = grid.ds * np.sum(density * post * excess, axis=1)
    alive = ~policy.empty
    wait = np.zeros(spec.size)
    wait[alive] = weighted[alive] / policy.pool[alive]
    return {
        "ready_ratio": ready,
        "excess_wait": wait,
        "l1_to_steady": l1,
        "mass_error": mass_err,
    }


def _policy_fractions(policy: str, spec: OrgSpec, plan: FlexPlan,
                      external_fraction: float) -> np.ndarray:
    if policy == "max-internal":
        return np.zeros(spec.size)
    if policy == "external-fraction":
        if external_fraction < 0:
            raise ValueError("external_fraction must be nonnegative")
        return np.full(spec.size, float(external_fraction))
    if policy == "fixed-plan":
        frac = np.zeros(spec.size)
        frac[1:] = plan.alpha - 1.0
        return frac
    raise ValueError(
        f"unknown policy {policy!r}; expected max-internal, "
        "external-fraction, or fixed-plan"
    )


def _steady_reference(spec: OrgSpec, plan: FlexPlan, grid: SeniorityGrid,
                      fractions: np.ndarray) -> np.ndarray | None:
    """Continuum stationary profile towards which the run should relax."""
    effective = FlexPlan(alpha=1.0 + fractions[1:], p=plan.p.copy())
    try:
        state = stationary_state(spec, effective)
    except IllPosedError:
        return None
    return np.vstack([state.density(j + 1, grid.s) for j in range(spec.size)])


def run(spec: OrgSpec, plan: FlexPlan | None = None,
        grid: SeniorityGrid | None = None, policy: str = "max-internal",
        horizon: float = 60.0, cap: float = DEFAULT_PROMOTION_CAP,
        external_fraction: float = 0.0, initial: str = "uniform",
        snapshot_times: Sequence[float] = ()) -> SimulationResult:
    """Simulate the hierarchy and record the full policy trajectory.

    policy selects the closure: "max-internal" promotes as much as the cap
    allows, "external-fraction" imposes the same external share at every
    level, and "fixed-plan" imposes per-level shares alpha_j - 1 from the
    plan. The permanent masses N_j p_j stay constant; temporaries sit
    outside the dynamics. horizon = 0 returns the initial state only.
    """
    if plan is None:
        plan = FlexPlan.all_internal(spec.size)
    plan.check(spec)
    if grid is None:
        grid = SeniorityGrid()
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    fractions = _policy_fractions(policy, spec, plan, external_fraction)
    masses = spec.n * plan.p
    density = make_initial_density(spec, plan, grid, kind=initial)
    steady = _steady_reference(spec, plan, grid, fractions)

    n_steps = int(round(horizon / grid.dt))
    times = grid.dt * np.arange(n_steps + 1)
    snap_steps = {int(round(t / grid.dt)) for t in snapshot_times}
    shape = (n_steps + 1, spec.size)
    promotion = np.zeros(shape)
    hiring = np.zeros(shape)
    shortfall = np.zeros(shape)
    pool = np.zeros(shape)
    ready = np.zeros(shape)
    wait = np.zeros(shape)
    l1 = np.zeros(shape)
    mass_err = np.zeros(shape)
    snapshots: dict[float, np.ndarray] = {}

    state = close_policy_external_fraction(density, spec, grid, cap=cap,
                                           alpha_frac=fractions, masses=masses)
    for k in range(n_steps + 1):
        promotion[k] = state.promotion
        hiring[k] = state.hiring
        shortfall[k] = state.shortfall
        pool[k] = state.pool
        m = level_metrics(density, spec, grid, state, masses, steady)
        ready[k] = m["ready_ratio"]
        wait[k] = m["excess_wait"]
        l1[k] = m["l1_to_steady"]
        mass_err[k] = m["mass_error"]
        if k in snap_steps:
            snapshots[float(times[k])] = density.copy()
        if k == n_steps:
            break
        density = step(density, spec, grid, state, masses)
        state = close_policy_external_fraction(density, spec, grid, cap=cap,
                                               alpha_frac=fractions,
                                               masses=masses)
    return SimulationResult(
        times=times, density=density, masses=masses, promotion=promotion,
        hiring=hiring, shortfall=shortfall, pool=pool, ready_ratio=ready,
        excess_wait=wait, l1_to_steady=l1, mass_error=mass_err,
        snapshots=snapshots, steady_density=steady, grid=grid,
        policy=policy, cap=cap,
    )


def write_trajectory_csv(path: str, result: SimulationResult,
                         header_lines: Sequence[str] = ()) -> None:
    """One row per (time, level) with rates, pools, and error metrics."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "level", "promotion_rate", "hiring_rate",
                         "shortfall", "pool", "ready_ratio", "excess_wait",
                         "mass_error"])
        levels = result.masses.size
        for k, t in enumerate(result.times):
            for j in range(levels):
                writer.writerow([
                    f"{t:.6g}", j + 1,
                    f"{result.promotion[k, j]:.8g}",
                    f"{result.hiring[k, j]:.8g}",
                    f"{result.shortfall[k, j]:.8g}",
                    f"{result.pool[k, j]:.8g}",
                    f"{result.ready_ratio[k, j]:.8g}",
                    f"{result.excess_wait[k, j]:.8g}",
                    f"{result.mass_error[k, j]:.3e}",
                ])


def write_snapshot_csv(path: str, result: SimulationResult, time: float,
                       header_lines: Sequence[str] = ()) -> None:
    """Density profile at one recorded snapshot time: s, rho_1..rho_L."""
    key = None
    for t in result.snapshots:
        if abs(t - time) <= 0.5 * result.grid.dt:
            key = t
            break
    if key is None:
        raise KeyError(f"no snapshot recorded at t = {time}")
    density = result.snapshots[key]
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["s"] + [f"rho_{j + 1}" for j in range(density.shape[0])])
        for i, s in enumerate(result.grid.s):
            writer.writerow([f"{s:.6g}"]
                            + [f"{density[j, i]:.8g}" for j in range(density.shape[0])])
