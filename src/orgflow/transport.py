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
decay lengths past the eligibility ages). At unit Courant number dt = ds
the advection is an exact shift (LeVeque, Finite Volume Methods for
Hyperbolic Problems, 2002, ch. 4), and step makes it one copy, without the
rounding of rho_i - (rho_i - rho_{i-1}) where neighbours differ by more
than a factor 2.

Promotion rates are closed after every step by a backward sweep over
levels (Eq. balance: hiring + promotions in = attrition + promotions out),
either maximizing internal promotion or imposing an external-hiring
fraction, both capped at a promotion-rate ceiling.

The eligibility cut (the mask 1[s <= tau], its head and the excess-wait
weight (s - tau) 1[s > tau]) depends only on the grid and the eligibility
ages, so run() builds it once for its loop, and each single-state helper
builds its own; the pools and run()'s promotion source read only its head
columns, where some level is still below its cut. Of what a step of run()
computes, only one chain feeds the next step: the pool sums, the
closure's sweep on Python floats (which also yields step's per-level
terms) and the step. The loop runs that chain alone, and step writes each
new head into the next slot of a tape. The metric sums (sum rho,
sum rho (s - tau)+ and, when the run has a stationary reference,
sum |rho - steady|) feed nothing back, so they run once per block of
steps, before a snapshot and after the last step, over the block's
states at once, into rows of the trajectory arrays; one elementwise pass
after the loop turns them into the ratios. numpy sums each row of a block
as it sums one state's row, so no number depends on the block's length.
The excess-wait numerator sum rho (s - tau)+ is one BLAS dot product per
level row, summed in the BLAS's blocked order: deterministic for a given
BLAS build and thread count, and within n eps relative of the exact sum.
sum rho and sum |rho - steady| stay numpy's pairwise sums.
close_policy_external_fraction and level_metrics apply the same kernels
to one state.

run() keeps the densities as a delay line: a head that step updates and
a tail past it. At dt = ds the head is the cut head; no node past it has
a source term, so a step moves each of them one node on, divided by its
level's divisor 1 + dt (mu + P). The tail is stored in per-level scaled
units, rho = S u, in a ring: a step moves the tail one column, divides S
by the divisor and converts only the column entering the tail, and step
computes only the head and that column. The head keeps the upwind
arithmetic exactly, and the pools read only the head, so promotion,
hiring, shortfall, pool and ready_ratio are bit for bit those of the
full-array update. The metric sums read the head and add S times the
tail's sums sum u and sum u (s - tau), which the line carries from step
to step and recomputes from the ring at each copy of the tail back to
the ring's end (every n_nodes steps), at each rescale (S 1e-100 below
its level's unit, a power of 2 near the level's mass, and reset to it)
and when a carried sum u (s - tau) falls below half its peak. The tail
never feeds the head either, so the line advances it once per block too,
vectorized over the block's steps with the double operations of a
step-by-step update in the same order (see _DelayLine). The snapshots,
the final density and the l1 pass multiply S u out. The density,
excess_wait, l1_to_steady and mass_error therefore differ from the
full-array update's by a few eps per step, within the bounds that
tests/test_transport.py states. With dt < ds no node is a plain shift of
its neighbour: the head is the whole grid and the tail empty, with sums
0, so every array is bit for bit the full-array one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._output import new_csv, write_rows
from .org import (
    FlexPlan,
    IllPosedError,
    OrgSpec,
    _empty_floor,
    _pools,
    _promotion_rates,
    ill_posed,
    promotion_demands,
    stationary_state,
)

# close_policy_external_fraction, level_metrics and make_initial_density
# keep their module-level names, off this list, only because
# perfbench/tracing.py wraps them by name
__all__ = [
    "SeniorityGrid",
    "SimulationResult",
    "CflViolationError",
    "InfeasibleInitialDataError",
    "run",
    "write_trajectory_csv",
    "write_snapshot_csv",
    "DEFAULT_PROMOTION_CAP",
]

# promotion-rate ceiling applied when none is given
DEFAULT_PROMOTION_CAP = 5.0


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
        for name in ("ds", "dt", "s_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.ds <= 0 or self.dt <= 0:
            raise ValueError("ds and dt must be positive")
        if self.dt > self.ds * (1 + 1e-12):
            raise CflViolationError(
                f"dt = {self.dt} exceeds ds = {self.ds}; the explicit "
                "advection step needs dt <= ds")
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


@dataclass(frozen=True)
class _Cuts:
    """Constants of the eligibility cut; they depend only on (grid,
    spec.tau).

    head      nodes up to the last pre-eligibility node of any level (the
              nodes s_i <= tau_j are a prefix of every row)
    pre_head  (L, head) 1.0 on the nodes s_i <= tau_j, 0.0 past them
    weight    (L, n_nodes) (s_i - tau_j) 1[s_i > tau_j], the excess-wait
              weight; -0.0 where s_i < tau_j
    """

    head: int
    pre_head: np.ndarray
    weight: np.ndarray


def _build_cuts(grid: SeniorityGrid, spec: OrgSpec) -> _Cuts:
    mask = grid.pre_eligibility_mask(spec)
    weight = np.subtract(grid.s, spec.tau[:, np.newaxis])
    weight *= ~mask
    head = int(np.count_nonzero(mask.any(axis=0)))
    return _Cuts(head=head, pre_head=mask[:, :head].astype(float),
                 weight=weight)


def _pool_sums(density: np.ndarray, cuts: _Cuts, ds: float,
               masses: list[float], held: np.ndarray | None = None
               ) -> list[float]:
    """A_j = M_j - ds * sum_i rho_ji pre_ji, as Python floats.

    pre is zero past the cut head, so only the first head columns are
    read; held, an (L, head) array, receives rho pre on them."""
    held = np.multiply(density[:, :cuts.head], cuts.pre_head, out=held)
    return [m - ds * a for m, a in
            zip(masses, np.add.reduce(held, axis=1).tolist())]


def _shares(alpha_frac, size: int, cap: float) -> list[float]:
    """The closure's per-level external fractions as Python floats, after
    checking them and the cap."""
    share = np.broadcast_to(np.asarray(alpha_frac, dtype=float),
                            (size,)).tolist()
    if not all(f >= 0.0 for f in share):
        raise ValueError("external fractions must be nonnegative")
    if not cap > 0:
        raise ValueError("promotion cap must be positive")
    return share


def _sweep(mu: list, mass: list, pool: list, floor: list, share: list,
           cap: float) -> tuple[list, list, list, list]:
    """The closure's top-down sweep over levels: promotion, hiring and
    shortfall rates and the replacement demands mu M + P A (step's ghost
    values) from the levels' attrition, masses, pools, empty floors and
    external fractions.

    It runs on Python floats: the same double operations in the same
    order as on numpy scalars, without their per-item overhead. The
    clamps are written as comparisons, which pick the same operand as
    min(cap, x) and max(x, 0.0), signed zeros and NaN included.
    """
    size = len(mass)
    promotion = [0.0] * size
    hiring = [0.0] * size
    shortfall = [0.0] * size
    demand = [0.0] * size
    rate = 0.0  # promotion out of level j, set by the level above
    for j in range(size - 1, -1, -1):
        demand[j] = mu[j] * mass[j] + rate * pool[j]
        promoted = 0.0
        if j > 0:
            below = pool[j - 1]
            if below <= floor[j - 1]:
                rate = cap if math.isfinite(cap) else 0.0
                if below < 0.0:
                    below = 0.0
            else:
                rate = demand[j] / ((1.0 + share[j]) * below)
                if not rate < cap:
                    rate = cap
            promotion[j - 1] = rate
            promoted = rate * below
        external = demand[j] - promoted
        if external < 0.0:
            external = 0.0
        if mass[j] > 0.0:
            hiring[j] = external / mass[j]
            # the imposed share of promotions; x - 0.0 is x at the bottom
            unmet = external - share[j] * promoted if j > 0 else external
            shortfall[j] = (0.0 if unmet < 0.0 else unmet) / mass[j]
    return promotion, hiring, shortfall, demand


def close_policy_external_fraction(density: np.ndarray, spec: OrgSpec,
                                   grid: SeniorityGrid,
                                   cap: float = DEFAULT_PROMOTION_CAP,
                                   alpha_frac=0.0,
                                   masses: np.ndarray | None = None
                                   ) -> dict[str, np.ndarray]:
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
    cap is infinite) with hiring absorbing the whole demand; a pool counts
    as empty at or below 1e-12 max(N_j, 1). Returns P, h, delta and the
    discrete pools A under the keys of SimulationResult.final_policy.
    """
    masses = spec.n if masses is None else masses
    share = _shares(alpha_frac, spec.size, cap)
    mass = masses.tolist()
    pools = _pool_sums(density, _build_cuts(grid, spec), grid.ds, mass)
    promotion, hiring, shortfall, _ = _sweep(
        spec.mu.tolist(), mass, pools, _empty_floor(spec).tolist(), share,
        cap)
    return {"promotion": np.array(promotion), "hiring": np.array(hiring),
            "shortfall": np.array(shortfall), "pool": np.array(pools)}


def step(density: np.ndarray, grid: SeniorityGrid, ghost: np.ndarray,
         rate: np.ndarray, divisor: np.ndarray, held: np.ndarray,
         out: np.ndarray | None = None) -> np.ndarray:
    """Advance every level by one time step.

    Explicit upwind advection, implicit attrition and promotion decay,
    with the promotion source active below the eligibility age and the
    ghost boundary value rho_0 = mu M + P A restoring each level's discrete
    mass (see module docstring). Levels interact only through the policy
    closure between steps, which sets the terms: ghost, the (L,) values
    mu M + P A; rate and divisor, the (L, 1) columns dt P and
    1 + dt (mu + P); held, rho 1[s <= tau] on density's first columns (the
    mask is zero past them), which step overwrites.

    The new densities are written to out, of any memory layout but not
    overlapping the columns of density that it reads, and returned; a new
    array shaped like density is allocated when out is not given. out may
    have fewer columns than density, w: it then receives the first w
    columns of the new densities, which depend only on the first w columns
    of density (run() at dt = ds computes the head and the column entering
    its delay line this way, from one slot of its head tape into the next
    slot's first w columns).
    It keeps a public name since run() looks it up once per time step, so
    a wrapper put in its place (a tracer counting node-steps) sees them all.
    """
    if out is None:
        out = np.empty_like(density)
    # the first node of every row takes its ghost value: at unit Courant
    # number a shift by one node, else rho - lam (rho - rho_upwind)
    width = out.shape[1]
    rho, shifted = density[:, :width], out[:, 1:]
    lam = grid.dt / grid.ds
    if lam == 1.0:
        shifted[...] = rho[:, :-1]
        out[:, 0] = ghost
    else:
        np.subtract(rho[:, 1:], rho[:, :-1], out=shifted)
        out[:, 0] = density[:, 0] - ghost
        out *= lam
        np.subtract(rho, out, out=out)
    # the promotion source dt P rho 1[s <= tau] is added only on held's
    # columns, which run() cuts at its head; past the head it is +0, which
    # leaves nonnegative values unchanged
    held = held[:, :width]
    held *= rate
    out[:, :held.shape[1]] += held
    out /= divisor
    return out


def _discrete_stationary_density(spec: OrgSpec, plan: FlexPlan,
                                 grid: SeniorityGrid
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """The scheme's exact fixed point under the plan's promotion demands.

    Node values decay geometrically with ratio 1/(1 + mu ds) below the
    eligibility age and 1/(1 + (mu + P) ds) above it, the discrete
    counterparts of the continuum exponentials. The promotion rates solve
    the closure self-consistently: with E_d = (1 + mu_j ds)^-n the decay
    over the n nodes below tau_j and X = C_{j+1} the demanded flux,

        A_j = (mu_j M_j E_d - (1 - E_d) X) / mu_j,    P_j = X / A_j,

    the continuum pools' kernel (org._pools) with E_d in place
    of e^{-mu tau}. Returns (density, promotion_rates); raises
    IllPosedError when a needed pool comes out at or below its empty floor
    or too small for its rate to be finite. The top level (and any level
    without demand from above) is a plain geometric profile.
    """
    masses = spec.n * plan.p
    cuts = grid.eligibility_index(spec.tau)
    decay_pre = (1.0 + spec.mu * grid.ds) ** -cuts
    c, pools, ill = _pools(spec.mu * masses, plan.alpha, spec.mu, decay_pre,
                           1.0 - decay_pre, _empty_floor(spec))
    rates = _promotion_rates(c, pools, ill)
    # one row per level; an empty level has zero inflow, hence a zero row
    mu, n_tau = spec.mu[:, np.newaxis], cuts[:, np.newaxis]
    inflow = mu * masses[:, np.newaxis] + c[1:, np.newaxis]
    a = 1.0 / (1.0 + mu * grid.ds)
    b = 1.0 / (1.0 + (mu + rates[:, np.newaxis]) * grid.ds)
    i = np.arange(1, grid.n_nodes + 1)
    density = np.where(i <= n_tau, inflow * a ** i,
                       inflow * a ** n_tau * b ** np.maximum(i - n_tau, 0))
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
                             _discrete_stationary_density)
      uniform                flat on [0, 2 tau_j] (on [0, 1/mu_j] where
                             tau_j = 0), the support's edge node absorbing
                             the rounding remainder
      truncated-exponential  exp(-mu_j s) over the whole grid, rescaled

    Raises InfeasibleInitialDataError when a level's pool ends up empty
    (see org.ill_posed) while the plan demands promotions from it.
    """
    if plan is None:
        plan = FlexPlan.all_internal(spec.size)
    if grid.s_max <= float(np.max(spec.tau)):
        raise InfeasibleInitialDataError(
            f"grid reaches {grid.s_max} years but eligibility ages go up "
            f"to {float(np.max(spec.tau))}")
    masses = spec.n * plan.p
    if kind == "stationary":
        density, _ = _discrete_stationary_density(spec, plan, grid)
    elif kind == "uniform":
        width = 2.0 * spec.tau
        # 1 / mu only where tau = 0: elsewhere it may overflow for nothing
        np.divide(1.0, spec.mu, out=width, where=spec.tau == 0.0)
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
            "uniform, or truncated-exponential")
    pools = np.array(_pool_sums(density, _build_cuts(grid, spec), grid.ds,
                                masses.tolist()))
    starved = [int(j) + 1 for j in np.flatnonzero(
        ill_posed(pools, promotion_demands(spec, plan), _empty_floor(spec)))]
    if starved:
        raise InfeasibleInitialDataError(
            "initial data leaves no promotable staff at level"
            f"{'s' if len(starved) > 1 else ''} {starved} although "
            "promotions are demanded from above")
    return density


@dataclass
class SimulationResult:
    """Full trajectory of one simulation.

    All per-step arrays have shape (n_steps + 1, L), row k holding the
    state after k steps (row 0 is the initial state). l1_to_steady is
    measured against steady_density, the continuum stationary profile
    matching the run's policy; when that profile is ill posed, or the run
    skips the measure (run(..., l1_to_steady=False)), steady_density is
    None and l1_to_steady NaN. snapshots maps requested times to
    (L, n_nodes) density copies.

    run() fills ready_ratio, excess_wait, l1_to_steady and mass_error in
    two stages: each block of steps writes its rows' sums into them (see
    the module docstring), and one elementwise pass after the last step
    turns them into the ratios that level_metrics gives for each state:
    bit for bit where the delay line's tail is empty (dt < ds, or a cut
    head covering every node), and otherwise within the delay line's
    bounds (the pools, hence ready_ratio, still bit for bit).
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
    spec: OrgSpec
    grid: SeniorityGrid
    policy: str
    cap: float

    @property
    def final_policy(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name)[-1]
                for name in ("promotion", "hiring", "shortfall", "pool")}

    @property
    def balance_residual(self) -> np.ndarray:
        """h_j M_j + P_{j-1} A_{j-1} - mu_j M_j - P_j A_j, shaped
        (n_steps + 1, L): zero up to rounding in every state."""
        out = self.promotion * self.pool
        promoted_in = np.zeros_like(out)
        promoted_in[:, 1:] = out[:, :-1]
        return (self.hiring * self.masses + promoted_in
                - self.spec.mu * self.masses - out)


def _metric_sums(density: np.ndarray, weight: np.ndarray,
                 mass_sum: np.ndarray, wait_sum: np.ndarray) -> None:
    """The node-wise part of the metrics but the l1 sum: sum rho and
    sum rho weight over density's last axis, per level, written to the
    given rows; density may be one state, (L, n), or a block of states,
    (steps, L, n), whose rows numpy sums as it sums one state's.

    The first is a pairwise sum. The second is one BLAS dot product per
    row, with no array of products, so its rounding follows the BLAS's
    blocked order: the same for a given BLAS build and thread count."""
    np.add.reduce(density, axis=-1, out=mass_sum)
    np.vecdot(density, weight, out=wait_sum)


def _l1_sum(gap: np.ndarray, out: np.ndarray) -> None:
    """sum |rho - steady| per level, pairwise over the last axis, into out,
    from gap = rho - steady, which it overwrites."""
    np.add.reduce(np.abs(gap, out=gap), axis=-1, out=out)


def _metric_ratios(ds: float, masses: np.ndarray, pool: np.ndarray,
                   empty: np.ndarray, has_steady: bool, ready: np.ndarray,
                   wait: np.ndarray, l1: np.ndarray,
                   mass_err: np.ndarray) -> None:
    """The elementwise part of the metrics, in place over the sums of
    _metric_sums and _l1_sum: one row per state, or any number of rows at once, since
    each element gets the same double operations whatever the shape.

    ready holds nothing on entry and receives A / M; pool and empty are the
    closure's pools and empty mask of the same states.
    """
    per = np.where(masses > 0, masses, 1.0)
    np.divide(pool, per, out=ready)
    mass_err *= ds
    mass_err -= masses
    np.abs(mass_err, out=mass_err)
    mass_err /= per
    if has_steady:
        l1 *= ds
        l1 /= per
    else:
        l1.fill(np.nan)
    wait *= ds
    np.divide(wait, pool, out=wait, where=~empty)
    wait[empty] = 0.0


def level_metrics(density: np.ndarray, spec: OrgSpec, grid: SeniorityGrid,
                  policy: dict[str, np.ndarray], masses: np.ndarray,
                  steady_density: np.ndarray | None = None) -> dict:
    """Per-level snapshot metrics of a density and its closure, policy (as
    close_policy_external_fraction returns it; only its pools are read).

    ready_ratio   promotable share A_j / M_j
    excess_wait   mean seniority past tau_j among promotable staff (years),
                  0 where the closure counts the pool as empty,
                  A_j <= 1e-12 max(N_j, 1)
    l1_to_steady  ds * sum |rho - steady| / M_j, NaN without a reference
    mass_error    |ds * sum rho - M_j| / M_j

    Levels without mass divide by 1 instead of M_j, so their ratios are
    the plain numerators (0 for an empty level's zero density). run()
    shares these sums and ratios (see SimulationResult for how its rows
    compare).
    """
    ready, wait, l1, mass_err = (np.empty(spec.size) for _ in range(4))
    _metric_sums(density, _build_cuts(grid, spec).weight, mass_err, wait)
    if steady_density is not None:
        _l1_sum(density - steady_density, l1)
    pool = policy["pool"]
    _metric_ratios(grid.ds, masses, pool, pool <= _empty_floor(spec),
                   steady_density is not None, ready, wait, l1, mass_err)
    return {"ready_ratio": ready, "excess_wait": wait, "l1_to_steady": l1,
            "mass_error": mass_err}


# a level's scale S is reset to its unit, the stored tail multiplied by
# S / unit, once S / unit falls below this, so a stored value rho / S stays
# below about 1e100 rho / unit
_RESCALE_BELOW = 1e-100
# run()'s steps per block: the loop writes each step's new head to the
# next slot of a tape of this many, and the metric sums and the tail's
# advance run once per block; any length gives the same numbers
_BLOCK = 32
# the most values of a head tape, which shortens the blocks where a head
# is wide (the whole grid with dt < ds)
_TAPE_VALUES = 1 << 18
# density values the l1 pass holds at once
_L1_VALUES = 1 << 15


class _DelayLine:
    """run()'s densities: a tape of a block's heads, and the nodes past the
    head kept as a delay line.

    The tape has block + 1 slots, block = _BLOCK or fewer for a wide head
    (see _TAPE_VALUES). Slot i owns fresh[i], a contiguous (L, width)
    block: the head and the column entering the tail (width = head + 1),
    or the whole grid where the tail is empty (width = n_nodes). slots[i]
    is a read-only (L, n_nodes) view from fresh[i]'s start, rows width
    apart, of which step reads the first width columns: run() steps
    slots[i] into fresh[i + 1], so a wrapper of step counts L n_nodes
    node-steps. Once per block advance brings the tail up to the last
    slot written, and restart copies that slot's head to slot 0.

    The tail lives in per-level scaled units u, rho = S u, in the columns
    start to start + tail of an (L, n_nodes + tail) ring. A step moves
    start one column down, divides S by the divisor 1 + dt (mu + P) and
    converts only the entering column; the column leaving the grid drops
    out. When start reaches 0 the tail is copied back to column n_nodes,
    once every n_nodes steps. A level's S starts at its unit, the largest
    power of 2 not above max(M, 1), so that the stored values stay near
    rho / M however large the headcount, and dividing by it is exact.
    state holds the tail's sums sum u and sum u (s - tau), and S, one row
    each; the sums are carried from step to step and recomputed from the
    ring at every copy, at every rescale (a level's S / unit below
    _RESCALE_BELOW, as where a near-empty pool drives P to 1e11 per year)
    and when a level's sum u (s - tau) falls below half its peak since the
    last recomputation, which keeps its rounding relative to its value.

    advance takes a block in segments, each vectorized over its steps with
    the double operations of a step-by-step update in the same order, so
    that no number depends on the block's length: np.divide.accumulate
    gives S / d_1 / d_2 ... in turn, and the carried sums are
    np.add.accumulate over interleaved rows, [u, -gone, entering, -gone,
    ...] and [w, -gone w_out, ds (u - gone), entering w_in, ...], the
    update's additions (a - b is a + (-b) in IEEE arithmetic); the peak is
    a running maximum, and the shrink test makes the update's comparisons,
    w > peak first, then w < peak / 2. A segment ends at its first step
    that copies, rescales or re-sums: the next one starts from the state
    after it. It is at most min(start, tail) steps long, so the column
    leaving at each of its steps was in the tail when it began, and no
    copy falls inside it. Its steps past the end are discarded; as their
    scales may underflow to 0 and their sums overflow, the segment is
    computed under np.errstate(all="ignore"). Its l1 sums multiply S u out
    from the ring's windows before the last step rescales them.
    """

    def __init__(self, density: np.ndarray, cuts: _Cuts, ds: float,
                 masses: np.ndarray, head: int, steady: np.ndarray | None):
        size, n = density.shape
        tail = n - head
        width = head + 1 if tail else n
        self.head, self.tail, self.n, self.ds = head, tail, n, ds
        self.block = block = max(1, min(_BLOCK,
                                        _TAPE_VALUES // (size * width) - 1))
        # the slots' own columns, (block + 1, L, width), each slot's one
        # contiguous block, then n_nodes values that the last slot's view
        # reaches into
        self.tape = np.empty((block + 1) * size * width + n)
        self.heads = self.tape[:-n].reshape(block + 1, size, width)
        self.fresh = list(self.heads)
        self.slots = [np.lib.stride_tricks.as_strided(
            fresh, (size, n), (fresh.strides[0], fresh.itemsize),
            writeable=False) for fresh in self.fresh]
        self.fresh[0][:, :head] = density[:, :head]
        self.unit = np.ldexp(1.0, np.frexp(np.maximum(masses, 1.0))[1] - 1)
        self.floor = _RESCALE_BELOW * self.unit
        self.ring, self.start = np.empty((size, n + tail)), n
        np.divide(density[:, head:], self.unit[:, np.newaxis],
                  out=self.ring[:, n:])
        # the tail at each start
        self.windows = np.lib.stride_tricks.sliding_window_view(
            self.ring, tail, axis=1)
        # the tail's excess-wait weights, spaced by ds from the first one,
        # as the carried sums age them: the grid's s - tau are spaced by ds
        # only to within (s + tau) eps, and that gap would add up in the
        # carried sum at every step
        first = cuts.weight[:, head:head + 1]
        self.weight = first + ds * np.arange(tail)
        self.weight_in = first.ravel()
        self.weight_out = -self.weight[:, -1:].ravel()
        self.steady = steady
        if steady is not None:
            self.gap = np.empty((max(1, _L1_VALUES // steady.size), size, n))
        self._resum(self.unit)

    def _resum(self, scale: np.ndarray) -> None:
        tail = self.ring[:, self.start:self.start + self.tail]
        self.peak = np.vecdot(tail, self.weight)
        self.state = np.stack((np.add.reduce(tail, axis=1), self.peak, scale))

    def advance(self, count: int, divisor: np.ndarray, state: np.ndarray,
                l1: np.ndarray | None) -> None:
        """Bring the tail up to slot count, once slots 1 to count hold the
        steps' new heads and entering columns as densities; divisor,
        (count, L), holds the steps' 1 + dt (mu + P). state, (count, 3, L),
        receives each new state's sums and scales, and l1, when given,
        (count, L), its sums |rho - steady|."""
        heads = self.heads[1:count + 1]
        if not self.tail:
            state[...] = self.state
            if l1 is not None:
                self._l1(heads, heads[:, :, :0], state[:, 2], l1)
            return
        done = 0
        while done < count:
            done += self._segment(heads[done:], divisor[done:], state[done:],
                                  None if l1 is None else l1[done:])

    def _segment(self, heads: np.ndarray, divisor: np.ndarray,
                 state: np.ndarray, l1: np.ndarray | None) -> int:
        """advance's steps up to the first that copies, rescales or
        re-sums the tail, or up to min(start, tail) steps; returns their
        number."""
        tail, ring, start = self.tail, self.ring, self.start
        count = min(len(divisor), start, tail)
        u_sum, w_sum, scale = self.state
        size = len(scale)
        with np.errstate(all="ignore"):
            scale = np.divide.accumulate(
                np.concatenate((scale[np.newaxis], divisor[:count])))[1:]
            entering = heads[:count, :, self.head] / scale
            # the column leaving at step j was the tail's j-th from last
            gone = ring[:, start + tail - count:start + tail].T[::-1]
            u = np.empty((2 * count + 1, size))
            u[0] = u_sum
            np.negative(gone, out=u[1::2])
            u[2::2] = entering
            np.add.accumulate(u, axis=0, out=u)
            w = np.empty((3 * count + 1, size))
            w[0] = w_sum
            np.multiply(gone, self.weight_out, out=w[1::3])
            np.multiply(u[1::2], self.ds, out=w[2::3])
            np.multiply(entering, self.weight_in, out=w[3::3])
            np.add.accumulate(w, axis=0, out=w)
            w = w[3::3]
            peak = np.fmax.accumulate(
                np.concatenate((self.peak[np.newaxis], w)))
            shrunk = (w < 0.5 * peak[:-1]) & ~(w > peak[:-1])
            low = scale < self.floor
        # the steps at which some level rescales or its sum shrinks
        hit = (shrunk | low).any(axis=1)
        stop = int(hit.argmax()) + 1
        if not hit[stop - 1]:
            stop = count
        ring[:, start - stop:start] = entering[stop - 1::-1].T
        state[:stop, 0] = u[2:2 * stop + 1:2]
        state[:stop, 1] = w[:stop]
        state[:stop, 2] = scale[:stop]
        if l1 is not None:
            self._l1(heads, self.windows[:, start - 1:start - stop:-1]
                     .transpose(1, 0, 2), scale, l1[:stop - 1])
        self.start = start - stop
        self.state, self.peak = state[stop - 1].copy(), peak[stop]
        copied = self.start == 0
        if copied:
            ring[:, self.n:] = ring[:, :tail]
            self.start = self.n
        if hit[stop - 1] and low[stop - 1].any():
            ring[:, self.start:self.start + tail] *= (
                scale[stop - 1] / self.unit)[:, np.newaxis]
            self._resum(self.unit)
        elif copied or hit[stop - 1]:
            self._resum(scale[stop - 1])
        state[stop - 1] = self.state
        if l1 is not None:
            self.l1(heads[stop - 1:stop], l1[stop - 1:stop])
        return stop

    def l1(self, heads: np.ndarray, out: np.ndarray) -> None:
        """The sums |rho - steady| of heads, (1, L, width), with the
        current tail, into out, (1, L)."""
        self._l1(heads, self.windows[:, self.start:self.start + 1]
                 .transpose(1, 0, 2), self.state[2][np.newaxis], out)

    def _l1(self, heads: np.ndarray, tails: np.ndarray, scales: np.ndarray,
            out: np.ndarray) -> None:
        """The sums |rho - steady| of the first len(out) states, with heads
        from heads and the tails S u from tails and scales, in chunks of
        states."""
        head, steady, gap = self.head, self.steady, self.gap
        for i in range(0, len(out), len(gap)):
            rows = out[i:i + len(gap)]
            part = gap[:len(rows)]
            np.subtract(heads[i:i + len(rows), :, :head], steady[:, :head],
                        out=part[:, :, :head])
            np.multiply(tails[i:i + len(rows)],
                        scales[i:i + len(rows), :, np.newaxis],
                        out=part[:, :, head:])
            np.subtract(part[:, :, head:], steady[:, head:],
                        out=part[:, :, head:])
            _l1_sum(part, rows)

    def restart(self, slot: int) -> None:
        """Copy the head in slot to slot 0, where the next block starts."""
        self.fresh[0][:, :self.head] = self.fresh[slot][:, :self.head]

    def density(self, slot: int) -> np.ndarray:
        """A new array of the densities, slot's head and the current tail's
        S u multiplied out."""
        out = np.empty(self.slots[slot].shape)
        out[:, :self.head] = self.fresh[slot][:, :self.head]
        np.multiply(self.ring[:, self.start:self.start + self.tail],
                    self.state[2][:, np.newaxis], out=out[:, self.head:])
        return out


def _policy_fractions(policy: str, spec: OrgSpec, plan: FlexPlan,
                      external_fraction: float) -> np.ndarray:
    if policy == "max-internal":
        return np.zeros(spec.size)
    if policy == "external-fraction":
        if not external_fraction >= 0:
            raise ValueError("external_fraction must be nonnegative")
        return np.full(spec.size, float(external_fraction))
    if policy == "fixed-plan":
        return np.concatenate(([0.0], plan.alpha - 1.0))
    raise ValueError(f"unknown policy {policy!r}; expected max-internal, "
                     "external-fraction, or fixed-plan")


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
        snapshot_times: Sequence[float] = (),
        l1_to_steady: bool = True) -> SimulationResult:
    """Simulate the hierarchy and record the full policy trajectory.

    policy selects the closure: "max-internal" promotes as much as the cap
    allows, "external-fraction" imposes the same external share at every
    level, and "fixed-plan" imposes per-level shares alpha_j - 1 from the
    plan. The permanent masses N_j p_j stay constant; temporaries sit
    outside the dynamics. horizon = 0 returns the initial state only.
    snapshot_times must lie in [0, horizon]; a time outside it raises
    ValueError, as the run would never record it.

    With l1_to_steady=False the run builds no continuum stationary profile
    and skips the per-step sum |rho - steady|: l1_to_steady is then NaN
    and steady_density None, as when that profile is ill posed, and every
    other array is the same, bit for bit.
    """
    if plan is None:
        plan = FlexPlan.all_internal(spec.size)
    plan.check(spec)
    if grid is None:
        grid = SeniorityGrid()
    if not 0 <= horizon < math.inf:
        raise ValueError(
            f"horizon must be nonnegative and finite, got {horizon}")
    outside = [t for t in snapshot_times if not 0.0 <= t <= horizon]
    if outside:
        raise ValueError(f"snapshot times {outside} lie outside the run's "
                         f"span [0, {horizon:g}]")
    fractions = _policy_fractions(policy, spec, plan, external_fraction)
    share = _shares(fractions, spec.size, cap)
    masses = spec.n * plan.p
    density = make_initial_density(spec, plan, grid, kind=initial)
    cuts = _build_cuts(grid, spec)
    steady = (_steady_reference(spec, plan, grid, fractions)
              if l1_to_steady else None)

    n_steps = int(round(horizon / grid.dt))
    times = grid.dt * np.arange(n_steps + 1)
    snap_steps = {int(round(t / grid.dt)) for t in snapshot_times}
    snapshots: dict[float, np.ndarray] = {}
    # the sweep's and step's per-run constants, as Python floats
    floor = _empty_floor(spec)
    mu, mass, floors = spec.mu.tolist(), masses.tolist(), floor.tolist()
    dt = grid.dt
    # step's terms: the pool sums write rho pre into held, and each sweep's
    # Python floats set the rows of terms in one assignment
    held = np.empty((spec.size, cuts.head))
    terms = np.empty((3, spec.size))
    ghost = terms[0]
    source, decay = terms[1:, :, np.newaxis]
    # step computes each new head and the column entering the tail into the
    # line's next slot; the pools read only the head, so the loop is only
    # pool sums, sweep and step, and the metric sums and the tail's advance
    # run once per block; with dt < ds the head is the whole grid and the
    # tail empty
    line = _DelayLine(density, cuts, grid.ds, masses,
                      cuts.head if dt / grid.ds == 1.0 else grid.n_nodes,
                      steady)
    head, length = line.head, line.block
    weight = cuts.weight[:, :head]
    # row k of record holds step k's Python floats, the promotion, hiring
    # and shortfall rates and the pools, in one assignment, and the line's
    # state (the tail's sums and scales)
    record = np.empty((n_steps + 1, 7, spec.size))
    promotion, hiring, shortfall, pool = record.transpose(1, 0, 2)[:4]
    rows = record.reshape(n_steps + 1, -1)[:, :4 * spec.size]
    states = record[:, 4:]
    ready, wait, l1, mass_err = (np.zeros((n_steps + 1, spec.size))
                                 for _ in range(4))
    states[0] = line.state
    _metric_sums(line.heads[:1, :, :head], weight, mass_err[:1], wait[:1])
    if steady is not None:
        line.l1(line.heads[:1], l1[:1])

    slot = 0  # state k's slot
    for k in range(n_steps + 1):
        pools = _pool_sums(line.slots[slot], cuts, grid.ds, mass, held)
        rates, hires, shorts, demand = _sweep(mu, mass, pools, floors, share,
                                              cap)
        rows[k] = rates + hires + shorts + pools
        if slot == length or k == n_steps or k in snap_steps:
            # the states of slots 1 to slot: k - slot + 1 to k
            new = slice(k - slot + 1, k + 1)
            _metric_sums(line.heads[1:slot + 1, :, :head], weight,
                         mass_err[new], wait[new])
            line.advance(slot, 1.0 + dt * (spec.mu + promotion[k - slot:k]),
                         states[new], None if steady is None else l1[new])
            if k in snap_steps:
                snapshots[float(times[k])] = line.density(slot)
            if k == n_steps:
                break
            line.restart(slot)
            slot = 0
        divisor = [1.0 + dt * (m + p) for m, p in zip(mu, rates)]
        terms[...] = demand, [dt * p for p in rates], divisor
        step(line.slots[slot], grid, ghost, source, decay, held,
             out=line.fresh[slot + 1])
        slot += 1
    density = line.density(slot)
    sums = record[:, 4:6]
    sums *= record[:, 6:]
    mass_err += sums[:, 0]
    wait += sums[:, 1]
    _metric_ratios(grid.ds, masses, pool, pool <= floor, steady is not None,
                   ready, wait, l1, mass_err)
    return SimulationResult(
        times=times, density=density, masses=masses, promotion=promotion,
        hiring=hiring, shortfall=shortfall, pool=pool, ready_ratio=ready,
        excess_wait=wait, l1_to_steady=l1, mass_error=mass_err,
        snapshots=snapshots, steady_density=steady, spec=spec, grid=grid,
        policy=policy, cap=cap)


def write_trajectory_csv(path: str, result: SimulationResult,
                         header_lines: Sequence[str] = ()) -> None:
    """One row per (time, level) with rates, pools, and error metrics."""
    fields = (result.promotion, result.hiring, result.shortfall, result.pool,
              result.ready_ratio, result.excess_wait, result.mass_error)
    # a row's cells: t, the level (a float, which %d prints alike), fields
    levels = np.arange(1.0, result.masses.size + 1)
    with new_csv(path, header_lines) as fh:
        fh.write("t,level,promotion_rate,hiring_rate,shortfall,pool,"
                 "ready_ratio,excess_wait,mass_error\r\n")
        write_rows(fh, ("%.6g", "%d") + ("%.8g",) * 6 + ("%.3e",),
                   result.times.size, lambda k: np.stack(np.broadcast_arrays(
                       result.times[k, None], levels, *(f[k] for f in fields))
                   ).reshape(2 + len(fields), -1))


def write_snapshot_csv(path: str, result: SimulationResult, time: float,
                       header_lines: Sequence[str] = ()) -> None:
    """Density profile at one recorded snapshot time: s, rho_1..rho_L."""
    key = next((t for t in result.snapshots
                if abs(t - time) <= 0.5 * result.grid.dt), None)
    if key is None:
        raise KeyError(f"no snapshot recorded at t = {time}")
    density = result.snapshots[key]
    with new_csv(path, header_lines) as fh:
        fh.write(",".join(["s"] + [f"rho_{j + 1}" for j in
                                   range(len(density))]) + "\r\n")
        write_rows(fh, ("%.6g",) + ("%.8g",) * len(density),
                   result.grid.n_nodes, lambda k: np.vstack(
                       (result.grid.s[k], density[:, k])))
