"""Command-line front end.

    orgflow steady   --config scenario.json
    orgflow simulate --config scenario.json --out results
    orgflow cost     --config scenario.json --format csv
    orgflow optimize --config scenario.json --seed 11

One scenario file drives every command. Tables go to stdout, where
`steady`, `cost` and the plan table of `optimize` print a number of
magnitude 1e15 or more in exponent notation (see _output.fixed);
trajectory, snapshot, cost, and optimizer-history CSV files go to the
output directory, each created new (see _output.new_csv) with the seed
recorded in its comment header. Each command decides its exit code
before it prints, but for the remedy lines before an exit 3. Exit codes:
0 success, 2 bad configuration or an output path that cannot be created,
3 ill-posed model or no feasible plan, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import __version__
from ._output import fixed
from .config import (ConfigError, ScenarioConfig, dump_config, load_config,
                     snapshot_csv_name)
from .costs import (
    BusinessUnitPlan,
    GrowthExceedsAttritionError,
    business_unit_cost,
    format_cost_table,
    format_plan_table,
    org_cost,
    reduce_floaters,
    write_cost_csv,
)
from .optimize import (
    GaConfig,
    NoFeasibleCandidateError,
    PlanObjective,
    ga_minimize,
    write_ga_csv,
)
from .org import (
    FlexPlan,
    IllPosedError,
    MissingWageError,
    OrgSpec,
    min_external_ratios,
    min_permanent_share,
    stationary_state,
)
from .transport import (
    InfeasibleInitialDataError,
    run,
    write_snapshot_csv,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ILL_POSED = 3
EXIT_RUNTIME = 4

# errors of an output path that the scenario fixes by naming another; the
# rest (a full disk, too many open files, a failing device) stay exit 4
_PATH_ERRNOS = {errno.EEXIST, errno.EISDIR, errno.ENOTDIR, errno.ENOENT,
                errno.EACCES, errno.EPERM, errno.EROFS, errno.ENAMETOOLONG}


def _print_rows(header: list[str], rows: list[list[str]], fmt: str) -> None:
    """Emit a summary either as an aligned table or as CSV on stdout."""
    if fmt == "csv":
        for row in [header, *rows]:
            print(",".join(row))
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def _header_lines(config: ScenarioConfig, command: str) -> list[str]:
    return [
        f"orgflow {__version__} {command}",
        f"seed = {config.optimizer.seed}",
        f"levels = {config.spec.size}",
    ]


def _external_ratios(spec: OrgSpec) -> np.ndarray | None:
    """min_external_ratios, or None where they are undefined."""
    try:
        return min_external_ratios(spec)
    except ValueError:
        return None


def _ratio_remedy(ratios: np.ndarray) -> str:
    """The minimal hiring ratios as the remedy lines print them."""
    return "  ".join(f"alpha_{j + 2}={fixed(r, 4)}"
                     for j, r in enumerate(ratios))


def cmd_steady(config: ScenarioConfig, fmt: str) -> int:
    """Closed-form stationary report with feasibility verdicts.

    ready_ratio (the pool A_j) and hiring (the external inflow) are per
    head of the level's headcount N_j. orgflow simulate prints the same
    two columns per unit of the permanent mass N_j p_j, so at a level
    with temporaries its values are about 1/p_j times these.
    """
    spec = config.spec
    plan = config.plan or FlexPlan.all_internal(spec.size)
    ratios = _external_ratios(spec)
    try:
        state = stationary_state(spec, plan)
    except IllPosedError as exc:
        print("ill-posed stationary problem:")
        print(f"  {exc}")
        if ratios is not None and ratios.size:
            print("  a no-temporaries organization stays well posed with "
                  "hiring ratios of at least:")
            print("    " + _ratio_remedy(ratios))
        raise
    external = state.inflow - np.concatenate(([0.0], state.demands[1:-1]))
    floors = min_permanent_share(spec, plan)
    header = ["level", "headcount", "attrition", "eligibility",
              "pool", "promotion", "ready_ratio", "hiring",
              "min_perm_share", "min_hiring_ratio"]
    rows = []
    for j in range(spec.size):
        ratio = "-" if j == 0 else (
            fixed(ratios[j - 1], 4) if ratios is not None else "n/a")
        rows.append([
            str(j + 1), f"{spec.n[j]:g}", f"{spec.mu[j]:g}",
            f"{spec.tau[j]:g}", fixed(state.pool[j], 4),
            fixed(state.promotion_rate[j], 6),
            fixed(state.pool[j] / spec.n[j], 6),
            fixed(external[j] / spec.n[j], 6),
            fixed(floors[j], 6),
            ratio,
        ])
    _print_rows(header, rows, fmt)
    if ratios is None:
        print("verdict: minimal hiring ratios undefined (an eligibility "
              "window spans nearly all of a level's population)")
    elif ratios.size == 0 or np.all(ratios <= 1.0 + 1e-12):
        print("verdict: internal hiring sufficient at every level")
    else:
        needing = [j + 2 for j, r in enumerate(ratios) if r > 1.0 + 1e-12]
        print("verdict: external hiring required into levels "
              + ", ".join(str(j) for j in needing))
    return EXIT_OK


def cmd_simulate(config: ScenarioConfig, fmt: str) -> int:
    """Run the transient solver; write CSV files and print the summary."""
    result = run(
        config.spec, plan=config.plan, grid=config.grid,
        policy=config.policy_mode, horizon=config.horizon,
        cap=config.promotion_cap, external_fraction=config.external_fraction,
        initial=config.initial_density, snapshot_times=config.snapshot_times,
        # no table or CSV file holds l1_to_steady, so the run skips it
        l1_to_steady=False,
    )
    out_dir = config.output_dir
    headers = _header_lines(config, "simulate")
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), result,
                         headers)
    for t in result.snapshots:
        write_snapshot_csv(os.path.join(out_dir, snapshot_csv_name(t)),
                           result, t, headers)
    spec = config.spec
    header = ["level", "headcount", "attrition", "eligibility",
              "promotion", "hiring", "shortfall", "excess_wait",
              "ready_ratio", "mass_error"]
    rows = []
    for j in range(spec.size):
        rows.append([
            str(j + 1), f"{spec.n[j]:g}", f"{spec.mu[j]:g}",
            f"{spec.tau[j]:g}", f"{result.promotion[-1, j]:.6f}",
            f"{result.hiring[-1, j]:.6f}", f"{result.shortfall[-1, j]:.6f}",
            f"{result.excess_wait[-1, j]:.4f}",
            f"{result.ready_ratio[-1, j]:.6f}",
            f"{result.mass_error[-1, j]:.3e}",
        ])
    print(f"state at t = {result.times[-1]:g} yr "
          f"({config.policy_mode}, cap {config.promotion_cap:g}):")
    _print_rows(header, rows, fmt)
    print(f"trajectory written to {os.path.join(out_dir, 'trajectory.csv')}")
    return EXIT_OK


def _effective_plan(config: ScenarioConfig) -> FlexPlan:
    plan = config.plan or FlexPlan.all_internal(config.spec.size)
    if not config.temporaries:
        plan = FlexPlan(alpha=plan.alpha.copy(), p=np.ones(config.spec.size))
    return plan


def cmd_cost(config: ScenarioConfig, fmt: str) -> int:
    """Hourly labor cost of the configured plan and of any business units."""
    spec = config.spec
    plan = _effective_plan(config)
    breakdown = org_cost(spec, plan)
    units = config.business_units
    if units is not None:
        shares = np.broadcast_to(plan.p, units.shape).copy()
        bu_plan = BusinessUnitPlan(headcounts=units, permanent_share=shares,
                                   floater_share=np.zeros_like(shares))
        base = business_unit_cost(spec, bu_plan).total
        reduced = reduce_floaters(spec, bu_plan)
        mixed = business_unit_cost(spec, reduced).total
    write_cost_csv(os.path.join(config.output_dir, "cost.csv"), breakdown,
                   _header_lines(config, "cost"))
    if fmt == "csv":
        header = ["level", "permanent", "temporary", "floater", "total"]
        rows = [[str(j + 1), fixed(breakdown.permanent[j], 4),
                 fixed(breakdown.temporary[j], 4),
                 fixed(breakdown.floater[j], 4),
                 fixed(breakdown.per_level[j], 4)]
                for j in range(spec.size)]
        _print_rows(header, rows, fmt)
    else:
        print(format_cost_table(breakdown))
    print(f"total: {fixed(breakdown.total, 2)} per hour "
          f"({fixed(breakdown.total / 1e6, 4)} M/h)")
    if units is not None:
        print(f"business units, temporaries only: {fixed(base, 2)} per hour")
        print(f"business units, optimal floater mix: {fixed(mixed, 2)} "
              "per hour")
        for j in range(spec.size):
            mix = ", ".join(fixed(g, 2) for g in reduced.floater_share[:, j])
            print(f"  level {j + 1} floater shares by unit: {mix}")
    return EXIT_OK


def cmd_optimize(config: ScenarioConfig, fmt: str) -> int:
    """Search for a cost-minimal plan, or evaluate the configured one."""
    spec = config.spec
    settings = config.optimizer
    out_dir = config.output_dir
    headers = _header_lines(config, "optimize")
    if settings.mode == "evaluate":
        plan = _effective_plan(config)
        breakdown = org_cost(spec, plan)
        write_cost_csv(os.path.join(out_dir, "cost.csv"), breakdown, headers)
        print(format_plan_table("configured plan", plan, breakdown.total))
        return EXIT_OK
    objective = PlanObjective(
        spec,
        optimize_alpha=settings.optimize_alpha,
        optimize_p=settings.optimize_p,
        alpha_max=settings.alpha_max,
    )
    ga_config = GaConfig(
        bounds=objective.bounds,
        population_size=settings.population_size,
        generations=settings.generations,
        mutation_chance=settings.mutation_chance,
        elitism=settings.elitism,
        seed=settings.seed,
    )
    try:
        result = ga_minimize(objective, ga_config)
    except NoFeasibleCandidateError:
        print("no sampled plan kept every promotable pool positive")
        ratios = _external_ratios(spec)
        if ratios is not None and ratios.size and np.any(ratios > 1):
            print("hiring ratios of at least " + _ratio_remedy(ratios)
                  + " restore well-posedness at p = 1")
        raise
    best_plan = objective.decode(result.best.genes)
    breakdown = org_cost(spec, best_plan)
    write_ga_csv(os.path.join(out_dir, "ga_history.csv"), result, headers)
    write_cost_csv(os.path.join(out_dir, "best_plan_cost.csv"), breakdown,
                   headers + [
                       "alpha = " + " ".join(f"{a:.6f}" for a in best_plan.alpha),
                       "p = " + " ".join(f"{p:.6f}" for p in best_plan.p),
                   ])
    print(format_plan_table(
        f"best plan (seed {settings.seed}, "
        f"{settings.population_size}x{settings.generations})",
        best_plan, breakdown.total))
    if fmt == "csv":
        header = ["level", "alpha", "p"]
        rows = [["1", "-", f"{best_plan.p[0]:.6f}"]]
        rows += [[str(j + 2), f"{best_plan.alpha[j]:.6f}",
                  f"{best_plan.p[j + 1]:.6f}"]
                 for j in range(spec.size - 1)]
        _print_rows(header, rows, fmt)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orgflow",
        description="Workforce planning: stationary reports, transient "
                    "simulation, labor costing, and plan optimization.",
    )
    parser.add_argument("command", nargs="?",
                        choices=("steady", "simulate", "cost", "optimize"))
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="scenario file (JSON)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override optimizer.seed")
    parser.add_argument("--out", metavar="DIR",
                        help="override output.directory")
    parser.add_argument("--format", choices=("table", "csv"),
                        default="table", help="stdout summary format")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the normalized scenario and exit")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.dump_config:
        parser.error("a command is required unless --dump-config is given")
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    commands = {
        "steady": cmd_steady,
        "simulate": cmd_simulate,
        "cost": cmd_cost,
        "optimize": cmd_optimize,
    }
    try:
        if args.seed is not None:
            config.override_seed(args.seed)
        if args.out is not None:
            config.override_output(args.out)
        if args.dump_config:
            print(dump_config(config))
            return EXIT_OK
        if args.command != "steady":
            os.makedirs(config.output_dir, exist_ok=True)
        return commands[args.command](config, args.format)
    except (IllPosedError, InfeasibleInitialDataError,
            NoFeasibleCandidateError) as exc:
        print(f"ill-posed model: {exc}", file=sys.stderr)
        return EXIT_ILL_POSED
    except (ConfigError, MissingWageError,
            GrowthExceedsAttritionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None \
                and exc.errno in _PATH_ERRNOS:
            print(f"configuration error: output.directory: cannot create "
                  f"{exc.filename!r}: {exc.strerror}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
