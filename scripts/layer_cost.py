"""Time the plan search's and the transport's layers in the parent checkout
and in this one, side by side in one process.

    python3 scripts/layer_cost.py --parent ../orgflow-parent --label one_timer
    python3 scripts/layer_cost.py --parent ../orgflow-parent \
        --label one_timer --rounds 60

Copies both checkouts' `src/orgflow` into a temporary directory under two
package names and builds, with each one's config parser, four bodies from
the seed-7 scenarios of this checkout's perfbench/workloads.py:

    objective_s      one PlanObjective call on a 190-plan population (the
                     children of one GA generation, 200 plans less 10
                     elites) on the `optimize-readme` scenario
    ga_s             that scenario's seeded GA 200 x 250
    sweep_capped_s   the twenty library `run()` calls of `sweep-capped`
    simulate_fine_s  `simulate-fine`'s `run()` as `orgflow simulate` calls
                     it (its snapshots, no l1 reference), without writing
                     its CSV files

It first checks that both sides give every body's outputs bit for bit:
the population's costs, the GA's histories and best genes, and every
array and snapshot of each run. Then it alternates the two sides for
--rounds rounds, the side that goes first flipping from round to round;
each round records, per side and body, the best of 3 timings. The
timings are process CPU time, which a busy neighbour on a shared machine
moves less than wall time.

BENCH_<label>_layers.json, written at the root of this checkout, holds
every round's times and, per body, each side's median, the median over
rounds of the change's time over the parent's, the number of rounds the
change was faster and, for the runs, the time steps the body takes. These
are the "one plan-objective evaluation", "one GA generation" and "one
transport step" layers of the roadmap's performance aim.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
POPULATION = 190
REPEATS = 3
# SimulationResult's arrays, compared bit for bit between the sides
ARRAYS = ("times", "density", "masses", "promotion", "hiring", "shortfall",
          "pool", "ready_ratio", "excess_wait", "l1_to_steady", "mass_error",
          "steady_density")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--label", required=True)
    parser.add_argument("--rounds", type=int, default=40)
    return parser.parse_args(argv)


def load_side(checkout: Path, name: str, tmp: Path, scenarios: dict) -> dict:
    """The package of checkout's src/orgflow, imported as name: one call
    per body, each returning the body's results as a list."""
    shutil.copytree(checkout / "src" / "orgflow", tmp / name)
    package = importlib.import_module(name)
    parse = importlib.import_module(f"{name}.config").parse_config
    readme = parse(scenarios["optimize-readme"][0])
    sweep = [parse(scenario) for scenario in scenarios["sweep-capped"]]
    fine = parse(scenarios["simulate-fine"][0])
    settings = readme.optimizer
    objective = package.PlanObjective(
        readme.spec, optimize_alpha=settings.optimize_alpha,
        optimize_p=settings.optimize_p, alpha_max=settings.alpha_max)
    ga_config = package.GaConfig(
        bounds=objective.bounds, population_size=settings.population_size,
        generations=settings.generations,
        mutation_chance=settings.mutation_chance,
        elitism=settings.elitism, seed=settings.seed)
    low, high = objective.bounds.T
    pop = np.random.default_rng(SEED).uniform(
        low, high, size=(POPULATION, low.size))

    def run(config, **kwargs):
        return package.run(
            config.spec, plan=config.plan, grid=config.grid,
            policy=config.policy_mode, horizon=config.horizon,
            cap=config.promotion_cap,
            external_fraction=config.external_fraction,
            initial=config.initial_density, **kwargs)

    return {
        "objective_s": lambda: [objective(pop)],
        "ga_s": lambda: [package.ga_minimize(objective, ga_config)],
        "sweep_capped_s": lambda: [run(config) for config in sweep],
        "simulate_fine_s": lambda: [run(
            fine, snapshot_times=fine.snapshot_times, l1_to_steady=False)],
    }


def fingerprint(result) -> list[bytes]:
    """A body's result as bytes: an objective's costs, a GA run's
    histories and best genes, or a run's arrays and snapshots."""
    if isinstance(result, np.ndarray):
        return [result.tobytes()]
    if hasattr(result, "best_history"):
        return [result.best_history.tobytes(), result.mean_history.tobytes(),
                result.best.genes.tobytes()]
    out = [b"" if getattr(result, name) is None
           else np.ascontiguousarray(getattr(result, name)).tobytes()
           for name in ARRAYS]
    out += [np.float64(t).tobytes() + np.ascontiguousarray(d).tobytes()
            for t, d in sorted(result.snapshots.items())]
    return out


def best_time(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        call()
        best = min(best, time.process_time() - start)
    return best


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    scenarios = {name: workload.scenarios(SEED)
                 for name, workload in workloads.items()}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {side: load_side(path, f"orgflow_{side}", Path(tmp),
                                 scenarios)
                 for side, path in checkouts.items()}
        layers = list(sides["change"])
        counts = {}
        for layer in layers:
            parent, change = (sides[side][layer]() for side in checkouts)
            if ([fingerprint(r) for r in parent]
                    != [fingerprint(r) for r in change]):
                raise SystemExit(f"the two sides' {layer} outputs differ")
            # the time steps of a body's runs; None for the plan search
            counts[layer] = (sum(r.times.size - 1 for r in change)
                             if hasattr(change[0], "times") else None)
        rounds = []
        for i in range(args.rounds):
            order = ("parent", "change")[::1 if i % 2 == 0 else -1]
            record = {"first": order[0]}
            for side in order:
                record[side] = {layer: best_time(sides[side][layer])
                                for layer in layers}
            rounds.append(record)
            print(f"round {i + 1}/{args.rounds}: " + ", ".join(
                f"{side} {record[side]}" for side in checkouts), flush=True)
    summary = {}
    for layer in layers:
        parent = [r["parent"][layer] for r in rounds]
        change = [r["change"][layer] for r in rounds]
        summary[layer] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "median_ratio": statistics.median(c / p for p, c in
                                              zip(parent, change)),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "rounds": len(rounds),
            "steps": counts[layer],
        }
    record = {
        "command": "scripts/layer_cost.py",
        "clock": "process CPU time",
        "seed": SEED,
        "population": POPULATION,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "summary": summary,
        "rounds": rounds,
    }
    path = ROOT / f"BENCH_{args.label}_layers.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
