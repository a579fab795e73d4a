"""Time the GA's plan objective in the parent checkout and in this one,
side by side in one process.

    python3 scripts/objective_cost.py --parent ../orgflow-parent \
        --label closed_form_layout
    python3 scripts/objective_cost.py --parent ../orgflow-parent \
        --label closed_form_layout --rounds 60

Copies both checkouts' `src/orgflow` into a temporary directory under two
package names and builds each one's `PlanObjective` from the seed-7
`optimize-readme` scenario (this checkout's perfbench/workloads.py), as
`orgflow optimize` does. It first checks that both sides price a
190-plan population (the children of one GA generation, 200 plans less
10 elites) to the same costs, bit for bit, and that a seeded GA 200 x 250
gives both the same best genes and history. Then it alternates the two
sides for --rounds rounds, the side that goes first flipping from round
to round; each round records, per side, the best of 3 timings of one
objective call on the population and of one seeded GA 200 x 250.

BENCH_<label>_objective.json, written at the root of this checkout,
holds every round's times, each side's median, the median over rounds
of the change's time over the parent's, and the number of rounds the
change was faster. These are the "one plan-objective evaluation" and
"one GA generation" layers of the roadmap's performance aim.
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


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--label", required=True)
    parser.add_argument("--rounds", type=int, default=40)
    return parser.parse_args(argv)


def load_side(checkout: Path, name: str, tmp: Path, scenario: dict):
    """The package of checkout's src/orgflow, imported as name: its
    objective on the scenario, and a call that runs its seeded GA."""
    shutil.copytree(checkout / "src" / "orgflow", tmp / name)
    package = importlib.import_module(name)
    config = importlib.import_module(f"{name}.config").parse_config(scenario)
    settings = config.optimizer
    objective = package.PlanObjective(
        config.spec, optimize_alpha=settings.optimize_alpha,
        optimize_p=settings.optimize_p, alpha_max=settings.alpha_max)
    ga_config = package.GaConfig(
        bounds=objective.bounds, population_size=settings.population_size,
        generations=settings.generations,
        mutation_chance=settings.mutation_chance,
        elitism=settings.elitism, seed=settings.seed)

    def ga():
        return package.ga_minimize(objective, ga_config)
    return objective, ga


def best_time(call, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    scenario = importlib.import_module("workloads").readme_scenario(SEED)
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {side: load_side(path, f"orgflow_{side}", Path(tmp),
                                 scenario)
                 for side, path in checkouts.items()}
        bounds = sides["change"][0].bounds
        pop = np.random.default_rng(SEED).uniform(
            bounds[:, 0], bounds[:, 1], size=(POPULATION, len(bounds)))
        costs = [objective(pop) for objective, _ in sides.values()]
        if costs[0].tobytes() != costs[1].tobytes():
            raise SystemExit("the two sides price the population differently")
        runs = [ga() for _, ga in sides.values()]
        for name, get in (("best history", lambda r: r.best_history),
                          ("mean history", lambda r: r.mean_history),
                          ("best genes", lambda r: r.best.genes)):
            if get(runs[0]).tobytes() != get(runs[1]).tobytes():
                raise SystemExit(f"the two sides' GA {name} differ")
        rounds = []
        for i in range(args.rounds):
            order = ("parent", "change")[::1 if i % 2 == 0 else -1]
            record = {"first": order[0]}
            for side in order:
                objective, ga = sides[side]
                record[side] = {"objective_s": best_time(objective, pop),
                                "ga_s": best_time(ga)}
            rounds.append(record)
            print(f"round {i + 1}/{args.rounds}: " + ", ".join(
                f"{side} {record[side]}" for side in checkouts), flush=True)
    summary = {}
    for layer in ("objective_s", "ga_s"):
        parent = [r["parent"][layer] for r in rounds]
        change = [r["change"][layer] for r in rounds]
        summary[layer] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "median_ratio": statistics.median(c / p for p, c in
                                              zip(parent, change)),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "rounds": len(rounds),
        }
    record = {
        "command": "scripts/objective_cost.py",
        "seed": SEED,
        "population": POPULATION,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "summary": summary,
        "rounds": rounds,
    }
    path = ROOT / f"BENCH_{args.label}_objective.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
