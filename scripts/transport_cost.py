"""Time the transport in the parent checkout and in this one, side by side
in one process.

    python3 scripts/transport_cost.py --parent ../orgflow-parent \
        --label fused_step
    python3 scripts/transport_cost.py --parent ../orgflow-parent \
        --label fused_step --rounds 60

Copies both checkouts' `src/orgflow` into a temporary directory under two
package names and parses, with each one's config parser, the seed-7
`sweep-capped` scenarios and the `simulate-fine` scenario (this
checkout's perfbench/workloads.py). It first checks that both sides give
the same arrays and snapshots, bit for bit, from the twenty library
`run()` calls of `sweep-capped` and from `simulate-fine`'s `run()` (as
`orgflow simulate` calls it, without writing its CSV files). Then it
alternates the two sides for --rounds rounds, the side that goes first
flipping from round to round; each round records, per side, the best of
3 timings of the twenty runs and of the one run. The timings are process
CPU time, which a busy neighbour on a shared machine moves less than wall
time.

BENCH_<label>_transport.json, written at the root of this checkout,
holds every round's times, each side's median, the median over rounds of
the change's time over the parent's, the number of rounds the change was
faster, and the time steps each body takes. This is the "one transport
step" layer of the roadmap's performance aim.
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


def load_side(checkout: Path, name: str, tmp: Path, sweep: list[dict],
              fine: dict) -> dict:
    """The package of checkout's src/orgflow, imported as name: one call
    per body, each returning its runs' results."""
    shutil.copytree(checkout / "src" / "orgflow", tmp / name)
    run = importlib.import_module(f"{name}.transport").run
    parse = importlib.import_module(f"{name}.config").parse_config
    sweep_configs = [parse(scenario) for scenario in sweep]
    fine_config = parse(fine)

    def runs(config, **kwargs):
        return run(config.spec, plan=config.plan, grid=config.grid,
                   policy=config.policy_mode, horizon=config.horizon,
                   cap=config.promotion_cap,
                   external_fraction=config.external_fraction,
                   initial=config.initial_density, **kwargs)

    return {
        "sweep_capped_s": lambda: [runs(c) for c in sweep_configs],
        "simulate_fine_s": lambda: [runs(
            fine_config, snapshot_times=fine_config.snapshot_times,
            l1_to_steady=False)],
    }


def steps(results) -> int:
    return sum(r.times.size - 1 for r in results)


def fingerprint(result) -> list[bytes]:
    """Every array and snapshot of a run, as bytes."""
    out = [np.ascontiguousarray(getattr(result, name)).tobytes()
           if getattr(result, name) is not None else b""
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
    sweep = workloads["sweep-capped"].scenarios(SEED)
    fine = workloads["simulate-fine"].scenarios(SEED)[0]
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {side: load_side(path, f"orgflow_{side}", Path(tmp), sweep,
                                 fine)
                 for side, path in checkouts.items()}
        layers = list(sides["change"])
        counts = {}
        for layer in layers:
            parent, change = (sides[side][layer]() for side in checkouts)
            if ([fingerprint(r) for r in parent]
                    != [fingerprint(r) for r in change]):
                raise SystemExit(f"the two sides' {layer} runs differ")
            counts[layer] = steps(change)
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
        "command": "scripts/transport_cost.py",
        "clock": "process CPU time",
        "seed": SEED,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "summary": summary,
        "rounds": rounds,
    }
    path = ROOT / f"BENCH_{args.label}_transport.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
