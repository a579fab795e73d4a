"""Alternating parent/change pairs of the benchmark, summarised in one file.

    python3 scripts/bench_pairs.py --parent ../orgflow-parent \
        --pairs optimize-readme=10 simulate-fine=10 sweep-capped=10 \
        --label cold_start

Each pair runs `python3 perfbench/run.py --workload W --seed 7
--seconds T --trace 0` once in the parent checkout and once in this one,
one after the other; the side that runs first flips from pair to pair.
T is `run_seconds` of BENCHMARK.json and 7 is run.py's default seed, so
both sides run what the benchmark runs. Both checkouts run their own
perfbench/ and src/, so give the parent as a full checkout (e.g.
`git clone` and `git checkout <parent>`).

BENCH_<label>.json, written at the root of this checkout, holds
every pair's end-to-end values and `correct` flags and, per workload and
metric, each side's median and quartiles, the number of pairs the
change won (ties count for neither side) and `gain_rule_met`: whether
the change won at least 9 in 10 of the pairs and its median beats the
parent's by more than the parent's quartile distance, the rule a claimed
gain must meet.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--pairs", nargs="+", required=True,
                        metavar="WORKLOAD=N", help="pairs to run per workload")
    parser.add_argument("--label", required=True)
    return parser.parse_args(argv)


def revision(checkout: Path) -> str | None:
    """HEAD of the checkout, marked when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    if head and git("status", "--porcelain", "--untracked-files=no"):
        head += " + working-tree changes"
    return head or None


def bench(checkout: Path, workload: str, seconds: float) -> dict:
    """One `run.py --trace 0`: its JSON result line, as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {"correct": result["correct"],
            "values": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["values"][name] for p in pairs]
        change = [p["change"]["values"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        gap = before["median"] - after["median"]
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": before, "change": after,
                     "change_wins": wins, "pairs": len(pairs),
                     "gain_rule_met": (10 * wins >= 9 * len(pairs)
                                       and (gap if lower else -gap)
                                       > before["q3"] - before["q1"])}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = {
        "command": "perfbench/run.py --trace 0",
        "seed": SEED,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "revisions": {side: revision(path) for side, path in sides.items()},
        "workloads": {},
    }
    for item in args.pairs:
        workload, _, count = item.partition("=")
        pairs = []
        for i in range(int(count)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = bench(sides[side], workload, seconds)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{count}: " + ", ".join(
                f"{side} {pair[side]['values']}" for side in sides), flush=True)
        record["workloads"][workload] = {
            "pairs": pairs,
            "summary": summarise(pairs, spec["end_to_end"]),
        }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
