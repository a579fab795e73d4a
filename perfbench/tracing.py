"""Spans recorded from outside the program, by wrapping module attributes.

Every wrapped name is a module-level function (or the grid's mask method)
that orgflow's callers look up at run time, so replacing the attribute
routes their calls through a wrapper that records one span per call:
name, start, end, parent span and run id. Objects the program hands
around, such as the GA objective, are never wrapped, so attribute probing
on them sees the original object.

Spans stay in flat in-memory arrays until save() writes them once.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

# (module, attribute) pairs wrapped in a traced run; the span name is
# "<module>.<attribute>"
TARGETS = (
    ("cli", "load_config"),
    ("cli", "ga_minimize"),
    ("cli", "run"),
    ("cli", "org_cost"),
    ("cli", "write_trajectory_csv"),
    ("cli", "write_snapshot_csv"),
    ("cli", "write_ga_csv"),
    ("cli", "write_cost_csv"),
    ("optimize", "penalized_cost"),
    ("optimize", "org_cost"),
    ("optimize", "steady_promotable_pool"),
    ("costs", "steady_promotable_pool"),
    ("costs", "promotion_demands"),
    ("org", "promotion_demands"),
    ("transport", "run"),
    ("transport", "step"),
    ("transport", "close_policy_external_fraction"),
    ("transport", "level_metrics"),
    ("transport", "make_initial_density"),
    ("transport", "stationary_state"),
    ("transport.SeniorityGrid", "pre_eligibility_mask"),
)

CSV_WRITERS = tuple(f"cli.{attr}" for mod, attr in TARGETS
                    if mod == "cli" and attr.startswith("write_"))


def _resolve(path: str):
    import importlib
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"orgflow.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder with exact counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: dict[tuple[int, str], int] = {}
        self._stack = [-1]
        self._run_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: int) -> None:
        k = (self._run_id, key)
        self.counts[k] = self.counts.get(k, 0) + amount

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        node_steps = name == "transport.step"
        csv_writer = name in CSV_WRITERS
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self._run_id)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if node_steps:
                self._count("node_steps", args[0].size)
            elif csv_writer:
                self._count("csv_bytes", os.path.getsize(args[0]))
            return result

        return wrapper

    def install(self, run_id: int) -> None:
        """Wrap every target; the program then runs traced as run_id."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        self._run_id = run_id
        for path, attr in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{path}.{attr}"))

    def remove(self) -> None:
        """Put every original attribute back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if len(self._stack) != 1:
            raise RuntimeError("span stack unbalanced after a traced run")

    def arrays(self):
        import numpy as np
        # copies: a buffer view would stop the arrays from growing
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.array(self.name_id, dtype=np.int64),
            "run": np.array(self.run, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "duration": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        import numpy as np
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"],
                 run=a["run"], start=a["start"], end=a["end"],
                 parent=a["parent"])


def layer_metrics(tracer: Tracer, runs: list[int]) -> dict[str, float]:
    """Per-layer metrics of the traced runs.

    Counts are per run and must agree across runs (the caller checks);
    times are the median over runs of each run's total; per-call
    percentiles pool every run's calls.
    """
    import numpy as np
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def select(names, run=None):
        mask = np.isin(a["name"], [ids[n] for n in names])
        if run is not None:
            mask &= a["run"] == run
        return mask

    def per_run(names, column):
        return float(np.median([a[column][select(names, r)].sum()
                                for r in runs]))

    def calls(names):
        return int(select(names, runs[0]).sum())

    def pct(names, q):
        d = a["duration"][select(names) & np.isin(a["run"], runs)]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    def count(key):
        return tracer.counts.get((runs[0], key), 0)

    objective = ["optimize.penalized_cost"]
    org_cost = ["optimize.org_cost", "cli.org_cost"]
    demands = ["org.promotion_demands", "costs.promotion_demands"]
    pools = ["optimize.steady_promotable_pool", "costs.steady_promotable_pool"]
    step = ["transport.step"]
    mask = ["transport.SeniorityGrid.pre_eligibility_mask"]
    objective_calls = calls(objective)
    return {
        "cli.csv_s": per_run(CSV_WRITERS, "duration"),
        "cli.csv_bytes": count("csv_bytes"),
        "optimize.ga_s": per_run(["cli.ga_minimize"], "duration"),
        "optimize.ga_self_s": per_run(["cli.ga_minimize"], "self"),
        "optimize.objective_calls": objective_calls,
        "optimize.objective_us_p50": pct(objective, 50),
        "optimize.objective_us_p99": pct(objective, 99),
        "optimize.objective_self_s": per_run(objective, "self"),
        "optimize.feasible_fraction": (calls(["optimize.org_cost"])
                                       / objective_calls
                                       if objective_calls else 0.0),
        "costs.org_cost_calls": calls(org_cost),
        "costs.org_cost_self_s": per_run(org_cost, "self"),
        "org.demands_calls": calls(demands),
        "org.demands_s": per_run(demands, "duration"),
        "org.steady_pool_calls": calls(pools),
        "org.steady_pool_self_s": per_run(pools, "self"),
        "org.stationary_state_s": per_run(["transport.stationary_state"],
                                          "duration"),
        "transport.run_self_s": per_run(["cli.run", "transport.run"], "self"),
        "transport.step_calls": calls(step),
        "transport.step_us_p50": pct(step, 50),
        "transport.step_us_p99": pct(step, 99),
        "transport.step_self_s": per_run(step, "self"),
        "transport.closure_self_s": per_run(
            ["transport.close_policy_external_fraction"], "self"),
        "transport.metrics_self_s": per_run(["transport.level_metrics"],
                                            "self"),
        "transport.mask_calls": calls(mask),
        "transport.mask_s": per_run(mask, "duration"),
        "transport.init_s": per_run(["transport.make_initial_density"],
                                    "duration"),
        "transport.node_steps": count("node_steps"),
    }


# counts that must repeat exactly from one traced run to the next
EXACT = ("optimize.objective_calls", "transport.mask_calls",
         "transport.node_steps", "cli.csv_bytes", "transport.step_calls",
         "costs.org_cost_calls", "org.demands_calls", "org.steady_pool_calls")


def exact_counts(tracer: Tracer, run: int) -> dict[str, int]:
    m = layer_metrics(tracer, [run])
    return {k: m[k] for k in EXACT}
