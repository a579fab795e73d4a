"""The three benchmark workloads: generated inputs, timed bodies, checks.

Each workload writes its scenario files from the workload seed, runs one
closed-loop body (one CLI call, or twenty library run() calls), and checks
the outputs against seed-independent invariants plus, where the inputs
match the recorded ones, against reference values printed by this code
base (perfbench/reference.json, see record_reference.py).

Nothing here imports orgflow at module level: run.py measures the import
in fresh interpreters first and puts the source tree on sys.path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

# the README scenario: 5 levels, wage growth 0.04, temporary premium 0.2
README_HEADS = [5500, 5200, 3800, 1800, 500]
README_RATES = [0.08, 0.08, 0.08, 0.08, 0.2]
README_WAGES = [35.0, 49.0, 69.0, 96.0, 134.0]
# the high-turnover ladder of tests/conftest.py
LADDER_HEADS = [8000, 4000, 2500, 1000, 500]
LADDER_RATES = [0.16, 0.16, 0.16, 0.16, 0.5]
ELIGIBILITY_AGE = 4.0

# seed whose outputs reference.json holds; simulate-fine ignores the seed
REFERENCE_SEED = 7
# relative mass error allowed before and after density reaches the end
# of the grid; see mass_tolerance
MASS_TOL = 1e-9
TRUNCATION_TOL = 1e-5
BALANCE_TOL = 1e-9
# closed form against the quadrature oracle, and the printed cost of a
# plan against org_cost of its printed (6-decimal) genes
COST_RTOL = 1e-6

SWEEP_CAPS = (0.5, 1.0, 2.0, 5.0, None)  # None: uncapped
SWEEP_CLOSURES = (("max-internal", 0.0), ("external-fraction", 0.25))
SWEEP_INITIAL = ("uniform", "truncated-exponential")
SWEEP_RUNS = 20
SWEEP_HORIZON = 20.0


class Checks:
    """Counts correctness checks; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class Prepared:
    """A workload's generated inputs, loaded once during set-up."""

    workload: "Workload"
    seed: int
    inputs: list[Path]
    out_dir: Path
    configs: list = field(default_factory=list)

    @property
    def matches_reference(self) -> bool:
        return not self.workload.seeded or self.seed == REFERENCE_SEED


class Workload:
    name = ""
    seeded = True

    def scenarios(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def prepare(self, seed: int, work_dir: Path) -> Prepared:
        """Write the seed's scenario files; set-up loads them later."""
        in_dir = work_dir / "inputs"
        out_dir = work_dir / "out"
        in_dir.mkdir(parents=True, exist_ok=True)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, scenario in enumerate(self.scenarios(seed)):
            path = in_dir / f"scenario_{i:02d}.json"
            path.write_text(json.dumps(scenario, indent=2))
            paths.append(path)
        return Prepared(self, seed, paths, out_dir)

    def load(self, prep: Prepared) -> None:
        from orgflow.config import load_config
        prep.configs = [load_config(str(p)) for p in prep.inputs]

    def body(self, prep: Prepared):
        raise NotImplementedError

    def plans(self, prep: Prepared) -> int:
        """Stationary plans evaluated by one body."""
        return 0

    def node_steps(self, prep: Prepared) -> int:
        """Sum of L * n_nodes * n_steps over the body's transport runs."""
        return 0

    def check(self, prep: Prepared, outcome, checks: Checks) -> None:
        raise NotImplementedError

    def digest(self, prep: Prepared, outcome) -> dict:
        """Printed output values compared against reference.json."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared helpers


def readme_scenario(seed: int) -> dict:
    levels = [{"headcount": n, "attrition": mu,
               "eligibility_age": ELIGIBILITY_AGE, "base_wage": w}
              for n, mu, w in zip(README_HEADS, README_RATES, README_WAGES)]
    return {
        "org": {"wage_growth": 0.04, "levels": levels},
        "grid": {"ds": 0.05, "dt": 0.05, "s_max": 70.0, "horizon": 60.0},
        "policy": {"mode": "max-internal", "promotion_cap": None,
                   "initial_density": "uniform",
                   "snapshot_times": [0.0, 60.0]},
        "cost": {"premium": 0.2},
        "optimizer": {"mode": "ga", "population_size": 200,
                      "generations": 250, "seed": seed},
        "output": {"directory": "out"},
    }


def call_cli(argv: list[str]) -> tuple[int, str]:
    """orgflow.cli.main in-process, stdout captured for the checks."""
    from orgflow import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header row and data rows of an orgflow CSV, '#' comments skipped."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def comments(path: Path) -> list[str]:
    with open(path) as fh:
        return [line[2:].rstrip("\n") for line in fh if line.startswith("# ")]


def all_finite(cells) -> bool:
    return all(math.isfinite(float(c)) for c in cells if c != "")


_NUMBER = re.compile(r"[-+]?(\d*)\.?(\d*)(?:[eE]([-+]?\d+))?")


def last_digit(text: str) -> float:
    """Value of one unit in the last digit a number was printed with."""
    m = _NUMBER.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a printed number: {text!r}")
    return 10.0 ** (int(m.group(3) or 0) - len(m.group(2)))


def compare_digest(current: dict, reference: dict, checks: Checks,
                   where: str) -> None:
    """Each printed value within one unit of the last printed digit.

    The unit is the finer of the two printings, since %g prints a zero or
    a whole number without decimals; 1e-12 absolute lets an exact zero
    become a rounding-level residue and back.
    """
    checks.check(current.keys() == reference.keys(),
                 f"{where}: reference fields differ")
    for key in sorted(current.keys() & reference.keys()):
        got, want = current[key], reference[key]
        if not checks.check(len(got) == len(want),
                            f"{where}.{key}: {len(got)} values, "
                            f"reference has {len(want)}"):
            continue
        bad = [i for i, (g, w) in enumerate(zip(got, want))
               if abs(float(g) - float(w))
               > max(min(last_digit(g), last_digit(w)) * (1 + 1e-9), 1e-12)]
        checks.check(not bad, f"{where}.{key}: {len(bad)} values off the "
                     f"reference, first at {bad[:1]}: "
                     f"{[got[i] for i in bad[:1]]} vs "
                     f"{[want[i] for i in bad[:1]]}")


# ---------------------------------------------------------------------------
# optimize-readme


class OptimizeReadme(Workload):
    name = "optimize-readme"

    def scenarios(self, seed):
        return [readme_scenario(seed)]

    def body(self, prep):
        return call_cli(["optimize", "--config", str(prep.inputs[0]),
                         "--out", str(prep.out_dir)])

    def plans(self, prep):
        opt = prep.configs[0].optimizer
        pop = opt.population_size
        elite = max(1, int(opt.elitism * pop)) if opt.elitism > 0 else 0
        return pop + (opt.generations - 1) * (pop - elite)

    def _files(self, prep):
        return prep.out_dir / "ga_history.csv", prep.out_dir / "best_plan_cost.csv"

    @staticmethod
    def _genes(cost_path):
        """The best plan's genes as printed in the cost file's header."""
        return {key: values.split() for key, _, values in
                (line.partition(" = ") for line in comments(cost_path))
                if key in ("alpha", "p")}

    def check(self, prep, outcome, checks):
        import numpy as np
        from orgflow import FlexPlan, cost_quadrature_oracle, org_cost
        code, _ = outcome
        if not checks.check(code == 0, f"optimize exit code {code}"):
            return
        history_path, cost_path = self._files(prep)
        _, history = read_csv(history_path)
        _, cost_rows = read_csv(cost_path)
        checks.check(all_finite(c for r in history for c in r)
                     and all_finite(c for r in cost_rows for c in r[1:]),
                     "optimize outputs not finite")
        generations = prep.configs[0].optimizer.generations
        checks.check(len(history) == generations,
                     f"ga_history has {len(history)} rows")
        best = [float(r[1]) for r in history]
        checks.check(all(b <= a for a, b in zip(best, best[1:])),
                     "best cost rises between generations")
        checks.check(history[-1][1] == cost_rows[-1][-1],
                     "best_plan_cost total differs from the GA best cost")
        genes = self._genes(cost_path)
        spec = prep.configs[0].spec
        plan = FlexPlan(alpha=np.array(genes["alpha"], dtype=float),
                        p=np.array(genes["p"], dtype=float))
        breakdown = org_cost(spec, plan)
        printed = [float(r[4]) for r in cost_rows[:-1]]
        checks.check(
            math.isclose(float(cost_rows[-1][4]), breakdown.total,
                         rel_tol=COST_RTOL)
            and all(math.isclose(p, c, rel_tol=COST_RTOL)
                    for p, c in zip(printed, breakdown.per_level)),
            "best_plan_cost.csv differs from org_cost of the printed plan")
        for j in range(spec.size):
            oracle = cost_quadrature_oracle(spec, plan, j + 1)
            checks.check(math.isclose(oracle, breakdown.per_level[j],
                                      rel_tol=COST_RTOL),
                         f"level {j + 1}: closed form {breakdown.per_level[j]}"
                         f" vs quadrature {oracle}")

    def digest(self, prep, outcome):
        history_path, cost_path = self._files(prep)
        _, history = read_csv(history_path)
        _, cost_rows = read_csv(cost_path)
        genes = self._genes(cost_path)
        return {
            "ga_best": [r[1] for r in history],
            "ga_mean": [r[2] for r in history],
            "plan_genes": genes["alpha"] + genes["p"],
            "plan_cost": [c for r in cost_rows for c in r[1:] if c != ""],
        }


# ---------------------------------------------------------------------------
# simulate-fine


class SimulateFine(Workload):
    name = "simulate-fine"
    seeded = False
    # reference rows: every this many steps (1 y at dt = 0.025), every
    # this many snapshot nodes
    TRAJECTORY_STRIDE = 40
    SNAPSHOT_STRIDE = 50

    def scenarios(self, seed):
        scenario = readme_scenario(seed)
        scenario["grid"] = {"ds": 0.025, "dt": 0.025, "s_max": 70.0,
                            "horizon": 120.0}
        scenario["policy"]["snapshot_times"] = [0.0, 60.0, 120.0]
        return [scenario]

    def body(self, prep):
        return call_cli(["simulate", "--config", str(prep.inputs[0]),
                         "--out", str(prep.out_dir)])

    def plans(self, prep):
        return 1

    def node_steps(self, prep):
        cfg = prep.configs[0]
        return (cfg.spec.size * cfg.grid.n_nodes
                * int(round(cfg.horizon / cfg.grid.dt)))

    def _snapshots(self, prep):
        cfg = prep.configs[0]
        return [prep.out_dir / f"snapshot_t{t:g}.csv" for t in cfg.snapshot_times]

    def check(self, prep, outcome, checks):
        code, stdout = outcome
        if not checks.check(code == 0, f"simulate exit code {code}"):
            return
        cfg = prep.configs[0]
        size = cfg.spec.size
        steps = int(round(cfg.horizon / cfg.grid.dt))
        header, rows = read_csv(prep.out_dir / "trajectory.csv")
        checks.check(len(rows) == (steps + 1) * size,
                     f"trajectory.csv has {len(rows)} rows")
        checks.check(all_finite(c for r in rows for c in r),
                     "trajectory.csv not finite")
        err = header.index("mass_error")
        tol = mass_tolerance(cfg, [float(r[0]) for r in rows])
        worst = max(float(r[err]) / t for r, t in zip(rows, tol))
        checks.check(worst <= 1.0,
                     f"trajectory mass_error at {worst:.3g} x its bound")
        masses = cfg.spec.n * (cfg.plan.p if cfg.plan else 1.0)
        for t, path in zip(cfg.snapshot_times, self._snapshots(prep)):
            _, snap = read_csv(path)
            cells = [c for r in snap for c in r[1:]]
            checks.check(all_finite(cells) and min(map(float, cells)) >= 0.0,
                         f"{path.name}: density not finite or negative")
            held = [cfg.grid.ds * sum(float(r[j + 1]) for r in snap)
                    for j in range(size)]
            rtol = COST_RTOL + float(mass_tolerance(cfg, t))
            checks.check(all(math.isclose(h, m, rel_tol=rtol)
                             for h, m in zip(held, masses)),
                         f"{path.name}: level masses {held} vs {list(masses)}")
        checks.check("trajectory written to" in stdout,
                     "simulate printed no summary")

    def digest(self, prep, outcome):
        _, stdout = outcome
        _, rows = read_csv(prep.out_dir / "trajectory.csv")
        size = prep.configs[0].spec.size
        picked = [r for k in range(0, len(rows) // size, self.TRAJECTORY_STRIDE)
                  for r in rows[k * size:(k + 1) * size]] + rows[-size:]
        digest = {"trajectory": [c for r in picked for c in r[:-1]]}
        for path in self._snapshots(prep):
            _, snap = read_csv(path)
            digest[path.stem] = [c for r in snap[::self.SNAPSHOT_STRIDE]
                                 for c in r]
        # final-state table: level..ready_ratio, mass_error left out
        lines = stdout.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("state at t")) + 2
        digest["final_state"] = [c for line in lines[start:start + size]
                                 for c in line.split()[:-1]]
        return digest


# ---------------------------------------------------------------------------
# sweep-capped


def sweep_variants(seed: int) -> list[tuple]:
    """(cap, closure, external fraction, initial) drawn with replacement."""
    grid = [(cap, mode, frac, init)
            for cap, (mode, frac), init in itertools.product(
                SWEEP_CAPS, SWEEP_CLOSURES, SWEEP_INITIAL)]
    rng = random.Random(seed)
    return [rng.choice(grid) for _ in range(SWEEP_RUNS)]


def mass_tolerance(cfg, times):
    """Allowed relative mass error at each recorded time of a run.

    The scheme restores every level's mass each step up to the outflow
    through the truncated end of the grid (see orgflow.transport). With
    dt = ds the upwind step moves the density front exactly one node per
    step, so nothing leaves before the edge of the initial support has
    aged to s_max: until then the error must stay at rounding level
    (MASS_TOL). From then on the outflow is allowed up to TRUNCATION_TOL.
    A uniform start ends at twice the eligibility age (1/mu where that
    is 0); a truncated-exponential start covers the whole grid.
    """
    import numpy as np
    grid, spec = cfg.grid, cfg.spec
    if cfg.initial_density == "uniform":
        widths = np.where(spec.tau > 0, 2.0 * spec.tau, 1.0 / spec.mu)
        edge = float(np.max(np.minimum(widths, grid.s_max)))
    else:
        edge = grid.s_max
    reached = np.asarray(times, dtype=float) >= grid.s_max - edge
    return np.where(reached, TRUNCATION_TOL, MASS_TOL)


class SweepCapped(Workload):
    name = "sweep-capped"

    def scenarios(self, seed):
        out = []
        for cap, mode, frac, initial in sweep_variants(seed):
            levels = [{"headcount": n, "attrition": mu,
                       "eligibility_age": ELIGIBILITY_AGE}
                      for n, mu in zip(LADDER_HEADS, LADDER_RATES)]
            out.append({
                "org": {"levels": levels},
                "grid": {"ds": 0.05, "dt": 0.05, "s_max": 70.0,
                         "horizon": SWEEP_HORIZON},
                "policy": {"mode": mode, "promotion_cap": cap,
                           "external_fraction": frac,
                           "initial_density": initial},
            })
        return out

    def body(self, prep):
        from orgflow import transport
        return [transport.run(cfg.spec, plan=cfg.plan, grid=cfg.grid,
                              policy=cfg.policy_mode, horizon=cfg.horizon,
                              cap=cfg.promotion_cap,
                              external_fraction=cfg.external_fraction,
                              initial=cfg.initial_density)
                for cfg in prep.configs]

    def plans(self, prep):
        return len(prep.configs)

    def node_steps(self, prep):
        return sum(cfg.spec.size * cfg.grid.n_nodes
                   * int(round(cfg.horizon / cfg.grid.dt))
                   for cfg in prep.configs)

    def check(self, prep, outcome, checks):
        import numpy as np
        for i, (cfg, res) in enumerate(zip(prep.configs, outcome)):
            where = f"run {i} ({cfg.policy_mode}, cap {cfg.promotion_cap:g}, " \
                    f"{cfg.initial_density})"
            arrays = [res.density, res.promotion, res.hiring, res.shortfall,
                      res.pool, res.ready_ratio, res.excess_wait,
                      res.mass_error]
            if res.steady_density is not None:
                arrays.append(res.l1_to_steady)
            checks.check(all(np.all(np.isfinite(a)) for a in arrays),
                         f"{where}: non-finite output")
            tol = mass_tolerance(cfg, res.times)
            worst = float(np.max(res.mass_error / tol[:, np.newaxis]))
            checks.check(worst <= 1.0,
                         f"{where}: mass_error at {worst:.3g} x its bound")
            mu_m = cfg.spec.mu * res.masses
            promoted_in = np.zeros_like(res.pool)
            promoted_in[:, 1:] = res.promotion[:, :-1] * res.pool[:, :-1]
            residual = (res.hiring * res.masses + promoted_in - mu_m
                        - res.promotion * res.pool)
            checks.check(bool(np.all(np.abs(residual) <= BALANCE_TOL * mu_m)),
                         f"{where}: balance residual "
                         f"{float(np.max(np.abs(residual) / mu_m)):.3e} x mu M")
            checks.check(bool(np.all(res.shortfall >= 0.0)),
                         f"{where}: negative shortfall")

    def digest(self, prep, outcome):
        return {f"run_{i:02d}": [f"{x:.8g}" for key in
                                 ("promotion", "hiring", "shortfall", "pool")
                                 for x in res.final_policy[key]]
                for i, res in enumerate(outcome)}


WORKLOADS = {w.name: w for w in (OptimizeReadme(), SimulateFine(), SweepCapped())}
