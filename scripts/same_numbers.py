"""Check that a change leaves every transport and optimizer number, and
what the config parser prints, bit for bit as it was, or within the
bound named for an array that a change to run()'s arithmetic may move.

    python3 scripts/same_numbers.py --parent ../orgflow-parent
    python3 scripts/same_numbers.py --parent ../orgflow-parent \
        --expected cli/invalid/premium-zero.txt

Runs, once with the parent checkout's `src/` and once with this
checkout's, each in its own subprocess:

- the benchmark's seed-7 `sweep-capped` variants (twenty library `run()`
  calls), the `simulate-fine` scenario (one library `run()` with its
  snapshots, and one `orgflow simulate`) and that scenario at ds = 0.05,
  dt = 0.03 for 30 years (`dt-below-ds`, whose delay line has an empty
  tail) and, uncapped from its stationary start, at ds = dt = 0.05 for 5
  years (`stationary-start`);
- the README scenario, uncapped from its uniform start, at ds = dt = 0.1
  on 80 nodes for 40 years, with its l1 reference and snapshots at 3.3,
  10 and 40 years (`readme-l1`): 400 steps cross five copies of the delay
  line's tail and many of run()'s blocks, and two snapshots fall inside
  a block;
- a five-level ladder at ds = dt = 0.25 whose cut head covers all 10
  nodes, so that its delay line's tail is empty at dt = ds, uncapped and
  at cap 1 (`empty-tail`);
- the two-level org of ROADMAP defect 3, whose level 1 has tau = 0 and so
  the pool N_1 p_1, from a stationary start: one library `run()` at
  p_1 = 1e-9 (`defect-3`), and `orgflow steady`, `cost` and `simulate`
  at p_1 = 1e-9, 1e-17 and 1e-300;
- the seed-7 `optimize-readme` scenario through `orgflow optimize`, and
  the README scenario with level 1 at headcount 1e306 and a GA of
  10 x 5 (`defect-9`, ROADMAP defect 9), whose generations' costs sum
  past the largest float;
- `orgflow cost` on the README scenario under a plan with permanent
  shares below 1 and hiring ratios above 1, and under p = 0.8 with two
  business units and a floater wage on every level, so that the
  business-unit lines print (`cost-units`), or on level 1 only
  (`cost-units-partial`); at p = 1 with a floater wage on every
  level and two units that are ill posed where the org is not
  (`units-ill-posed`); and with two units, no floater wage curve and
  no temp wage under `cost.temporaries: false` (`cost-units-permanent`);
- seeded `ga_minimize` runs (60 x 40) on that scenario's org, for four
  seeds, elitism 0, 0.05 and 0.2, and two objectives (every gene free,
  and hiring ratios only), plus the objective's costs of random batches
  of 1, 190, 200 and 1,000 plans;
- `orgflow --dump-config` and `orgflow steady` (table and CSV) on every
  scenario above, and on the README scenario under a plan with
  permanent shares below 1 and hiring ratios above 1;
- `orgflow steady` on a fixed list of variants of the README scenario
  at the edges of the schema: schema and cross-block errors, an unknown
  key, missing and non-finite numbers, a zero premium, a block that is
  not an object, a floater wage at attrition 1e-310, piecewise
  floater-wage knots 1e-310 apart, a base wage at attrition 1e-310,
  which `orgflow cost` and `orgflow optimize` also price, and
  business-unit rows that miss the top level's headcount; and
  `orgflow optimize --seed -1`, `simulate`, `cost` and `optimize` with
  an output directory that names a file, `cost` and `optimize` with
  a directory at `cost.csv` and `ga_history.csv` (`csv-is-directory`),
  and `simulate` on a two-level org whose snapshot times 100000 and
  100000.5 would share one file name (`snapshot-collision`, 200,002
  steps where the run is not refused);
- the closed-form analyses `case1_diagnostics`, `case2_residuals`,
  `min_external_ratios` and `min_permanent_share` on four wage-bearing
  orgs, under four plans each.

Both sides read their scenarios from this checkout's
perfbench/workloads.py, so they run the same inputs.

For every result array it prints the largest absolute and relative
difference and whether the two arrays are bit-identical (signed zeros
and NaNs included); for the CLI runs it compares stdout and every CSV
file byte for byte (`simulate`, `cost` and `optimize` run twice into one
directory, and the second run, which is compared, writes over stale
files longer than its own); for the parser, the dumped text and the exit
code, stdout and stderr of each invalid scenario. Two kinds of array may also
differ within a named bound, set beforehand from float64's eps:

- the closed-form analyses, by 1e-12 relative, since numpy's vector exp
  and math.exp may round e^x differently;
- in a transport run at dt = ds, the arrays that read the density past
  the eligibility head, which run() keeps as a scaled delay line: after
  m steps on n nodes, density and snapshots by 2 (m + 1) eps relative
  (floored at the smallest normal float), mass_error and l1_to_steady by
  2 (m + n + 1) eps absolute (both are relative to the level mass), and
  excess_wait by 2 (m + 8 n + 1) eps relative. tests/test_transport.py
  (_delay_line_bounds) derives them.

It exits 1 on any difference beyond these, 0 otherwise, and its last
lines count and name every array that is only within its bound. Each CLI
file named by --expected must differ instead: it is reported, not
counted, and counts when identical.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# relative gap allowed in the closed-form analyses
CLOSED_FORM_RTOL = 1e-12
EPS = np.finfo(float).eps
# the simulate-fine scenario on a grid where dt < ds
DT_BELOW_DS = {"ds": 0.05, "dt": 0.03, "s_max": 70.0, "horizon": 30.0}
# a ladder whose top eligibility age puts the cut head on the last of the
# grid's 10 nodes: an empty delay-line tail at dt = ds
EMPTY_TAIL = {
    "org": {"levels": [
        {"headcount": n, "attrition": mu, "eligibility_age": tau}
        for n, mu, tau in zip([8000, 4000, 2500, 1000, 500],
                              [0.16] * 4 + [0.5],
                              [1.0, 1.0, 1.5, 1.0, 2.5 - 1e-11])]},
    "grid": {"ds": 0.25, "dt": 0.25, "s_max": 2.5, "horizon": 10.0},
    "policy": {"mode": "external-fraction", "external_fraction": 0.25,
               "promotion_cap": None, "snapshot_times": [0.0, 5.0, 10.0]}}
# the simulate-fine scenario from its stationary start
STATIONARY_START = {"ds": 0.05, "dt": 0.05, "s_max": 70.0, "horizon": 5.0}
# the README scenario on a short grid, for a library run with l1 sums
README_L1 = {"ds": 0.1, "dt": 0.1, "s_max": 8.0, "horizon": 40.0}
README_L1_SNAPSHOTS = [3.3, 10.0, 40.0]
# level 1's permanent shares on the defect-3 org: a pool above its empty
# floor, one under it, and one whose rate C_2 / A_1 is 2.75e299
DEFECT_3_P1 = (1e-9, 1e-17, 1e-300)
# README level 1's headcount and the GA size of the defect-9 run
DEFECT_9_HEADCOUNT = 1e306
DEFECT_9_GA = {"population_size": 10, "generations": 5}
# a plan with temporaries and external hiring for orgflow steady
STEADY_PLAN = {"alpha": [1.2, 1.0, 1.1, 1.0], "p": [0.9, 0.8, 1.0, 1.0, 1.0]}
# the shares of each level's headcount held by two business units, and
# each level's constant floater wage as a share of its base wage: floaters
# undercut temporaries on all levels but the top
UNIT_SHARES = (0.3, 0.7)
FLOATER_WAGE_SHARES = (0.05, 0.05, 0.05, 0.05, 0.5)
# two units of the README org, each ill posed at one level (unit 1 at
# level 2, unit 2 at level 1) though the org is well posed
ILL_POSED_UNITS = [[5000, 200, 1900, 900, 250], [500, 5000, 1900, 900, 250]]
# two levels whose snapshots at 100000 and 100000.5 are recorded at
# different steps, but would both be written to snapshot_t100000.csv
SNAPSHOT_COLLISION = {
    "org": {"levels": [
        {"headcount": 100.0, "attrition": 0.1, "eligibility_age": 1.0},
        {"headcount": 50.0, "attrition": 0.2, "eligibility_age": 1.0}]},
    "grid": {"ds": 0.5, "dt": 0.5, "s_max": 5.0, "horizon": 100001.0},
    "policy": {"snapshot_times": [100000.0, 100000.5]}}
ARRAYS = ("times", "density", "masses", "promotion", "hiring", "shortfall",
          "pool", "ready_ratio", "excess_wait", "l1_to_steady", "mass_error",
          "steady_density")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--expected", nargs="+", default=[], metavar="FILE",
                        help="CLI files (as printed) that the change is "
                             "meant to alter")
    # internal: run one side's scenarios with SRC's orgflow into OUT
    parser.add_argument("--dump", nargs=2, type=Path, metavar=("SRC", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.parent is None) == (args.dump is None):
        parser.error("give --parent")
    return args


def result_arrays(prefix: str, result) -> dict[str, np.ndarray]:
    arrays = {f"{prefix}.{name}": getattr(result, name) for name in ARRAYS
              if getattr(result, name) is not None}
    for t, density in result.snapshots.items():
        arrays[f"{prefix}.snapshot_t{t:g}"] = density
    arrays[f"{prefix}.grid"] = np.array([result.grid.ds, result.grid.dt])
    return arrays


def delay_line_bound(name: str, arrays) -> tuple[float, bool] | None:
    """(bound, relative) for a transport array that run()'s delay line at
    dt = ds may move, from its run's step and node counts; None for every
    other array."""
    prefix, _, field = name.rpartition(".")
    grid = arrays.get(f"{prefix}.grid") if prefix else None
    if grid is None or grid[1] != grid[0]:
        return None
    steps = arrays[f"{prefix}.times"].size - 1
    nodes = arrays[f"{prefix}.density"].shape[1]
    sums = 2 * (steps + nodes + 1) * EPS
    if field == "density" or field.startswith("snapshot_t"):
        return 2 * (steps + 1) * EPS, True
    if field in ("mass_error", "l1_to_steady"):
        return sums, False
    if field == "excess_wait":
        return 2 * (steps + 8 * nodes + 1) * EPS, True
    return None


def defect_3_scenario(p1: float) -> dict:
    """The two-level org whose level 1 has tau = 0, so its pool is N_1 p_1,
    under the plan p = [p1, 0.6], from a stationary start."""
    return {"org": {"levels": [
        {"headcount": 7623.87, "attrition": 0.5, "base_wage": 157},
        {"headcount": 9211.3, "attrition": 0.38, "eligibility_age": 5.57,
         "base_wage": 147}]},
        "plan": {"alpha": [1.0], "p": [p1, 0.6]},
        "grid": {"ds": 0.05, "dt": 0.05, "s_max": 30.0, "horizon": 1.0},
        "policy": {"mode": "max-internal", "initial_density": "stationary"},
        "cost": {"premium": 0.2}}


def invalid_scenarios(base: dict) -> dict[str, dict]:
    """Variants of the scenario base at the edges of the schema, by name.

    The parser rejects all but close-knots, a piecewise floater wage whose
    knots lie 1e-310 apart, which must parse."""
    def variant(edit) -> dict:
        scenario = copy.deepcopy(base)
        edit(scenario)
        return scenario

    def runaway_floater(s):
        # level 1's floater wage grows as fast as staff leave
        levels = s["org"]["levels"]
        for level in levels:
            level["floater_wage"] = {"kind": "constant", "value": 40.0}
        levels[0]["floater_wage"] = {"kind": "exponential", "base": 30.0,
                                     "growth": levels[0]["attrition"]}
        s["org"]["business_units"] = [[lv["headcount"] / 2 for lv in levels]] * 2

    def units_miss(s):
        # the second unit holds 40 % of the top level, not 50 %
        levels = s["org"]["levels"]
        half = [lv["headcount"] / 2 for lv in levels]
        s["org"]["business_units"] = [half, half[:-1] + [0.8 * half[-1]]]

    def premium_zero(s):
        s["org"] = {"levels": [{"headcount": 1, "attrition": 0.5,
                                "base_wage": 5.0}]}
        s["cost"] = {"premium": 0}

    def tiny_attrition(s):
        # a constant floater wage's integral overflows at this attrition
        s["org"] = {"levels": [{"headcount": 1, "attrition": 1e-310,
                                "floater_wage": {"kind": "constant",
                                                 "value": 40.0}}]}
        del s["cost"]

    def tiny_attrition_wage(s):
        # w0 C / mu overflows although the wage bill is finite
        s["org"] = {"levels": [
            {"headcount": 100, "attrition": 1e-310, "eligibility_age": 2.0,
             "base_wage": 10.0},
            {"headcount": 50, "attrition": 0.2, "eligibility_age": 2.0,
             "base_wage": 20.0}]}

    def close_knots(s):
        curve = {"kind": "piecewise-linear", "knots": [0.0, 1e-310],
                 "values": [1.0, 2.0]}
        s["org"] = {"levels": [{"headcount": 1, "attrition": 0.5,
                                "floater_wage": curve}]}
        del s["cost"]

    return {
        "fixed-plan-without-plan": variant(
            lambda s: s["policy"].update(mode="fixed-plan")),
        "evaluate-without-plan": variant(
            lambda s: s["optimizer"].update(mode="evaluate")),
        "dt-above-ds": variant(lambda s: s.update(grid={"ds": 0.05, "dt": 0.1})),
        "runaway-floater": variant(runaway_floater),
        "unknown-key": variant(lambda s: s.update(polcy=s.pop("policy"))),
        "headcount-missing": variant(
            lambda s: s["org"]["levels"][2].pop("headcount")),
        "attrition-missing": variant(
            lambda s: s["org"]["levels"][0].pop("attrition")),
        "headcount-inf": variant(
            lambda s: s["org"]["levels"][0].update(headcount=float("inf"))),
        "horizon-inf": variant(lambda s: s["grid"].update(horizon=float("inf"))),
        "wage-growth-nan": variant(
            lambda s: s["org"].update(wage_growth=float("nan"))),
        "snapshot-minus-inf": variant(
            lambda s: s["policy"].update(snapshot_times=[0.0, -float("inf")])),
        "mutation-chance-nan": variant(
            lambda s: s["optimizer"].update(mutation_chance=float("nan"))),
        "premium-zero": variant(premium_zero),
        "cost-false": variant(lambda s: s.update(cost=False)),
        "floater-tiny-attrition": variant(tiny_attrition),
        "close-knots": variant(close_knots),
        "wage-tiny-attrition": variant(tiny_attrition_wage),
        "units-miss": variant(units_miss),
    }


def run_cli(argv: list[str], path: Path) -> None:
    """orgflow.cli.main(argv) in-process; its exit code, stdout and stderr
    into path."""
    from orgflow import cli
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"exit {code}\nstdout:\n{stdout.getvalue()}"
                    f"stderr:\n{stderr.getvalue()}")


def run_cli_over_stale(argv: list[str], out_dir: Path, path: Path) -> None:
    """run_cli(argv, path) twice: before the second run every file the
    first wrote into out_dir is overwritten with junk twice its length,
    so the second run's files, which are compared, must replace it."""
    run_cli(argv, path)
    for written in out_dir.glob("*.csv"):
        size = written.stat().st_size
        written.write_bytes(b"stale\n" * (size // 3 + 1))
    run_cli(argv, path)


def dump(src: Path, out: Path) -> None:
    """One side: every array into out/arrays.npz, the CLI runs into out/cli."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from orgflow import transport
    from orgflow.config import load_config
    if not Path(transport.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"orgflow imported from {transport.__file__}")
    module = importlib.import_module("workloads")
    workloads = module.WORKLOADS
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    arrays = {}
    runs = {name: workloads[name].scenarios(SEED)
            for name in ("sweep-capped", "simulate-fine")}
    below = copy.deepcopy(runs["simulate-fine"][0])
    below["grid"] = dict(DT_BELOW_DS)
    below["policy"]["snapshot_times"] = [0.0, DT_BELOW_DS["horizon"]]
    runs["dt-below-ds"] = [below]
    start = copy.deepcopy(runs["simulate-fine"][0])
    start["grid"] = dict(STATIONARY_START)
    start["policy"].update(initial_density="stationary",
                           snapshot_times=[0.0, STATIONARY_START["horizon"]])
    runs["stationary-start"] = [start]
    readme = module.readme_scenario(SEED)
    readme["grid"] = dict(README_L1)
    readme["policy"]["snapshot_times"] = list(README_L1_SNAPSHOTS)
    runs["readme-l1"] = [readme]
    runs["defect-3"] = [defect_3_scenario(DEFECT_3_P1[0])]
    capped = copy.deepcopy(EMPTY_TAIL)
    capped["policy"]["promotion_cap"] = 1.0
    runs["empty-tail"] = [EMPTY_TAIL, capped]
    for name, scenarios in runs.items():
        for i, scenario in enumerate(scenarios):
            path = inputs / f"{name}_{i:02d}.json"
            path.write_text(json.dumps(scenario))
            cfg = load_config(str(path))
            result = transport.run(
                cfg.spec, plan=cfg.plan, grid=cfg.grid,
                policy=cfg.policy_mode, horizon=cfg.horizon,
                cap=cfg.promotion_cap,
                external_fraction=cfg.external_fraction,
                initial=cfg.initial_density,
                snapshot_times=cfg.snapshot_times)
            arrays.update(result_arrays(f"{name}[{i}]", result))
    path = inputs / "optimize-readme_00.json"
    path.write_text(json.dumps(workloads["optimize-readme"].scenarios(SEED)[0]))
    arrays.update(ga_arrays(load_config(str(path)).spec))
    np.savez(out / "arrays.npz", **arrays)
    np.savez(out / "closed_form.npz", **closed_form_arrays(module))
    base = module.readme_scenario(SEED)
    (inputs / "readme-plan_00.json").write_text(
        json.dumps(dict(base, plan=STEADY_PLAN)))
    units = copy.deepcopy(base)
    levels = units["org"]["levels"]
    for level, share in zip(levels, FLOATER_WAGE_SHARES):
        level["floater_wage"] = {"kind": "constant",
                                 "value": share * level["base_wage"]}
    units["org"]["business_units"] = [[share * lv["headcount"]
                                       for lv in levels]
                                      for share in UNIT_SHARES]
    ill_units = copy.deepcopy(units)
    ill_units["org"]["business_units"] = ILL_POSED_UNITS
    (inputs / "readme-units-ill-posed_00.json").write_text(
        json.dumps(ill_units))
    permanent = copy.deepcopy(units)
    for level in permanent["org"]["levels"]:
        del level["floater_wage"]
    permanent["cost"] = {"temporaries": False}
    (inputs / "readme-units-permanent_00.json").write_text(
        json.dumps(permanent))
    units["plan"] = {"alpha": [1.0] * 4, "p": [0.8] * 5}
    (inputs / "readme-units_00.json").write_text(json.dumps(units))
    for level in units["org"]["levels"][1:]:
        del level["floater_wage"]
    (inputs / "readme-units-partial_00.json").write_text(json.dumps(units))
    huge = copy.deepcopy(base)
    huge["org"]["levels"][0]["headcount"] = DEFECT_9_HEADCOUNT
    huge["optimizer"].update(DEFECT_9_GA)
    (inputs / "defect-9_00.json").write_text(json.dumps(huge))
    # the CLI runs from out, so the paths it prints are the same on both
    # sides
    os.chdir(out)
    for command, scenario, name in (
            ("simulate", "simulate-fine_00", "simulate"),
            ("cost", "readme-plan_00", "cost"),
            ("cost", "readme-units_00", "cost-units"),
            ("cost", "readme-units-partial_00", "cost-units-partial"),
            ("cost", "readme-units-permanent_00", "cost-units-permanent"),
            ("optimize", "optimize-readme_00", "optimize"),
            ("optimize", "defect-9_00", "optimize-defect-9")):
        run_cli_over_stale([command, "--config", f"inputs/{scenario}.json",
                            "--out", f"cli/{name}"], out / "cli" / name,
                           out / "cli" / name / "stdout.txt")
    for path in sorted(inputs.glob("*.json")):
        run_cli(["--config", f"inputs/{path.name}", "--dump-config"],
                out / "cli" / "dump-config" / f"{path.stem}.txt")
        for fmt in ("table", "csv"):
            run_cli(["steady", "--config", f"inputs/{path.name}",
                     "--format", fmt],
                    out / "cli" / "steady" / f"{path.stem}.{fmt}.txt")
    for name, scenario in invalid_scenarios(base).items():
        path = inputs / "invalid" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(scenario))
        run_cli(["steady", "--config", f"inputs/invalid/{name}.json"],
                out / "cli" / "invalid" / f"{name}.txt")
    # failures of the command line rather than of the scenario file
    run_cli(["optimize", "--config", "inputs/readme-plan_00.json",
             "--seed", "-1"], out / "cli" / "invalid" / "seed-negative.txt")
    (out / "taken").write_text("")
    for command in ("simulate", "cost", "optimize"):
        run_cli([command, "--config", "inputs/readme-plan_00.json",
                 "--out", "taken"],
                out / "cli" / "invalid" / f"out-is-file.{command}.txt")
    for command, name in (("cost", "cost.csv"),
                          ("optimize", "ga_history.csv")):
        (out / f"blocked-{command}" / name).mkdir(parents=True)
        run_cli([command, "--config", "inputs/readme-plan_00.json",
                 "--out", f"blocked-{command}"],
                out / "cli" / "invalid" / f"csv-is-directory.{command}.txt")
    # their CSV files, if any, go outside cli/: only stdout is compared
    run_cli(["cost", "--config", "inputs/readme-units-ill-posed_00.json",
             "--out", "priced"],
            out / "cli" / "invalid" / "units-ill-posed.cost.txt")
    (inputs / "invalid" / "snapshot-collision.json").write_text(
        json.dumps(SNAPSHOT_COLLISION))
    run_cli(["simulate", "--config", "inputs/invalid/snapshot-collision.json",
             "--out", "priced"],
            out / "cli" / "invalid" / "snapshot-collision.simulate.txt")
    for command in ("cost", "optimize"):
        run_cli([command, "--config", "inputs/invalid/wage-tiny-attrition.json",
                 "--out", "priced"],
                out / "cli" / "invalid" / f"wage-tiny-attrition.{command}.txt")
    # the defect-3 org: only stdout is compared, its arrays at p_1 = 1e-9
    # come from the library run above
    (inputs / "defect-3").mkdir()
    for p1 in DEFECT_3_P1:
        name = f"p1={p1:g}"
        (inputs / "defect-3" / f"{name}.json").write_text(
            json.dumps(defect_3_scenario(p1)))
        for command in ("steady", "cost", "simulate"):
            run_cli([command, "--config", f"inputs/defect-3/{name}.json",
                     "--out", "priced"],
                    out / "cli" / "defect-3" / f"{name}.{command}.txt")


def closed_form_arrays(workloads) -> dict[str, np.ndarray]:
    """case1_diagnostics, case2_residuals, min_external_ratios and
    min_permanent_share on four orgs with wages (the README org, both
    ladders of the tests and a two-level org), each under four plans for
    the one- and four for the two-level analysis. A call that raises
    gives NaN."""
    import inspect
    from orgflow import (FlexPlan, LevelSpec, OrgSpec, case1_diagnostics,
                         case2_residuals, min_external_ratios,
                         min_permanent_share)

    def org(heads, rates, base, ages=None):
        ages = ages or [workloads.ELIGIBILITY_AGE] * len(heads)
        return OrgSpec(levels=[
            LevelSpec(headcount=n, attrition=mu, eligibility_age=tau,
                      base_wage=w, temp_wage=1.2 * w)
            for n, mu, tau, w in zip(heads, rates, ages, base)],
            wage_growth=0.04)

    wages = workloads.README_WAGES
    orgs = {
        "readme": org(workloads.README_HEADS, workloads.README_RATES, wages),
        "low-turnover": org(workloads.README_HEADS, [0.08] * 4 + [0.5], wages),
        "high-turnover": org(workloads.LADDER_HEADS, workloads.LADDER_RATES,
                             wages),
        "two-level": org([1000.0, 400.0], [0.10, 0.15], [30.0, 60.0],
                         [3.0, 2.0]),
    }
    # (alpha, p_1, p_2): case 1 varies p_1 alone, case 2 both
    one = ((1.0, 0.88), (1.2, 0.92), (1.5, 0.97), (2.0, 1.0))
    two = ((1.0, 0.9, 0.95), (1.2, 0.95, 0.9), (1.5, 0.97, 0.85),
           (2.0, 0.99, 0.99))
    # before min_permanent_share returned every level, it took one
    per_level = "level" in inspect.signature(min_permanent_share).parameters

    def values(call) -> np.ndarray:
        try:
            return np.atleast_1d(np.asarray(call(), dtype=float))
        except ValueError:
            return np.array([np.nan])

    arrays = {}
    for name, spec in orgs.items():
        size = spec.size
        arrays[f"{name}.min_external_ratios"] = values(
            lambda: min_external_ratios(spec))
        plans = [(f"case1[{i}]", FlexPlan(alpha=np.full(size - 1, a),
                                          p=np.r_[p1, np.ones(size - 1)]))
                 for i, (a, p1) in enumerate(one)]
        plans += [(f"case2[{i}]", FlexPlan(alpha=np.full(size - 1, a),
                                           p=np.r_[p1, p2, np.ones(size - 2)]))
                  for i, (a, p1, p2) in enumerate(two)]
        for label, plan in plans:
            prefix = f"{name}.{label}"
            arrays[f"{prefix}.min_permanent_share"] = values(
                lambda: [min_permanent_share(spec, plan, j + 1)
                         for j in range(size)] if per_level
                else min_permanent_share(spec, plan))
            if label.startswith("case1"):
                def case1():
                    d = case1_diagnostics(spec, plan)
                    regime = ("min-share", "interior", "all-permanent")
                    return [d.first_derivative, d.second_derivative,
                            d.p_opt, d.p_min, regime.index(d.regime)]
                arrays[f"{prefix}.case1_diagnostics"] = values(case1)
            else:
                arrays[f"{prefix}.case2_residuals"] = values(
                    lambda: case2_residuals(spec, plan))
    return arrays


def ga_arrays(spec) -> dict[str, np.ndarray]:
    """Seeded GA runs and batch costs of two objectives on spec."""
    from orgflow import GaConfig, PlanObjective, ga_minimize
    arrays = {}
    for label, objective in (("full", PlanObjective(spec)),
                             ("alpha", PlanObjective(spec, optimize_p=False))):
        bounds = objective.bounds
        rng = np.random.default_rng(SEED)
        for size in (1, 190, 200, 1000):
            pop = rng.uniform(bounds[:, 0], bounds[:, 1],
                              size=(size, len(bounds)))
            arrays[f"objective.{label}[{size}]"] = objective(pop)
        for seed in (3, 7, 11, 19):
            for elitism in (0.0, 0.05, 0.2):
                result = ga_minimize(objective, GaConfig(
                    bounds=bounds, population_size=60, generations=40,
                    seed=seed, elitism=elitism))
                prefix = f"ga.{label}[seed={seed},elitism={elitism}]"
                arrays[f"{prefix}.best_history"] = result.best_history
                arrays[f"{prefix}.mean_history"] = result.mean_history
                arrays[f"{prefix}.best_genes"] = result.best.genes
                arrays[f"{prefix}.best"] = np.array(
                    [result.best.fitness, result.best.feasible])
    return arrays


def run_side(src: Path, out: Path) -> None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump",
           str(src), str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr}")


def differences(a: np.ndarray, b: np.ndarray,
                floor: float = 0.0) -> tuple[float, float]:
    """Largest absolute and relative gap over the elements finite on both
    sides, the relative one against max(|a|, |b|, floor); inf where
    finiteness itself differs."""
    finite_a, finite_b = np.isfinite(a), np.isfinite(b)
    if not np.array_equal(finite_a, finite_b) or not np.array_equal(
            a[~finite_a], b[~finite_b], equal_nan=True):
        return np.inf, np.inf
    x, y = a[finite_a], b[finite_b]
    if x.size == 0:
        return 0.0, 0.0
    gap = np.abs(x - y)
    scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), floor)
    rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
    return float(gap.max()), float(rel.max())


def compare_arrays(parent: Path, change: Path, npz: str,
                   rtol: float = 0.0) -> tuple[int, list[str]]:
    """Print every array of both sides' npz file; count those that differ
    by more than rtol relative (any bit, at rtol 0), or, for an array the
    delay line may move, by more than its bound (see delay_line_bound).
    Returns that count and the names of the arrays that differ only
    within their bound."""
    before = np.load(parent / npz)
    after = np.load(change / npz)
    failed, within = 0, []
    if set(before.files) != set(after.files):
        print(f"arrays differ: parent only {sorted(set(before.files) - set(after.files))}, "
              f"change only {sorted(set(after.files) - set(before.files))}")
        failed += 1
    print(f"{npz + ' array':<48} {'max abs':>10} {'max rel':>10}  bit-identical")
    for name in sorted(set(before.files) & set(after.files), key=str.lower):
        a, b = before[name], after[name]
        if a.shape != b.shape or a.dtype != b.dtype:
            print(f"{name:<48} shape/dtype {a.shape} {a.dtype} vs "
                  f"{b.shape} {b.dtype}")
            failed += 1
            continue
        bound, relative = delay_line_bound(name, before) or (rtol, True)
        same = a.tobytes() == b.tobytes()
        gap, rel = differences(a, b, np.finfo(float).tiny if relative else 0)
        close = same or (rel if relative else gap) <= bound
        failed += not close
        if close and not same:
            within.append(name)
        kind = "relative" if relative else "absolute"
        verdict = ("yes" if same else f"no, within {bound:.3g} {kind}"
                   if close else "NO")
        print(f"{name:<48} {gap:>10.3g} {rel:>10.3g}  {verdict}")
    return failed, within


def compare(parent: Path, change: Path, expected: list[str]) -> int:
    failed, within = compare_arrays(parent, change, "arrays.npz")
    closed, closed_within = compare_arrays(parent, change, "closed_form.npz",
                                           CLOSED_FORM_RTOL)
    failed += closed
    within += closed_within
    files = sorted(p.relative_to(parent)
                   for p in (parent / "cli").rglob("*") if p.is_file())
    mine = sorted(p.relative_to(change)
                  for p in (change / "cli").rglob("*") if p.is_file())
    if files != mine:
        print(f"CLI files differ: {files} vs {mine}")
        failed += 1
    unknown = set(expected) - {str(p) for p in files}
    if unknown:
        print(f"--expected names no CLI file: {sorted(unknown)}")
        failed += 1
    for rel_path in files:
        if rel_path not in mine:
            continue
        same = (parent / rel_path).read_bytes() == (change / rel_path).read_bytes()
        if str(rel_path) in expected:
            failed += same
            verdict = "yes, but a difference was expected" if same else \
                "no, as expected"
        else:
            failed += not same
            verdict = "yes" if same else "NO"
        print(f"{str(rel_path):<48} {'':>21}  {verdict}")
    if failed:
        print(f"{failed} differences")
        return 1
    if within:
        print(f"{len(within)} arrays differ only within their bounds:")
        for name in within:
            print(f"  {name}")
    if expected:
        print(f"{len(expected)} CLI files differ as expected")
    print("everything else identical" if within or expected
          else "all identical")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.dump is not None:
        dump(*args.dump)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": args.parent.resolve() / "src",
                 "change": ROOT / "src"}
        for side, src in sides.items():
            run_side(src, Path(tmp) / side)
        return compare(Path(tmp) / "parent", Path(tmp) / "change",
                       args.expected)


if __name__ == "__main__":
    sys.exit(main())
