import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import orgflow
from orgflow import cli, transport
from orgflow.config import ConfigError, dump_config, load_config, parse_config


HEADS = [5500, 5200, 3800, 1800, 500]
RATES = [0.08, 0.08, 0.08, 0.08, 0.2]
BASE = [35.0, 49.0, 69.0, 96.0, 134.0]
MIXED_PLAN = {"alpha": [1.32, 1.04, 1.02, 1.0],
              "p": [0.23, 0.22, 0.22, 0.39, 0.99]}


def plain_org(wages=False, top_attrition=0.2):
    levels = []
    for j in range(5):
        rate = top_attrition if j == 4 else RATES[j]
        lv = {"headcount": HEADS[j], "attrition": rate,
              "eligibility_age": 4.0}
        if wages:
            lv["base_wage"] = BASE[j]
        levels.append(lv)
    org = {"levels": levels}
    if wages:
        org["wage_growth"] = 0.04
    return org


def runaway_floater_org():
    # level 1's floater wage grows as fast as staff leave: its discounted
    # integral diverges
    org = plain_org(wages=True)
    for level in org["levels"]:
        level["floater_wage"] = {"kind": "constant", "value": 40.0}
    org["levels"][0]["floater_wage"] = {"kind": "exponential", "base": 30.0,
                                        "growth": RATES[0]}
    org["business_units"] = [[n / 2 for n in HEADS]] * 2
    return org


def tiny_attrition_org():
    # at attrition 1e-310, w0 C / mu overflows before the wage bill's
    # bracket (about mu N p / C) scales it back to a finite bill
    return {"levels": [
        {"headcount": 100, "attrition": 1e-310, "eligibility_age": 2.0,
         "base_wage": 10.0},
        {"headcount": 50, "attrition": 0.2, "eligibility_age": 2.0,
         "base_wage": 20.0},
    ]}


def defect_3_scenario(p1):
    # level 1 has tau = 0, so its pool is N_1 p_1: at p_1 = 1e-300 it is
    # positive but under its empty floor, and its rate C_2 / A_1 is 2.75e299
    return {"org": {"levels": [
        {"headcount": 7623.87, "attrition": 0.5, "base_wage": 157},
        {"headcount": 9211.3, "attrition": 0.38, "eligibility_age": 5.57,
         "base_wage": 147}]},
        "plan": {"alpha": [1.0], "p": [p1, 0.6]},
        "cost": {"premium": 0.2}}


# level 1 at 1.7e308: its densities, about N / ds, cannot be summed
# finitely on any grid the parser accepts
HUGE_LEVEL_1 = [1.7e308] + HEADS[1:]


def huge_readme(heads=(1e300, 9e299, 7e299, 3e299, 1e299), wage_scale=1.0):
    # the README scenario with headcounts or wages near the largest float:
    # its pools, costs and the GA's penalty for ill-posed plans reach 1e300
    org = plain_org(wages=True)
    for level, n in zip(org["levels"], heads):
        level["headcount"] = n
        level["base_wage"] *= wage_scale
    return {"org": org, "policy": {}, "cost": {"premium": 0.2},
            "optimizer": {"mode": "ga", "seed": 7}}


def edge_readme(levels=None, **blocks):
    """The README scenario (GA seed 7) at an edge of the schema: each
    level key in levels set to its five values, and blocks replaced."""
    data = huge_readme(heads=HEADS)
    for key, values in (levels or {}).items():
        for level, value in zip(data["org"]["levels"], values):
            level[key] = value
    data.update(blocks)
    return data


def ill_posed_units_readme():
    # the README scenario, well posed, with a floater wage on every level
    # and two business units that are not: unit 1 at level 2, unit 2 at
    # level 1
    data = edge_readme()
    for level, wage in zip(data["org"]["levels"], BASE):
        level["floater_wage"] = {"kind": "constant", "value": 0.05 * wage}
    data["org"]["business_units"] = [[5000, 200, 1900, 900, 250],
                                     [500, 5000, 1900, 900, 250]]
    return data


def fixed_plan_readme(p1):
    # level 1's permanent share at 0, the smallest subnormal and 1e-300,
    # under the fixed-plan policy and the evaluate mode
    return edge_readme(plan={"alpha": [1.0] * 4, "p": [p1] + [1.0] * 4},
                       policy={"mode": "fixed-plan"},
                       optimizer={"mode": "evaluate"})


def edge_examples(cut=lambda data: data):
    """An @example of each edge of the schema that the scenarios strategy
    does not draw, each passed through cut."""
    def add(test):
        for data in (
                fixed_plan_readme(0.0),
                fixed_plan_readme(5e-324),
                fixed_plan_readme(1e-300),
                edge_readme({"eligibility_age": [0.0] * 5}),
                # the grid's end just past the largest eligibility age, 4
                edge_readme(grid={"s_max": math.nextafter(4.0, 5.0)}),
                edge_readme(grid={"ds": 2.0, "dt": 2.0, "s_max": 4.5}),
                edge_readme({"base_wage": [8.5e307] * 5}),
                edge_readme({"base_wage": BASE[:4] + [1.7e308]})):
            test = example(cut(data))(test)
        return test
    return add


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def base_scenario(tmp_path, out="out", **blocks):
    data = {
        "org": plain_org(),
        "grid": {"ds": 0.05, "dt": 0.05, "s_max": 70.0, "horizon": 1.0},
        "policy": {"mode": "max-internal", "promotion_cap": None},
        "output": {"directory": str(tmp_path / out)},
    }
    data.update(blocks)
    return write_scenario(tmp_path, data)


def test_steady_reports_internal_sufficiency(tmp_path, capsys):
    path = base_scenario(tmp_path, org=plain_org(top_attrition=0.5))
    assert cli.main(["steady", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "internal hiring sufficient at every level" in out
    assert "1386.6253" in out  # level-2 promotable pool


def test_steady_ill_posed_prints_remedy(tmp_path, capsys):
    data = {
        "org": {"levels": [
            {"headcount": 100, "attrition": 0.1, "eligibility_age": 4.0},
            {"headcount": 1000, "attrition": 0.5},
        ]},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_scenario(tmp_path, data)
    assert cli.main(["steady", "--config", path]) == 3
    captured = capsys.readouterr()
    assert "ill-posed stationary problem:" in captured.out
    assert "alpha_2=24.5913" in captured.out
    assert "ill-posed model:" in captured.err


def test_steady_rejects_overflowing_promotion_rate(tmp_path, capsys):
    # level 1 has tau = 0, so its pool is N_1 p_1: positive at this p_1, but
    # so small that C_2 / A_1 overflows; it is ill posed (exit 3), with no
    # RuntimeWarning and no infinite rate printed
    data = dict(defect_3_scenario(2.2250738585e-313),
                output={"directory": str(tmp_path / "out")})
    path = write_scenario(tmp_path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["steady", "--config", path]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert "ill-posed stationary problem:" in captured.out
    assert "level 1: pool" in captured.err
    assert "inf" not in captured.out


@pytest.mark.parametrize("p1,code", [(1e-9, 0), (1e-17, 3),
                                     (2.2250738585e-313, 3)])
def test_simulate_from_stationary_start_on_tiny_pool(tmp_path, capsys, p1,
                                                     code):
    # level 1 has tau = 0, so its discrete pool is N_1 p_1 as in the
    # continuum: at p_1 = 1e-9 simulate accepts what steady accepts, and
    # (mu M + C) E - C would have cancelled mu M, an error growing like
    # 1 / p_1; at p_1 = 1e-17 the pool lies below the empty floor
    # 1e-12 N_1, and at the subnormal p_1 the rate C_2 / A_1 overflows:
    # both are ill posed (exit 3), with no RuntimeWarning
    data = {
        "org": {"levels": [
            {"headcount": 7623.87, "attrition": 0.5},
            {"headcount": 9211.3, "attrition": 0.38,
             "eligibility_age": 5.57}]},
        "plan": {"alpha": [1.0], "p": [p1, 0.6]},
        "grid": {"ds": 0.05, "dt": 0.05, "s_max": 30.0, "horizon": 1.0},
        "policy": {"mode": "max-internal", "initial_density": "stationary"},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_scenario(tmp_path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["simulate", "--config", path]) == code
        assert cli.main(["steady", "--config", path]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code:
        assert "level 1: pool" in capsys.readouterr().err
        return
    config = load_config(path)
    _, rates = transport._discrete_stationary_density(
        config.spec, config.plan, config.grid)
    demand = 0.38 * 9211.3 * 0.6  # C_2, all of level 2's attrition
    assert demand / rates[0] == pytest.approx(7623.87 * p1, rel=1e-12)


def test_simulate_from_a_starved_start_exits_3(tmp_path, capsys):
    # no permanent staff at level 2 while level 3 demands promotions: the
    # uniform start is refused before any output
    path = base_scenario(tmp_path,
                         plan={"alpha": [1.0] * 4, "p": [1, 0, 1, 1, 1]})
    assert cli.main(["simulate", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("ill-posed model: initial data leaves no promotable staff at "
            "level [2] although promotions are demanded from above"
            in captured.err)
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_simulate_writes_csv_outputs(tmp_path, capsys):
    path = base_scenario(
        tmp_path, out="out_sim",
        policy={"mode": "max-internal", "promotion_cap": None,
                "snapshot_times": [0.0, 1.0]})
    assert cli.main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "state at t = 1 yr" in out
    traj = tmp_path / "out_sim" / "trajectory.csv"
    assert traj.exists()
    lines = traj.read_text().splitlines()
    assert lines[0].startswith("# orgflow")
    assert any(line.startswith("# seed = ") for line in lines[:4])
    assert (tmp_path / "out_sim" / "snapshot_t0.csv").exists()
    assert (tmp_path / "out_sim" / "snapshot_t1.csv").exists()
    # a second run into the same directory replaces each file with the
    # same bytes
    files = {p.name: p.read_bytes() for p in (tmp_path / "out_sim").iterdir()}
    assert cli.main(["simulate", "--config", path]) == 0
    assert capsys.readouterr().out == out
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "out_sim").iterdir()} == files


def test_snapshot_times_that_share_a_file_exit_2(tmp_path, capsys):
    # 100000 and 100000.5 are recorded at different steps, but both print
    # as 100000 under {t:g}: the second snapshot's file would replace the
    # first's, so the scenario is refused before the run
    levels = [{"headcount": 100.0, "attrition": 0.1, "eligibility_age": 1.0},
              {"headcount": 50.0, "attrition": 0.2, "eligibility_age": 1.0}]
    path = base_scenario(
        tmp_path, org={"levels": levels},
        grid={"ds": 0.5, "dt": 0.5, "s_max": 5.0, "horizon": 100001.0},
        policy={"snapshot_times": [100000.0, 100000.5]})
    for command in ("simulate", "steady"):
        assert cli.main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "configuration error: policy.snapshot_times: the snapshots at "
            "100000.0 and 100000.5 would both be written to "
            "snapshot_t100000.csv\n")
    assert not (tmp_path / "out").exists()
    # two times recorded at one step share their file without a collision
    path = base_scenario(tmp_path, policy={"snapshot_times": [0.5, 0.51]})
    assert cli.main(["simulate", "--config", path]) == 0
    assert sorted(p.name for p in (tmp_path / "out").glob("snapshot_*")) == [
        "snapshot_t0.5.csv"]


@pytest.fixture(scope="module")
def csv_writers():
    """Each CSV writer as write(path), on small results of the README org."""
    config = parse_config({
        "org": plain_org(wages=True), "cost": {"premium": 0.2},
        "grid": {"ds": 0.1, "dt": 0.1, "s_max": 20.0, "horizon": 1.0},
        "policy": {"snapshot_times": [0.0, 1.0]}})
    spec = config.spec
    result = transport.run(spec, grid=config.grid, horizon=config.horizon,
                           snapshot_times=config.snapshot_times)
    objective = orgflow.PlanObjective(spec)
    history = orgflow.ga_minimize(objective, orgflow.GaConfig(
        bounds=objective.bounds, population_size=8, generations=3, seed=7))
    breakdown = orgflow.org_cost(spec, objective.decode(history.best.genes))
    headers = ["orgflow test", "seed = 7"]
    return {
        "trajectory": lambda path: orgflow.write_trajectory_csv(
            path, result, headers),
        "snapshot": lambda path: orgflow.write_snapshot_csv(
            path, result, 1.0, headers),
        "cost": lambda path: orgflow.write_cost_csv(path, breakdown, headers),
        "ga": lambda path: orgflow.write_ga_csv(path, history, headers),
    }


@pytest.mark.parametrize("writer", ["trajectory", "snapshot", "cost", "ga"])
def test_csv_writers_replace_the_file_at_their_path(tmp_path, csv_writers,
                                                    writer):
    # each writer creates its file new: what held the path before is
    # replaced, never written through, and a directory there still raises
    write = csv_writers[writer]
    write(str(tmp_path / "fresh.csv"))
    fresh = (tmp_path / "fresh.csv").read_bytes()
    # a longer, stale file, read-only, in a writable directory
    stale = tmp_path / "stale.csv"
    stale.write_bytes(b"stale\n" * len(fresh))
    stale.chmod(0o444)
    write(str(stale))
    assert stale.read_bytes() == fresh
    # a symlink and a hard link: their target keeps its bytes
    target = tmp_path / "target.csv"
    target.write_bytes(b"target\n")
    symlink, hardlink = tmp_path / "symlink.csv", tmp_path / "hardlink.csv"
    symlink.symlink_to(target)
    os.link(target, hardlink)
    for link in (symlink, hardlink):
        write(str(link))
        assert not link.is_symlink()
        assert link.read_bytes() == fresh
    assert target.read_bytes() == b"target\n"
    assert hardlink.stat().st_ino != target.stat().st_ino
    directory = tmp_path / "directory.csv"
    directory.mkdir()
    with pytest.raises(OSError):
        write(str(directory))
    assert directory.is_dir()


def test_simulate_builds_no_stationary_profile(tmp_path, capsys, monkeypatch):
    # no output of simulate holds l1_to_steady, so the run never asks for
    # the continuum stationary profile it is measured against
    path = base_scenario(tmp_path, out="out_sim")
    assert cli.main(["simulate", "--config", path]) == 0
    expected = capsys.readouterr().out, (
        tmp_path / "out_sim" / "trajectory.csv").read_bytes()

    def refuse(*args, **kwargs):
        raise RuntimeError("stationary_state called")

    monkeypatch.setattr("orgflow.transport.stationary_state", refuse)
    assert cli.main(["simulate", "--config", path]) == 0
    assert (capsys.readouterr().out, (
        tmp_path / "out_sim" / "trajectory.csv").read_bytes()) == expected


def test_seed_and_out_overrides(tmp_path, capsys):
    path = base_scenario(tmp_path, out="ignored")
    override = tmp_path / "elsewhere"
    assert cli.main(["simulate", "--config", path, "--seed", "42",
                     "--out", str(override)]) == 0
    capsys.readouterr()
    lines = (override / "trajectory.csv").read_text().splitlines()
    assert "# seed = 42" in lines[:4]
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("command", ["simulate", "cost", "optimize"])
@pytest.mark.parametrize("case,line", [
    pytest.param("seed", "configuration error: optimizer.seed: must be at "
                 "least 0, got -1", id="seed"),
    pytest.param("out", "configuration error: output.directory: cannot "
                 "create '{out}': File exists", id="out"),
])
def test_bad_seed_or_output_directory_exits_before_output(
        tmp_path, capsys, command, case, line):
    # a negative --seed, or an output directory that names a file, is
    # named on one stderr line before anything is printed or written
    out = tmp_path / "taken"
    out.write_text("")
    path = base_scenario(tmp_path, org=plain_org(wages=True),
                         cost={"premium": 0.2},
                         out="taken" if case == "out" else "out")
    argv = [command, "--config", path] + ["--seed", "-1"] * (case == "seed")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line.format(out=out) + "\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command,name", [
    ("cost", "cost.csv"),
    ("optimize", "ga_history.csv"),
    ("optimize", "best_plan_cost.csv"),
    ("simulate", "trajectory.csv"),
    ("simulate", "snapshot_t1.csv"),
])
def test_directory_at_an_output_file_exits_before_output(tmp_path, capsys,
                                                         command, name):
    # an output file whose path a directory takes is named on one stderr
    # line, as an output directory that cannot be created is, and nothing
    # is printed
    path = base_scenario(
        tmp_path, org=plain_org(wages=True), cost={"premium": 0.2},
        policy={"mode": "max-internal", "snapshot_times": [0.0, 1.0]},
        optimizer={"mode": "ga", "population_size": 8, "generations": 3,
                   "seed": 1})
    taken = tmp_path / "out" / name
    taken.mkdir(parents=True)
    assert cli.main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: output.directory: cannot "
                            f"create '{taken}': Is a directory\n")
    assert taken.is_dir()


@pytest.mark.parametrize("error", [
    pytest.param(OSError(), id="no-file-name"),
    pytest.param(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "cost.csv"),
                 id="disk-full"),
])
def test_output_error_no_path_would_mend_is_a_runtime_failure(
        tmp_path, capsys, monkeypatch, error):
    # an OSError that names no file, or one that no other output path
    # would mend (a full disk), stays exit 4, and nothing is printed
    # before it
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "write_cost_csv", refuse)
    path = base_scenario(tmp_path, org=plain_org(wages=True),
                         cost={"premium": 0.2})
    assert cli.main(["cost", "--config", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"runtime failure: OSError: {error}\n"


def test_cost_totals_and_csv(tmp_path, capsys):
    path = base_scenario(tmp_path, org=plain_org(wages=True), out="out_cost",
                         cost={"premium": 0.2})
    assert cli.main(["cost", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "total: 1150323.84 per hour (1.1503 M/h)" in out
    cost_csv = tmp_path / "out_cost" / "cost.csv"
    body = [line for line in cost_csv.read_text().splitlines()
            if not line.startswith("#")]
    assert body[0].split(",")[0] == "level"
    assert len(body) == 1 + 5 + 1  # header, five levels, total row


def test_cost_csv_format_on_stdout(tmp_path, capsys):
    path = base_scenario(tmp_path, org=plain_org(wages=True), out="o",
                         cost={"premium": 0.2}, plan=MIXED_PLAN)
    assert cli.main(["cost", "--config", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "level,permanent,temporary,floater,total" in out
    assert "total: 1120087" in out


def test_cost_reports_floater_mix_for_business_units(tmp_path, capsys):
    org = plain_org(wages=True)
    for j, lv in enumerate(org["levels"]):
        lv["temp_wage"] = 1.2 * BASE[j]
        lv["floater_wage"] = {"kind": "constant", "value": 0.5 * BASE[j]}
    org["business_units"] = [[h / 2 for h in HEADS] for _ in range(2)]
    # business units promote strictly internally, which needs a higher
    # permanent share than the mixed plan carries
    path = base_scenario(tmp_path, org=org, out="out_bu",
                         plan={"alpha": [1.0] * 4, "p": [0.8] * 5})
    assert cli.main(["cost", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "business units, temporaries only:" in out
    assert "business units, optimal floater mix:" in out
    assert "level 1 floater shares by unit:" in out


def test_cost_prices_units_where_some_levels_lack_floater_curves(
        tmp_path, capsys):
    # a level without a floater wage curve offers no floaters: its
    # flexible staff stay temporary, and the units are still reported
    org = plain_org(wages=True)
    for j, lv in enumerate(org["levels"]):
        lv["temp_wage"] = 1.2 * BASE[j]
    org["levels"][0]["floater_wage"] = {"kind": "constant",
                                        "value": 0.05 * BASE[0]}
    org["business_units"] = [[h / 2 for h in HEADS] for _ in range(2)]
    path = base_scenario(tmp_path, org=org,
                         plan={"alpha": [1.0] * 4, "p": [0.8] * 5})
    assert cli.main(["cost", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5:] == ["  level 1 floater shares by unit: 0.20, 0.20"] + [
        f"  level {j} floater shares by unit: 0.00, 0.00" for j in range(2, 6)]
    base, mixed = (float(line.split(": ")[1].split()[0])
                   for line in lines[-7:-5])
    assert lines[-7].startswith("business units, temporaries only: ")
    # level 1's flexible fifth moves from the temp wage 42 to the
    # discounted floater wage 1.75 / 0.08
    assert base - mixed == pytest.approx(
        0.2 * HEADS[0] * (1.2 * BASE[0] - 0.05 * BASE[0] / RATES[0]),
        abs=0.01)


@pytest.mark.parametrize("temporaries", [False, True])
def test_cost_prices_all_permanent_units_without_temp_wages(
        tmp_path, capsys, temporaries):
    # with cost.temporaries false, or the default all-internal plan, no
    # unit holds flexible staff: no temp wage is needed, and the units
    # cost what the org does
    org = plain_org(wages=True)
    org["business_units"] = [[h / 2 for h in HEADS] for _ in range(2)]
    path = base_scenario(tmp_path, org=org,
                         cost={"temporaries": temporaries})
    assert cli.main(["cost", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-8:] == [
        "total: 1150323.84 per hour (1.1503 M/h)",
        "business units, temporaries only: 1150323.84 per hour",
        "business units, optimal floater mix: 1150323.84 per hour"] + [
        f"  level {j} floater shares by unit: 0.00, 0.00" for j in range(1, 6)]
    assert (tmp_path / "out" / "cost.csv").is_file()


def test_ill_posed_unit_exits_before_output(tmp_path, capsys):
    # the one stderr line names both ill-posed units and their levels,
    # and nothing is printed or written
    path = write_scenario(tmp_path, dict(
        ill_posed_units_readme(), output={"directory": str(tmp_path / "o")}))
    assert cli.main(["steady", "--config", path]) == 0
    capsys.readouterr()
    assert cli.main(["cost", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ill-posed model: no stationary profile with positive promotable "
        "pools; raise external hiring or permanent shares (unit 1, level 2: "
        "pool -792.71, unit 2, level 1: pool -1944.12)\n")
    assert not list(tmp_path.rglob("*.csv"))


def test_optimize_evaluate_mode(tmp_path, capsys):
    path = base_scenario(tmp_path, org=plain_org(wages=True), out="out_eval",
                         cost={"premium": 0.2}, plan=MIXED_PLAN,
                         optimizer={"mode": "evaluate"})
    assert cli.main(["optimize", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "configured plan" in out
    assert "1.1201 M/h" in out
    assert (tmp_path / "out_eval" / "cost.csv").exists()


def test_optimize_ga_writes_history(tmp_path, capsys):
    path = base_scenario(
        tmp_path, org=plain_org(wages=True), out="out_ga",
        cost={"premium": 0.2},
        optimizer={"mode": "ga", "population_size": 16, "generations": 12,
                   "seed": 3})
    assert cli.main(["optimize", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "best plan (seed 3, 16x12)" in out
    history = tmp_path / "out_ga" / "ga_history.csv"
    body = [line for line in history.read_text().splitlines()
            if not line.startswith("#")]
    assert body[0] == "generation,best_cost,mean_cost"
    assert len(body) == 1 + 12
    best = (tmp_path / "out_ga" / "best_plan_cost.csv").read_text()
    assert "# alpha = " in best
    assert "# p = " in best


def test_optimize_infeasible_search_exits_ill_posed(tmp_path, capsys):
    data = {
        "org": {"wage_growth": 0.04, "levels": [
            {"headcount": 100, "attrition": 0.1, "eligibility_age": 4.0,
             "base_wage": 30.0},
            {"headcount": 1000, "attrition": 0.5, "base_wage": 60.0},
        ]},
        "cost": {"premium": 0.2},
        "optimizer": {"mode": "ga", "population_size": 8, "generations": 4,
                      "seed": 1, "optimize_p": False},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_scenario(tmp_path, data)
    assert cli.main(["optimize", "--config", path]) == 3
    captured = capsys.readouterr()
    assert "no sampled plan kept every promotable pool positive" in captured.out
    assert "alpha_2=24.5913" in captured.out
    assert "ill-posed model:" in captured.err


@pytest.mark.parametrize("command,line", [
    ("steady", "    alpha_2=2.4591e+18"),
    ("optimize", "hiring ratios of at least alpha_2=2.4591e+18 restore "
     "well-posedness at p = 1"),
])
def test_remedy_ratios_print_as_the_tables_do(tmp_path, capsys, command,
                                              line):
    # a hiring ratio of 1e15 or more prints in exponent notation in both
    # remedies
    data = {
        "org": {"wage_growth": 0.04, "levels": [
            {"headcount": 100, "attrition": 0.1, "eligibility_age": 4.0,
             "base_wage": 30.0},
            {"headcount": 1e20, "attrition": 0.5, "base_wage": 60.0},
        ]},
        "cost": {"premium": 0.2},
        "optimizer": {"mode": "ga", "population_size": 8, "generations": 4,
                      "seed": 1, "optimize_p": False},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_scenario(tmp_path, data)
    assert cli.main([command, "--config", path]) == 3
    assert line in capsys.readouterr().out.splitlines()


def test_infeasible_search_names_the_empty_levels(tmp_path, capsys):
    # at eligibility age 30 no sampled share keeps every pool of the
    # all-internal ladder filled: the one stderr line names the levels
    # whose pools the best sampled plan leaves empty
    org = plain_org(wages=True)
    for level in org["levels"]:
        level["eligibility_age"] = 30.0
    path = base_scenario(
        tmp_path, org=org, cost={"premium": 0.2},
        optimizer={"mode": "ga", "population_size": 10, "generations": 3,
                   "seed": 7, "optimize_alpha": False})
    assert cli.main(["optimize", "--config", path]) == 3
    captured = capsys.readouterr()
    assert "no sampled plan kept every promotable pool positive" in captured.out
    assert captured.err == (
        "ill-posed model: no feasible candidate sampled in 3 generations; "
        "the best leaves the promotable pool empty at levels 1, 2, 4\n")


@pytest.mark.parametrize("command", ["cost", "optimize"])
def test_missing_base_wage_names_the_levels(tmp_path, capsys, command):
    path = base_scenario(tmp_path)
    assert cli.main([command, "--config", path]) == 2
    assert capsys.readouterr().err == (
        "configuration error: base_wage is not set on levels 1, 2, 3, 4, 5\n")
    org = plain_org(wages=True)
    del org["levels"][1]["base_wage"]
    path = base_scenario(tmp_path, org=org)
    assert cli.main([command, "--config", path]) == 2
    assert capsys.readouterr().err == (
        "configuration error: base_wage is not set on level 2\n")


def test_optimize_with_no_free_gene(tmp_path, capsys):
    # one level and optimize_p false leave no gene to search: the GA
    # prices the frozen all-permanent plan
    data = {
        "org": {"wage_growth": 0.04, "levels": [
            {"headcount": 400, "attrition": 0.2, "eligibility_age": 2.0,
             "base_wage": 50.0}]},
        "cost": {"premium": 0.2},
        "optimizer": {"mode": "ga", "population_size": 8, "generations": 4,
                      "seed": 1, "optimize_p": False},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_scenario(tmp_path, data)
    assert cli.main(["optimize", "--config", path]) == 0
    assert "best plan (seed 1, 8x4)" in capsys.readouterr().out
    assert (tmp_path / "out" / "ga_history.csv").exists()
    # on five levels, optimize_alpha and optimize_p false freeze every gene
    data["org"] = plain_org(wages=True)
    data["optimizer"]["optimize_alpha"] = False
    data["output"]["directory"] = str(tmp_path / "out5")
    path = write_scenario(tmp_path, data, name="five.json")
    assert cli.main(["optimize", "--config", path]) == 0
    assert "best plan (seed 1, 8x4)" in capsys.readouterr().out
    assert (tmp_path / "out5" / "best_plan_cost.csv").exists()


def test_dump_config_round_trip(tmp_path, capsys):
    path = base_scenario(tmp_path, org=plain_org(wages=True),
                         cost={"premium": 0.2}, plan=MIXED_PLAN)
    assert cli.main(["--config", path, "--dump-config"]) == 0
    first = capsys.readouterr().out
    echo = tmp_path / "echo.json"
    echo.write_text(first)
    assert cli.main(["--config", str(echo), "--dump-config"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert parse_config(json.loads(first)).normalized() == json.loads(first)


def _numbers(lo, hi):
    # the schema takes integers wherever it takes numbers
    return st.integers(math.ceil(lo), int(hi)) | st.floats(lo, hi)


_FLOATER_WAGES = (
    st.fixed_dictionaries({"kind": st.just("constant"),
                           "value": st.floats(1.0, 200.0)})
    | st.fixed_dictionaries({"kind": st.just("exponential"),
                             "base": st.floats(1.0, 200.0)},
                            optional={"growth": st.floats(0.0, 0.04)})
    | st.fixed_dictionaries({
        "kind": st.just("piecewise-linear"),
        "knots": st.lists(st.floats(0.0, 40.0), min_size=2, max_size=4,
                          unique=True).map(sorted),
        "values": st.lists(st.floats(1.0, 200.0), min_size=4, max_size=4),
    }).map(lambda w: {**w, "values": w["values"][:len(w["knots"])]}))


@st.composite
def scenarios(draw, units_may_miss=True):
    """Well-posed scenario dicts: any subset of the optional blocks and
    keys, levels with or without wages and floater wage curves, two
    business units in proportional rows or not, and a plan, grid, policy
    and optimizer block that fit them. With units_may_miss, business-unit
    rows may also miss the top level's headcount by 1 % or more, which
    the parser rejects (see _units_miss)."""
    size = draw(st.integers(1, 4))
    wages = draw(st.sampled_from(["none", "base", "temp", "premium"]))
    levels = []
    for _ in range(size):
        level = {"headcount": draw(_numbers(1.0, 1e4)),
                 "attrition": draw(st.floats(0.05, 0.6))}
        if draw(st.booleans()):
            level["eligibility_age"] = draw(st.floats(0.0, 8.0))
        if wages != "none":
            level["base_wage"] = draw(st.floats(5.0, 200.0))
            if wages == "temp":
                level["temp_wage"] = (level["base_wage"]
                                      * draw(st.floats(1.01, 2.0)))
            if draw(st.booleans()):
                level["floater_wage"] = draw(_FLOATER_WAGES)
        levels.append(level)
    org = {"levels": levels}
    if wages != "none" and draw(st.booleans()):
        org["wage_growth"] = draw(st.floats(0.0, 0.04))
    if draw(st.booleans()):
        # two units splitting every level's headcount, by one share or by
        # a share per level, so that a unit can be ill posed where the org
        # is not; the top level's column may be scaled away from it
        share = draw(st.floats(0.0, 1.0))
        shares = draw(st.just([share] * size)
                      | st.lists(st.floats(0.0, 1.0), min_size=size,
                                 max_size=size))
        first = [lv["headcount"] * s for lv, s in zip(levels, shares)]
        second = [lv["headcount"] - f for lv, f in zip(levels, first)]
        if units_may_miss:
            scale = draw(st.just(1.0) | st.floats(0.0, 0.99)
                         | st.floats(1.01, 3.0))
            first[-1] *= scale
            second[-1] *= scale
        org["business_units"] = [first, second]
    data = {"org": org}

    horizon = 60.0
    if draw(st.booleans()):
        ds = draw(st.floats(0.02, 0.5))
        tau = max(lv.get("eligibility_age", 0.0) for lv in levels)
        horizon = draw(st.floats(0.0, 100.0))
        data["grid"] = {"ds": ds, "dt": ds * draw(st.floats(0.1, 1.0)),
                        "s_max": max(tau, 2 * ds) + draw(st.floats(0.1, 80.0)),
                        "horizon": horizon}
    if draw(st.booleans()):
        data["plan"] = {"alpha": draw(st.lists(st.floats(1.0, 5.0),
                                               min_size=size - 1,
                                               max_size=size - 1)),
                        "p": draw(st.lists(st.floats(0.0, 1.0), min_size=size,
                                           max_size=size))}
    modes = ["max-internal", "external-fraction"]
    data["policy"] = draw(st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(modes + ["fixed-plan"] * ("plan" in data)),
        "promotion_cap": st.none() | _numbers(0.01, 10.0),
        "external_fraction": st.floats(0.0, 1.0),
        "initial_density": st.sampled_from(
            ["stationary", "uniform", "truncated-exponential"]),
        "snapshot_times": st.lists(st.floats(0.0, horizon), max_size=3),
    }))
    if wages == "premium":
        data["cost"] = {"premium": draw(st.floats(0.01, 1.0))}
    elif draw(st.booleans()):
        data["cost"] = {"temporaries": draw(st.booleans())}
    data["optimizer"] = draw(st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["ga"] + ["evaluate"] * ("plan" in data)),
        "population_size": st.integers(2, 500),
        "generations": st.integers(1, 500),
        "mutation_chance": st.floats(0.0, 1.0),
        "elitism": st.floats(0.0, 0.999),
        "seed": st.integers(0, 2**31),
        "alpha_max": _numbers(1.0, 20.0),
        "optimize_alpha": st.booleans(),
        "optimize_p": st.booleans(),
    }))
    if draw(st.booleans()):
        data["output"] = {"directory": draw(st.text(min_size=1, max_size=8))}
    return data


@settings(max_examples=100, deadline=None)
@given(scenarios(units_may_miss=False))
def test_dump_config_is_idempotent(data):
    # the dumped text parses back to the same scenario: dumping it again
    # gives the same text, and the normalized dicts agree
    config = parse_config(data)
    text = dump_config(config)
    again = parse_config(json.loads(text))
    assert dump_config(again) == text
    assert again.normalized() == config.normalized() == json.loads(text)


def _number_leaves(node, path=""):
    """(dotted key path, container, key) of every number in a scenario."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else k, k, v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", i, v) for i, v in enumerate(node)]
    else:
        return []
    leaves = []
    for sub, key, value in items:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            leaves.append((sub, node, key))
        else:
            leaves.extend(_number_leaves(value, sub))
    return leaves


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_non_finite_number_anywhere_is_config_error(data):
    # NaN or an infinity in any numeric leaf is named by its dotted key
    # path, and a command on the file exits 2
    scenario = data.draw(scenarios())
    path, container, key = data.draw(
        st.sampled_from(_number_leaves(scenario)))
    container[key] = data.draw(st.sampled_from([math.nan, math.inf,
                                                -math.inf]))
    with pytest.raises(ConfigError) as raised:
        parse_config(scenario)
    assert str(raised.value).startswith(f"{path}: ")
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "scenario.json")
        with open(config, "w") as fh:
            json.dump(scenario, fh)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["steady", "--config", config]) == 2
    assert f"configuration error: {path}: " in err.getvalue()


# a number as steady and cost print it; inf and nan are whole words
_PRINTED_NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b", re.I)


@settings(max_examples=100, deadline=None)
@given(scenarios())
@example(defect_3_scenario(0.0))
@example(defect_3_scenario(5e-324))
@example(defect_3_scenario(1e-17))
@example(defect_3_scenario(1e-300))
@example(huge_readme())
@example(huge_readme(heads=HEADS, wage_scale=1e298))
@example(huge_readme(heads=HUGE_LEVEL_1))
@example(ill_posed_units_readme())
@edge_examples()
def test_steady_and_cost_exit_named_or_print_finite_numbers(data):
    # every scenario the parser accepts either prints finite numbers of a
    # sensible length, and writes them so into cost's CSV file, or ends in
    # a named error (2 config, 3 ill posed), with no RuntimeWarning on the
    # way
    with tempfile.TemporaryDirectory() as out:
        for command in ("steady", "cost"):
            code, stdout = _run_checked(command, data, out)
            if code:
                continue
            numbers = _PRINTED_NUMBER.findall(stdout)
            for number in numbers + _csv_cells(out):
                assert math.isfinite(float(number)), (command, number)
                assert len(number) <= 30, (command, number)


def _csv_cells(out):
    """The cells of the CSV files in out but their header rows and '#'
    lines: every one a number, as orgflow writes them."""
    cells = []
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), newline="") as fh:
                rows = list(csv.reader(line for line in fh
                                       if not line.startswith("#")))
            cells += [cell for row in rows[1:] for cell in row
                      if cell and cell != "total"]
    return cells


# what follows the kind of error on its stderr line: a message that names
# a key of the scenario or a level
_ERROR_LINE = re.compile(r"(?:configuration error|ill-posed model): (.*)")
_NAMED = re.compile(r"\b(?:org|grid|policy|plan|cost|optimizer)[.:]|\bconfig"
                    r"|\blevels? \[?\d")


def _units_miss(data):
    """Whether the scenario's business-unit rows miss a level's headcount
    by more than 0.1 %; the scenarios strategy draws misses of 1 % or
    more."""
    org = data["org"]
    return any(abs(sum(column) - level["headcount"])
               > 1e-3 * level["headcount"]
               for column, level in zip(zip(*org.get("business_units", [])),
                                        org["levels"]))


def _holds_temporaries(data):
    """Whether cost's plan holds temporaries: a configured plan with a
    permanent share below 1, and cost.temporaries not false."""
    return (data.get("cost", {}).get("temporaries", True)
            and any(p < 1.0 for p in data.get("plan", {}).get("p", [])))


# the first line of the remedy block that steady and optimize print
# before an exit 3
_REMEDY = {"steady": "ill-posed stationary problem:\n",
           "optimize": "no sampled plan kept every promotable pool positive\n"}


def _run_checked(command, data, out):
    """Exit code and stdout of command on the scenario data, written into
    out, which also receives the command's files; the code must be 0, 2
    or 3, the run raise no RuntimeWarning, and a nonzero exit write one
    stderr line, which names a key or a level (nothing on exit 0), and
    nothing on stdout but the remedy block of an exit 3. Unit rows that
    miss a headcount exit 2 on a line naming them, and cost names a
    missing temp wage only where its plan holds temporaries."""
    path = os.path.join(out, "scenario.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main([command, "--config", path, "--out", out])
    assert code in (0, 2, 3), command
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)], command
    lines = stderr.getvalue().splitlines()
    if code:
        printed = stdout.getvalue()
        assert not printed or (code == 3 and printed.startswith(
            _REMEDY.get(command, "\0"))), (command, printed)
        assert len(lines) == 1, (command, lines)
        message = _ERROR_LINE.fullmatch(lines[0])
        assert message and _NAMED.search(message[1]), (command, lines[0])
    else:
        assert not lines, (command, lines)
    if _units_miss(data):
        assert lines == ["configuration error: org.business_units: unit "
                         "headcounts do not sum to the level headcounts"
                         ], (command, lines)
    if command == "cost" and not _holds_temporaries(data):
        assert not any("temp_wage" in line for line in lines), lines
    return code, stdout.getvalue()


def _bounded(data):
    """The scenario cut down to a short run: ds >= 0.05, dt in
    [0.1 ds, ds], a horizon of at most 2 years with the snapshot times
    clipped to it, and a GA of at most 10 x 5."""
    grid = data.setdefault("grid", {})
    ds = grid["ds"] = max(grid.get("ds", 0.05), 0.05)
    grid["dt"] = min(max(grid.get("dt", ds), 0.1 * ds), ds)
    horizon = grid["horizon"] = min(grid.get("horizon", 60.0), 2.0)
    policy = data["policy"]
    if "snapshot_times" in policy:
        policy["snapshot_times"] = [min(t, horizon)
                                    for t in policy["snapshot_times"]]
    optimizer = data["optimizer"]
    optimizer["population_size"] = min(optimizer.get("population_size", 200),
                                       10)
    optimizer["generations"] = min(optimizer.get("generations", 250), 5)
    return data


def tiny_attrition_readme(level):
    # the README scenario at wage growth 0, with attrition 1e-310 at one
    # level: 1 / mu overflows there, though the uniform start needs it
    # only at tau = 0
    org = plain_org(wages=True)
    org["wage_growth"] = 0.0
    org["levels"][level]["attrition"] = 1e-310
    return {"org": org,
            "grid": {"ds": 0.05, "dt": 0.05, "s_max": 70.0, "horizon": 60.0},
            "policy": {"mode": "max-internal", "promotion_cap": None,
                       "initial_density": "uniform",
                       "snapshot_times": [0.0, 60.0]},
            "cost": {"premium": 0.2},
            "optimizer": {"mode": "ga", "seed": 7}}


@settings(max_examples=60, deadline=None)
@given(scenarios().map(_bounded))
@example(_bounded(tiny_attrition_readme(0)))
@example(_bounded(tiny_attrition_readme(4)))
@example(_bounded(huge_readme()))
@example(_bounded(huge_readme(heads=HUGE_LEVEL_1)))
# ROADMAP defect 9: the GA's mean cost summed past the largest float
@example(_bounded(huge_readme(heads=[1e306] + HEADS[1:])))
@example(_bounded(huge_readme(heads=[2.2e306] + HEADS[1:])))
@edge_examples(_bounded)
def test_simulate_and_optimize_exit_named_or_write_finite_numbers(data):
    # the same contract for the commands that run the transport and the
    # GA: on exit 0 every number printed and every CSV cell written is
    # finite, and every cell at most 30 characters long; simulate prints
    # its promotion cap, inf when none is set, and the trajectory file's
    # path, whose digits are no result
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("simulate", "optimize"):
            out = os.path.join(tmp, command)
            os.mkdir(out)
            code, stdout = _run_checked(command, data, out)
            if code:
                continue
            lines = [line.replace(", cap inf)", ")")
                     for line in stdout.splitlines()
                     if not line.startswith("trajectory written to ")]
            cells = _csv_cells(out)
            for number in _PRINTED_NUMBER.findall("\n".join(lines)) + cells:
                assert math.isfinite(float(number)), (command, number)
            for cell in cells:
                assert len(cell) <= 30, (command, cell)


DEFAULTS_DUMP = """\
{
  "org": {
    "wage_growth": 0.0,
    "levels": [
      {
        "headcount": 10.0,
        "attrition": 0.2,
        "eligibility_age": 0.0,
        "base_wage": null,
        "temp_wage": null,
        "floater_wage": null
      }
    ],
    "business_units": null
  },
  "grid": {
    "ds": 0.05,
    "dt": 0.05,
    "s_max": 50.0,
    "horizon": 60.0
  },
  "policy": {
    "mode": "max-internal",
    "promotion_cap": 5.0,
    "external_fraction": 0.0,
    "initial_density": "uniform",
    "snapshot_times": []
  },
  "plan": null,
  "cost": {
    "premium": null,
    "temporaries": true
  },
  "optimizer": {
    "mode": "ga",
    "population_size": 200,
    "generations": 250,
    "mutation_chance": 0.1,
    "elitism": 0.05,
    "seed": 0,
    "alpha_max": 10.0,
    "optimize_alpha": true,
    "optimize_p": true
  },
  "output": {
    "directory": "out"
  }
}
"""

FULL_SCENARIO = {
    "org": {
        "wage_growth": 0.03,
        "levels": [
            {"headcount": 300, "attrition": 0.1, "eligibility_age": 2.5,
             "base_wage": 40.0, "temp_wage": 50.0,
             "floater_wage": {"kind": "constant", "value": 45}},
            {"headcount": 120, "attrition": 0.15, "eligibility_age": 3,
             "base_wage": 60, "temp_wage": 75.0,
             "floater_wage": {"kind": "exponential", "base": 55.0,
                              "growth": 0.02}},
            {"headcount": 40, "attrition": 0.25, "base_wage": 90.0,
             "temp_wage": 110.0,
             "floater_wage": {"kind": "piecewise-linear", "knots": [0, 5, 20],
                              "values": [80, 95.5, 100]}},
        ],
        "business_units": [[200, 80, 25], [100, 40, 15]],
    },
    "grid": {"ds": 0.1, "dt": 0.05, "s_max": 40, "horizon": 30},
    "policy": {"mode": "fixed-plan", "promotion_cap": None,
               "external_fraction": 0.1, "initial_density": "stationary",
               "snapshot_times": [0, 15, 30]},
    "plan": {"alpha": [1.2, 1], "p": [0.9, 1, 0.8]},
    "cost": {"premium": None, "temporaries": False},
    "optimizer": {"mode": "evaluate", "population_size": 50,
                  "generations": 20, "mutation_chance": 0.2, "elitism": 0.1,
                  "seed": 11, "alpha_max": 4, "optimize_alpha": False,
                  "optimize_p": True},
    "output": {"directory": "runs/full"},
}

FULL_DUMP = """\
{
  "org": {
    "wage_growth": 0.03,
    "levels": [
      {
        "headcount": 300.0,
        "attrition": 0.1,
        "eligibility_age": 2.5,
        "base_wage": 40.0,
        "temp_wage": 50.0,
        "floater_wage": {
          "kind": "constant",
          "value": 45.0
        }
      },
      {
        "headcount": 120.0,
        "attrition": 0.15,
        "eligibility_age": 3.0,
        "base_wage": 60.0,
        "temp_wage": 75.0,
        "floater_wage": {
          "kind": "exponential",
          "base": 55.0,
          "growth": 0.02
        }
      },
      {
        "headcount": 40.0,
        "attrition": 0.25,
        "eligibility_age": 0.0,
        "base_wage": 90.0,
        "temp_wage": 110.0,
        "floater_wage": {
          "kind": "piecewise-linear",
          "knots": [
            0.0,
            5.0,
            20.0
          ],
          "values": [
            80.0,
            95.5,
            100.0
          ]
        }
      }
    ],
    "business_units": [
      [
        200.0,
        80.0,
        25.0
      ],
      [
        100.0,
        40.0,
        15.0
      ]
    ]
  },
  "grid": {
    "ds": 0.1,
    "dt": 0.05,
    "s_max": 40.0,
    "horizon": 30.0
  },
  "policy": {
    "mode": "fixed-plan",
    "promotion_cap": null,
    "external_fraction": 0.1,
    "initial_density": "stationary",
    "snapshot_times": [
      0.0,
      15.0,
      30.0
    ]
  },
  "plan": {
    "alpha": [
      1.2,
      1.0
    ],
    "p": [
      0.9,
      1.0,
      0.8
    ]
  },
  "cost": {
    "premium": null,
    "temporaries": false
  },
  "optimizer": {
    "mode": "evaluate",
    "population_size": 50,
    "generations": 20,
    "mutation_chance": 0.2,
    "elitism": 0.1,
    "seed": 11,
    "alpha_max": 4.0,
    "optimize_alpha": false,
    "optimize_p": false
  },
  "output": {
    "directory": "runs/full"
  }
}
"""


@pytest.mark.parametrize("scenario,expected", [
    ({"org": {"levels": [{"headcount": 10, "attrition": 0.2}]}},
     DEFAULTS_DUMP),
    (FULL_SCENARIO, FULL_DUMP),
], ids=["defaults", "full"])
def test_dump_config_text_is_pinned(tmp_path, capsys, scenario, expected):
    # the key order, every default, and optimize_p following
    # cost.temporaries = false
    path = write_scenario(tmp_path, scenario)
    assert cli.main(["--config", path, "--dump-config"]) == 0
    assert capsys.readouterr().out == expected


def test_zero_premium_is_config_error(tmp_path, capsys):
    # a zero premium would set temp wages equal to base wages; the error
    # names the premium, not a temp wage the file never set
    data = {"org": {"levels": [{"headcount": 1, "attrition": 0.5,
                                "base_wage": 5.0}]},
            "cost": {"premium": 0}}
    path = write_scenario(tmp_path, data)
    assert cli.main(["steady", "--config", path]) == 2
    assert "configuration error: cost.premium: " in capsys.readouterr().err


def test_piecewise_floater_wage_with_close_knots_parses():
    curve = {"kind": "piecewise-linear", "knots": [0.0, 1e-310],
             "values": [1.0, 2.0]}
    config = parse_config({"org": {"levels": [
        {"headcount": 1, "attrition": 0.5, "floater_wage": curve}]}})
    assert config.spec.levels[0].floater_wage.laplace(0.5) == 4.0


def test_steady_accepts_empty_level_without_promotion_demand(tmp_path, capsys):
    levels = [{"headcount": n, "attrition": mu, "eligibility_age": 4.0}
              for n, mu in zip([8000, 4000, 2500, 1000, 500],
                               [0.16, 0.16, 0.16, 0.16, 0.5])]
    path = base_scenario(tmp_path, org={"levels": levels},
                         plan={"alpha": [1.0] * 4, "p": [1, 1, 1, 0, 0]})
    assert cli.main(["steady", "--config", path]) == 0
    out = capsys.readouterr().out
    level4 = next(line.split() for line in out.splitlines()
                  if line.split()[:1] == ["4"])
    assert float(level4[4]) == 0.0 and float(level4[5]) == 0.0


def test_cost_where_exp_mu_tau_overflows(tmp_path, capsys):
    org = {"wage_growth": 0.04, "levels": [
        {"headcount": 10000, "attrition": 0.1, "eligibility_age": 1.0,
         "base_wage": 30.0},
        {"headcount": 50, "attrition": 3.0, "eligibility_age": 300.0,
         "base_wage": 60.0},
    ]}
    path = base_scenario(tmp_path, org=org,
                         grid={"ds": 0.05, "dt": 0.05, "s_max": 400.0})
    assert cli.main(["cost", "--config", path]) == 0
    assert "total:" in capsys.readouterr().out


def test_snapshot_past_horizon_is_config_error(tmp_path, capsys):
    # a snapshot the run never reaches is named, not silently dropped
    path = base_scenario(
        tmp_path, out="out_late",
        grid={"ds": 0.05, "dt": 0.05, "s_max": 70.0, "horizon": 120.0},
        policy={"mode": "max-internal", "snapshot_times": [0.0, 500.0]})
    assert cli.main(["simulate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "policy.snapshot_times[1]" in err and "at most 120" in err
    assert not (tmp_path / "out_late").exists()


@pytest.mark.parametrize("command,key", [
    ("cost", "org.levels[0].headcount"),
    ("simulate", "grid.horizon"),
])
def test_non_finite_number_is_config_error(tmp_path, capsys, command, key):
    data = {"org": plain_org(wages=True),
            "grid": {"ds": 0.05, "dt": 0.05, "s_max": 70.0, "horizon": 1.0},
            "output": {"directory": str(tmp_path / "out")}}
    if key == "grid.horizon":
        data["grid"]["horizon"] = float("inf")
    else:
        data["org"]["levels"][0]["headcount"] = float("inf")
    path = write_scenario(tmp_path, data)
    assert "Infinity" in (tmp_path / "scenario.json").read_text()
    assert cli.main([command, "--config", path]) == 2
    assert key in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    data = {"org": plain_org(), "polcy": {"mode": "max-internal"}}
    path = write_scenario(tmp_path, data)
    assert cli.main(["steady", "--config", path]) == 2
    assert "polcy" in capsys.readouterr().err


@pytest.mark.parametrize("blocks", [
    {"policy": {"mode": "fixed-plan"}},
    {"optimizer": {"mode": "evaluate"}},
    {"grid": {"ds": 0.05, "dt": 0.1}},
    {"org": runaway_floater_org(), "cost": {"premium": 0.2}},
    # only a missing key or null reads an optional block as all defaults
    {"grid": 0},
    {"policy": []},
    {"cost": False},
    {"optimizer": ""},
    {"output": 0},
    {"org": tiny_attrition_org(), "cost": {"premium": 0.2}},
    {"org": tiny_attrition_org(), "cost": {"premium": 0.2},
     "optimizer": {"population_size": 20, "generations": 5}},
])
def test_invalid_scenarios_exit_config(tmp_path, capsys, blocks):
    data = {"org": plain_org(wages=True),
            "output": {"directory": str(tmp_path / "out")}}
    data.update(blocks)
    path = write_scenario(tmp_path, data)
    command = ("optimize" if "optimizer" in blocks
               else "cost" if "cost" in blocks else "steady")
    assert cli.main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if "org" in blocks:
        tiny = blocks["org"]["levels"][0]["attrition"] == 1e-310
        assert ("level 1: the wage bill overflows at attrition 1e-310" if tiny
                else "org.levels[0].floater_wage.growth") in err
    key, value = next(iter(blocks.items()))
    if not isinstance(value, dict):
        assert (f"configuration error: {key}: expected an object, got "
                f"{type(value).__name__}") in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["steady", "cost", "simulate",
                                     "optimize"])
def test_headcount_beyond_summable_densities_is_config_error(tmp_path,
                                                            capsys, command):
    # a level's densities hold about N / ds; at N = 1.7e308 their sum
    # overflows (the uniform start's, the pools'), so the parser names the
    # headcount and every command exits 2, where simulate exited 3 after
    # an overflow warning and cost and optimize named the attrition
    data = _bounded(huge_readme(heads=HUGE_LEVEL_1))
    path = write_scenario(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert ("configuration error: org.levels[0].headcount: must be at most "
            "2.24712e+306 at grid.ds = 0.05") in err


def test_wage_bill_overflow_names_headcount_and_base_wage(tmp_path, capsys):
    # N / ds is summable, but w0 C / (mu - r) is not: the error names the
    # attrition, base wage and headcount that set it
    data = huge_readme(heads=[1e300] + HEADS[1:])
    data["org"]["levels"][0]["base_wage"] = 1e10
    path = write_scenario(tmp_path, data)
    assert cli.main(["cost", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert ("configuration error: level 1: the wage bill overflows at "
            "attrition 0.08: base wage 1e+10 times the level's inflow "
            "8e+298 (from headcount 1e+300 and the levels above)"
            ) in capsys.readouterr().err


@pytest.mark.parametrize("curve", [
    {"kind": "constant", "value": 40.0},
    {"kind": "piecewise-linear", "knots": [0.0, 10.0], "values": [30.0, 60.0]},
    {"kind": "exponential", "base": 30.0},
])
def test_floater_wage_overflow_names_attrition(tmp_path, capsys, curve):
    # at attrition 1e-310 every curve's discounted integral overflows; no
    # curve grows as fast as staff leave, so the error names the attrition
    org = plain_org(wages=True)
    org["levels"][0]["attrition"] = 1e-310
    org["levels"][0]["floater_wage"] = curve
    path = base_scenario(tmp_path, org=org)
    assert cli.main(["steady", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "configuration error: org.levels[0].attrition: 1e-310" in err
    assert "growth" not in err


def test_missing_temp_wage_is_config_error(tmp_path, capsys):
    path = base_scenario(tmp_path, org=plain_org(wages=True), out="o",
                         plan={"alpha": [1.0, 1.0, 1.0, 1.0],
                               "p": [0.9, 1.0, 1.0, 1.0, 1.0]})
    assert cli.main(["cost", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "configuration error: temp_wage is not set on levels 1, 2, 3, 4, 5\n")


def test_unreadable_config_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["steady", "--config", missing]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_command_required_without_dump(tmp_path):
    path = base_scenario(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["--config", path])
    assert err.value.code == 2


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    from orgflow.config import ConfigError
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_runtime_does_not_import_scipy(tmp_path):
    # scipy is needed by the tests only: importing the package, loading a
    # scenario with every floater wage curve kind and pricing those curves
    # must not import it
    org = plain_org(wages=True)
    curves = [{"kind": "constant", "value": 40.0},
              {"kind": "exponential", "base": 30.0, "growth": 0.02},
              {"kind": "piecewise-linear", "knots": [0.0, 5.0, 35.0],
               "values": [30.0, 45.0, 60.0]}]
    for level, curve in zip(org["levels"], curves + curves[:2]):
        level["floater_wage"] = curve
    path = write_scenario(tmp_path, {"org": org})
    script = """
import sys
import orgflow, orgflow.cli
from orgflow.config import load_config
spec = load_config(sys.argv[1]).spec
print([orgflow.floater_average_cost(spec, j + 1) for j in range(spec.size)])
print("scipy" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(orgflow.__file__))
    done = subprocess.run([sys.executable, "-c", script, path],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"
