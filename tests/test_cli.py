import json
import os

import pytest

from orgflow import cli
from orgflow.config import load_config, parse_config


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


def test_seed_and_out_overrides(tmp_path, capsys):
    path = base_scenario(tmp_path, out="ignored")
    override = tmp_path / "elsewhere"
    assert cli.main(["simulate", "--config", path, "--seed", "42",
                     "--out", str(override)]) == 0
    capsys.readouterr()
    lines = (override / "trajectory.csv").read_text().splitlines()
    assert "# seed = 42" in lines[:4]
    assert not (tmp_path / "ignored").exists()


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
])
def test_invalid_scenarios_exit_config(tmp_path, capsys, blocks):
    data = {"org": plain_org(wages=True),
            "output": {"directory": str(tmp_path / "out")}}
    data.update(blocks)
    path = write_scenario(tmp_path, data)
    command = "optimize" if "optimizer" in blocks else "steady"
    assert cli.main([command, "--config", path]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_temp_wage_is_config_error(tmp_path, capsys):
    path = base_scenario(tmp_path, org=plain_org(wages=True), out="o",
                         plan={"alpha": [1.0, 1.0, 1.0, 1.0],
                               "p": [0.9, 1.0, 1.0, 1.0, 1.0]})
    assert cli.main(["cost", "--config", path]) == 2
    assert "configuration error" in capsys.readouterr().err


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
