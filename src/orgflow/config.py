"""JSON scenario configuration for the command-line front end.

One file describes a complete run: the organization (levels with
headcounts, attrition rates, eligibility ages, and wages), the simulation
grid, the promotion policy, an optional staffing plan, the cost block, and
the optimizer knobs. Unknown keys anywhere are rejected so typos fail
loudly. Units: time in years, seniority in years, wages in currency per
hour, rates per year.

parse_config builds validated domain objects and keeps a normalized copy
of the scenario; dump_config emits that copy as JSON, and parsing the
emitted text reproduces the scenario exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .costs import ConstantWage, ExponentialWage, PiecewiseLinearWage
from .org import FlexPlan, LevelSpec, OrgSpec, validate
from .transport import SeniorityGrid

__all__ = [
    "ConfigError",
    "OptimizerSettings",
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "dump_config",
]

_POLICY_MODES = ("max-internal", "external-fraction", "fixed-plan")
_INITIAL_KINDS = ("stationary", "uniform", "truncated-exponential")
_OPTIMIZER_MODES = ("ga", "evaluate")


class ConfigError(ValueError):
    """A scenario file violates the schema; the message names the key."""


# ---------------------------------------------------------------------------
# low-level readers; every reader takes the dotted key path for messages

def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return dict(value)


def _reject_unknown(block: dict, path: str) -> None:
    if block:
        keys = ", ".join(sorted(block))
        raise ConfigError(f"{path}: unknown keys: {keys}")


def _number(value, path: str, minimum: float | None = None,
            maximum: float | None = None, strict_min: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be a finite number, got {out}")
    if minimum is not None:
        if strict_min and not out > minimum:
            raise ConfigError(f"{path}: must be greater than {minimum}, got {out}")
        if not strict_min and out < minimum:
            raise ConfigError(f"{path}: must be at least {minimum}, got {out}")
    if maximum is not None and out > maximum:
        raise ConfigError(f"{path}: must be at most {maximum}, got {out}")
    return out


def _integer(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}, got {value}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _string(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(
            f"{path}: expected one of {', '.join(choices)}; got {value!r}")
    return value


def _number_list(value, path: str, length: int | None = None,
                 minimum: float | None = None,
                 maximum: float | None = None) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(value)}")
    return [_number(v, f"{path}[{i}]", minimum=minimum, maximum=maximum)
            for i, v in enumerate(value)]


# ---------------------------------------------------------------------------
# wage curves

def _parse_wage_curve(value, path: str):
    """Return (curve object, normalized dict) or (None, None)."""
    if value is None:
        return None, None
    block = _mapping(value, path)
    kind = _string(block.pop("kind", None) or "", f"{path}.kind",
                   ("constant", "exponential", "piecewise-linear"))
    if kind == "constant":
        level = _number(block.pop("value", None), f"{path}.value",
                        minimum=0.0, strict_min=True)
        _reject_unknown(block, path)
        return ConstantWage(level), {"kind": "constant", "value": level}
    if kind == "exponential":
        base = _number(block.pop("base", None), f"{path}.base",
                       minimum=0.0, strict_min=True)
        growth = _number(block.pop("growth", 0.0), f"{path}.growth", minimum=0.0)
        _reject_unknown(block, path)
        return (ExponentialWage(base, growth),
                {"kind": "exponential", "base": base, "growth": growth})
    knots = _number_list(block.pop("knots", None), f"{path}.knots", minimum=0.0)
    values = _number_list(block.pop("values", None), f"{path}.values", minimum=0.0)
    _reject_unknown(block, path)
    try:
        curve = PiecewiseLinearWage(knots, values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return curve, {"kind": "piecewise-linear", "knots": knots, "values": values}


# ---------------------------------------------------------------------------
# scenario object

@dataclass
class OptimizerSettings:
    """Optimizer block: GA knobs plus the evaluate shortcut."""

    mode: str = "ga"
    population_size: int = 200
    generations: int = 250
    mutation_chance: float = 0.10
    elitism: float = 0.05
    seed: int = 0
    alpha_max: float = 10.0
    optimize_alpha: bool = True
    optimize_p: bool = True


@dataclass
class ScenarioConfig:
    """A fully validated scenario ready for any command."""

    spec: OrgSpec
    plan: FlexPlan | None
    grid: SeniorityGrid
    horizon: float
    policy_mode: str
    promotion_cap: float
    external_fraction: float
    initial_density: str
    snapshot_times: tuple[float, ...]
    premium: float | None
    temporaries: bool
    optimizer: OptimizerSettings
    output_dir: str
    _normal: dict = field(repr=False, default_factory=dict)

    def normalized(self) -> dict:
        """The scenario as a plain dict in the file schema, defaults filled."""
        return json.loads(json.dumps(self._normal))

    def override_seed(self, seed: int) -> None:
        if seed < 0:
            raise ConfigError("seed: must be nonnegative")
        self.optimizer.seed = seed
        self._normal["optimizer"]["seed"] = seed

    def override_output(self, directory: str) -> None:
        self.output_dir = directory
        self._normal["output"]["directory"] = directory


def _parse_level(value, path: str) -> tuple[LevelSpec, dict]:
    block = _mapping(value, path)
    headcount = _number(block.pop("headcount", None), f"{path}.headcount",
                        minimum=0.0, strict_min=True)
    attrition = _number(block.pop("attrition", None), f"{path}.attrition",
                        minimum=0.0, strict_min=True)
    age = _number(block.pop("eligibility_age", 0.0),
                  f"{path}.eligibility_age", minimum=0.0)
    base = block.pop("base_wage", None)
    if base is not None:
        base = _number(base, f"{path}.base_wage", minimum=0.0, strict_min=True)
    temp = block.pop("temp_wage", None)
    if temp is not None:
        temp = _number(temp, f"{path}.temp_wage", minimum=0.0, strict_min=True)
    curve, curve_dict = _parse_wage_curve(block.pop("floater_wage", None),
                                          f"{path}.floater_wage")
    _reject_unknown(block, path)
    if curve is not None and math.isinf(curve.laplace(attrition)):
        # the floater wage integral diverges, like wage_growth >= attrition
        raise ConfigError(
            f"{path}.floater_wage.growth: must stay below the level's "
            f"attrition {attrition}")
    level = LevelSpec(headcount=headcount, attrition=attrition,
                      eligibility_age=age, base_wage=base, temp_wage=temp,
                      floater_wage=curve)
    normal = {"headcount": headcount, "attrition": attrition,
              "eligibility_age": age, "base_wage": base, "temp_wage": temp,
              "floater_wage": curve_dict}
    return level, normal


def parse_config(data: Any) -> ScenarioConfig:
    """Validate a scenario dict and build the domain objects it describes."""
    top = _mapping(data, "config")

    org_block = _mapping(top.pop("org", None), "org")
    wage_growth = _number(org_block.pop("wage_growth", 0.0),
                          "org.wage_growth", minimum=0.0)
    levels_raw = org_block.pop("levels", None)
    if not isinstance(levels_raw, list) or not levels_raw:
        raise ConfigError("org.levels: expected a non-empty list")
    parsed = [_parse_level(v, f"org.levels[{i}]")
              for i, v in enumerate(levels_raw)]
    levels = [lv for lv, _ in parsed]
    size = len(levels)
    units_raw = org_block.pop("business_units", None)
    units = None
    units_normal = None
    if units_raw is not None:
        if not isinstance(units_raw, list) or not units_raw:
            raise ConfigError("org.business_units: expected a non-empty list")
        units_normal = [_number_list(row, f"org.business_units[{k}]",
                                     length=size, minimum=0.0)
                        for k, row in enumerate(units_raw)]
        units = np.array(units_normal)
    _reject_unknown(org_block, "org")

    grid_block = _mapping(top.pop("grid", {}) or {}, "grid")
    ds = _number(grid_block.pop("ds", 0.05), "grid.ds", minimum=0.0,
                 strict_min=True)
    dt = _number(grid_block.pop("dt", 0.05), "grid.dt", minimum=0.0,
                 strict_min=True)
    s_max = _number(grid_block.pop("s_max", 50.0), "grid.s_max",
                    minimum=0.0, strict_min=True)
    horizon = _number(grid_block.pop("horizon", 60.0), "grid.horizon",
                      minimum=0.0)
    _reject_unknown(grid_block, "grid")

    policy_block = _mapping(top.pop("policy", {}) or {}, "policy")
    mode = _string(policy_block.pop("mode", "max-internal"), "policy.mode",
                   _POLICY_MODES)
    cap_raw = policy_block.pop("promotion_cap", 5.0)
    if cap_raw is None:
        cap = math.inf
    else:
        cap = _number(cap_raw, "policy.promotion_cap", minimum=0.0,
                      strict_min=True)
    fraction = _number(policy_block.pop("external_fraction", 0.0),
                       "policy.external_fraction", minimum=0.0)
    initial = _string(policy_block.pop("initial_density", "uniform"),
                      "policy.initial_density", _INITIAL_KINDS)
    # a snapshot past the horizon would never be recorded
    snaps = tuple(_number_list(policy_block.pop("snapshot_times", []),
                               "policy.snapshot_times", minimum=0.0,
                               maximum=horizon))
    _reject_unknown(policy_block, "policy")

    plan_raw = top.pop("plan", None)
    plan = None
    plan_normal = None
    if plan_raw is not None:
        plan_block = _mapping(plan_raw, "plan")
        alpha = _number_list(plan_block.pop("alpha", [1.0] * (size - 1)),
                             "plan.alpha", length=size - 1, minimum=1.0)
        p = _number_list(plan_block.pop("p", [1.0] * size), "plan.p",
                         length=size, minimum=0.0, maximum=1.0)
        _reject_unknown(plan_block, "plan")
        plan = FlexPlan(alpha=np.array(alpha), p=np.array(p))
        plan_normal = {"alpha": alpha, "p": p}

    cost_block = _mapping(top.pop("cost", {}) or {}, "cost")
    premium_raw = cost_block.pop("premium", None)
    premium = None
    if premium_raw is not None:
        premium = _number(premium_raw, "cost.premium", minimum=0.0)
    temporaries = _boolean(cost_block.pop("temporaries", True),
                           "cost.temporaries")
    _reject_unknown(cost_block, "cost")
    if premium is not None and not temporaries:
        raise ConfigError(
            "cost.premium: meaningless with cost.temporaries = false")
    if premium is not None:
        for i, lv in enumerate(levels):
            if lv.temp_wage is not None:
                raise ConfigError(
                    f"org.levels[{i}].temp_wage: conflicts with cost.premium; "
                    "give one or the other")
            if lv.base_wage is None:
                raise ConfigError(
                    f"org.levels[{i}].base_wage: required to apply cost.premium")
            lv.temp_wage = (1.0 + premium) * lv.base_wage

    opt_block = _mapping(top.pop("optimizer", {}) or {}, "optimizer")
    optimizer = OptimizerSettings(
        mode=_string(opt_block.pop("mode", "ga"), "optimizer.mode",
                     _OPTIMIZER_MODES),
        population_size=_integer(opt_block.pop("population_size", 200),
                                 "optimizer.population_size", minimum=2),
        generations=_integer(opt_block.pop("generations", 250),
                             "optimizer.generations", minimum=1),
        mutation_chance=_number(opt_block.pop("mutation_chance", 0.10),
                                "optimizer.mutation_chance", minimum=0.0,
                                maximum=1.0),
        elitism=_number(opt_block.pop("elitism", 0.05), "optimizer.elitism",
                        minimum=0.0, maximum=0.999),
        seed=_integer(opt_block.pop("seed", 0), "optimizer.seed", minimum=0),
        alpha_max=_number(opt_block.pop("alpha_max", 10.0),
                          "optimizer.alpha_max", minimum=1.0),
        optimize_alpha=_boolean(opt_block.pop("optimize_alpha", True),
                                "optimizer.optimize_alpha"),
        optimize_p=_boolean(opt_block.pop("optimize_p", True),
                            "optimizer.optimize_p"),
    )
    _reject_unknown(opt_block, "optimizer")
    if not temporaries:
        optimizer.optimize_p = False

    out_block = _mapping(top.pop("output", {}) or {}, "output")
    out_dir = _string(out_block.pop("directory", "out"), "output.directory")
    _reject_unknown(out_block, "output")

    _reject_unknown(top, "config")

    spec = OrgSpec(levels=levels, wage_growth=wage_growth,
                   business_units=units)
    try:
        validate(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        grid = SeniorityGrid(ds=ds, dt=dt, s_max=s_max)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None
    if plan is not None:
        try:
            plan.check(spec)
        except ValueError as exc:
            raise ConfigError(f"plan: {exc}") from None
    if mode == "fixed-plan" and plan is None:
        raise ConfigError("policy.mode: fixed-plan requires a plan block")
    if optimizer.mode == "evaluate" and plan is None:
        raise ConfigError("optimizer.mode: evaluate requires a plan block")
    if float(np.max(spec.tau)) >= s_max:
        raise ConfigError(
            f"grid.s_max: {s_max} does not cover the largest eligibility "
            f"age {float(np.max(spec.tau))}")

    normal = {
        "org": {
            "wage_growth": wage_growth,
            "levels": [normal for _, normal in parsed],
            "business_units": units_normal,
        },
        "grid": {"ds": ds, "dt": dt, "s_max": s_max, "horizon": horizon},
        "policy": {
            "mode": mode,
            "promotion_cap": None if math.isinf(cap) else cap,
            "external_fraction": fraction,
            "initial_density": initial,
            "snapshot_times": list(snaps),
        },
        "plan": plan_normal,
        "cost": {"premium": premium, "temporaries": temporaries},
        "optimizer": {
            "mode": optimizer.mode,
            "population_size": optimizer.population_size,
            "generations": optimizer.generations,
            "mutation_chance": optimizer.mutation_chance,
            "elitism": optimizer.elitism,
            "seed": optimizer.seed,
            "alpha_max": optimizer.alpha_max,
            "optimize_alpha": optimizer.optimize_alpha,
            "optimize_p": optimizer.optimize_p,
        },
        "output": {"directory": out_dir},
    }
    return ScenarioConfig(
        spec=spec, plan=plan, grid=grid, horizon=horizon, policy_mode=mode,
        promotion_cap=cap, external_fraction=fraction,
        initial_density=initial, snapshot_times=snaps, premium=premium,
        temporaries=temporaries, optimizer=optimizer, output_dir=out_dir,
        _normal=normal,
    )


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(data)


def dump_config(config: ScenarioConfig) -> str:
    """The normalized scenario as JSON text; re-parsing it is a no-op."""
    return json.dumps(config.normalized(), indent=2)
