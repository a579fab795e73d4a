"""JSON scenario configuration for the command-line front end.

One file describes a complete run: the organization (levels with
headcounts, attrition rates, eligibility ages, and wages), the simulation
grid, the promotion policy, an optional staffing plan, the cost block, and
the optimizer knobs. Unknown keys anywhere are rejected so typos fail
loudly. Units: time in years, seniority in years, wages in currency per
hour, rates per year.

parse_config builds validated domain objects and keeps a normalized copy
of the scenario, recorded key by key as the file is read; dump_config
emits that copy as JSON, and parsing the emitted text reproduces the
scenario exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .costs import (ConstantWage, ExponentialWage, PiecewiseLinearWage,
                    _check_unit_headcounts)
from .org import FlexPlan, LevelSpec, OrgSpec, validate
from .transport import DEFAULT_PROMOTION_CAP, SeniorityGrid

__all__ = [
    "ConfigError",
    "OptimizerSettings",
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "dump_config",
    "snapshot_csv_name",
]

_POLICY_MODES = ("max-internal", "external-fraction", "fixed-plan")
_INITIAL_KINDS = ("stationary", "uniform", "truncated-exponential")
_OPTIMIZER_MODES = ("ga", "evaluate")
_WAGE_CURVES = {"constant": ConstantWage, "exponential": ExponentialWage,
                "piecewise-linear": PiecewiseLinearWage}
# a level's densities hold about headcount / ds over the grid, and a run
# sums them: sum rho about N / ds, sum |rho - steady| up to 2 N / ds; this
# bound on N / ds keeps both finite, with room for their rounding
_MAX_HEADCOUNT_PER_DS = np.finfo(float).max / 4


class ConfigError(ValueError):
    """A scenario file violates the schema; the message names the key."""


def snapshot_csv_name(time: float) -> str:
    """The file `orgflow simulate` writes the snapshot recorded at time to."""
    return f"snapshot_t{time:g}.csv"


# ---------------------------------------------------------------------------
# low-level readers; every reader takes the dotted key path for messages

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


def _non_empty_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return value


def _number_rows(value, path: str, length: int) -> list[list[float]]:
    return [_number_list(row, f"{path}[{k}]", length=length, minimum=0.0)
            for k, row in enumerate(_non_empty_list(value, path))]


class _Block:
    """One object of the scenario file.

    Each read pops a key with its default, checks it and records the
    checked value under the same key in `normal`, so the normalized
    scenario is built in the order the file is read. done() rejects the
    keys left over.
    """

    def __init__(self, value, path: str, prefix: str | None = None):
        if not isinstance(value, dict):
            raise ConfigError(
                f"{path}: expected an object, got {type(value).__name__}")
        self.raw = dict(value)
        self.path = path
        self.prefix = f"{path}." if prefix is None else prefix
        self.normal: dict = {}

    def read(self, key: str, default, check, *args, optional: bool = False,
             **kwargs):
        """The checked value under key; with optional, null stays None."""
        value = self.raw.pop(key, default)
        if not (optional and value is None):
            value = check(value, self.prefix + key, *args, **kwargs)
        self.normal[key] = value
        return value

    def block(self, key: str, required: bool = False,
              optional: bool = False) -> _Block | None:
        """The object under key as a _Block. A missing key or null is an
        error when required and None when optional; otherwise it reads as an
        empty object, all defaults. Any other value must be an object."""
        value = self.raw.pop(key, None)
        if optional and value is None:
            self.normal[key] = None
            return None
        if value is None and not required:
            value = {}
        sub = _Block(value, self.prefix + key)
        self.normal[key] = sub.normal
        return sub

    def blocks(self, key: str):
        """Each object of the non-empty list under key, as a _Block."""
        path = self.prefix + key
        items = self.normal[key] = []
        for i, value in enumerate(_non_empty_list(self.raw.pop(key, None),
                                                  path)):
            sub = _Block(value, f"{path}[{i}]")
            items.append(sub.normal)
            yield sub

    def done(self) -> None:
        if self.raw:
            keys = ", ".join(sorted(self.raw))
            raise ConfigError(f"{self.path}: unknown keys: {keys}")


# ---------------------------------------------------------------------------
# scenario object

@dataclass
class OptimizerSettings:
    """Optimizer block: GA knobs plus the evaluate shortcut."""

    mode: str
    population_size: int
    generations: int
    mutation_chance: float
    elitism: float
    seed: int
    alpha_max: float
    optimize_alpha: bool
    optimize_p: bool


@dataclass
class ScenarioConfig:
    """A fully validated scenario ready for any command."""

    spec: OrgSpec
    business_units: np.ndarray | None
    plan: FlexPlan | None
    grid: SeniorityGrid
    horizon: float
    policy_mode: str
    promotion_cap: float
    external_fraction: float
    initial_density: str
    snapshot_times: tuple[float, ...]
    temporaries: bool
    optimizer: OptimizerSettings
    output_dir: str
    _normal: dict = field(repr=False, default_factory=dict)

    def normalized(self) -> dict:
        """The scenario as a plain dict in the file schema, defaults filled."""
        return json.loads(json.dumps(self._normal))

    def override_seed(self, seed: int) -> None:
        self.optimizer.seed = _integer(seed, "optimizer.seed", minimum=0)
        self._normal["optimizer"]["seed"] = seed

    def override_output(self, directory: str) -> None:
        self.output_dir = directory
        self._normal["output"]["directory"] = directory


def _parse_wage_curve(curve: _Block | None):
    if curve is None:
        return None
    kind = curve.read("kind", "", lambda value, path: _string(
        value or "", path, tuple(_WAGE_CURVES)))
    if kind == "constant":
        curve.read("value", None, _number, minimum=0.0, strict_min=True)
    elif kind == "exponential":
        curve.read("base", None, _number, minimum=0.0, strict_min=True)
        curve.read("growth", 0.0, _number, minimum=0.0)
    else:
        curve.read("knots", None, _number_list, minimum=0.0)
        curve.read("values", None, _number_list, minimum=0.0)
    curve.done()
    fields = {k: v for k, v in curve.normal.items() if k != "kind"}
    try:
        return _WAGE_CURVES[kind](**fields)
    except ValueError as exc:
        raise ConfigError(f"{curve.path}: {exc}") from None


def _parse_level(level: _Block) -> LevelSpec:
    level.read("headcount", None, _number, minimum=0.0, strict_min=True)
    attrition = level.read("attrition", None, _number, minimum=0.0,
                           strict_min=True)
    level.read("eligibility_age", 0.0, _number, minimum=0.0)
    level.read("base_wage", None, _number, optional=True, minimum=0.0,
               strict_min=True)
    level.read("temp_wage", None, _number, optional=True, minimum=0.0,
               strict_min=True)
    curve = _parse_wage_curve(level.block("floater_wage", optional=True))
    level.done()
    if curve is not None:
        with np.errstate(over="ignore"):
            integral = curve.laplace(attrition)
        if math.isinf(integral):
            # the floater wage integral diverges when an exponential curve
            # grows as fast as staff leave; any curve's overflows when the
            # attrition is near zero
            if isinstance(curve, ExponentialWage) and curve.growth >= attrition:
                raise ConfigError(
                    f"{level.path}.floater_wage.growth: must stay below the "
                    f"level's attrition {attrition}")
            raise ConfigError(
                f"{level.path}.attrition: {attrition} is too small; the "
                "floater wage's discounted integral overflows")
    return LevelSpec(**{**level.normal, "floater_wage": curve})


def parse_config(data: Any) -> ScenarioConfig:
    """Validate a scenario dict and build the domain objects it describes."""
    top = _Block(data, "config", prefix="")

    org = top.block("org", required=True)
    wage_growth = org.read("wage_growth", 0.0, _number, minimum=0.0)
    levels = [_parse_level(level) for level in org.blocks("levels")]
    size = len(levels)
    units = org.read("business_units", None, _number_rows, size,
                     optional=True)
    org.done()

    grid = top.block("grid")
    ds = grid.read("ds", 0.05, _number, minimum=0.0, strict_min=True)
    dt = grid.read("dt", 0.05, _number, minimum=0.0, strict_min=True)
    s_max = grid.read("s_max", 50.0, _number, minimum=0.0, strict_min=True)
    horizon = grid.read("horizon", 60.0, _number, minimum=0.0)
    grid.done()

    policy = top.block("policy")
    mode = policy.read("mode", "max-internal", _string, _POLICY_MODES)
    cap = policy.read("promotion_cap", DEFAULT_PROMOTION_CAP, _number,
                      optional=True, minimum=0.0, strict_min=True)
    fraction = policy.read("external_fraction", 0.0, _number, minimum=0.0)
    initial = policy.read("initial_density", "uniform", _string,
                          _INITIAL_KINDS)
    # a snapshot past the horizon would never be recorded
    snaps = policy.read("snapshot_times", [], _number_list, minimum=0.0,
                        maximum=horizon)
    policy.done()
    # run() records a snapshot at the step nearest t, time dt * round(t / dt)
    # (np.rint: t / dt may overflow), and simulate names its file by that
    # time, which two recorded times may share
    written: dict[str, tuple[float, float]] = {}
    for t in snaps:
        recorded = dt * float(np.rint(t / dt))
        name = snapshot_csv_name(recorded)
        first, first_recorded = written.setdefault(name, (t, recorded))
        if first_recorded != recorded:
            raise ConfigError(
                f"policy.snapshot_times: the snapshots at {first} and {t} "
                f"would both be written to {name}")

    plan = None
    plan_block = top.block("plan", optional=True)
    if plan_block is not None:
        alpha = plan_block.read("alpha", [1.0] * (size - 1), _number_list,
                                length=size - 1, minimum=1.0)
        p = plan_block.read("p", [1.0] * size, _number_list, length=size,
                            minimum=0.0, maximum=1.0)
        plan_block.done()
        plan = FlexPlan(alpha=np.array(alpha), p=np.array(p))

    cost = top.block("cost")
    premium = cost.read("premium", None, _number, optional=True,
                        minimum=0.0, strict_min=True)
    temporaries = cost.read("temporaries", True, _boolean)
    cost.done()
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

    opt = top.block("optimizer")
    opt.read("mode", "ga", _string, _OPTIMIZER_MODES)
    opt.read("population_size", 200, _integer, minimum=2)
    opt.read("generations", 250, _integer, minimum=1)
    opt.read("mutation_chance", 0.10, _number, minimum=0.0, maximum=1.0)
    opt.read("elitism", 0.05, _number, minimum=0.0, maximum=0.999)
    opt.read("seed", 0, _integer, minimum=0)
    opt.read("alpha_max", 10.0, _number, minimum=1.0)
    opt.read("optimize_alpha", True, _boolean)
    opt.read("optimize_p", True, _boolean)
    opt.done()
    if not temporaries:
        opt.normal["optimize_p"] = False
    optimizer = OptimizerSettings(**opt.normal)

    output = top.block("output")
    out_dir = output.read("directory", "out", _string)
    output.done()

    top.done()

    spec = OrgSpec(levels=levels, wage_growth=wage_growth)
    try:
        validate(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if units is not None:
        units = np.array(units)
        try:
            _check_unit_headcounts(units, spec.n)
        except ValueError as exc:
            raise ConfigError(f"org.business_units: {exc}") from None
    try:
        grid = SeniorityGrid(ds=ds, dt=dt, s_max=s_max)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None
    for i, lv in enumerate(levels):
        if not lv.headcount / ds <= _MAX_HEADCOUNT_PER_DS:
            raise ConfigError(
                f"org.levels[{i}].headcount: must be at most "
                f"{_MAX_HEADCOUNT_PER_DS * ds:.6g} at grid.ds = {ds}, so that "
                "the sums of the level's densities (about headcount / ds) "
                f"stay finite; got {lv.headcount}")
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

    return ScenarioConfig(
        spec=spec, business_units=units, plan=plan, grid=grid,
        horizon=horizon, policy_mode=mode,
        promotion_cap=math.inf if cap is None else cap,
        external_fraction=fraction, initial_density=initial,
        snapshot_times=tuple(snaps), temporaries=temporaries,
        optimizer=optimizer, output_dir=out_dir, _normal=top.normal,
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
