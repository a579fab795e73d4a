"""Workforce planning for seniority-structured hierarchies.

Submodules:
    org        domain types, closed-form stationary profiles, feasibility
    transport  explicit upwind simulation of the seniority densities
    costs      labor-cost model with temporaries and floaters
    optimize   genetic plan optimization
    config     JSON run configuration
    cli        command-line entry point
"""

from .org import (
    FEASIBILITY_MARGIN,
    FlexPlan,
    IllPosedError,
    LevelSpec,
    MassMismatchError,
    MissingWageError,
    OrgSpec,
    OrgValidationError,
    SteadyState,
    check_initial_condition,
    min_external_ratios,
    min_permanent_share,
    promotion_demands,
    stationary_state,
    validate,
)
from .costs import (
    BusinessUnitPlan,
    Case1Diagnostics,
    ConstantWage,
    CostBreakdown,
    ExponentialWage,
    GrowthExceedsAttritionError,
    MissingFloaterCurveError,
    PiecewiseLinearWage,
    business_unit_cost,
    case1_diagnostics,
    case2_residuals,
    cost_quadrature_oracle,
    floater_average_cost,
    format_cost_table,
    format_plan_table,
    org_cost,
    reduce_floaters,
    write_cost_csv,
)
from .optimize import (
    Candidate,
    GaConfig,
    GaResult,
    NoFeasibleCandidateError,
    PlanObjective,
    feasible_cost_ceiling,
    ga_minimize,
    penalized_cost,
    write_ga_csv,
)
from .transport import (
    DEFAULT_PROMOTION_CAP,
    CflViolationError,
    InfeasibleInitialDataError,
    SeniorityGrid,
    SimulationResult,
    run,
    write_snapshot_csv,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BusinessUnitPlan",
    "Candidate",
    "Case1Diagnostics",
    "CflViolationError",
    "ConstantWage",
    "CostBreakdown",
    "DEFAULT_PROMOTION_CAP",
    "ExponentialWage",
    "FEASIBILITY_MARGIN",
    "FlexPlan",
    "GaConfig",
    "GaResult",
    "GrowthExceedsAttritionError",
    "IllPosedError",
    "InfeasibleInitialDataError",
    "LevelSpec",
    "MassMismatchError",
    "MissingFloaterCurveError",
    "MissingWageError",
    "NoFeasibleCandidateError",
    "OrgSpec",
    "OrgValidationError",
    "PiecewiseLinearWage",
    "PlanObjective",
    "SeniorityGrid",
    "SimulationResult",
    "SteadyState",
    "business_unit_cost",
    "case1_diagnostics",
    "case2_residuals",
    "check_initial_condition",
    "cost_quadrature_oracle",
    "feasible_cost_ceiling",
    "floater_average_cost",
    "ga_minimize",
    "min_external_ratios",
    "min_permanent_share",
    "org_cost",
    "penalized_cost",
    "promotion_demands",
    "reduce_floaters",
    "run",
    "stationary_state",
    "validate",
    "write_cost_csv",
    "write_ga_csv",
    "write_snapshot_csv",
    "write_trajectory_csv",
    "__version__",
]
