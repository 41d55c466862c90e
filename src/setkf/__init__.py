"""Stochastic event-triggered remote state estimation.

Exact MMSE filtering under open-loop and closed-loop stochastic triggers,
communication-rate and covariance analysis, event-parameter design, and a
seeded Monte Carlo harness with a CSV/CLI surface.
"""

from .errors import (
    CalibrationFailed,
    ConfigError,
    DimensionMismatch,
    InconsistentArgs,
    Infeasible,
    MissingMeasurement,
    ModelValidationError,
    NoConvergence,
    NotDetectable,
    NotPositiveDefinite,
    NotStabilizable,
    NumericalError,
    SetkfError,
    SingularInnovation,
    UnstableSystem,
)
from .model import (
    SteadyState,
    SystemModel,
    load_model,
    model_from_dict,
    save_model,
    steady_state,
    validate_model,
)
from .riccati import (
    BlockCovariance,
    RiccatiMap,
    block_gaussian_update,
    fixed_point,
    g_step,
    gamma_step,
    lyapunov,
)
from .estimation import (
    FilterState,
    TriggerPolicy,
    clset_measurement_update,
    initial_state,
    offline_drop_update,
    olset_measurement_update,
    standard_kf_update,
    time_update,
    trigger_decide,
)
from .analysis import (
    ClosedLoopAnalysis,
    OpenLoopAnalysis,
    closed_loop_rate_bounds,
    closed_loop_report,
    conditional_rate,
    olset_bounds,
    open_loop_rate,
    open_loop_report,
    rate_trace_bounds,
    sequential_drop_probability,
)
from .design import (
    DesignProblem,
    DesignResult,
    assemble_lmi_blocks,
    delta0_for_lambda_max_bound,
    delta0_for_trace_bound,
    design_search,
    design_search_closed_loop,
    export_lmi,
    feasibility_check,
    lmi_feasible,
    optimality_gap_bound,
)
from .harness import (
    ComparisonRow,
    MonteCarloStats,
    RunLengthStats,
    Scenario,
    TrajectoryRecord,
    calibrate_closed_loop,
    calibrate_open_loop,
    calibrate_period,
    compare_schedulers,
    load_scenario,
    monte_carlo,
    run_length_stats,
    save_scenario,
    scenario_from_dict,
    simulate,
    singer_scenario,
)

__version__ = "0.1.0"
