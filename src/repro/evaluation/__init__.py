"""Evaluation harness: metrics, engine, scenarios, sweeps, tables."""

from .ascii_plots import ascii_plot
from .engine import (
    ENGINE_VERSION,
    EXECUTORS,
    ResultCache,
    SerialExecutor,
    SingleFlight,
    ThreadExecutor,
    TrialJob,
    build_jobs,
    get_executor,
    run_grid,
)
from .scenarios import (
    FingerprintError,
    PointSpec,
    Scenario,
    module_token,
    point_fingerprint,
)
from .spec import AxisSpec, ExperimentSpec, SpecScenario
from .metrics import (
    classification_accuracy,
    excess_empirical_risk,
    mean_squared_estimation_error,
    parameter_error,
    relative_risk_gap,
    support_recovery,
)
from .sweeps import SweepResult, TrialStats
from .tables import (
    format_panel_block,
    format_series_table,
    markdown_table,
    shape_summary,
)

__all__ = [
    "AxisSpec",
    "ENGINE_VERSION",
    "EXECUTORS",
    "ExperimentSpec",
    "FingerprintError",
    "PointSpec",
    "SpecScenario",
    "ResultCache",
    "Scenario",
    "SerialExecutor",
    "SingleFlight",
    "SweepResult",
    "ThreadExecutor",
    "TrialJob",
    "TrialStats",
    "ascii_plot",
    "build_jobs",
    "classification_accuracy",
    "excess_empirical_risk",
    "format_panel_block",
    "format_series_table",
    "get_executor",
    "markdown_table",
    "mean_squared_estimation_error",
    "module_token",
    "parameter_error",
    "point_fingerprint",
    "relative_risk_gap",
    "run_grid",
    "shape_summary",
    "support_recovery",
]
