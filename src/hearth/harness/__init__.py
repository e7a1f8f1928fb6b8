"""Evaluation harness: tasks, trial batches, and metrics."""

from .metrics import (
    REFERENCE_SUCCESS_RATES,
    REPORT_FORMATS,
    GroupMetrics,
    MetricsReport,
    compute_metrics,
    emit_report,
    render_csv,
    render_json,
    render_markdown,
)
from .runner import (
    BackendSetup,
    ExperimentPlan,
    ScenarioTemplate,
    TrialOutcome,
    TrialRecord,
    run_memory_protocol,
    run_trial,
    run_trials,
    write_transcript,
)
from .tasks import TASKS, EvaluationError, TaskDef, check_t1, check_t2

__all__ = [
    "BackendSetup",
    "EvaluationError",
    "ExperimentPlan",
    "GroupMetrics",
    "MetricsReport",
    "REFERENCE_SUCCESS_RATES",
    "REPORT_FORMATS",
    "ScenarioTemplate",
    "TASKS",
    "TaskDef",
    "TrialOutcome",
    "TrialRecord",
    "check_t1",
    "check_t2",
    "compute_metrics",
    "emit_report",
    "render_csv",
    "render_json",
    "render_markdown",
    "run_memory_protocol",
    "run_trial",
    "run_trials",
    "write_transcript",
]
