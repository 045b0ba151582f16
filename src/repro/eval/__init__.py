"""Evaluation harness: STR-vs-DTR experiments and figure/table reproduction."""

from repro.eval.experiment import (
    ComparisonResult,
    ExperimentConfig,
    build_network,
    build_traffic,
    run_comparison,
)
from repro.eval.metrics import (
    safe_ratio,
    sorted_high_utilization,
    utilization_histogram,
)
from repro.eval.campaign import (
    CampaignAggregate,
    CampaignSpec,
    CampaignStore,
    aggregate_campaign,
    config_hash,
    run_campaign,
)
from repro.eval.convergence import ConvergenceTrace, relative_gap, trace_from_history
from repro.eval.drift import DriftReport, drift_sweep_session
from repro.eval.robustness import (
    RobustnessReport,
    ScenarioRobustnessReport,
    failure_sweep_session,
    scenario_sweep_session,
)

__all__ = [
    "CampaignSpec",
    "CampaignStore",
    "CampaignAggregate",
    "run_campaign",
    "aggregate_campaign",
    "config_hash",
    "ExperimentConfig",
    "ComparisonResult",
    "build_network",
    "build_traffic",
    "run_comparison",
    "safe_ratio",
    "utilization_histogram",
    "sorted_high_utilization",
    "ConvergenceTrace",
    "trace_from_history",
    "relative_gap",
    "DriftReport",
    "drift_sweep_session",
    "RobustnessReport",
    "ScenarioRobustnessReport",
    "failure_sweep_session",
    "scenario_sweep_session",
]
