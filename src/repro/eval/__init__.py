"""Evaluation: robust test error, confidences, redundancy, guarantees, energy."""

from repro.eval.confidence import confidence_statistics, logit_statistics
from repro.eval.energy import EnergyReport, energy_report, precision_energy_factor
from repro.eval.fast_eval import BatchPlan, DeltaWeightPatcher, evaluate_on_plan
from repro.eval.guarantees import deviation_bound, required_samples
from repro.eval.linf import evaluate_linf_robustness
from repro.eval.pareto import pareto_frontier
from repro.eval.redundancy import (
    redundancy_metrics,
    relative_absolute_error,
    relu_relevance,
    weight_relevance,
)
from repro.eval.robust_error import (
    RobustErrorResult,
    evaluate_clean_error,
    evaluate_robust_error,
    model_error_and_confidence,
)
from repro.eval.sweeps import ProfiledCurve, RErrCurve, profiled_sweep, rerr_sweep

__all__ = [
    "BatchPlan",
    "DeltaWeightPatcher",
    "evaluate_on_plan",
    "RobustErrorResult",
    "evaluate_clean_error",
    "evaluate_robust_error",
    "model_error_and_confidence",
    "confidence_statistics",
    "logit_statistics",
    "weight_relevance",
    "relu_relevance",
    "relative_absolute_error",
    "redundancy_metrics",
    "evaluate_linf_robustness",
    "deviation_bound",
    "required_samples",
    "energy_report",
    "EnergyReport",
    "precision_energy_factor",
    "pareto_frontier",
    "RErrCurve",
    "ProfiledCurve",
    "rerr_sweep",
    "profiled_sweep",
]
