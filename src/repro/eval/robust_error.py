"""Robust test error (RErr) evaluation.

RErr is the paper's central metric: the test error of the quantized model
after injecting bit errors into its weights, averaged over many independent
error draws (50 simulated chips in the paper).  Errors are injected into the
integer codes; the corrupted codes are de-quantized and evaluated — exactly
the data flow of Fig. 5 at inference time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.biterror.random_errors import BitErrorField
from repro.data.datasets import ArrayDataset
from repro.eval.fast_eval import BatchPlan, DeltaWeightPatcher, evaluate_on_plan
from repro.nn.module import Module
from repro.quant.fixed_point import FixedPointQuantizer, QuantizedWeights
from repro.quant.qat import model_weight_arrays, quantize_model

__all__ = [
    "RobustErrorResult",
    "model_error_and_confidence",
    "evaluate_clean_error",
    "evaluate_robust_error",
]


@dataclass
class RobustErrorResult:
    """Result of a robust-error evaluation at one bit error rate.

    Attributes
    ----------
    bit_error_rate:
        The evaluated rate ``p`` (fraction).
    clean_error:
        Test error of the un-perturbed quantized model.
    errors:
        Per-draw robust test errors (one per simulated chip / error pattern).
    confidence_clean, confidence_perturbed:
        Average maximum-softmax confidences without / with bit errors.
    """

    bit_error_rate: float
    clean_error: float
    errors: List[float] = field(default_factory=list)
    confidence_clean: float = float("nan")
    confidence_perturbed: float = float("nan")

    @property
    def mean_error(self) -> float:
        """Average RErr over all error draws.

        Equal draws (every draw at p = 0) average to their common value
        exactly, which summing them in floating point could miss by an ulp.
        """
        if len(set(self.errors)) == 1:
            return float(self.errors[0])
        return float(np.mean(self.errors)) if self.errors else self.clean_error

    @property
    def std_error(self) -> float:
        """Standard deviation of RErr over all error draws (0 if all agree)."""
        return float(np.std(self.errors)) if len(set(self.errors)) > 1 else 0.0

    @property
    def max_error(self) -> float:
        return float(np.max(self.errors)) if self.errors else self.clean_error


def model_error_and_confidence(
    model: Module,
    weights: Sequence[np.ndarray],
    dataset: ArrayDataset,
    batch_size: int,
) -> tuple:
    """Error rate and average confidence of ``model`` with ``weights``.

    ``dataset`` may also be a prebuilt
    :class:`~repro.eval.fast_eval.BatchPlan`, in which case its hoisted
    batches are reused as-is (the plan already fixed its batch size, and
    ``batch_size`` is only validated); per-draw callers like the sweep
    engine build the plan once per evaluation context.  Either way the
    result is bit-identical to the historical per-call batching loop.
    ``batch_size`` must be at least 1 — a non-positive value used to
    silently yield an empty batch range and a 0/0 evaluation.
    """
    if int(batch_size) < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    plan = dataset if isinstance(dataset, BatchPlan) else BatchPlan(dataset, batch_size)
    return evaluate_on_plan(model, weights, plan)


def evaluate_clean_error(
    model: Module,
    quantizer: Optional[FixedPointQuantizer],
    dataset: ArrayDataset,
    batch_size: int = 64,
) -> float:
    """Test error of the quantized (or raw, if ``quantizer`` is None) model."""
    weights = model_weight_arrays(model)
    if quantizer is not None:
        weights = quantizer.quantize_dequantize(weights)
    error, _ = model_error_and_confidence(model, weights, dataset, batch_size)
    return error


def evaluate_robust_error(
    model: Module,
    quantizer: FixedPointQuantizer,
    dataset: ArrayDataset,
    bit_error_rate: float,
    error_fields: Sequence[BitErrorField],
    batch_size: int = 64,
    quantized: Optional[QuantizedWeights] = None,
    clean_stats: Optional[tuple] = None,
) -> RobustErrorResult:
    """Average RErr of ``model`` over the chips ``error_fields`` at ``bit_error_rate``.

    Each draw runs the fused per-draw loop: the clean de-quantization is
    computed once, every draw reports only its touched weights
    (:meth:`BitErrorField.delta_apply`), patches them into the clean weights
    in place (:class:`~repro.eval.fast_eval.DeltaWeightPatcher`) and is
    evaluated over mini-batches cut once per call
    (:class:`~repro.eval.fast_eval.BatchPlan`), so a draw costs
    ``O(touched)`` instead of ``O(W)``.  The result is bit-identical to
    de-quantizing every corrupted model in full and batching the dataset
    afresh per draw.

    Parameters
    ----------
    error_fields:
        The pre-drawn :class:`BitErrorField` instances ("chips"), at least
        one (see :func:`repro.biterror.make_error_fields`).  Passing the same
        fields for every model and every rate reproduces the paper's protocol
        (fixed patterns, subset property across rates).
    quantized, clean_stats:
        Pre-computed quantized weights and ``(clean_error, clean_confidence)``
        pair.  Sweep drivers (:func:`repro.eval.sweeps.rerr_sweep`) pass
        these so the model is quantized and clean-evaluated once per sweep
        instead of once per rate.
    """
    error_fields = list(error_fields)
    if not error_fields:
        raise ValueError("a field set requires at least one field")
    if quantized is None:
        quantized = quantize_model(model, quantizer)
    plan = BatchPlan(dataset, batch_size)
    clean_weights = None
    if clean_stats is None:
        clean_weights = quantizer.dequantize(quantized)
        clean_stats = model_error_and_confidence(model, clean_weights, plan, batch_size)
    clean_error, clean_confidence = clean_stats
    result = RobustErrorResult(
        bit_error_rate=bit_error_rate,
        clean_error=clean_error,
        confidence_clean=clean_confidence,
    )
    if bit_error_rate <= 0.0:
        # Every chip is the clean model (injection at p = 0 is an exact
        # no-op), so each draw reports the clean evaluation.
        result.errors = [clean_error] * len(error_fields)
        result.confidence_perturbed = clean_confidence
        return result

    if clean_weights is None:
        # clean_stats were hoisted by the caller; the patcher still needs
        # the clean decode, computed once for all draws.
        clean_weights = quantizer.dequantize(quantized)
    perturbed_confidences = []
    patcher = DeltaWeightPatcher(quantized, clean_weights)
    # Borrowed flat snapshot, hoisted out of the draw loop (refilling it
    # per draw would re-pay an O(W) concatenation per chip).
    flat = quantized.flat_codes(copy=False)
    for fld in error_fields:
        fld._check_quantized(quantized)
        touched, values = fld.delta_apply(flat, bit_error_rate)
        with patcher.patched(touched, values) as weights:
            error, confidence = model_error_and_confidence(model, weights, plan, batch_size)
        result.errors.append(error)
        perturbed_confidences.append(confidence)
    result.confidence_perturbed = float(np.mean(perturbed_confidences))
    return result
