"""Confidence and logit statistics (Fig. 6 / Table 2).

The paper's explanation of why weight clipping helps rests on logit and
confidence distributions: a clipped network still produces high clean
confidences (it uses more weights to do so) and its confidences degrade far
less under bit errors.  These helpers compute the statistics that Fig. 6 and
the confidence columns of Table 2 report.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.datasets import ArrayDataset
from repro.nn.losses import confidences
from repro.nn.module import Module
from repro.quant.fixed_point import FixedPointQuantizer
from repro.quant.qat import model_weight_arrays, swap_weights

__all__ = ["logit_statistics", "confidence_statistics"]


def _collect_logits(
    model: Module,
    weights: Sequence[np.ndarray],
    dataset: ArrayDataset,
    batch_size: int = 64,
) -> np.ndarray:
    """Logits of ``model`` (with ``weights`` swapped in) on the whole dataset."""
    outputs = []
    was_training = model.training
    model.eval()
    try:
        with swap_weights(model, weights):
            for start in range(0, len(dataset), batch_size):
                index = np.arange(start, min(start + batch_size, len(dataset)))
                inputs, _ = dataset[index]
                outputs.append(model(inputs))
    finally:
        model.train(was_training)
    return np.concatenate(outputs, axis=0)


def logit_statistics(logits: np.ndarray) -> Dict[str, float]:
    """Summary statistics of a logit matrix (Fig. 6, left column)."""
    logits = np.asarray(logits, dtype=np.float64)
    top = logits.max(axis=1)
    return {
        "mean_max_logit": float(top.mean()),
        "std_max_logit": float(top.std()),
        "mean_logit": float(logits.mean()),
        "max_logit": float(logits.max()),
        "min_logit": float(logits.min()),
    }


def confidence_statistics(
    model: Module,
    quantizer: Optional[FixedPointQuantizer],
    dataset: ArrayDataset,
    perturbed_weights: Optional[Sequence[np.ndarray]] = None,
    batch_size: int = 64,
) -> Dict[str, float]:
    """Average confidence (and logit stats) clean and, optionally, perturbed.

    ``perturbed_weights`` are typically the de-quantized weights after bit
    error injection; when supplied, the returned dictionary also contains the
    perturbed statistics and the clean-minus-perturbed confidence gap.
    """
    clean_weights = model_weight_arrays(model)
    if quantizer is not None:
        clean_weights = quantizer.quantize_dequantize(clean_weights)
    clean_logits = _collect_logits(model, clean_weights, dataset, batch_size)
    stats: Dict[str, float] = {
        "confidence_clean": float(confidences(clean_logits).mean()),
    }
    stats.update({f"clean_{k}": v for k, v in logit_statistics(clean_logits).items()})
    if perturbed_weights is not None:
        perturbed_logits = _collect_logits(model, perturbed_weights, dataset, batch_size)
        stats["confidence_perturbed"] = float(confidences(perturbed_logits).mean())
        stats.update(
            {f"perturbed_{k}": v for k, v in logit_statistics(perturbed_logits).items()}
        )
        stats["confidence_gap"] = stats["confidence_clean"] - stats["confidence_perturbed"]
    return stats
