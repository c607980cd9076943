"""The fused RErr evaluation seam: hoisted batching + delta weight patching.

``evaluate_robust_error`` averages test error over ~50 simulated chips per
(model, rate) cell, so sweep cost is dominated by its inner loop.  The seed
era paid, per draw, a full-model de-quantization and a full re-batching of
the test set — even though at the paper's rates a draw perturbs only
``~p * m * W`` weights and the batches never change.  This module provides
the two pieces that make per-draw cost scale with the *perturbation* instead
of the model:

``BatchPlan``
    Mini-batching hoisted once per evaluation context: the dataset is cut
    into contiguous slice views up front, so every draw iterates preallocated
    batch buffers instead of re-gathering (and copying) each batch per
    forward pass.  :func:`evaluate_on_plan` runs the exact accumulation of
    the reference loop over a plan, so results are bit-identical.

``DeltaWeightPatcher``
    Owns the clean de-quantized weights of one quantized model and, per
    draw, patches only the touched weights in place (saving the overwritten
    values), yields them for the forward passes, and restores the saved
    values afterwards — ``O(touched)`` per draw, no per-draw ``O(W)``
    decode or copy.  Decoding is elementwise, so a patched evaluation is
    bit-identical to one on a full de-quantization of the corrupted codes.

The seam is consumed by :func:`repro.eval.robust_error.evaluate_robust_error`
(fused per-draw loop), :func:`~repro.eval.robust_error.model_error_and_confidence`
(which accepts a :class:`BatchPlan` in place of a dataset) and the sweep
engine's :func:`repro.runtime.executors.execute_group`.  This module must not
import :mod:`repro.runtime` (the executors import it lazily).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.nn.losses import confidences
from repro.nn.module import Module
from repro.quant.fixed_point import QuantizedWeights, decode_array
from repro.quant.qat import swap_weights
from repro.utils.markers import hot_path, no_pickle

__all__ = ["BatchPlan", "evaluate_on_plan", "DeltaWeightPatcher"]


@no_pickle
class BatchPlan:
    """Mini-batching of one dataset, hoisted out of the per-draw loop.

    The dataset is cut into contiguous batches once; for array-backed
    datasets (:class:`repro.data.datasets.ArrayDataset`) the slices are
    zero-copy views, so repeated evaluations against the same plan touch no
    per-batch allocations at all.  Batch boundaries are identical to the
    reference loop (``range(0, len(dataset), batch_size)`` with a short
    final batch), so plan-driven evaluation is bit-identical to it.

    Parameters
    ----------
    dataset:
        Anything with ``__len__`` and slice-based ``__getitem__`` returning
        ``(inputs, labels)`` pairs.
    batch_size:
        Examples per batch; must be at least 1.
    """

    def __init__(self, dataset, batch_size: int):
        batch_size = int(batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        n = len(dataset)
        self.num_examples = int(n)
        self.batches: List[Tuple[np.ndarray, np.ndarray]] = [
            dataset[slice(start, min(start + batch_size, n))]
            for start in range(0, n, batch_size)
        ]

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        return iter(self.batches)


@hot_path
def evaluate_on_plan(
    model: Module, weights: Sequence[np.ndarray], plan: BatchPlan
) -> Tuple[float, float]:
    """Error rate and average confidence of ``model`` with ``weights``.

    The exact accumulation of the historical
    ``model_error_and_confidence`` loop (same batch boundaries, same
    summation order, reference-swapping :func:`swap_weights`), run over the
    hoisted batches of ``plan``.
    """
    errors = 0
    total = 0
    confidence_sum = 0.0
    was_training = model.training
    model.eval()
    try:
        with swap_weights(model, weights):
            for inputs, labels in plan:
                logits = model(inputs)
                predictions = logits.argmax(axis=1)
                errors += int((predictions != labels).sum())
                total += labels.shape[0]
                confidence_sum += float(confidences(logits).sum())
    finally:
        model.train(was_training)
    return errors / max(total, 1), confidence_sum / max(total, 1)


@no_pickle
class DeltaWeightPatcher:
    """Patch touched weights of a clean de-quantization in place, per draw.

    Construction takes the quantized model (for shapes, ranges and the
    scheme) and its clean de-quantized weights; the float tensors are then
    mutated *in place* per draw and restored exactly afterwards, so the
    owner must not read them concurrently with an open patch.  A patched
    evaluation is bit-identical to evaluating a full de-quantization of the
    corrupted codes: decoding is elementwise, untouched codes equal the
    clean ones, and re-decoding a touched-but-unchanged code is a no-op.
    """

    def __init__(
        self, quantized: QuantizedWeights, clean_weights: Sequence[np.ndarray]
    ):
        clean_weights = list(clean_weights)
        if len(clean_weights) != quantized.num_tensors:
            raise ValueError(
                f"expected {quantized.num_tensors} clean tensors, "
                f"got {len(clean_weights)}"
            )
        self.scheme = quantized.scheme
        self.ranges = list(quantized.ranges)
        self.num_weights = quantized.num_weights
        self.weights: List[np.ndarray] = []
        self._flat: List[np.ndarray] = []
        for clean, codes in zip(clean_weights, quantized.codes):
            clean = np.asarray(clean)
            if clean.shape != codes.shape:
                raise ValueError(
                    f"clean weight shape {clean.shape} does not match "
                    f"code shape {codes.shape}"
                )
            if clean.dtype != np.float64 or not clean.flags.c_contiguous:
                # A dtype conversion or a reshape of a non-contiguous array
                # would silently patch a copy, not the caller-visible tensor.
                raise ValueError(
                    "clean weights must be C-contiguous float64 arrays, got "
                    f"dtype {clean.dtype}"
                )
            self.weights.append(clean)
            self._flat.append(clean.reshape(-1))
        self._offsets = np.cumsum([0] + [c.size for c in quantized.codes])

    def _spans(self, touched: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        touched = np.asarray(touched, dtype=np.int64).reshape(-1)
        if touched.size:
            if np.any(touched[1:] <= touched[:-1]):
                raise ValueError("touched indices must be sorted and distinct")
            if touched[0] < 0 or touched[-1] >= self.num_weights:
                raise ValueError(
                    f"touched indices must lie in [0, {self.num_weights}), "
                    f"got range [{touched[0]}, {touched[-1]}]"
                )
        return touched, np.searchsorted(touched, self._offsets)

    @hot_path
    @contextmanager
    def _patched_spans(self, touched: np.ndarray, codes_for_span):
        """Shared patch/restore walk over the per-tensor spans of ``touched``.

        ``codes_for_span(index, span, selection)`` returns the corrupted
        codes for tensor ``index``'s slice of ``touched``; the overwritten
        floats are saved before decoding into them and restored exactly on
        exit (float copies are exact), even when the body raises.
        """
        touched, starts = self._spans(touched)
        saved: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        try:
            for index, flat in enumerate(self._flat):
                span = slice(starts[index], starts[index + 1])
                selection = touched[span] - self._offsets[index]
                if selection.size == 0:
                    continue
                lo, hi = self.ranges[index]
                saved.append((flat, selection, flat[selection].copy()))
                flat[selection] = decode_array(
                    codes_for_span(index, span, selection), lo, hi, self.scheme
                )
            yield self.weights
        finally:
            for flat, selection, original in saved:
                flat[selection] = original

    @hot_path
    def patched(self, touched: np.ndarray, code_values: np.ndarray):
        """Evaluate with ``code_values`` decoded at the ``touched`` indices.

        ``touched`` holds sorted distinct flat weight indices (in
        ``flat_codes`` order) and ``code_values`` the corrupted codes at
        exactly those indices — the pair produced by
        :meth:`repro.biterror.backends.InjectionBackend.delta_apply`.  Yields
        the patched weight tensors; on exit the overwritten values are
        restored exactly, even when the body raises.
        """
        code_values = np.asarray(code_values).reshape(-1)
        checked = np.asarray(touched).reshape(-1)
        if code_values.size != checked.size:
            raise ValueError(
                f"expected {checked.size} code values, got {code_values.size}"
            )
        return self._patched_spans(
            touched, lambda index, span, selection: code_values[span]
        )

    @hot_path
    def patched_quantized(self, corrupted: QuantizedWeights, touched: np.ndarray):
        """Like :meth:`patched`, gathering the delta codes from ``corrupted``.

        For callers that already hold the full corrupted
        :class:`QuantizedWeights`, such as the sweep engine's per-chip
        stream (:func:`repro.biterror.random_errors.iter_apply_fields_batch`);
        only the ``O(touched)`` gather and decode are paid here.
        """
        if corrupted.num_weights != self.num_weights:
            raise ValueError(
                f"expected {self.num_weights} corrupted codes, "
                f"got {corrupted.num_weights}"
            )
        return self._patched_spans(
            touched,
            lambda index, span, selection: corrupted.codes[index].reshape(-1)[
                selection
            ],
        )
