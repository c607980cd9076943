"""Reference implementations that more than one test file checks the library against.

Each oracle spells out the plain formulation a fast library path replaced,
so a parity test compares the library with code that production cannot
select:

* :func:`oracle_im2col` builds conv columns with one slice copy per kernel
  offset; :func:`oracle_batch_columns` gives them :func:`repro.nn.conv.im2col`'s
  ``(C * k * k, N * OH * OW)`` layout.  Both are copies of input values, so
  the library must match them bit for bit.
* :func:`unfused_robust_error` evaluates every draw by de-quantizing the
  whole corrupted model and batching the dataset afresh, the data flow that
  the fused RErr loop and the sweep engine must reproduce exactly.
* :func:`oracle_chip_touched` reads the weights a profiled chip can perturb
  off its dense fault map, the set
  :meth:`repro.biterror.patterns.ChipProfile.delta_apply` must report.
* :func:`oracle_group_norm`, :func:`oracle_relu` and :func:`oracle_max_pool`
  run one sample (and one group or window) at a time with the textbook
  formulas, forward and backward, for the tiled layers of
  :mod:`repro.nn` to match whatever their tiles and thread budget.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.eval.robust_error import RobustErrorResult, model_error_and_confidence
from repro.nn.conv import conv_output_size
from repro.quant.qat import quantize_model


def oracle_im2col(x, k, stride, padding):
    """Per-sample columns ``(N, C * k * k, OH * OW)`` of a square ``k`` kernel."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, k, k, out_h, out_w))
    for i in range(k):
        for j in range(k):
            rows = slice(i, i + stride * out_h, stride)
            columns = slice(j, j + stride * out_w, stride)
            cols[:, :, i, j] = padded[:, :, rows, columns]
    return cols.reshape(n, c * k * k, out_h * out_w), out_h, out_w


def oracle_batch_columns(x, k, stride, padding):
    """:func:`oracle_im2col` laid out as one ``(C * k * k, N * OH * OW)`` matrix."""
    cols, out_h, out_w = oracle_im2col(x, k, stride, padding)
    return cols.transpose(1, 0, 2).reshape(cols.shape[1], -1), out_h, out_w


def unfused_robust_error(
    model,
    quantizer,
    dataset,
    rate: float,
    fields: Optional[Sequence] = None,
    chip=None,
    offsets: Sequence[int] = (0,),
    batch_size: int = 64,
) -> RobustErrorResult:
    """RErr over ``fields``, or over ``chip`` at each of ``offsets``, draw by draw.

    Every draw corrupts the quantized codes, de-quantizes all of them and
    evaluates the dataset batched afresh; the clean stats are computed the
    same way.  A rate of zero is evaluated per draw too (the library's
    ``evaluate_robust_error`` reports the clean error for each draw without
    evaluating it).
    """
    quantized = quantize_model(model, quantizer)
    clean_weights = quantizer.dequantize(quantized)
    clean_error, clean_confidence = model_error_and_confidence(
        model, clean_weights, dataset, batch_size
    )
    result = RobustErrorResult(
        bit_error_rate=rate, clean_error=clean_error, confidence_clean=clean_confidence
    )
    if chip is not None:
        draws = (chip.apply_to_quantized(quantized, rate, offset=offset) for offset in offsets)
    else:
        draws = (field.apply_to_quantized(quantized, rate) for field in fields)
    perturbed_confidences = []
    for corrupted in draws:
        weights = quantizer.dequantize(corrupted)
        error, confidence = model_error_and_confidence(model, weights, dataset, batch_size)
        result.errors.append(error)
        perturbed_confidences.append(confidence)
    result.confidence_perturbed = float(np.mean(perturbed_confidences))
    return result


def oracle_chip_touched(chip, num_weights: int, precision: int, rate: float, offset: int = 0):
    """Sorted weights with a payload bit on a cell faulty at ``rate``.

    The ``num_weights * precision`` payload bits sit on cells ``(offset + i)
    % capacity``, as :meth:`~repro.biterror.patterns.ChipProfile.apply_to_bits`
    lays them out.  A superset of the weights whose codes change: a stuck-at
    fault only shows where the stored bit disagrees with it.
    """
    faulty = chip.fault_map(rate).faulty
    cells = (offset + np.arange(num_weights * precision)) % chip.capacity
    return np.unique(np.flatnonzero(faulty[cells]) // precision)


def oracle_group_norm(x, num_groups, gamma, beta, eps, grad_out):
    """GroupNorm's output and its input, ``gamma`` and ``beta`` gradients.

    ``gamma`` is the scale the layer applies (its effective scale), so its
    gradient is also the stored scale's under either parameterization.
    """
    n, c = x.shape[:2]
    out = np.empty_like(x)
    grad_x = np.empty_like(x)
    grad_gamma = np.zeros(c)
    grad_beta = np.zeros(c)
    per_group = c // num_groups
    for b in range(n):
        for g in range(num_groups):
            channels = slice(g * per_group, (g + 1) * per_group)
            values = x[b, channels]
            inv_std = 1.0 / np.sqrt(np.var(values) + eps)
            x_hat = (values - np.mean(values)) * inv_std
            scale = gamma[channels, None, None]
            out[b, channels] = x_hat * scale + beta[channels, None, None]
            grad = grad_out[b, channels]
            grad_gamma[channels] += (grad * x_hat).sum(axis=(1, 2))
            grad_beta[channels] += grad.sum(axis=(1, 2))
            grad_x_hat = grad * scale
            grad_x[b, channels] = inv_std * (
                grad_x_hat - np.mean(grad_x_hat) - x_hat * np.mean(grad_x_hat * x_hat)
            )
    return out, grad_x, grad_gamma, grad_beta


def oracle_relu(x, grad_out):
    """ReLU's output and input gradient (zero where ``x <= 0``)."""
    out = np.empty_like(x)
    grad_x = np.empty_like(x)
    for b in range(len(x)):
        positive = x[b] > 0
        out[b] = np.where(positive, x[b], 0.0)
        grad_x[b] = np.where(positive, grad_out[b], 0.0)
    return out, grad_x


def oracle_max_pool(x, k, grad_out):
    """Non-overlapping ``k`` max pooling and its input gradient.

    Each window's gradient goes to its first maximum in row-major order,
    where ``np.argmax`` finds it.
    """
    n, c, h, w = x.shape
    out = np.empty((n, c, h // k, w // k))
    grad_x = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(h // k):
                for j in range(w // k):
                    window = x[b, ch, i * k:(i + 1) * k, j * k:(j + 1) * k]
                    first = np.argmax(window)
                    out[b, ch, i, j] = window.flat[first]
                    row, col = divmod(first, k)
                    grad_x[b, ch, i * k + row, j * k + col] = grad_out[b, ch, i, j]
    return out, grad_x
