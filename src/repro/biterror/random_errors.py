"""Uniform random bit error injection (the paper's error model, Sec. 3).

For ``W`` weights stored as ``m``-bit codes, every one of the ``W * m`` bits
flips independently with probability ``p``.  Flips to 0 and to 1 are equally
likely because a flip simply inverts the stored bit.

The paper additionally assumes the *subset property*: for a fixed chip, the
bits that are erroneous at rate ``p' <= p`` (higher voltage) are a subset of
those erroneous at rate ``p`` (lower voltage).  :class:`BitErrorField`
implements this by conceptually drawing one uniform variable per bit once and
thresholding it at different rates — exactly the construction described in
App. F.  *How* the thresholds are stored is delegated to a pluggable
injection backend (:mod:`repro.biterror.backends`): the dense reference
backend materializes all ``W * m`` thresholds, while the sparse backend keeps
only the order statistics below a configurable ``max_rate`` for
``O(p * W * m)`` memory and injection time.  A zero rate is always an exact
no-op, regardless of backend.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.biterror.backends import (
    MAX_PRECISION,
    InjectionBackend,
    make_backend,
    sample_distinct_positions,
    xor_from_bit_positions,
)
from repro.quant.fixed_point import QuantizedWeights
from repro.utils.arrays import sorted_unique
from repro.utils.markers import hot_path
from repro.utils.rng import as_rng, spawn_rngs

__all__ = [
    "inject_random_bit_errors",
    "inject_into_quantized",
    "BitErrorField",
    "make_error_fields",
    "iter_apply_fields_batch",
    "expected_bit_errors",
    "flip_probability_from_counts",
    "DRAW_METHODS",
]

#: Per-step error draw constructions (see :func:`inject_random_bit_errors`).
DRAW_METHODS = ("dense", "sparse")


def expected_bit_errors(num_weights: int, precision: int, p: float) -> float:
    """Expected number of flipped bits, ``p * m * W`` (Table 6)."""
    if num_weights < 0:
        raise ValueError(f"num_weights must be non-negative, got {num_weights}")
    if precision <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bit error rate p must be in [0, 1], got {p}")
    return float(p) * precision * num_weights


def flip_probability_from_counts(num_flipped: int, num_bits: int) -> float:
    """Empirical bit error rate given flip counts (used by chip profiling)."""
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    if num_flipped < 0:
        raise ValueError(f"num_flipped must be non-negative, got {num_flipped}")
    if num_flipped > num_bits:
        raise ValueError(
            f"num_flipped ({num_flipped}) cannot exceed num_bits ({num_bits})"
        )
    return num_flipped / num_bits


def inject_random_bit_errors(
    codes: np.ndarray,
    p: float,
    precision: int,
    rng: Optional[np.random.Generator] = None,
    method: str = "dense",
    return_positions: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Flip every bit of ``codes`` independently with probability ``p``.

    Parameters
    ----------
    codes:
        Unsigned integer bit patterns occupying ``precision`` bits each.
    p:
        Bit error probability in ``[0, 1]`` (note: a *fraction*, not percent).
    precision:
        Number of bits per code; bits above ``precision`` are never touched.
    rng:
        Random generator; a fresh draw corresponds to a new chip / new error
        pattern.
    method:
        How the flip set is drawn.  ``"dense"`` (the reference construction)
        draws one uniform variable per stored bit and thresholds it at ``p``
        — ``O(W * m)`` per call.  ``"sparse"`` draws the flip *count* from
        ``Binomial(W * m, p)`` and then a uniform random subset of distinct
        bit positions — ``O(p * W * m)`` per call.  Both produce the same
        distribution over flip sets, but they consume the RNG stream
        differently, so seeded trajectories are only reproducible within one
        method.
    return_positions:
        Also return the flat bit positions (indices into the ``W * m`` bit
        field, bit ``j`` of weight ``i`` at ``i * m + j``) that were flipped.
        The dense draw computes them anyway; downstream delta dequantization
        (:meth:`repro.quant.fixed_point.FixedPointQuantizer.dequantize_delta`)
        is built on them.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bit error rate p must be in [0, 1], got {p}")
    if not 0 < precision <= MAX_PRECISION:
        # The scatter-based XOR accumulation is only exact up to this width.
        raise ValueError(
            f"precision must be in [1, {MAX_PRECISION}], got {precision}"
        )
    if method not in DRAW_METHODS:
        raise ValueError(
            f"unknown draw method {method!r}; choose from {DRAW_METHODS}"
        )
    codes = np.asarray(codes)
    if p == 0.0:
        positions = np.empty(0, dtype=np.int64)
        return (codes.copy(), positions) if return_positions else codes.copy()
    rng = as_rng(rng)
    if method == "dense":
        mask = rng.random(codes.shape + (precision,)) < p
        positions = np.flatnonzero(mask.reshape(-1))
        xor_values = xor_from_bit_positions(
            positions, codes.size, precision, codes.dtype
        )
        result = codes ^ xor_values.reshape(codes.shape)
    else:
        total_bits = codes.size * precision
        count = int(rng.binomial(total_bits, p))
        positions = sample_distinct_positions(rng, total_bits, count)
        flat = codes.reshape(-1).copy()
        if positions.size:
            weight_idx = positions // precision
            bit_idx = positions % precision
            np.bitwise_xor.at(flat, weight_idx, (1 << bit_idx).astype(flat.dtype))
        result = flat.reshape(codes.shape)
    return (result, positions) if return_positions else result


@hot_path
def inject_into_quantized(
    quantized: QuantizedWeights,
    p: float,
    rng: Optional[np.random.Generator] = None,
    method: str = "dense",
    return_positions: bool = False,
) -> Union[QuantizedWeights, Tuple[QuantizedWeights, np.ndarray]]:
    """Return a copy of ``quantized`` with random bit errors at rate ``p``.

    ``method`` selects the dense or sparse draw construction (see
    :func:`inject_random_bit_errors`; the default ``"dense"`` preserves the
    historical RNG stream exactly).  With ``return_positions=True`` the
    sorted distinct flat *weight* indices whose codes had at least one bit
    flipped are returned alongside — the input of
    :meth:`~repro.quant.fixed_point.FixedPointQuantizer.dequantize_delta`.
    """
    flat = quantized.flat_codes(copy=False)
    perturbed, positions = inject_random_bit_errors(
        flat, p, quantized.scheme.precision, rng,
        method=method, return_positions=True,
    )
    result = quantized.with_flat_codes(perturbed, copy=False)
    if return_positions:
        return result, sorted_unique(positions // quantized.scheme.precision)
    return result


class BitErrorField:
    """A fixed random field of per-bit thresholds implementing the subset property.

    Conceptually one uniform sample ``u`` is drawn per bit and bit ``j`` of
    weight ``i`` is erroneous at rate ``p > 0`` iff ``u[i, j] <= p``;
    therefore the error set at a lower rate is always a subset of the error
    set at a higher rate, matching the persistence of low-voltage bit errors
    across supply voltages (Fig. 3).  A rate of exactly ``0.0`` is an exact
    no-op (an all-``False`` mask) even when a threshold landed on ``0.0``.

    The thresholds live in a pluggable :class:`InjectionBackend` — ``"dense"``
    (reference, ``O(W * m)``) or ``"sparse"`` (order statistics up to
    ``max_rate``, ``O(max_rate * W * m)``); see
    :mod:`repro.biterror.backends` for the trade-offs.

    One :class:`BitErrorField` corresponds to one simulated chip; drawing many
    fields with :func:`make_error_fields` reproduces the paper's evaluation
    over 50 pre-determined chips.
    """

    def __init__(
        self,
        num_weights: int,
        precision: int,
        rng: Optional[np.random.Generator] = None,
        backend: Union[str, InjectionBackend] = "dense",
        max_rate: Optional[float] = None,
    ):
        # Geometry validation (including matching a pre-built backend
        # instance) happens inside make_backend.
        self.num_weights = num_weights
        self.precision = precision
        self.backend = make_backend(backend, num_weights, precision, rng, max_rate)

    @property
    def _thresholds(self) -> np.ndarray:
        """Dense threshold array (only available on the dense backend)."""
        try:
            return self.backend._thresholds
        except AttributeError:
            raise AttributeError(
                "_thresholds is a dense-backend accessor; "
                f"{type(self.backend).__name__} does not materialize a "
                "threshold array"
            ) from None

    def error_mask(self, p: float) -> np.ndarray:
        """Boolean mask of shape ``(num_weights, precision)`` of erroneous bits."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bit error rate p must be in [0, 1], got {p}")
        return self.backend.error_mask(p)

    def error_positions(self, p: float) -> np.ndarray:
        """Flat indices (into the ``W * m`` bit field) of erroneous bits."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bit error rate p must be in [0, 1], got {p}")
        return self.backend.error_positions(p)

    def num_errors(self, p: float) -> int:
        """Number of erroneous bits at rate ``p``."""
        return self.backend.num_errors(p)

    def apply(self, flat_codes: np.ndarray, p: float) -> np.ndarray:
        """Flip the erroneous bits of a flat code vector at rate ``p``."""
        return self.backend.apply(flat_codes, p)

    @hot_path
    def delta_apply(
        self, flat_codes: np.ndarray, p: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(touched weights, corrupted codes at them)`` in ``O(errors)``.

        The evaluation-side analogue of the sparse training draw: nothing
        code-shaped is materialized, so per-draw cost scales with the
        perturbation (see :meth:`InjectionBackend.delta_apply`).
        """
        return self.backend.delta_apply(flat_codes, p)

    def _check_quantized(self, quantized: QuantizedWeights) -> None:
        if quantized.scheme.precision != self.precision:
            raise ValueError(
                f"field precision ({self.precision}) does not match "
                f"quantization precision ({quantized.scheme.precision})"
            )
        if quantized.num_weights != self.num_weights:
            raise ValueError(
                f"expected {self.num_weights} codes, got {quantized.num_weights}"
            )

    def apply_to_quantized(
        self,
        quantized: QuantizedWeights,
        p: float,
        return_positions: bool = False,
    ) -> Union[QuantizedWeights, Tuple[QuantizedWeights, np.ndarray]]:
        """Apply this field to a :class:`QuantizedWeights` instance.

        With ``return_positions=True`` the sorted distinct flat *weight*
        indices whose codes had at least one bit flipped are returned
        alongside — the input of delta patching
        (:meth:`repro.eval.fast_eval.DeltaWeightPatcher.patched_quantized`).
        That path is also cheaper, not just more informative: the corrupted
        vector is built as one memcpy plus an ``O(touched)`` scatter of the
        delta codes instead of a code-shaped XOR mask.
        """
        self._check_quantized(quantized)
        flat = quantized.flat_codes(copy=False)
        if not return_positions:
            perturbed = self.apply(flat, p)
            return quantized.with_flat_codes(perturbed, copy=False)
        touched, values = self.delta_apply(flat, p)
        perturbed = flat.copy()
        perturbed[touched] = values
        return quantized.with_flat_codes(perturbed, copy=False), touched


@hot_path
def iter_apply_fields_batch(
    fields: Sequence[BitErrorField],
    quantized: QuantizedWeights,
    p: float,
) -> Iterator[Tuple[QuantizedWeights, np.ndarray]]:
    """Stream a chip set's corrupted :class:`QuantizedWeights`, chip by chip.

    Yields one ``(corrupted, touched)`` pair per field, in order:
    ``field.apply_to_quantized(quantized, p, return_positions=True)``, so
    ``corrupted`` is bit-identical to ``field.apply_to_quantized(quantized,
    p)`` and ``touched`` holds the sorted distinct flat weight indices the
    chip perturbs — what the sweep engine's delta patching decodes.  One
    chip's codes are alive at a time, so a chip set of ``n`` fields
    corrupts in ``O(W)`` peak memory instead of ``O(n * W)``.  Validation
    (the rate, and each field's precision and size) is eager; corruption
    is lazy.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bit error rate p must be in [0, 1], got {p}")
    fields = list(fields)
    for field in fields:
        field._check_quantized(quantized)
    return (
        field.apply_to_quantized(quantized, p, return_positions=True) for field in fields
    )


def make_error_fields(
    num_weights: int,
    precision: int,
    num_fields: int,
    seed: Optional[int] = 0,
    backend: str = "dense",
    max_rate: Optional[float] = None,
) -> List[BitErrorField]:
    """Pre-determine ``num_fields`` independent bit error fields ("chips").

    The fields are a function of the seed only (for the sparse backend, of
    the seed *and* ``max_rate`` — widening ``max_rate`` re-draws the
    patterns), so every model evaluated against them sees exactly the same
    error patterns — the paper's protocol for making RErr comparable across
    models and bit error rates (App. F).

    ``backend`` selects the injection backend per field (``"dense"`` or
    ``"sparse"``); ``max_rate`` bounds the rates a sparse field can represent
    (see :mod:`repro.biterror.backends`).  Only backend *names* are accepted:
    a pre-built :class:`InjectionBackend` instance would be shared by every
    field, silently collapsing the independent chips into one — construct
    :class:`BitErrorField` directly for that use case.
    """
    if not isinstance(backend, str):
        raise ValueError(
            "make_error_fields requires a backend name ('dense'/'sparse'); "
            "a backend instance would be shared by all fields, making the "
            "chips identical instead of independent"
        )
    rngs = spawn_rngs(seed, num_fields)
    return [
        BitErrorField(num_weights, precision, rng, backend=backend, max_rate=max_rate)
        for rng in rngs
    ]
