"""Pluggable bit-error injection backends.

A backend owns the random per-bit thresholds of one simulated chip and turns
a bit error rate ``p`` into the set of erroneous ``(weight, bit)`` positions.
Two implementations with identical *statistical* semantics but different
complexity trade-offs are provided:

``DenseFieldBackend``
    The reference implementation: one uniform threshold per stored bit,
    materialized as a ``(num_weights, precision)`` float64 array.  Memory and
    per-injection time are ``O(W * m)`` regardless of the rate.  This is the
    ground truth every other backend is validated against.

``SparseFieldBackend``
    Stores only the *order statistics* of the smallest thresholds, i.e. the
    thresholds that fall below a configurable ``max_rate``: the number of such
    bits is drawn from ``Binomial(W * m, max_rate)``, their positions are a
    uniform random subset of the ``W * m`` bit slots, and their values are the
    sorted order statistics of uniforms on ``[0, max_rate]``.  This is exactly
    the conditional distribution of the dense field restricted to thresholds
    ``<= max_rate``, so flip counts, spatial uniformity and — crucially — the
    subset property across rates (App. F protocol: the error set at
    ``p' <= p`` is a subset of the set at ``p``) are preserved *exactly*.
    Memory and per-injection time are ``O(max_rate * W * m)``; at the paper's
    rates (``p <= 0.05``, typically ``p <= 0.01``) this is orders of magnitude
    cheaper than the dense field.

Both backends build XOR masks by direct integer scatter into a code-shaped
array (:func:`xor_from_bit_positions`, via ``np.bincount``) instead of the
dense ``(W, m)`` bool -> int64 multiply-reduce, so injection cost scales with
the number of *erroneous* bits, not the number of stored bits.

Anything implementing the :class:`InjectionBackend` interface can be handed
to :class:`~repro.biterror.random_errors.BitErrorField` and flows unchanged
through ``evaluate_robust_error`` / ``rerr_sweep``, which corrupt one chip
at a time.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.utils.arrays import sorted_unique
from repro.utils.markers import hot_path
from repro.utils.rng import as_rng

__all__ = [
    "InjectionBackend",
    "DenseFieldBackend",
    "SparseFieldBackend",
    "make_backend",
    "xor_from_bit_positions",
    "sample_distinct_positions",
    "BACKENDS",
]


def xor_from_bit_positions(
    bit_positions: np.ndarray,
    num_weights: int,
    precision: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Scatter flat bit positions into a code-shaped XOR array.

    ``bit_positions`` holds flat indices into the ``W * m`` bit field, where
    bit ``j`` of weight ``i`` lives at ``i * m + j``.  Each position appears
    at most once, so summing the per-bit powers of two with ``np.bincount``
    is equivalent to OR-ing them — one vectorized scatter instead of a dense
    ``(W, m)`` boolean multiply-reduce.
    """
    if bit_positions.size == 0:
        return np.zeros(num_weights, dtype=dtype)
    weight_idx = bit_positions // precision
    bit_idx = bit_positions % precision
    # Powers of two fit comfortably in float64 (precision <= 16) and every
    # (weight, bit) pair is distinct, so the float accumulation is exact.
    xor = np.bincount(
        weight_idx,
        weights=(1 << bit_idx).astype(np.float64),
        minlength=num_weights,
    )
    return xor.astype(np.int64).astype(dtype)


def _validate_rate(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bit error rate p must be in [0, 1], got {p}")
    return float(p)


#: Largest supported code width; matches the quantizer's cap and keeps the
#: float64 bincount accumulation in :func:`xor_from_bit_positions` exact.
MAX_PRECISION = 16


def _validate_geometry(num_weights: int, precision: int) -> None:
    if num_weights <= 0:
        raise ValueError("num_weights must be positive")
    if not 0 < precision <= MAX_PRECISION:
        raise ValueError(
            f"precision must be in [1, {MAX_PRECISION}], got {precision}"
        )


class InjectionBackend:
    """Interface of a per-chip injection backend.

    A backend is fully determined at construction time (it *is* the chip);
    every query is a pure function of the stored thresholds, so the subset
    property across rates holds by construction.
    """

    num_weights: int
    precision: int

    @property
    def num_bits(self) -> int:
        """Total number of stored bits, ``W * m``."""
        return self.num_weights * self.precision

    def error_positions(self, p: float) -> np.ndarray:
        """Flat indices (into the ``W * m`` bit field) of erroneous bits."""
        raise NotImplementedError

    def num_errors(self, p: float) -> int:
        """Number of erroneous bits at rate ``p``."""
        return int(self.error_positions(p).size)

    def error_mask(self, p: float) -> np.ndarray:
        """Dense boolean mask of shape ``(num_weights, precision)``.

        Materializes ``O(W * m)`` memory; intended for tests and small
        fields — hot paths should use :meth:`xor_values` instead.
        """
        mask = np.zeros(self.num_bits, dtype=bool)
        mask[self.error_positions(p)] = True
        return mask.reshape(self.num_weights, self.precision)

    def xor_values(self, p: float, dtype: np.dtype) -> np.ndarray:
        """Code-shaped integer XOR array flipping exactly the erroneous bits."""
        return xor_from_bit_positions(
            self.error_positions(p), self.num_weights, self.precision, dtype
        )

    def _checked_flat(self, flat_codes: np.ndarray) -> np.ndarray:
        flat_codes = np.asarray(flat_codes)
        if flat_codes.size != self.num_weights:
            raise ValueError(
                f"expected {self.num_weights} codes, got {flat_codes.size}"
            )
        return flat_codes.reshape(-1)

    def apply(self, flat_codes: np.ndarray, p: float) -> np.ndarray:
        """Flip the erroneous bits of a flat code vector at rate ``p``."""
        flat_codes = self._checked_flat(flat_codes)
        return flat_codes ^ self.xor_values(p, flat_codes.dtype)

    @hot_path
    def delta_apply(
        self, flat_codes: np.ndarray, p: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Corrupted codes restricted to the touched weights.

        Returns ``(touched, values)`` where ``touched`` holds the sorted
        distinct flat weight indices with at least one erroneous bit at rate
        ``p`` and ``values[i] == self.apply(flat_codes, p)[touched[i]]``
        exactly.  Nothing code-shaped is materialized: past
        :meth:`error_positions`, cost and memory are ``O(errors)``, not
        ``O(W)`` — the primitive behind delta de-quantization on the RErr
        evaluation hot path, where at the paper's rates only ``~p * m * W``
        weights change per simulated chip.
        """
        flat_codes = self._checked_flat(flat_codes)
        positions = np.sort(self.error_positions(p))
        weight_idx = positions // self.precision
        if weight_idx.size == 0:
            touched = np.empty(0, dtype=np.int64)
            return touched, flat_codes[touched]
        # positions are sorted and distinct, so weight_idx is sorted with
        # runs of duplicates; an adjacent-difference mask dedups it and its
        # cumsum maps every erroneous bit onto its run ("compressed" weight
        # slot) without any searchsorted over the needles.
        keep = np.empty(weight_idx.size, dtype=bool)
        keep[0] = True
        np.not_equal(weight_idx[1:], weight_idx[:-1], out=keep[1:])
        touched = weight_idx[keep]
        compressed = np.cumsum(keep) - 1
        # Distinct (weight, bit) pairs sum distinct powers of two, so the
        # float64 bincount accumulation equals the XOR mask exactly
        # (precision <= MAX_PRECISION keeps every sum below 2**17).
        xor = np.bincount(
            compressed,
            weights=(1 << (positions % self.precision)).astype(np.float64),
            minlength=touched.size,
        )
        values = flat_codes[touched] ^ xor.astype(np.int64).astype(flat_codes.dtype)
        return touched, values


class DenseFieldBackend(InjectionBackend):
    """Reference backend: one materialized uniform threshold per bit.

    ``O(W * m)`` memory and per-injection time.  Bit ``j`` of weight ``i`` is
    erroneous at rate ``p`` iff ``u[i, j] <= p`` — except at ``p == 0``, which
    is always an exact no-op (``rng.random()`` can return exactly ``0.0``, and
    a zero-rate injection must never flip a bit).
    """

    def __init__(
        self,
        num_weights: int,
        precision: int,
        rng: Optional[np.random.Generator] = None,
    ):
        _validate_geometry(num_weights, precision)
        self.num_weights = num_weights
        self.precision = precision
        self._thresholds = as_rng(rng).random((num_weights, precision))

    def error_mask(self, p: float) -> np.ndarray:
        p = _validate_rate(p)
        if p == 0.0:
            # u <= 0 would flip bits whose uniform landed on exactly 0.0.
            return np.zeros((self.num_weights, self.precision), dtype=bool)
        return self._thresholds <= p

    def error_positions(self, p: float) -> np.ndarray:
        return np.flatnonzero(self.error_mask(p).reshape(-1))

    def num_errors(self, p: float) -> int:
        return int(self.error_mask(p).sum())


class SparseFieldBackend(InjectionBackend):
    """Order-statistics backend: stores only thresholds ``<= max_rate``.

    ``O(max_rate * W * m)`` memory and per-injection time.  Construction
    samples the dense field's restriction to ``[0, max_rate]`` exactly:

    * ``K ~ Binomial(W * m, max_rate)`` bits fall below ``max_rate``,
    * their positions are a uniform random ``K``-subset of the bit slots
      (stored in the random order matching ascending thresholds),
    * their thresholds are sorted uniforms on ``[0, max_rate]``.

    The error set at ``p <= max_rate`` is the prefix of positions whose
    threshold is ``<= p`` (one ``searchsorted``), so nested rates yield
    exactly nested error sets.  Rates above ``max_rate`` are not
    representable and raise ``ValueError``.
    """

    def __init__(
        self,
        num_weights: int,
        precision: int,
        rng: Optional[np.random.Generator] = None,
        max_rate: float = 0.05,
    ):
        _validate_geometry(num_weights, precision)
        if not 0.0 < max_rate <= 1.0:
            raise ValueError(f"max_rate must be in (0, 1], got {max_rate}")
        self.num_weights = num_weights
        self.precision = precision
        self.max_rate = float(max_rate)
        rng = as_rng(rng)
        total_bits = num_weights * precision
        count = int(rng.binomial(total_bits, self.max_rate))
        self._positions = sample_distinct_positions(rng, total_bits, count)
        self._sorted_thresholds = np.sort(rng.random(count)) * self.max_rate

    def _prefix_length(self, p: float) -> int:
        p = _validate_rate(p)
        if p == 0.0:
            # Exact no-op even if an order statistic landed on exactly 0.0.
            return 0
        if p > self.max_rate:
            raise ValueError(
                f"rate {p} exceeds this sparse field's max_rate "
                f"({self.max_rate}); rebuild the field with a larger max_rate "
                f"or use the dense backend"
            )
        return int(np.searchsorted(self._sorted_thresholds, p, side="right"))

    def error_positions(self, p: float) -> np.ndarray:
        return self._positions[: self._prefix_length(p)]

    def num_errors(self, p: float) -> int:
        return self._prefix_length(p)

    def apply(self, flat_codes: np.ndarray, p: float) -> np.ndarray:
        """Flip the erroneous bits at rate ``p`` in ``O(p * W * m)``.

        Unlike the base implementation this never materializes a code-shaped
        XOR array: the input is copied (a plain memcpy) and only the affected
        weights are XOR-scattered, so per-injection cost scales with the
        number of erroneous bits.
        """
        out = self._checked_flat(flat_codes).copy()
        positions = self.error_positions(p)
        if positions.size:
            weight_idx = positions // self.precision
            bit_idx = positions % self.precision
            np.bitwise_xor.at(out, weight_idx, (1 << bit_idx).astype(out.dtype))
        return out


def sample_distinct_positions(
    rng: np.random.Generator, total: int, count: int
) -> np.ndarray:
    """A uniform random ``count``-subset of ``range(total)`` in random order.

    For the small fractions the sparse backends (and the sparse training
    draw in :mod:`repro.biterror.random_errors`) target, rejection sampling
    touches ``O(count)`` memory; dense fractions fall back to a full
    permutation.
    """
    if count >= total:
        return rng.permutation(total).astype(np.int64)
    if count > total // 4:
        return rng.permutation(total)[:count].astype(np.int64)
    collected = np.empty(0, dtype=np.int64)
    while collected.size < count:
        # Oversample past the expected duplicate fraction (< ~12% at the
        # <= 1/4 density handled here) so one draw almost always suffices
        # and the per-iteration dedup sort is paid once.
        need = count - collected.size
        draw = rng.integers(0, total, size=need + need // 4 + 16, dtype=np.int64)
        collected = sorted_unique(np.concatenate([collected, draw]))
    # The dedup sorts; re-randomize the order (and trim any overshoot) so the
    # pairing with the sorted threshold order statistics is uniform.
    return rng.permutation(collected)[:count]


BACKENDS = ("dense", "sparse")


def make_backend(
    backend: Union[str, InjectionBackend],
    num_weights: int,
    precision: int,
    rng: Optional[np.random.Generator] = None,
    max_rate: Optional[float] = None,
) -> InjectionBackend:
    """Instantiate an injection backend by name (or pass one through).

    ``max_rate`` only applies to the sparse backend (default 0.05, the
    largest rate evaluated in the paper).
    """
    if isinstance(backend, InjectionBackend):
        if rng is not None or max_rate is not None:
            raise ValueError(
                "rng/max_rate cannot be combined with a pre-built backend "
                "instance — the instance already owns its thresholds"
            )
        if (backend.num_weights, backend.precision) != (num_weights, precision):
            raise ValueError(
                f"backend geometry ({backend.num_weights}, "
                f"{backend.precision}) does not match the requested geometry "
                f"({num_weights}, {precision})"
            )
        return backend
    if backend == "dense":
        if max_rate is not None:
            raise ValueError(
                "max_rate only applies to the sparse backend; the dense "
                "backend represents every rate in [0, 1]"
            )
        return DenseFieldBackend(num_weights, precision, rng)
    if backend == "sparse":
        return SparseFieldBackend(
            num_weights, precision, rng, max_rate=0.05 if max_rate is None else max_rate
        )
    raise ValueError(f"unknown injection backend {backend!r}; choose from {BACKENDS}")
