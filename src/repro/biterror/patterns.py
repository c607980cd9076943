"""Simulated profiled memory chips (Fig. 3 / Fig. 8 / App. C.1).

A real accelerator chip has a *fixed* spatial distribution of vulnerable bit
cells determined by process variation.  The paper profiles such chips and
shows that (a) the error pattern is fixed per chip and voltage, (b) errors at
a higher voltage are a subset of those at a lower voltage, (c) some chips
(chip 2) exhibit strongly column-aligned errors biased towards 0-to-1 flips.

This module simulates chips with exactly these properties so the paper's
generalization experiments (Table 5 / Table 15 / Table 16) can be run without
access to the proprietary measurement data:

* every bit cell gets a persistent vulnerability score; thresholding the
  score at different rates yields nested fault sets (subset property),
* an optional per-column vulnerability factor aligns faults along columns,
* each faulty cell has a fixed stuck-at direction, so the 1-to-0 / 0-to-1
  split of Fig. 8 is reproduced and errors only manifest when the stored bit
  disagrees with the stuck-at value.

Like :class:`~repro.biterror.random_errors.BitErrorField`, a chip can store
its vulnerability ranks densely (the ``O(capacity)`` reference) or as the
order-statistics prefix of cells with rank ``<= max_rate``
(``backend="sparse"``).  The sparse chip is the *same* chip — it is built
from the identical RNG stream and keeps exactly the cells the dense ranks
would mark faulty — so fault sets and corrupted payloads match the dense
backend bit for bit at every representable rate, while ``apply_to_codes``
costs ``O(p * W * m)`` instead of unpacking all ``W * m`` payload bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.quant.fixed_point import QuantizedWeights
from repro.utils.arrays import sorted_unique
from repro.utils.markers import hot_path
from repro.utils.rng import as_rng

__all__ = ["FaultMap", "ChipProfile", "make_profiled_chips"]


@dataclass
class FaultMap:
    """The fault set of a chip at one operating voltage.

    Attributes
    ----------
    faulty:
        Boolean array over bit cells (``rows * columns`` flattened); ``True``
        marks a vulnerable cell at this voltage.
    stuck_at_one:
        For faulty cells, the value the cell reads regardless of what was
        written (``True`` = stuck at 1, i.e. a potential 0-to-1 flip).
    rate:
        The nominal cell fault rate the map was generated for.
    """

    faulty: np.ndarray
    stuck_at_one: np.ndarray
    rate: float

    @property
    def num_cells(self) -> int:
        return int(self.faulty.size)

    @property
    def num_faulty(self) -> int:
        return int(self.faulty.sum())

    def empirical_rate(self) -> float:
        """Fraction of faulty cells (matches ``rate`` in expectation)."""
        return self.num_faulty / max(self.num_cells, 1)

    def flip_direction_rates(self) -> Tuple[float, float]:
        """Return ``(p_0to1, p_1to0)`` — the split reported in App. C.1."""
        if self.num_cells == 0:
            return 0.0, 0.0
        p_0to1 = float((self.faulty & self.stuck_at_one).sum()) / self.num_cells
        p_1to0 = float((self.faulty & ~self.stuck_at_one).sum()) / self.num_cells
        return p_0to1, p_1to0


class ChipProfile:
    """A simulated chip with a fixed spatial distribution of vulnerable cells.

    Parameters
    ----------
    rows, columns:
        Memory array geometry; total capacity is ``rows * columns`` bit cells.
    column_alignment:
        Strength in ``[0, 1)`` of the column-aligned vulnerability structure
        (0 reproduces the uniform chip 1, larger values the chip-2 pattern).
    stuck_at_one_fraction:
        Fraction of faulty cells stuck at 1 (chip 2 is biased towards 0-to-1
        flips, i.e. a fraction well above 0.5).
    seed:
        Seed of the chip's process variation; the chip is fully determined by
        its constructor arguments.
    name:
        Label used in benchmark tables.
    backend:
        ``"dense"`` stores one rank per cell (``O(capacity)`` memory, every
        rate in [0, 1] representable).  ``"sparse"`` keeps only the
        order-statistics prefix of cells with rank ``<= max_rate`` — the same
        trick as :class:`~repro.biterror.backends.SparseFieldBackend` — so
        fault lookup and payload corruption cost ``O(rate * capacity)``.
        Both backends consume the identical RNG stream, so a sparse chip's
        fault sets and corrupted payloads are bit-identical to its dense
        twin's at every rate ``<= max_rate``.  The one sparse-invisible
        datum is the stuck-at direction of *non-faulty* cells (it never
        affects corruption): :meth:`fault_map` reads it as ``False`` on the
        sparse backend, while the dense backend reports it for every cell.
    max_rate:
        Largest cell fault rate a sparse chip can represent (default 0.05,
        the paper's largest profiled rate); higher rates raise ``ValueError``.
        Only valid with ``backend="sparse"``.
    """

    def __init__(
        self,
        rows: int = 256,
        columns: int = 128,
        column_alignment: float = 0.0,
        stuck_at_one_fraction: float = 0.5,
        seed: Optional[int] = 0,
        name: str = "chip",
        backend: str = "dense",
        max_rate: Optional[float] = None,
    ):
        if rows <= 0 or columns <= 0:
            raise ValueError("rows and columns must be positive")
        if not 0.0 <= column_alignment < 1.0:
            raise ValueError("column_alignment must be in [0, 1)")
        if not 0.0 <= stuck_at_one_fraction <= 1.0:
            raise ValueError("stuck_at_one_fraction must be in [0, 1]")
        if backend not in ("dense", "sparse"):
            raise ValueError(
                f"unknown chip backend {backend!r}; choose from ('dense', 'sparse')"
            )
        if max_rate is not None and backend != "sparse":
            raise ValueError(
                "max_rate only applies to the sparse chip backend; the dense "
                "backend represents every rate in [0, 1]"
            )
        if backend == "sparse":
            max_rate = 0.05 if max_rate is None else float(max_rate)
            if not 0.0 < max_rate <= 1.0:
                raise ValueError(f"max_rate must be in (0, 1], got {max_rate}")
        self.rows = rows
        self.columns = columns
        self.column_alignment = column_alignment
        self.stuck_at_one_fraction = stuck_at_one_fraction
        self.name = name
        self.backend = backend
        self.max_rate = max_rate
        rng = as_rng(seed)

        # Per-cell vulnerability ranks.  Without column structure these are
        # i.i.d. uniform; with column structure, a per-column factor lowers
        # the rank of every cell in a vulnerable column so faults cluster.
        base = rng.random((rows, columns))
        if column_alignment > 0.0:
            column_factor = rng.random(columns)
            scores = (1.0 - column_alignment) * base + column_alignment * column_factor[None, :]
        else:
            scores = base
        # Convert scores to uniform ranks in (0, 1] so that thresholding the
        # ranks at ``p`` marks exactly a fraction ``p`` of cells as faulty
        # while preserving the spatial structure and the subset property.
        order = np.argsort(scores.reshape(-1))
        ranks = np.empty(order.size, dtype=np.float64)
        ranks[order] = (np.arange(order.size) + 1.0) / order.size
        stuck_at_one = rng.random(rows * columns) < stuck_at_one_fraction
        if backend == "sparse":
            # Keep only the vulnerable prefix: cells whose rank falls below
            # max_rate, ordered by ascending rank so the fault set at rate p
            # is a searchsorted prefix.  The dense score/rank/stuck arrays
            # above are construction-time transients; steady-state memory and
            # per-application time are O(max_rate * capacity).
            keep = int(np.count_nonzero(ranks <= max_rate))
            prefix = order[:keep]
            self._fault_positions = prefix.astype(np.int64)
            self._fault_ranks = ranks[prefix]
            self._fault_stuck = stuck_at_one[prefix]
        else:
            self._ranks = ranks
            self._stuck_at_one = stuck_at_one

    @property
    def capacity(self) -> int:
        """Number of bit cells on the chip."""
        return self.rows * self.columns

    def _check_rate(self, rate: float) -> float:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if self.backend == "sparse" and rate > self.max_rate:
            raise ValueError(
                f"rate {rate} exceeds this sparse chip's max_rate "
                f"({self.max_rate}); rebuild the chip with a larger max_rate "
                f"or use the dense backend"
            )
        return float(rate)

    def fault_positions(self, rate: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(cell_indices, stuck_at_one)`` of the cells faulty at ``rate``.

        The cost is ``O(rate * capacity)`` on the sparse backend and
        ``O(capacity)`` on the dense one.  Cell order is unspecified (the two
        backends enumerate the same *set* in different orders); rates are
        nested, so positions at a lower rate are a subset of those at a
        higher rate.
        """
        rate = self._check_rate(rate)
        if self.backend == "sparse":
            if rate == 0.0:
                count = 0
            else:
                count = int(np.searchsorted(self._fault_ranks, rate, side="right"))
            return self._fault_positions[:count], self._fault_stuck[:count]
        if rate == 0.0:
            positions = np.empty(0, dtype=np.int64)
        else:
            positions = np.flatnonzero(self._ranks <= rate)
        return positions, self._stuck_at_one[positions]

    def fault_map(self, rate: float) -> FaultMap:
        """Return the fault map at cell fault rate ``rate`` (in [0, 1]).

        ``rate == 0.0`` is guaranteed to be fault-free.  The ranks are
        constructed in ``(0, 1]`` so the ``<=`` boundary cannot mark a cell at
        zero rate, but the explicit guard keeps the no-op invariant even if
        the rank construction changes (cf. the ``u <= p`` zero-rate flip bug
        in :class:`~repro.biterror.backends.DenseFieldBackend`).
        """
        rate = self._check_rate(rate)
        if self.backend == "sparse":
            # Materializes O(capacity) booleans — intended for figures and
            # tests.  Stuck-at directions of *non-faulty* cells are not
            # represented sparsely and read as False here; they are
            # unobservable through any corruption API.
            positions, stuck = self.fault_positions(rate)
            faulty = np.zeros(self.capacity, dtype=bool)
            faulty[positions] = True
            stuck_at_one = np.zeros(self.capacity, dtype=bool)
            stuck_at_one[positions] = stuck
            return FaultMap(faulty=faulty, stuck_at_one=stuck_at_one, rate=rate)
        if rate == 0.0:
            faulty = np.zeros_like(self._ranks, dtype=bool)
        else:
            faulty = self._ranks <= rate
        return FaultMap(faulty=faulty, stuck_at_one=self._stuck_at_one.copy(), rate=rate)

    def fault_grid(self, rate: float) -> np.ndarray:
        """Fault map reshaped to the ``(rows, columns)`` geometry (for Fig. 3)."""
        return self.fault_map(rate).faulty.reshape(self.rows, self.columns)

    def column_fault_counts(self, rate: float) -> np.ndarray:
        """Number of faulty cells per column (quantifies column alignment)."""
        return self.fault_grid(rate).sum(axis=0)

    def _payload_hits(
        self, rate: float, offset: int, length: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Payload bit indices hit by faulty cells, with their stuck values.

        A payload of ``length`` bits occupies cells ``(offset + i) %
        capacity``; a faulty cell ``c`` therefore hits payload indices
        ``(c - offset) % capacity + k * capacity`` for every wrap ``k`` that
        stays below ``length``.  Cost is ``O(rate * capacity *
        ceil(length / capacity))`` — i.e. ``O(rate * length)``.
        """
        positions, stuck = self.fault_positions(rate)
        if positions.size == 0 or length == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=bool)
        first = (positions - int(offset)) % self.capacity
        hit_idx = []
        hit_stuck = []
        for wrap in range((length - 1) // self.capacity + 1):
            candidate = first + wrap * self.capacity
            inside = candidate < length
            hit_idx.append(candidate[inside])
            hit_stuck.append(stuck[inside])
        return np.concatenate(hit_idx), np.concatenate(hit_stuck)

    def apply_to_bits(
        self, bits: np.ndarray, rate: float, offset: int = 0
    ) -> np.ndarray:
        """Corrupt a flat bit vector stored on this chip.

        ``bits`` is laid out linearly starting at cell ``offset`` (wrapping
        around the chip capacity), the paper's linear weight-to-memory mapping
        with configurable offsets used to simulate different mappings.
        """
        bits = np.asarray(bits).astype(np.uint8).reshape(-1)
        if self.backend == "sparse":
            corrupted = bits.copy()
            idx, stuck = self._payload_hits(rate, offset, bits.size)
            corrupted[idx[stuck]] = 1
            corrupted[idx[~stuck]] = 0
            return corrupted
        fault = self.fault_map(rate)
        cell_indices = (offset + np.arange(bits.size)) % self.capacity
        faulty = fault.faulty[cell_indices]
        stuck_one = fault.stuck_at_one[cell_indices]
        corrupted = bits.copy()
        corrupted[faulty & stuck_one] = 1
        corrupted[faulty & ~stuck_one] = 0
        return corrupted

    def _corrupt_codes_with_hits(
        self,
        codes: np.ndarray,
        precision: int,
        idx: np.ndarray,
        stuck: np.ndarray,
    ) -> np.ndarray:
        """Sparse corruption body given precomputed payload hits."""
        keep_mask = (1 << precision) - 1
        out = (codes.astype(np.int64) & keep_mask).astype(codes.dtype)
        if idx.size:
            weight_idx = idx // precision
            values = (1 << (idx % precision)).astype(out.dtype)
            np.bitwise_or.at(out, weight_idx[stuck], values[stuck])
            np.bitwise_and.at(out, weight_idx[~stuck], np.bitwise_not(values[~stuck]))
        return out

    def apply_to_codes(
        self, codes: np.ndarray, precision: int, rate: float, offset: int = 0
    ) -> np.ndarray:
        """Corrupt ``precision``-bit codes stored linearly on this chip.

        The dense backend unpacks all ``W * m`` payload bits (the reference
        path); the sparse backend ORs/ANDs only the hit weights in place, so
        the cost is ``O(rate * W * m)`` plus one memcpy of the codes.  Both
        paths produce bit-identical corrupted codes (bits at or above
        ``precision`` are dropped, matching the unpack-repack reference).
        """
        codes = np.asarray(codes).reshape(-1)
        if self.backend == "sparse":
            idx, stuck = self._payload_hits(rate, offset, codes.size * precision)
            return self._corrupt_codes_with_hits(codes, precision, idx, stuck)
        bit_positions = np.arange(precision)
        bits = ((codes[:, None].astype(np.int64) >> bit_positions) & 1).astype(np.uint8)
        corrupted_bits = self.apply_to_bits(bits.reshape(-1), rate, offset=offset)
        corrupted_bits = corrupted_bits.reshape(codes.size, precision).astype(np.int64)
        corrupted = (corrupted_bits << bit_positions).sum(axis=1)
        return corrupted.astype(codes.dtype)

    def touched_weight_indices(
        self, num_weights: int, precision: int, rate: float, offset: int = 0
    ) -> np.ndarray:
        """Sorted distinct weights whose payload bits sit on faulty cells.

        A superset of the weights whose codes actually change (a stuck-at
        fault only manifests when the stored bit disagrees with the stuck
        value), which is exactly what delta de-quantization
        (:meth:`repro.quant.fixed_point.FixedPointQuantizer.dequantize_delta`)
        needs: re-decoding an unchanged code is a no-op.
        """
        idx, _ = self._payload_hits(rate, offset, num_weights * precision)
        return sorted_unique(idx // precision)

    def apply_to_quantized(
        self, quantized: QuantizedWeights, rate: float, offset: int = 0
    ) -> QuantizedWeights:
        """Corrupt a :class:`QuantizedWeights` stored linearly on this chip."""
        corrupted = self.apply_to_codes(
            quantized.flat_codes(copy=False), quantized.scheme.precision, rate,
            offset=offset,
        )
        return quantized.with_flat_codes(corrupted, copy=False)

    @hot_path
    def delta_apply(
        self, quantized: QuantizedWeights, rate: float, offset: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Corrupted codes restricted to the fault-hit weights.

        Returns ``(touched, values)`` where ``touched`` holds the sorted
        distinct flat weight indices with at least one payload bit on a
        faulty cell and ``values[i]`` equals
        ``self.apply_to_quantized(quantized, rate, offset).flat_codes()[touched[i]]``
        exactly.  Nothing code-shaped is materialized: past the fault
        enumeration, cost and memory are ``O(hits)``, not ``O(W)`` — the
        profiled-chip counterpart of
        :meth:`repro.biterror.backends.InjectionBackend.delta_apply`, which
        lets profiled sweeps ride the same O(errors) fused evaluation path
        as random bit errors.  Works on both chip backends (the sparse
        backend enumerates faults in ``O(rate * capacity)``, the dense one
        in ``O(capacity)`` — but neither copies or unpacks the codes).
        """
        flat = quantized.flat_codes(copy=False)
        precision = quantized.scheme.precision
        idx, stuck = self._payload_hits(rate, offset, flat.size * precision)
        weight_idx = idx // precision
        touched = sorted_unique(weight_idx)
        # The unpack-repack reference drops bits at or above ``precision``;
        # stored codes never carry them, but masking keeps the contract
        # "values equal the full corruption at the touched indices" exact.
        keep_mask = (1 << precision) - 1
        values = (flat[touched].astype(np.int64) & keep_mask).astype(flat.dtype)
        if idx.size:
            compressed = np.searchsorted(touched, weight_idx)
            bits = (1 << (idx % precision)).astype(values.dtype)
            # Same operation order as the full-corruption path: OR all
            # stuck-at-1 bits, then AND-clear all stuck-at-0 bits.  Each
            # payload bit is hit by at most one cell, so the two passes
            # never fight over a bit.
            np.bitwise_or.at(values, compressed[stuck], bits[stuck])
            np.bitwise_and.at(values, compressed[~stuck], np.bitwise_not(bits[~stuck]))
        return touched, values

    def observed_bit_error_rate(
        self, quantized: QuantizedWeights, rate: float, offset: int = 0
    ) -> float:
        """Fraction of stored bits actually flipped for a given payload.

        Because faulty cells are stuck-at, only cells whose stored bit
        disagrees with the stuck value produce an error; the observed rate is
        therefore lower than the cell fault rate, as in the paper's profiled
        measurements.
        """
        flat = quantized.flat_codes()
        corrupted = self.apply_to_codes(
            flat, quantized.scheme.precision, rate, offset=offset
        )
        diff = np.bitwise_xor(flat.astype(np.int64), corrupted.astype(np.int64))
        flipped = 0
        for j in range(quantized.scheme.precision):
            flipped += int(((diff >> j) & 1).sum())
        return flipped / quantized.num_bits


def make_profiled_chips(
    seed: int = 7,
    scale: int = 1,
    backend: str = "dense",
    max_rate: Optional[float] = None,
) -> Dict[str, ChipProfile]:
    """Create the three simulated chips used throughout the experiments.

    ``chip1`` matches the paper's chip 1 (approximately uniform random
    errors), ``chip2`` its chip 2 (strong column alignment, biased towards
    0-to-1 flips) and ``chip3`` an intermediate case.  ``scale`` multiplies
    the memory geometry for experiments with more weights.  ``backend`` /
    ``max_rate`` select the rank storage (see :class:`ChipProfile`); a sparse
    chip set produces bit-identical fault sets and corrupted payloads to the
    dense one at rates ``<= max_rate`` (stuck-at directions of non-faulty
    cells are the dense-only datum; see :class:`ChipProfile`).
    """
    common = dict(
        rows=256 * scale, columns=128, backend=backend, max_rate=max_rate
    )
    return {
        "chip1": ChipProfile(
            column_alignment=0.0,
            stuck_at_one_fraction=0.46,
            seed=seed,
            name="chip1",
            **common,
        ),
        "chip2": ChipProfile(
            column_alignment=0.6,
            stuck_at_one_fraction=0.8,
            seed=seed + 1,
            name="chip2",
            **common,
        ),
        "chip3": ChipProfile(
            column_alignment=0.3,
            stuck_at_one_fraction=0.75,
            seed=seed + 2,
            name="chip3",
            **common,
        ),
    }
