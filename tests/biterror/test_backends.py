"""Tests for the pluggable injection backends (dense vs. sparse)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.biterror import (
    BitErrorField,
    DenseFieldBackend,
    SparseFieldBackend,
    make_backend,
)
from repro.biterror.backends import xor_from_bit_positions
from repro.biterror.random_errors import iter_apply_fields_batch
from repro.quant.fixed_point import QuantizedWeights


def test_xor_from_bit_positions_matches_bruteforce(rng):
    num_weights, precision = 50, 6
    mask = rng.random((num_weights, precision)) < 0.2
    positions = np.flatnonzero(mask.reshape(-1))
    xor = xor_from_bit_positions(positions, num_weights, precision, np.dtype(np.uint8))
    expected = (mask.astype(np.int64) * (1 << np.arange(precision))).sum(axis=1)
    np.testing.assert_array_equal(xor.astype(np.int64), expected)


def test_xor_from_bit_positions_empty(rng):
    xor = xor_from_bit_positions(np.empty(0, dtype=np.int64), 7, 8, np.dtype(np.uint8))
    np.testing.assert_array_equal(xor, np.zeros(7, dtype=np.uint8))


# -- zero-rate no-op regression (the headline bugfix) -----------------------


def test_dense_zero_rate_noop_with_exact_zero_threshold(rng):
    """apply(codes, 0.0) must be bit-identical even when a threshold is 0.0."""
    field = BitErrorField(num_weights=64, precision=8, rng=np.random.default_rng(0))
    field._thresholds[3, 5] = 0.0  # seed an exact-zero threshold
    codes = rng.integers(0, 256, size=64).astype(np.uint8)
    np.testing.assert_array_equal(field.apply(codes, 0.0), codes)
    assert not field.error_mask(0.0).any()
    assert field.num_errors(0.0) == 0
    # The zero threshold does flip at any positive rate (u <= p).
    assert field.error_mask(1e-12)[3, 5]


def test_sparse_zero_rate_noop_with_exact_zero_threshold(rng):
    field = BitErrorField(
        num_weights=512, precision=8, rng=np.random.default_rng(1),
        backend="sparse", max_rate=0.1,
    )
    assert field.backend._sorted_thresholds.size > 0
    field.backend._sorted_thresholds[0] = 0.0
    codes = rng.integers(0, 256, size=512).astype(np.uint8)
    np.testing.assert_array_equal(field.apply(codes, 0.0), codes)
    assert field.num_errors(0.0) == 0
    assert field.num_errors(1e-12) >= 1


# -- dense vs. sparse equivalence -------------------------------------------


@pytest.mark.slow
def test_dense_sparse_flip_counts_statistically_match():
    num_weights, precision = 20000, 8
    total_bits = num_weights * precision
    for p in (0.001, 0.01):
        dense = DenseFieldBackend(num_weights, precision, np.random.default_rng(11))
        sparse = SparseFieldBackend(
            num_weights, precision, np.random.default_rng(11), max_rate=0.02
        )
        expected = total_bits * p
        tolerance = 5 * np.sqrt(expected)
        assert abs(dense.num_errors(p) - expected) < tolerance
        assert abs(sparse.num_errors(p) - expected) < tolerance


def test_sparse_subset_property_is_exact():
    sparse = SparseFieldBackend(3000, 8, np.random.default_rng(2), max_rate=0.05)
    previous = set()
    for p in (0.0, 0.001, 0.005, 0.02, 0.05):
        current = set(sparse.error_positions(p).tolist())
        assert previous <= current
        previous = current


def test_sparse_positions_are_distinct():
    sparse = SparseFieldBackend(2000, 8, np.random.default_rng(4), max_rate=0.1)
    positions = sparse.error_positions(0.1)
    assert positions.size == np.unique(positions).size
    assert positions.min() >= 0 and positions.max() < sparse.num_bits


def test_sparse_apply_matches_base_xor_path(rng):
    sparse = SparseFieldBackend(400, 8, np.random.default_rng(3), max_rate=0.1)
    codes = rng.integers(0, 256, size=400).astype(np.uint8)
    expected = codes ^ sparse.xor_values(0.05, codes.dtype)
    np.testing.assert_array_equal(sparse.apply(codes, 0.05), expected)
    assert sparse.num_errors(0.05) > 0


def test_dense_field_apply_unchanged_semantics(rng):
    """Dense backend reproduces the reference (W, m) threshold semantics."""
    field = BitErrorField(num_weights=500, precision=8, rng=np.random.default_rng(5))
    mask = field._thresholds <= 0.03
    codes = rng.integers(0, 256, size=500).astype(np.uint8)
    expected = codes ^ (
        (mask.astype(np.int64) * (1 << np.arange(8))).sum(axis=1).astype(np.uint8)
    )
    np.testing.assert_array_equal(field.apply(codes, 0.03), expected)


# -- validation --------------------------------------------------------------


def test_sparse_rate_above_max_rate_raises():
    sparse = SparseFieldBackend(100, 8, np.random.default_rng(0), max_rate=0.01)
    with pytest.raises(ValueError, match="max_rate"):
        sparse.error_positions(0.02)
    with pytest.raises(ValueError):
        sparse.apply(np.zeros(100, dtype=np.uint8), 0.02)


def test_precision_above_16_rejected():
    # float64 bincount accumulation is only exact up to 16-bit codes.
    with pytest.raises(ValueError, match="precision"):
        DenseFieldBackend(10, 60)
    with pytest.raises(ValueError, match="precision"):
        SparseFieldBackend(10, 17)


def test_sparse_max_rate_validation():
    with pytest.raises(ValueError):
        SparseFieldBackend(10, 8, max_rate=0.0)
    with pytest.raises(ValueError):
        SparseFieldBackend(10, 8, max_rate=1.5)


def test_make_backend_names_and_passthrough():
    dense = make_backend("dense", 10, 8)
    assert isinstance(dense, DenseFieldBackend)
    sparse = make_backend("sparse", 10, 8, max_rate=0.1)
    assert isinstance(sparse, SparseFieldBackend)
    assert sparse.max_rate == 0.1
    assert make_backend(dense, 10, 8) is dense
    with pytest.raises(ValueError, match="unknown injection backend"):
        make_backend("mmap", 10, 8)
    # rng/max_rate contradict a pre-built instance (which owns its thresholds).
    with pytest.raises(ValueError, match="pre-built"):
        make_backend(dense, 10, 8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="pre-built"):
        make_backend(dense, 10, 8, max_rate=0.2)
    # max_rate is sparse-only; the dense backend would silently ignore it.
    with pytest.raises(ValueError, match="sparse"):
        make_backend("dense", 10, 8, max_rate=0.2)


def test_thresholds_accessor_is_dense_only():
    field = BitErrorField(100, 8, np.random.default_rng(0), backend="sparse")
    with pytest.raises(AttributeError, match="dense-backend accessor"):
        field._thresholds


def test_field_rejects_geometry_mismatched_backend():
    backend = DenseFieldBackend(10, 8)
    with pytest.raises(ValueError, match="geometry"):
        BitErrorField(20, 8, backend=backend)
    field = BitErrorField(10, 8, backend=backend)
    assert field.backend is backend


def test_sparse_field_deterministic_given_rng():
    a = SparseFieldBackend(1000, 8, np.random.default_rng(9), max_rate=0.05)
    b = SparseFieldBackend(1000, 8, np.random.default_rng(9), max_rate=0.05)
    np.testing.assert_array_equal(a._positions, b._positions)
    np.testing.assert_array_equal(a._sorted_thresholds, b._sorted_thresholds)


# -- delta apply (O(errors) corrupted-code deltas) ---------------------------


@pytest.mark.parametrize("make", [
    lambda i: DenseFieldBackend(700, 6, np.random.default_rng(i)),
    lambda i: SparseFieldBackend(700, 6, np.random.default_rng(i), max_rate=0.05),
])
def test_delta_apply_matches_full_apply(rng, make):
    codes = rng.integers(0, 64, size=700).astype(np.uint8)
    for i in range(3):
        backend = make(i)
        for p in (0.0, 0.004, 0.05):
            touched, values = backend.delta_apply(codes, p)
            full = backend.apply(codes, p)
            # touched: sorted distinct weights that actually changed a bit.
            expected_touched = np.unique(backend.error_positions(p) // 6)
            np.testing.assert_array_equal(touched, expected_touched)
            np.testing.assert_array_equal(values, full[touched])
            # Untouched weights are exactly the input codes.
            unchanged = np.setdiff1d(np.arange(700), touched)
            np.testing.assert_array_equal(full[unchanged], codes[unchanged])


def test_delta_apply_zero_rate_is_empty(rng):
    codes = rng.integers(0, 256, size=300).astype(np.uint8)
    backend = DenseFieldBackend(300, 8, np.random.default_rng(0))
    touched, values = backend.delta_apply(codes, 0.0)
    assert touched.size == 0 and values.size == 0
    assert values.dtype == codes.dtype


@settings(max_examples=60, deadline=None)
@given(
    num_weights=st.integers(1, 400),
    precision=st.integers(1, 16),
    max_rate=st.floats(0.001, 1.0),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=4),
    split=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_dense_and_sparse_injection_agree_over_random_cases(
    num_weights, precision, max_rate, fractions, split, seed,
):
    """Differential test: random geometries and rates, p = 0, p = max_rate and
    p = 1 always (the last on the dense chip, and on the sparse one when its
    max_rate is 1).

    The two backends draw different chips, so they agree bit for bit only
    at the edges: p = 0 flips nothing and p = 1 flips every bit.  At every
    rate the sweep engine's per-chip stream yields, for each chip, exactly
    its ``apply`` and the sorted weights that hold an erroneous bit, and
    the chip's delta path reproduces both.
    """
    rng = np.random.default_rng(seed)
    dtype = np.dtype(np.uint8 if precision <= 8 else np.uint16)
    codes = rng.integers(0, 2**precision, size=num_weights).astype(dtype)
    dense = BitErrorField(num_weights, precision, rng)
    sparse = BitErrorField(num_weights, precision, rng, backend="sparse", max_rate=max_rate)
    # Two tensors, so the stream's flatten and rebuild cross a boundary.  The
    # codes are drawn, not quantized: the scheme only carries their width
    # (QuantizationScheme itself starts at two bits).
    cut = int(split * num_weights)
    quantized = QuantizedWeights(
        codes=[codes[:cut], codes[cut:]], ranges=[(-1.0, 1.0)] * 2,
        scheme=SimpleNamespace(precision=precision),
    )
    rates = {0.0, max_rate, 1.0, *(fraction * max_rate for fraction in fractions)}
    for p in sorted(rates):
        chips = [dense, sparse] if p <= max_rate else [dense]
        items = list(iter_apply_fields_batch(chips, quantized, p))
        assert len(items) == len(chips)
        for chip, (corrupted, touched) in zip(chips, items):
            full = chip.apply(codes, p)
            assert full.dtype == dtype
            np.testing.assert_array_equal(corrupted.flat_codes(), full)
            # Rebuilt in the model's tensor shapes and dtype, in codes of its
            # own: a consumer may write into a chip without touching the model.
            for got, clean in zip(corrupted.codes, quantized.codes):
                assert (got.shape, got.dtype) == (clean.shape, clean.dtype)
                assert not np.shares_memory(got, clean)
            assert corrupted.ranges == quantized.ranges
            assert touched.dtype == np.int64
            erroneous = np.flatnonzero(chip.error_mask(p).any(axis=1))
            np.testing.assert_array_equal(touched, erroneous)
            np.testing.assert_array_equal(touched, np.flatnonzero(full != codes))
            delta_touched, values = chip.delta_apply(codes, p)
            np.testing.assert_array_equal(delta_touched, touched)
            np.testing.assert_array_equal(values, full[touched])
            if p == 0.0:
                np.testing.assert_array_equal(full, codes)
                assert touched.size == 0
            if p == 1.0:
                np.testing.assert_array_equal(full, codes ^ dtype.type(2**precision - 1))
