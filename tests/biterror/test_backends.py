"""Tests for the pluggable injection backends (dense vs. sparse)."""

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
from repro.biterror.backends import batch_apply, xor_from_bit_positions


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


# -- batched multi-chip injection (one scatter pass) -------------------------


def test_batch_apply_matches_per_chip_apply(rng):
    from repro.biterror.backends import batch_apply

    num_weights, precision = 600, 8
    codes = rng.integers(0, 256, size=num_weights).astype(np.uint8)
    for make in (
        lambda i: DenseFieldBackend(num_weights, precision, np.random.default_rng(i)),
        lambda i: SparseFieldBackend(
            num_weights, precision, np.random.default_rng(i), max_rate=0.05
        ),
    ):
        backends = [make(i) for i in range(4)]
        for p in (0.0, 0.005, 0.05):
            batch = batch_apply(backends, codes, p)
            assert batch.shape == (4, num_weights)
            assert batch.dtype == codes.dtype
            for i, backend in enumerate(backends):
                np.testing.assert_array_equal(batch[i], backend.apply(codes, p))


def test_batch_apply_validation(rng):
    from repro.biterror.backends import batch_apply

    codes = rng.integers(0, 256, size=100).astype(np.uint8)
    with pytest.raises(ValueError, match="at least one"):
        batch_apply([], codes, 0.01)
    mixed = [DenseFieldBackend(100, 8), DenseFieldBackend(50, 8)]
    with pytest.raises(ValueError, match="geometry"):
        batch_apply(mixed, codes, 0.01)
    with pytest.raises(ValueError, match="expected"):
        batch_apply([DenseFieldBackend(100, 8)], codes[:50], 0.01)


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
    rates=st.lists(st.floats(0.0, 1.0), max_size=4),
    seed=st.integers(0, 2**16),
)
def test_dense_and_sparse_injection_agree_over_random_cases(
    num_weights, precision, rates, seed,
):
    """Differential test: random geometries and rates, p = 0 and p = 1 always.

    The two backends draw different chips, so they agree bit for bit only
    at the edges: p = 0 flips nothing and p = 1 flips every bit.  At every
    rate each backend's delta and batched paths reproduce its ``apply``.
    """
    rng = np.random.default_rng(seed)
    dtype = np.dtype(np.uint8 if precision <= 8 else np.uint16)
    codes = rng.integers(0, 2**precision, size=num_weights).astype(dtype)
    dense = DenseFieldBackend(num_weights, precision, rng)
    sparse = SparseFieldBackend(num_weights, precision, rng, max_rate=1.0)
    for p in sorted({0.0, 1.0, *rates}):
        batch = batch_apply([dense, sparse], codes, p)
        for row, backend in zip(batch, (dense, sparse)):
            full = backend.apply(codes, p)
            assert full.dtype == dtype
            np.testing.assert_array_equal(row, full)
            touched, values = backend.delta_apply(codes, p)
            np.testing.assert_array_equal(touched, np.flatnonzero(full != codes))
            np.testing.assert_array_equal(values, full[touched])
            if p == 0.0:
                np.testing.assert_array_equal(full, codes)
                assert touched.size == 0
            if p == 1.0:
                np.testing.assert_array_equal(full, codes ^ dtype.type(2**precision - 1))


# -- chunked / streaming batched injection -----------------------------------


@pytest.mark.parametrize("chunk_size", [None, 1, 2, 3, 5, 7, 64])
def test_batch_apply_chunk_sizes_are_result_identical(rng, chunk_size):
    from repro.biterror.backends import batch_apply

    num_weights, precision = 400, 8
    codes = rng.integers(0, 256, size=num_weights).astype(np.uint8)
    backends = [
        SparseFieldBackend(num_weights, precision, np.random.default_rng(i))
        for i in range(7)
    ]
    reference = batch_apply(backends, codes, 0.03)
    np.testing.assert_array_equal(
        batch_apply(backends, codes, 0.03, chunk_size=chunk_size), reference
    )


@pytest.mark.parametrize("chunk_size", [None, 1, 2, 4, 7])
@pytest.mark.parametrize("return_positions", [False, True])
def test_iter_batch_apply_streams_identical_rows(rng, chunk_size, return_positions):
    from repro.biterror.backends import batch_apply, iter_batch_apply

    num_weights, precision = 350, 8
    codes = rng.integers(0, 256, size=num_weights).astype(np.uint8)
    backends = [
        DenseFieldBackend(num_weights, precision, np.random.default_rng(i))
        for i in range(5)
    ]
    reference = batch_apply(backends, codes, 0.02)
    items = list(
        iter_batch_apply(
            backends, codes, 0.02,
            chunk_size=chunk_size, return_positions=return_positions,
        )
    )
    assert len(items) == len(backends)
    for i, item in enumerate(items):
        if return_positions:
            row, touched = item
            np.testing.assert_array_equal(
                touched, np.unique(backends[i].error_positions(0.02) // precision)
            )
        else:
            row = item
        np.testing.assert_array_equal(row, reference[i])


def test_iter_batch_apply_validates_eagerly(rng):
    from repro.biterror.backends import iter_batch_apply

    codes = rng.integers(0, 256, size=100).astype(np.uint8)
    # Errors surface at the call, not at first iteration.
    with pytest.raises(ValueError, match="at least one"):
        iter_batch_apply([], codes, 0.01)
    with pytest.raises(ValueError, match="chunk_size"):
        iter_batch_apply([DenseFieldBackend(100, 8)], codes, 0.01, chunk_size=0)
    with pytest.raises(ValueError, match="bit error rate"):
        iter_batch_apply([DenseFieldBackend(100, 8)], codes, 2.0)


def test_batch_apply_chunk_size_validation(rng):
    from repro.biterror.backends import batch_apply

    codes = rng.integers(0, 256, size=100).astype(np.uint8)
    with pytest.raises(ValueError, match="chunk_size"):
        batch_apply([DenseFieldBackend(100, 8)], codes, 0.01, chunk_size=0)


@pytest.mark.slow
def test_iter_batch_apply_streaming_peak_is_o_of_chunk(rng):
    """Consuming the stream row by row holds O(chunk_size * W) peak memory."""
    import tracemalloc

    from repro.biterror.backends import batch_apply, iter_batch_apply

    num_weights, precision, n_chips = 400_000, 8, 16
    codes = rng.integers(0, 256, size=num_weights).astype(np.uint8)
    backends = [
        SparseFieldBackend(
            num_weights, precision, np.random.default_rng(i), max_rate=0.01
        )
        for i in range(n_chips)
    ]

    def materialized():
        return batch_apply(backends, codes, 0.005).sum()

    def streaming():
        total = 0
        for row in iter_batch_apply(backends, codes, 0.005, chunk_size=1):
            total += row.sum()
        return total

    checksums = []
    peaks = {}
    for name, fn in (("full", materialized), ("chunked", streaming)):
        tracemalloc.start()
        checksums.append(fn())
        _, peaks[name] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert checksums[0] == checksums[1]
    # 16 chips materialized vs. 1 chip in flight: demand at least a 4x
    # reduction (generous margin over the ~16x ideal for allocator noise).
    assert peaks["chunked"] < peaks["full"] / 4, peaks
