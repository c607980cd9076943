"""Tests for random bit error injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.biterror import (
    BitErrorField,
    SparseFieldBackend,
    expected_bit_errors,
    flip_probability_from_counts,
    inject_into_quantized,
    inject_random_bit_errors,
    make_error_fields,
)
from repro.quant import FixedPointQuantizer, rquant


def count_bit_flips(a, b, precision):
    diff = np.bitwise_xor(a.astype(np.int64), b.astype(np.int64))
    return sum(int(((diff >> j) & 1).sum()) for j in range(precision))


@pytest.mark.parametrize("precision", [1, 8, 9, 16])
def test_p_zero_is_identity(rng, precision):
    codes = rng.integers(0, 2**32, size=100, dtype=np.uint32)
    out = inject_random_bit_errors(codes, 0.0, precision, rng)
    np.testing.assert_array_equal(out, codes)
    assert not np.shares_memory(out, codes)


@pytest.mark.parametrize("precision", [1, 8, 9, 16])
def test_p_one_flips_every_bit(rng, precision):
    """p = 1 inverts exactly the low ``precision`` bits; the bits above never
    change."""
    codes = rng.integers(0, 2**32, size=100, dtype=np.uint32)
    out = inject_random_bit_errors(codes, 1.0, precision, rng)
    np.testing.assert_array_equal(out, codes ^ np.uint32(2**precision - 1))


def test_flip_count_matches_expectation(rng):
    codes = np.zeros(20000, dtype=np.uint8)
    p = 0.01
    out = inject_random_bit_errors(codes, p, 8, np.random.default_rng(0))
    flips = count_bit_flips(codes, out, 8)
    expected = expected_bit_errors(codes.size, 8, p)
    assert abs(flips - expected) < 4 * np.sqrt(expected)


def test_only_low_precision_bits_are_touched(rng):
    codes = np.zeros(5000, dtype=np.uint8)
    out = inject_random_bit_errors(codes, 0.5, 4, np.random.default_rng(0))
    assert out.max() < 2**4


def test_invalid_rate_raises(rng):
    with pytest.raises(ValueError):
        inject_random_bit_errors(np.zeros(4, dtype=np.uint8), 1.5, 8, rng)


def test_inject_into_quantized_preserves_structure(rng):
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=(4, 5)), rng.normal(size=9)])
    perturbed = inject_into_quantized(quantized, 0.1, np.random.default_rng(1))
    assert perturbed.num_tensors == quantized.num_tensors
    assert perturbed.codes[0].shape == quantized.codes[0].shape
    assert not np.array_equal(perturbed.flat_codes(), quantized.flat_codes())


def test_error_field_subset_property():
    field = BitErrorField(num_weights=2000, precision=8, rng=np.random.default_rng(0))
    low = field.error_mask(0.005)
    high = field.error_mask(0.02)
    # Every error at the lower rate also occurs at the higher rate.
    assert np.all(high[low])
    assert low.sum() < high.sum()


@given(p_low=st.floats(0.0, 0.5), p_extra=st.floats(0.0, 0.5))
@settings(max_examples=30, deadline=None)
def test_error_field_subset_property_hypothesis(p_low, p_extra):
    field = BitErrorField(num_weights=300, precision=4, rng=np.random.default_rng(3))
    p_high = min(1.0, p_low + p_extra)
    low = field.error_mask(p_low)
    high = field.error_mask(p_high)
    assert np.all(high[low])


def test_error_field_apply_flips_masked_bits():
    field = BitErrorField(num_weights=500, precision=8, rng=np.random.default_rng(2))
    codes = np.zeros(500, dtype=np.uint8)
    out = field.apply(codes, 0.05)
    flips = count_bit_flips(codes, out, 8)
    assert flips == field.num_errors(0.05)


def test_error_field_apply_wrong_size_raises():
    field = BitErrorField(num_weights=10, precision=8)
    with pytest.raises(ValueError):
        field.apply(np.zeros(5, dtype=np.uint8), 0.1)


def test_error_field_precision_mismatch_raises(rng):
    quantizer = FixedPointQuantizer(rquant(4))
    quantized = quantizer.quantize([rng.normal(size=10)])
    field = BitErrorField(num_weights=10, precision=8)
    with pytest.raises(ValueError):
        field.apply_to_quantized(quantized, 0.1)


def test_make_error_fields_deterministic():
    a = make_error_fields(100, 8, 3, seed=5)
    b = make_error_fields(100, 8, 3, seed=5)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.error_mask(0.1), fb.error_mask(0.1))
    c = make_error_fields(100, 8, 3, seed=6)
    assert not np.array_equal(a[0].error_mask(0.1), c[0].error_mask(0.1))


def test_make_error_fields_are_independent():
    fields = make_error_fields(1000, 8, 2, seed=0)
    assert not np.array_equal(fields[0].error_mask(0.1), fields[1].error_mask(0.1))


def test_make_error_fields_sparse_backend():
    fields = make_error_fields(500, 8, 3, seed=5, backend="sparse", max_rate=0.05)
    assert all(isinstance(f.backend, SparseFieldBackend) for f in fields)
    again = make_error_fields(500, 8, 3, seed=5, backend="sparse", max_rate=0.05)
    for a, b in zip(fields, again):
        np.testing.assert_array_equal(a.error_mask(0.02), b.error_mask(0.02))
    assert not np.array_equal(fields[0].error_mask(0.02), fields[1].error_mask(0.02))


def test_make_error_fields_rejects_backend_instance():
    from repro.biterror import DenseFieldBackend

    with pytest.raises(ValueError, match="backend name"):
        make_error_fields(10, 8, 3, backend=DenseFieldBackend(10, 8))


def test_sparse_draw_matches_dense_distribution():
    """Flip counts of the sparse draw follow Binomial(W * m, p): the mean and
    variance over repeated draws match the binomial moments within sampling
    error, and all flips stay within the low ``precision`` bits."""
    codes = np.zeros(5000, dtype=np.uint8)
    p, precision, repeats = 0.02, 8, 200
    total_bits = codes.size * precision
    rng = np.random.default_rng(42)
    counts = []
    for _ in range(repeats):
        out = inject_random_bit_errors(codes, p, precision, rng, method="sparse")
        counts.append(count_bit_flips(codes, out, precision))
        assert out.max() < 2**precision
    counts = np.asarray(counts, dtype=np.float64)
    mean, var = total_bits * p, total_bits * p * (1 - p)
    # Sample mean within 5 standard errors; sample variance within 40% (chi^2
    # spread at 200 samples) of the binomial variance.
    assert abs(counts.mean() - mean) < 5 * np.sqrt(var / repeats)
    assert 0.6 * var < counts.var(ddof=1) < 1.4 * var


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_draw_methods_agree_at_rate_boundaries(method, rng):
    codes = rng.integers(0, 256, size=512).astype(np.uint8)
    out = inject_random_bit_errors(codes, 0.0, 8, np.random.default_rng(0), method=method)
    np.testing.assert_array_equal(out, codes)
    out = inject_random_bit_errors(codes, 1.0, 8, np.random.default_rng(0), method=method)
    np.testing.assert_array_equal(out, codes ^ 0xFF)


def test_sparse_draw_positions_are_distinct_and_uniform():
    codes = np.zeros(3000, dtype=np.uint8)
    out, positions = inject_random_bit_errors(
        codes, 0.05, 8, np.random.default_rng(1), method="sparse",
        return_positions=True,
    )
    assert positions.size == np.unique(positions).size
    assert count_bit_flips(codes, out, 8) == positions.size
    # Positions cover both halves of the bit field (crude uniformity check).
    half = codes.size * 8 // 2
    low, high = int((positions < half).sum()), int((positions >= half).sum())
    assert low > 0 and high > 0
    assert abs(low - high) < 6 * np.sqrt(positions.size)


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_returned_positions_describe_exactly_the_flips(method, rng):
    codes = rng.integers(0, 256, size=400).astype(np.uint8)
    out, positions = inject_random_bit_errors(
        codes, 0.03, 8, np.random.default_rng(3), method=method,
        return_positions=True,
    )
    reconstructed = codes.copy()
    if positions.size:
        np.bitwise_xor.at(
            reconstructed,
            positions // 8,
            (1 << (positions % 8)).astype(np.uint8),
        )
    np.testing.assert_array_equal(reconstructed, out)


def test_dense_default_rng_stream_unchanged_by_positions(rng):
    """return_positions must not alter what the dense draw consumes from the
    RNG — the knob rides along on the default training path."""
    codes = rng.integers(0, 256, size=300).astype(np.uint8)
    plain = inject_random_bit_errors(codes, 0.04, 8, np.random.default_rng(9))
    with_positions, _ = inject_random_bit_errors(
        codes, 0.04, 8, np.random.default_rng(9), return_positions=True
    )
    np.testing.assert_array_equal(plain, with_positions)


def test_unknown_draw_method_raises(rng):
    with pytest.raises(ValueError, match="draw method"):
        inject_random_bit_errors(np.zeros(4, dtype=np.uint8), 0.1, 8, rng, method="turbo")


def test_inject_into_quantized_returns_touched_weight_indices(rng):
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=(8, 16)), rng.normal(size=64)])
    for method in ("dense", "sparse"):
        perturbed, touched = inject_into_quantized(
            quantized, 0.02, np.random.default_rng(4), method=method,
            return_positions=True,
        )
        changed = np.flatnonzero(
            quantized.flat_codes().astype(np.int64)
            != perturbed.flat_codes().astype(np.int64)
        )
        # touched is sorted, distinct, and a superset of the changed weights
        # (a weight whose flipped bits cancel is touched but unchanged —
        # impossible here since positions are distinct, so sets are equal).
        assert np.all(np.diff(touched) > 0)
        np.testing.assert_array_equal(touched, changed)


def test_inject_into_quantized_does_not_alias_source(rng):
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=(4, 5)), rng.normal(size=9)])
    original = [c.copy() for c in quantized.codes]
    perturbed = inject_into_quantized(quantized, 0.2, np.random.default_rng(2))
    for codes in perturbed.codes:
        codes ^= 0xFF
    for before, after in zip(original, quantized.codes):
        np.testing.assert_array_equal(before, after)


def test_expected_bit_errors_validation():
    assert expected_bit_errors(100, 8, 0.01) == 8.0
    assert expected_bit_errors(0, 8, 0.5) == 0.0
    with pytest.raises(ValueError):
        expected_bit_errors(-1, 8, 0.01)
    with pytest.raises(ValueError):
        expected_bit_errors(100, 0, 0.01)
    with pytest.raises(ValueError):
        expected_bit_errors(100, -8, 0.01)
    with pytest.raises(ValueError):
        expected_bit_errors(100, 8, -0.01)
    with pytest.raises(ValueError):
        expected_bit_errors(100, 8, 1.5)


def test_flip_probability_from_counts_validation():
    assert flip_probability_from_counts(5, 100) == 0.05
    assert flip_probability_from_counts(100, 100) == 1.0
    with pytest.raises(ValueError):
        flip_probability_from_counts(5, 0)
    with pytest.raises(ValueError):
        flip_probability_from_counts(-1, 100)
    with pytest.raises(ValueError):
        flip_probability_from_counts(101, 100)


def test_field_validation():
    with pytest.raises(ValueError):
        BitErrorField(0, 8)
    with pytest.raises(ValueError):
        BitErrorField(10, 0)
    field = BitErrorField(10, 8)
    with pytest.raises(ValueError):
        field.error_mask(2.0)


def test_inject_rejects_unsupported_precision(rng):
    with pytest.raises(ValueError, match="precision"):
        inject_random_bit_errors(np.zeros(4, dtype=np.uint64), 0.1, 60, rng)


def two_tensor_quantized(rng, precision):
    """Real codes of ``precision`` bits over two tensors (248 weights)."""
    quantizer = FixedPointQuantizer(rquant(precision))
    return quantizer.quantize([rng.normal(size=(12, 9)), rng.normal(size=140)])


# -- the dense training draw: one uniform per stored bit (Alg. 1) -------------


@pytest.mark.parametrize("precision", [1, 4, 8, 16])
def test_dense_draw_flips_every_bit_plane_at_rate_p(precision):
    """Each of the ``m`` bit planes flips at rate ``p``, none favoured, and no
    bit above the code width flips (the codes' dtype has room for them)."""
    codes = np.zeros(20000, dtype=np.uint32)
    p = 0.05
    out = inject_random_bit_errors(codes, p, precision, np.random.default_rng(precision))
    assert out.dtype == codes.dtype
    assert out.max() < 2**precision
    sigma = np.sqrt(codes.size * p * (1 - p))
    for bit in range(precision):
        flips = int(((out >> bit) & 1).sum())
        assert abs(flips - codes.size * p) < 5 * sigma, (bit, flips)


@pytest.mark.parametrize("p", [0.01, 1.0])
def test_dense_draw_consumes_one_uniform_per_stored_bit(rng, p):
    """Every draw takes exactly ``W * m`` uniforms, however many bits flip,
    so a seeded run's later draws do not depend on its earlier flips (the
    golden trajectories rest on this)."""
    codes = rng.integers(0, 256, size=300).astype(np.uint8)
    drawn = np.random.default_rng(5)
    inject_random_bit_errors(codes, p, 8, drawn)
    reference = np.random.default_rng(5)
    reference.random(codes.size * 8)
    np.testing.assert_array_equal(drawn.random(4), reference.random(4))


@pytest.mark.parametrize("precision", [2, 8, 16])
def test_inject_into_quantized_is_the_flat_draw(rng, precision):
    """The training path draws over the model's flat codes: with one seed it
    is the flat draw, split back into the tensors in the codes' dtype; the
    ranges and the scheme ride along unchanged."""
    quantized = two_tensor_quantized(rng, precision)
    perturbed = inject_into_quantized(quantized, 0.03, np.random.default_rng(9))
    flat = inject_random_bit_errors(
        quantized.flat_codes(), 0.03, precision, np.random.default_rng(9)
    )
    np.testing.assert_array_equal(perturbed.flat_codes(), flat)
    assert [(c.shape, c.dtype) for c in perturbed.codes] == [
        (c.shape, c.dtype) for c in quantized.codes
    ]
    assert perturbed.ranges == quantized.ranges
    assert perturbed.scheme == quantized.scheme


# -- fused evaluation seams: positions, delta apply, the per-chip stream ------


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_apply_to_quantized_return_positions(rng, backend):
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=(20, 10)), rng.normal(size=150)])
    field = BitErrorField(
        quantized.num_weights, 8, np.random.default_rng(11), backend=backend
    )
    for p in (0.0, 0.01, 0.05):
        reference = field.apply_to_quantized(quantized, p)
        corrupted, touched = field.apply_to_quantized(quantized, p, return_positions=True)
        for a, b in zip(corrupted.codes, reference.codes):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            touched, np.unique(field.error_positions(p) // 8)
        )


def test_field_delta_apply_matches_apply(rng):
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=500)])
    flat = quantized.flat_codes()
    field = BitErrorField(500, 8, np.random.default_rng(4), backend="sparse")
    touched, values = field.delta_apply(flat, 0.02)
    np.testing.assert_array_equal(values, field.apply(flat, 0.02)[touched])


def test_iter_apply_fields_batch_matches_materialized(rng):
    from repro.biterror.random_errors import iter_apply_fields_batch

    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=250), rng.normal(size=(10, 8))])
    fields = make_error_fields(quantized.num_weights, 8, 4, seed=17, backend="sparse")
    reference = [fld.apply_to_quantized(quantized, 0.02) for fld in fields]
    items = list(iter_apply_fields_batch(fields, quantized, 0.02))
    assert len(items) == len(fields)
    for fld, (corrupted, touched), ref in zip(fields, items, reference):
        for a, b in zip(corrupted.codes, ref.codes):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            touched, np.unique(fld.error_positions(0.02) // 8)
        )


def test_iter_apply_fields_batch_empty_and_validation(rng):
    from repro.biterror import make_error_fields
    from repro.biterror.random_errors import iter_apply_fields_batch

    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=60)])
    assert list(iter_apply_fields_batch([], quantized, 0.01)) == []
    mismatched = make_error_fields(quantized.num_weights, 4, 2, seed=0)
    with pytest.raises(ValueError, match="precision"):
        iter_apply_fields_batch(mismatched, quantized, 0.01)


@pytest.mark.parametrize("geometries, p, match", [
    pytest.param([(60, 8)] * 2, -0.01, "bit error rate", id="negative-rate"),
    pytest.param([(60, 8)] * 2, 1.5, "bit error rate", id="rate-above-one"),
    pytest.param([(60, 8)] * 2, float("nan"), "bit error rate", id="nan-rate"),
    pytest.param([(60, 4)] * 2, 0.01, "precision", id="precision"),
    pytest.param([(50, 8)] * 2, 0.01, "expected 50 codes", id="weight-count"),
    pytest.param([(60, 8), (60, 8), (61, 8)], 0.01, "expected 61 codes",
                 id="last-of-several"),
])
def test_iter_apply_fields_batch_validates_eagerly(rng, geometries, p, match):
    """A bad rate, or any chip that does not fit the model's codes, raises
    at the call, before a single chip is corrupted."""
    from repro.biterror.random_errors import iter_apply_fields_batch

    quantized = FixedPointQuantizer(rquant(8)).quantize([rng.normal(size=60)])
    fields = [
        BitErrorField(num_weights, precision, np.random.default_rng(seed))
        for seed, (num_weights, precision) in enumerate(geometries)
    ]
    with pytest.raises(ValueError, match=match):
        iter_apply_fields_batch(fields, quantized, p)


@pytest.mark.parametrize("as_iterable", [list, iter], ids=["list", "one-shot-iterator"])
def test_iter_apply_fields_batch_corrupts_one_chip_per_item(rng, monkeypatch, as_iterable):
    """Validation does not use up the fields, and each chip is corrupted
    only when its item is pulled."""
    from repro.biterror.random_errors import iter_apply_fields_batch

    quantized = two_tensor_quantized(rng, 8)
    fields = make_error_fields(quantized.num_weights, 8, 3, seed=2)
    corrupted = []
    apply = BitErrorField.apply_to_quantized

    def recorded(self, *args, **kwargs):
        corrupted.append(self)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(BitErrorField, "apply_to_quantized", recorded)
    stream = iter_apply_fields_batch(as_iterable(fields), quantized, 0.02)
    assert corrupted == []
    for pulled in range(1, len(fields) + 1):
        next(stream)
        assert corrupted == fields[:pulled]
    assert next(stream, None) is None


@pytest.mark.slow
def test_iter_apply_fields_batch_holds_one_chip_at_a_time(rng):
    """Consuming the stream chip by chip holds O(W) peak memory, not the
    O(n * W) of every chip's corrupted codes held at once."""
    import tracemalloc

    from repro.biterror.random_errors import iter_apply_fields_batch

    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=400_000)])
    fields = make_error_fields(
        quantized.num_weights, 8, 16, seed=3, backend="sparse", max_rate=0.01
    )

    def materialized():
        chips = [fld.apply_to_quantized(quantized, 0.005) for fld in fields]
        return sum(int(chip.flat_codes(copy=False).sum()) for chip in chips)

    def streamed():
        return sum(
            int(chip.flat_codes(copy=False).sum())
            for chip, _ in iter_apply_fields_batch(fields, quantized, 0.005)
        )

    checksums, peaks = [], {}
    for name, fn in (("materialized", materialized), ("streamed", streamed)):
        tracemalloc.start()
        checksums.append(fn())
        _, peaks[name] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert checksums[0] == checksums[1]
    # 16 chips held vs. 1 chip in flight: demand at least a 4x reduction
    # (generous margin over the ~16x ideal for allocator noise).
    assert peaks["streamed"] < peaks["materialized"] / 4, peaks
