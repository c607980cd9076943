"""Tests for the simulated profiled chips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_chip_touched
from repro.biterror import ChipProfile, make_profiled_chips
from repro.quant import FixedPointQuantizer, rquant


def test_fault_map_rate_is_exact():
    chip = ChipProfile(rows=64, columns=64, seed=0)
    for rate in (0.01, 0.1, 0.5):
        fault_map = chip.fault_map(rate)
        assert abs(fault_map.empirical_rate() - rate) < 1.0 / chip.capacity + 1e-9


def test_fault_maps_are_nested_across_rates():
    chip = ChipProfile(rows=64, columns=64, seed=1)
    low = chip.fault_map(0.01).faulty
    high = chip.fault_map(0.05).faulty
    assert np.all(high[low])


@given(rate_low=st.floats(0.0, 0.5), extra=st.floats(0.0, 0.5))
@settings(max_examples=25, deadline=None)
def test_subset_property_hypothesis(rate_low, extra):
    chip = ChipProfile(rows=32, columns=32, seed=2)
    low = chip.fault_map(rate_low).faulty
    high = chip.fault_map(min(1.0, rate_low + extra)).faulty
    assert np.all(high[low])


def test_zero_rate_fault_map_is_empty():
    """The <= boundary must never mark a cell faulty at rate 0 (no-op audit)."""
    chip = ChipProfile(rows=32, columns=32, seed=5)
    fault_map = chip.fault_map(0.0)
    assert fault_map.num_faulty == 0
    bits = np.random.default_rng(0).integers(0, 2, size=256).astype(np.uint8)
    np.testing.assert_array_equal(chip.apply_to_bits(bits, 0.0), bits)


def test_column_alignment_concentrates_faults():
    uniform = ChipProfile(rows=128, columns=64, column_alignment=0.0, seed=3)
    aligned = ChipProfile(rows=128, columns=64, column_alignment=0.8, seed=3)
    rate = 0.05
    var_uniform = np.var(uniform.column_fault_counts(rate))
    var_aligned = np.var(aligned.column_fault_counts(rate))
    assert var_aligned > 2 * var_uniform


def test_flip_direction_bias():
    chip = ChipProfile(rows=128, columns=64, stuck_at_one_fraction=0.9, seed=4)
    p_0to1, p_1to0 = chip.fault_map(0.2).flip_direction_rates()
    assert p_0to1 > p_1to0
    assert abs((p_0to1 + p_1to0) - 0.2) < 1e-3


def test_stuck_at_semantics_on_known_payload():
    chip = ChipProfile(rows=32, columns=32, stuck_at_one_fraction=1.0, seed=5)
    zeros = np.zeros(chip.capacity, dtype=np.uint8)
    ones = np.ones(chip.capacity, dtype=np.uint8)
    corrupted_zeros = chip.apply_to_bits(zeros, 0.3)
    corrupted_ones = chip.apply_to_bits(ones, 0.3)
    # All cells are stuck at 1: zeros get flipped to 1 at faulty cells,
    # ones are never altered.
    assert corrupted_zeros.sum() == chip.fault_map(0.3).num_faulty
    np.testing.assert_array_equal(corrupted_ones, ones)


def test_apply_to_codes_respects_precision(rng):
    chip = ChipProfile(rows=64, columns=64, seed=6)
    codes = rng.integers(0, 16, size=200).astype(np.uint8)
    corrupted = chip.apply_to_codes(codes, precision=4, rate=0.2)
    assert corrupted.shape == codes.shape
    assert corrupted.max() < 16


def test_offsets_change_the_corruption(rng):
    chip = ChipProfile(rows=64, columns=64, seed=7)
    codes = rng.integers(0, 256, size=300).astype(np.uint8)
    a = chip.apply_to_codes(codes, 8, 0.05, offset=0)
    b = chip.apply_to_codes(codes, 8, 0.05, offset=1000)
    assert not np.array_equal(a, b)


def test_apply_to_quantized_and_observed_rate(rng):
    chip = ChipProfile(rows=128, columns=128, seed=8)
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=500)])
    corrupted = chip.apply_to_quantized(quantized, 0.05)
    assert corrupted.codes[0].shape == quantized.codes[0].shape
    observed = chip.observed_bit_error_rate(quantized, 0.05)
    # Stuck-at faults only manifest when the stored bit disagrees.
    assert 0.0 < observed <= 0.05 + 1e-9


def test_zero_rate_is_identity(rng):
    chip = ChipProfile(rows=32, columns=32, seed=9)
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=100)])
    corrupted = chip.apply_to_quantized(quantized, 0.0)
    np.testing.assert_array_equal(corrupted.flat_codes(), quantized.flat_codes())


def test_chip_is_deterministic_given_seed():
    a = ChipProfile(rows=32, columns=32, seed=11)
    b = ChipProfile(rows=32, columns=32, seed=11)
    np.testing.assert_array_equal(a.fault_map(0.1).faulty, b.fault_map(0.1).faulty)


def test_make_profiled_chips_properties():
    chips = make_profiled_chips(seed=1)
    assert set(chips) == {"chip1", "chip2", "chip3"}
    assert chips["chip1"].column_alignment == 0.0
    assert chips["chip2"].column_alignment > chips["chip3"].column_alignment > 0.0
    assert chips["chip2"].stuck_at_one_fraction > 0.5


def test_validation():
    with pytest.raises(ValueError):
        ChipProfile(rows=0, columns=8)
    with pytest.raises(ValueError):
        ChipProfile(column_alignment=1.5)
    with pytest.raises(ValueError):
        ChipProfile(stuck_at_one_fraction=-0.1)
    chip = ChipProfile(rows=8, columns=8)
    with pytest.raises(ValueError):
        chip.fault_map(1.5)


# -- sparse chip backend (order-statistics rank prefix) ----------------------


def sparse_twin(seed=13, **kwargs):
    common = dict(
        rows=96, columns=48, column_alignment=0.5, stuck_at_one_fraction=0.7,
        seed=seed,
    )
    common.update(kwargs)
    dense = ChipProfile(**common)
    sparse = ChipProfile(backend="sparse", max_rate=0.05, **common)
    return dense, sparse


def test_sparse_chip_fault_sets_match_dense_exactly():
    dense, sparse = sparse_twin()
    for rate in (0.0, 0.005, 0.02, 0.05):
        pos_d, stuck_d = dense.fault_positions(rate)
        pos_s, stuck_s = sparse.fault_positions(rate)
        assert set(pos_d.tolist()) == set(pos_s.tolist())
        assert dict(zip(pos_d.tolist(), stuck_d.tolist())) == dict(
            zip(pos_s.tolist(), stuck_s.tolist())
        )
        fm_d, fm_s = dense.fault_map(rate), sparse.fault_map(rate)
        np.testing.assert_array_equal(fm_d.faulty, fm_s.faulty)
        np.testing.assert_array_equal(
            fm_d.stuck_at_one[fm_d.faulty], fm_s.stuck_at_one[fm_s.faulty]
        )


def test_sparse_chip_apply_matches_dense_bit_for_bit(rng):
    dense, sparse = sparse_twin()
    # Payloads below and above chip capacity (the latter wraps cells).
    for size in (300, 2 * dense.capacity // 8 + 57):
        codes = rng.integers(0, 256, size=size).astype(np.uint8)
        for rate in (0.0, 0.01, 0.05):
            for offset in (0, 1234, -7):
                np.testing.assert_array_equal(
                    dense.apply_to_codes(codes, 8, rate, offset=offset),
                    sparse.apply_to_codes(codes, 8, rate, offset=offset),
                )
        bits = (codes % 2).astype(np.uint8)
        np.testing.assert_array_equal(
            dense.apply_to_bits(bits, 0.03, offset=11),
            sparse.apply_to_bits(bits, 0.03, offset=11),
        )


def test_sparse_chip_subset_property_and_memory():
    _, sparse = sparse_twin()
    previous = set()
    for rate in (0.0, 0.01, 0.03, 0.05):
        current = set(sparse.fault_positions(rate)[0].tolist())
        assert previous <= current
        previous = current
    # Steady-state storage is the O(max_rate * capacity) prefix only.
    assert sparse._fault_positions.size <= int(0.05 * sparse.capacity) + 1
    assert not hasattr(sparse, "_ranks")


def test_sparse_chip_rate_above_max_rate_raises():
    _, sparse = sparse_twin()
    with pytest.raises(ValueError, match="max_rate"):
        sparse.fault_positions(0.2)
    with pytest.raises(ValueError, match="max_rate"):
        sparse.apply_to_codes(np.zeros(10, dtype=np.uint8), 8, 0.2)


def test_sparse_chip_validation():
    with pytest.raises(ValueError, match="backend"):
        ChipProfile(rows=8, columns=8, backend="mmap")
    with pytest.raises(ValueError, match="max_rate"):
        ChipProfile(rows=8, columns=8, max_rate=0.1)  # dense + max_rate
    with pytest.raises(ValueError, match="max_rate"):
        ChipProfile(rows=8, columns=8, backend="sparse", max_rate=1.5)


def test_make_profiled_chips_sparse_twins_match():
    dense = make_profiled_chips(seed=3)
    sparse = make_profiled_chips(seed=3, backend="sparse")
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([np.random.default_rng(0).normal(size=400)])
    for name in dense:
        a = dense[name].apply_to_quantized(quantized, 0.02, offset=333)
        b = sparse[name].apply_to_quantized(quantized, 0.02, offset=333)
        np.testing.assert_array_equal(a.flat_codes(), b.flat_codes())


@pytest.mark.parametrize("precision", [2, 4, 8, 12, 16])
def test_chip_delta_apply_matches_full_corruption(rng, precision):
    """delta_apply reports exactly the full corruption at the touched weights:
    at every code width, the oracle's weights (the chip's own
    touched_weight_indices too), in the codes' dtype, no bit above the width."""
    quantizer = FixedPointQuantizer(rquant(precision))
    quantized = quantizer.quantize([rng.normal(size=(12, 10)), rng.normal(size=200)])
    flat = quantized.flat_codes()
    for backend in ("dense", "sparse"):
        chip = ChipProfile(rows=64, columns=32, column_alignment=0.4,
                           seed=5, backend=backend,
                           stuck_at_one_fraction=0.7)
        for rate, offset in ((0.0, 0), (0.02, 0), (0.02, 777), (0.05, 123)):
            touched, values = chip.delta_apply(quantized, rate, offset=offset)
            reference = chip.apply_to_quantized(quantized, rate, offset=offset).flat_codes()
            expected = oracle_chip_touched(
                chip, quantized.num_weights, precision, rate, offset=offset
            )
            np.testing.assert_array_equal(touched, expected)
            np.testing.assert_array_equal(
                chip.touched_weight_indices(
                    quantized.num_weights, precision, rate, offset=offset
                ),
                expected,
            )
            np.testing.assert_array_equal(values, reference[touched])
            assert values.dtype == reference.dtype == flat.dtype
            # Nothing outside the touched set may be implied to change.
            assert np.isin(np.flatnonzero(reference != flat), touched).all()
            assert int(reference.max()) < 2**precision


def test_chip_delta_apply_zero_rate_is_empty(rng):
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantizer.quantize([rng.normal(size=50)])
    chip = ChipProfile(rows=32, columns=16, seed=3)
    touched, values = chip.delta_apply(quantized, 0.0)
    assert touched.size == 0 and values.size == 0
