"""Tests for robust test error (RErr) evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import unfused_robust_error
from repro.biterror import ChipProfile, make_error_fields
from repro.core import Trainer, TrainerConfig
from repro.data import ArrayDataset
from repro.eval import (
    RobustErrorResult,
    evaluate_clean_error,
    evaluate_robust_error,
    profiled_sweep,
)
from repro.models import MLP
from repro.quant import FixedPointQuantizer, QuantizationScheme, rquant


@pytest.fixture(scope="module")
def trained(blob_data):
    train, _ = blob_data
    model = MLP(
        in_features=train.input_shape[0], num_classes=train.num_classes,
        hidden=(24,), rng=np.random.default_rng(0),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    trainer = Trainer(model, quantizer, TrainerConfig(epochs=12, batch_size=16, seed=1))
    trainer.train(train)
    return model, quantizer


def test_clean_error_matches_zero_rate_result(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    clean = evaluate_clean_error(model, quantizer, test)
    fields = make_error_fields(model.num_parameters(), 8, 10, seed=0)
    result = evaluate_robust_error(model, quantizer, test, bit_error_rate=0.0,
                                   error_fields=fields)
    assert np.isclose(result.clean_error, clean)
    assert result.errors == [result.clean_error] * 10  # one per chip
    assert result.mean_error == result.clean_error
    assert result.std_error == 0.0


def test_equal_draws_average_to_their_value_exactly():
    """np.mean([0.1] * 3) is 0.1 + 1 ulp and np.std of it is not 0; equal
    draws, as at p = 0, must still report the clean error and no spread."""
    result = RobustErrorResult(bit_error_rate=0.0, clean_error=0.1, errors=[0.1] * 3)
    assert float(np.mean(result.errors)) != 0.1
    assert result.mean_error == 0.1 and result.max_error == 0.1
    assert result.std_error == 0.0


def test_robust_error_fields_and_statistics(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    fields = make_error_fields(model.num_parameters(), 8, 6, seed=3)
    result = evaluate_robust_error(
        model, quantizer, test, bit_error_rate=0.01, error_fields=fields
    )
    assert len(result.errors) == 6
    assert result.mean_error >= 0.0
    assert result.max_error >= result.mean_error
    assert 0.0 < result.confidence_clean <= 1.0
    assert 0.0 < result.confidence_perturbed <= 1.0


def test_robust_error_increases_with_rate(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    fields = make_error_fields(model.num_parameters(), 8, 8, seed=11)
    low = evaluate_robust_error(model, quantizer, test, 0.001, error_fields=fields)
    high = evaluate_robust_error(model, quantizer, test, 0.1, error_fields=fields)
    assert high.mean_error >= low.mean_error


def test_shared_fields_give_reproducible_results(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    fields = make_error_fields(model.num_parameters(), 8, 4, seed=5)
    a = evaluate_robust_error(model, quantizer, test, 0.02, error_fields=fields)
    b = evaluate_robust_error(model, quantizer, test, 0.02, error_fields=fields)
    np.testing.assert_allclose(a.errors, b.errors)


def test_profiled_evaluation_over_offsets(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    chip = ChipProfile(rows=256, columns=128, column_alignment=0.5, seed=9)
    result = profiled_sweep(
        model, quantizer, test, chip, [0.02], offsets=(0, 1000, 2000)
    ).results[0]
    assert len(result.errors) == 3
    assert result.mean_error >= 0.0


def test_no_quantizer_clean_error(trained, blob_data):
    _, test = blob_data
    model, _ = trained
    error = evaluate_clean_error(model, None, test)
    assert 0.0 <= error <= 1.0


# -- fused evaluation parity --------------------------------------------------


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_fused_evaluation_is_bit_identical_to_reference(trained, blob_data, backend):
    """Same fields: the fused per-draw loop equals the pre-fusion data flow."""
    _, test = blob_data
    model, quantizer = trained
    fields = make_error_fields(model.num_parameters(), 8, 5, seed=21, backend=backend)
    for rate in (0.005, 0.02):
        fused = evaluate_robust_error(
            model, quantizer, test, rate, error_fields=fields
        )
        reference = unfused_robust_error(model, quantizer, test, rate, fields=fields)
        assert fused.errors == reference.errors  # exact floats, same order
        assert fused.clean_error == reference.clean_error
        assert fused.confidence_clean == reference.confidence_clean
        assert fused.confidence_perturbed == reference.confidence_perturbed


@settings(max_examples=60, deadline=None)
@given(
    in_features=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 8), min_size=0, max_size=2),
    num_classes=st.integers(2, 4),
    examples=st.integers(1, 12),
    batch_size=st.integers(1, 8),
    precision=st.integers(2, 16),
    per_layer=st.booleans(),
    asymmetric=st.booleans(),
    unsigned=st.booleans(),
    rounding=st.booleans(),
    backend=st.sampled_from(["dense", "sparse"]),
    rate=st.sampled_from([0.0, 1e-3, 0.01, 0.05, 0.2, 1.0]),
    draws=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_fused_evaluation_matches_the_unfused_oracle_over_random_cases(
    in_features, hidden, num_classes, examples, batch_size, precision, per_layer,
    asymmetric, unsigned, rounding, backend, rate, draws, seed,
):
    """Differential test: random MLPs, schemes, backends and rates, p = 0 and 1 too."""
    rng = np.random.default_rng(seed)
    model = MLP(in_features=in_features, num_classes=num_classes, hidden=tuple(hidden),
                rng=rng)
    dataset = ArrayDataset(rng.normal(size=(examples, in_features)),
                           rng.integers(0, num_classes, size=examples),
                           num_classes=num_classes)
    quantizer = FixedPointQuantizer(QuantizationScheme(
        precision=precision, per_layer=per_layer, asymmetric=asymmetric,
        unsigned=unsigned, rounding=rounding,
    ))
    # A sparse field represents rates up to its max_rate (0.05 by default).
    wide = backend == "sparse" and rate > 0.05
    fields = make_error_fields(model.num_parameters(), precision, draws, seed=seed,
                               backend=backend, max_rate=1.0 if wide else None)
    fused = evaluate_robust_error(model, quantizer, dataset, rate, error_fields=fields,
                                  batch_size=batch_size)
    reference = unfused_robust_error(model, quantizer, dataset, rate, fields=fields,
                                     batch_size=batch_size)
    assert fused.clean_error == reference.clean_error
    assert fused.confidence_clean == reference.confidence_clean
    if rate > 0.0:
        assert fused.errors == reference.errors  # exact floats, same order
        assert fused.confidence_perturbed == reference.confidence_perturbed
        return
    # At p = 0 the library reports the clean evaluation for every draw
    # without running one (as the sweep engine's zero-rate cells do); the
    # oracle's draws, each an exact no-op, reproduce it exactly.
    assert fused.errors == reference.errors
    assert fused.confidence_perturbed == reference.confidence_clean
    assert reference.errors == [reference.clean_error] * draws
    assert reference.confidence_perturbed == float(np.mean([reference.confidence_clean] * draws))


@pytest.mark.parametrize("rate", [0.0, 1.0])
@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_fused_evaluation_matches_the_oracle_at_the_rate_extremes(trained, blob_data,
                                                                  backend, rate):
    """p = 0 and p = 1 on both backends in every run, whatever cases the
    random search above draws."""
    _, test = blob_data
    model, quantizer = trained
    fields = make_error_fields(model.num_parameters(), 8, 3, seed=17, backend=backend,
                               max_rate=1.0 if backend == "sparse" else None)
    fused = evaluate_robust_error(model, quantizer, test, rate, error_fields=fields)
    reference = unfused_robust_error(model, quantizer, test, rate, fields=fields)
    assert fused.clean_error == reference.clean_error
    assert fused.confidence_clean == reference.confidence_clean
    if rate == 0.0:
        assert fused.errors == reference.errors
        assert reference.errors == [reference.clean_error] * 3
    else:
        assert fused.errors == reference.errors  # exact floats, same order
        assert fused.confidence_perturbed == reference.confidence_perturbed


def test_fused_evaluation_with_hoisted_inputs_matches_reference(trained, blob_data):
    """Precomputed quantized/clean_stats still decode clean weights for patching."""
    from repro.eval.robust_error import model_error_and_confidence
    from repro.quant.qat import quantize_model

    _, test = blob_data
    model, quantizer = trained
    fields = make_error_fields(model.num_parameters(), 8, 4, seed=23)
    quantized = quantize_model(model, quantizer)
    clean_weights = quantizer.dequantize(quantized)
    clean_stats = model_error_and_confidence(model, clean_weights, test, 64)
    hoisted = evaluate_robust_error(
        model, quantizer, test, 0.01, error_fields=fields,
        quantized=quantized, clean_stats=clean_stats,
    )
    reference = unfused_robust_error(model, quantizer, test, 0.01, fields=fields)
    assert hoisted.errors == reference.errors
    assert hoisted.confidence_perturbed == reference.confidence_perturbed


def test_sparse_backend_consistent_with_dense(trained, blob_data):
    """Chips drawn on either backend: the sparse twin tracks the dense one."""
    _, test = blob_data
    model, quantizer = trained

    def rerr(backend):
        fields = make_error_fields(model.num_parameters(), 8, 5, seed=13,
                                   backend=backend)
        return evaluate_robust_error(model, quantizer, test, 0.02, error_fields=fields)

    dense, sparse = rerr("dense"), rerr("sparse")
    # The clean evaluation never touches the injection backend.
    assert sparse.clean_error == dense.clean_error
    assert sparse.confidence_clean == dense.confidence_clean
    # Both backends draw from the same flip-set distribution.
    assert abs(sparse.mean_error - dense.mean_error) < 0.2
    # The sparse twin is a pure function of the seed.
    assert rerr("sparse").errors == sparse.errors


@pytest.mark.parametrize("rate", [0.0, 0.02])
def test_an_empty_chip_list_is_refused_at_every_rate(trained, blob_data, rate):
    """No chips means no RErr: neither the clean error nor a NaN confidence
    stands in for one, as rerr_sweep's field set already refuses."""
    _, test = blob_data
    model, quantizer = trained
    with pytest.raises(ValueError, match="at least one field"):
        evaluate_robust_error(model, quantizer, test, rate, error_fields=[])


def test_fused_evaluation_leaves_model_weights_clean(trained, blob_data):
    """Per-draw patching restores every parameter tensor exactly."""
    _, test = blob_data
    model, quantizer = trained
    before = [param.data.copy() for param in model.parameters()]
    fields = make_error_fields(model.num_parameters(), 8, 3, seed=31)
    evaluate_robust_error(model, quantizer, test, 0.02, error_fields=fields)
    for param, original in zip(model.parameters(), before):
        np.testing.assert_array_equal(param.data, original)


def test_fused_field_precision_mismatch_raises(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    wrong = make_error_fields(model.num_parameters(), 4, 1, seed=2)
    with pytest.raises(ValueError, match="precision"):
        evaluate_robust_error(model, quantizer, test, 0.01, error_fields=wrong)


def test_batch_size_must_be_positive(trained, blob_data):
    from repro.eval.robust_error import model_error_and_confidence
    from repro.quant.qat import model_weight_arrays

    _, test = blob_data
    model, quantizer = trained
    weights = model_weight_arrays(model)
    fields = make_error_fields(model.num_parameters(), 8, 1, seed=2)
    for bad in (0, -4):
        with pytest.raises(ValueError, match="batch_size"):
            model_error_and_confidence(model, weights, test, bad)
        with pytest.raises(ValueError, match="batch_size"):
            evaluate_clean_error(model, quantizer, test, batch_size=bad)
        with pytest.raises(ValueError, match="batch_size"):
            evaluate_robust_error(model, quantizer, test, 0.01, error_fields=fields,
                                  batch_size=bad)
