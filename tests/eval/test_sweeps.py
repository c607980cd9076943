"""Tests for the RErr sweep helpers."""

import numpy as np
import pytest

from repro.biterror import make_error_fields
from repro.core import Trainer, TrainerConfig
from repro.eval import rerr_sweep
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant


@pytest.fixture(scope="module")
def trained(blob_data):
    train, _ = blob_data
    model = MLP(
        in_features=train.input_shape[0], num_classes=train.num_classes,
        hidden=(24,), rng=np.random.default_rng(0),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    Trainer(model, quantizer, TrainerConfig(epochs=10, batch_size=16, seed=1)).train(train)
    return model, quantizer


def test_rerr_sweep_structure(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    rates = [0.0, 0.01, 0.05]
    fields = make_error_fields(model.num_parameters(), 8, 3, seed=2)
    curve = rerr_sweep(model, quantizer, test, rates, error_fields=fields, name="m")
    assert curve.rates == rates
    assert len(curve.results) == 3
    assert len(curve.mean_errors()) == 3
    assert 0.0 <= curve.clean_error <= 1.0
    rows = curve.as_rows()
    assert len(rows) == 3
    assert rows[1]["bit_error_rate"] == 0.01
    assert rows[0]["model"] == "m"


def test_rerr_sweep_zero_rate_matches_clean(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    fields = make_error_fields(model.num_parameters(), 8, 2, seed=0)
    curve = rerr_sweep(model, quantizer, test, [0.0], error_fields=fields)
    assert curve.mean_errors()[0] == curve.clean_error
    assert curve.results[0].errors == [curve.clean_error] * 2  # one per chip


def test_rerr_sweep_quantizes_and_clean_evaluates_once(trained, blob_data, monkeypatch):
    """The sweep hoists quantization and clean evaluation out of the rate loop."""
    import repro.eval.robust_error as robust_error
    import repro.eval.sweeps as sweeps_module

    _, test = blob_data
    model, quantizer = trained
    quantize_calls = {"n": 0}
    real_quantize = sweeps_module.quantize_model

    def counting_quantize(*args, **kwargs):
        quantize_calls["n"] += 1
        return real_quantize(*args, **kwargs)

    eval_calls = {"n": 0}
    real_eval = robust_error.model_error_and_confidence

    def counting_eval(*args, **kwargs):
        eval_calls["n"] += 1
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(sweeps_module, "quantize_model", counting_quantize)
    monkeypatch.setattr(robust_error, "quantize_model", counting_quantize)
    # Every engine evaluation — clean and perturbed — funnels through
    # repro.eval.robust_error.model_error_and_confidence (looked up at call
    # time), so patching that one attribute counts them all.
    monkeypatch.setattr(robust_error, "model_error_and_confidence", counting_eval)

    rates = [0.0, 0.01, 0.02]
    num_fields = 3
    fields = make_error_fields(model.num_parameters(), 8, num_fields, seed=0)
    curve = sweeps_module.rerr_sweep(model, quantizer, test, rates, error_fields=fields)
    assert quantize_calls["n"] == 1
    # Exactly one clean evaluation plus one perturbed evaluation per
    # (non-zero rate, field) pair — nothing is re-done per rate.
    assert eval_calls["n"] == 1 + 2 * num_fields
    assert len(curve.results) == len(rates)


@pytest.mark.slow
def test_rerr_sweep_sparse_backend_consistent_with_dense(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    rates = [0.0, 0.01, 0.05]

    def sweep(backend):
        fields = make_error_fields(model.num_parameters(), 8, 4, seed=3, backend=backend)
        return rerr_sweep(model, quantizer, test, rates, error_fields=fields)

    dense, sparse = sweep("dense"), sweep("sparse")
    # Zero rate is the clean model in both backends — exactly equal.
    assert sparse.mean_errors()[0] == dense.mean_errors()[0]
    assert sparse.clean_error == dense.clean_error
    np.testing.assert_allclose(sparse.mean_errors(), dense.mean_errors(), atol=0.2)


def test_given_chips_are_scored_the_same_on_any_rate_grid(trained, blob_data):
    """The chips are the caller's, so 1 % scores the same chips whichever
    other rates share the grid, a wide sparse grid included."""
    _, test = blob_data
    model, quantizer = trained
    fields = make_error_fields(model.num_parameters(), 8, 3, seed=4,
                               backend="sparse", max_rate=0.1)
    alone = rerr_sweep(model, quantizer, test, [0.01], error_fields=fields)
    wide = rerr_sweep(model, quantizer, test, [0.01, 0.1], error_fields=fields)
    assert alone.results[0].errors == wide.results[0].errors
    assert alone.results[0].confidence_perturbed == wide.results[0].confidence_perturbed


def test_profiled_sweep_quantizes_and_clean_evaluates_once(
    trained, blob_data, monkeypatch
):
    """Quantization + clean eval are hoisted out of the rate/offset loops."""
    import repro.eval.robust_error as robust_error
    import repro.eval.sweeps as sweeps_module
    from repro.biterror import ChipProfile
    from repro.eval import profiled_sweep

    _, test = blob_data
    model, quantizer = trained
    chip = ChipProfile(rows=128, columns=64, seed=6)

    quantize_calls = {"n": 0}
    real_quantize = sweeps_module.quantize_model

    def counting_quantize(*args, **kwargs):
        quantize_calls["n"] += 1
        return real_quantize(*args, **kwargs)

    eval_calls = {"n": 0}
    real_eval = robust_error.model_error_and_confidence

    def counting_eval(*args, **kwargs):
        eval_calls["n"] += 1
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(sweeps_module, "quantize_model", counting_quantize)
    monkeypatch.setattr(robust_error, "quantize_model", counting_quantize)
    monkeypatch.setattr(robust_error, "model_error_and_confidence", counting_eval)

    rates = [0.005, 0.01, 0.02]
    offsets = (0, 1000)
    curve = profiled_sweep(
        model, quantizer, test, chip, rates, offsets=offsets
    )
    assert quantize_calls["n"] == 1
    # One hoisted clean evaluation plus one perturbed evaluation per
    # (rate, offset) cell — nothing is re-done per rate or per offset.
    assert eval_calls["n"] == 1 + len(rates) * len(offsets)
    assert len(curve.results) == len(rates)
    assert all(len(r.errors) == len(offsets) for r in curve.results)


def test_profiled_sweep_accepts_hoisted_inputs(trained, blob_data):
    """Precomputed quantized weights / clean stats skip the per-call work."""
    import repro.eval.robust_error as robust_error
    from repro.biterror import ChipProfile
    from repro.eval import profiled_sweep
    from repro.quant.qat import quantize_model

    _, test = blob_data
    model, quantizer = trained
    chip = ChipProfile(rows=128, columns=64, seed=8)
    quantized = quantize_model(model, quantizer)
    clean_weights = quantizer.dequantize(quantized)
    clean_stats = robust_error.model_error_and_confidence(
        model, clean_weights, test, 64
    )
    hoisted = profiled_sweep(
        model, quantizer, test, chip, [0.02], offsets=(0, 500),
        quantized=quantized, clean_stats=clean_stats,
    ).results[0]
    reference = profiled_sweep(
        model, quantizer, test, chip, [0.02], offsets=(0, 500)
    ).results[0]
    assert hoisted.errors == reference.errors
    assert hoisted.clean_error == reference.clean_error
    assert hoisted.confidence_perturbed == reference.confidence_perturbed
