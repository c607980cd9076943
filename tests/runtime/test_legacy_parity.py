"""Engine results must be bit-identical to the pre-engine reference loops.

These tests re-implement the ad-hoc sweep loops the engine replaced (the
exact code that shipped before the runtime subsystem; the pre-engine
profiled-chip loop is ``oracles.unfused_robust_error`` over a chip's
offsets) and assert **exact**
float equality against the engine-routed drivers on fixed seeds — not
closeness.  Serial execution is the reference semantics; any divergence is a
correctness bug, not noise.
"""

import numpy as np
import pytest

from oracles import unfused_robust_error
from repro.biterror import ChipProfile, make_error_fields
from repro.core import Trainer, TrainerConfig
from repro.eval import evaluate_robust_error, profiled_sweep, rerr_sweep
from repro.eval.robust_error import RobustErrorResult, model_error_and_confidence
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import SweepSpec, assemble_robust_result, run_sweep


@pytest.fixture(scope="module")
def trained(blob_data):
    train, _ = blob_data
    model = MLP(
        in_features=train.input_shape[0], num_classes=train.num_classes,
        hidden=(24,), rng=np.random.default_rng(0),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    Trainer(model, quantizer, TrainerConfig(epochs=8, batch_size=16, seed=1)).train(train)
    return model, quantizer


def legacy_rerr_sweep(model, quantizer, dataset, rates, error_fields, batch_size=64):
    """The pre-engine rerr_sweep loop (PR-1 hoisting, serial per-rate calls)."""
    quantized = quantize_model(model, quantizer)
    clean_weights = quantizer.dequantize(quantized)
    clean_stats = model_error_and_confidence(model, clean_weights, dataset, batch_size)
    return [
        evaluate_robust_error(
            model, quantizer, dataset, rate,
            error_fields=error_fields, batch_size=batch_size,
            quantized=quantized, clean_stats=clean_stats,
        )
        for rate in rates
    ]


def assert_results_identical(a: RobustErrorResult, b: RobustErrorResult):
    assert a.errors == b.errors  # exact — same floats, same order
    assert a.clean_error == b.clean_error
    assert a.confidence_clean == b.confidence_clean
    assert a.confidence_perturbed == b.confidence_perturbed
    assert a.bit_error_rate == b.bit_error_rate


def test_rerr_sweep_is_bit_identical_to_legacy_loop(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    rates = [0.0, 0.005, 0.01, 0.03]
    fields = make_error_fields(model.num_parameters(), 8, 4, seed=13)
    legacy = legacy_rerr_sweep(model, quantizer, test, rates, fields)
    curve = rerr_sweep(model, quantizer, test, rates, error_fields=fields)
    assert curve.rates == rates
    for ours, reference in zip(curve.results, legacy):
        assert_results_identical(ours, reference)


def test_rerr_sweep_duplicate_rates_match_legacy(trained, blob_data):
    """Duplicate grid entries are deduplicated in execution, not in output."""
    _, test = blob_data
    model, quantizer = trained
    rates = [0.01, 0.01, 0.02]
    fields = make_error_fields(model.num_parameters(), 8, 3, seed=17)
    legacy = legacy_rerr_sweep(model, quantizer, test, rates, fields)
    curve = rerr_sweep(model, quantizer, test, rates, error_fields=fields)
    assert len(curve.results) == 3
    for ours, reference in zip(curve.results, legacy):
        assert_results_identical(ours, reference)


@pytest.mark.parametrize(
    "chip, rates, offsets",
    [
        (ChipProfile(rows=128, columns=64, seed=3), [0.0, 0.02], (0, 2000)),
        # A column-aligned chip, a deeper offset and a higher rate.
        (ChipProfile(rows=256, columns=64, column_alignment=0.5, seed=9),
         [0.0, 0.01, 0.03], (0, 1000, 5000)),
    ],
    ids=["plain", "column-aligned"],
)
def test_profiled_sweep_matches_per_rate_evaluations(
    trained, blob_data, chip, rates, offsets
):
    _, test = blob_data
    model, quantizer = trained
    curve = profiled_sweep(model, quantizer, test, chip, rates, offsets=offsets)
    assert curve.rates == rates and curve.offsets == list(offsets)
    for rate, ours in zip(rates, curve.results):
        legacy = unfused_robust_error(
            model, quantizer, test, rate, chip=chip, offsets=offsets
        )
        assert_results_identical(ours, legacy)


def test_two_models_on_one_shared_field_set_match_per_model_sweeps(
    trained, blob_data
):
    """A multi-model comparison is one spec whose models share one field
    set; each model's curve equals its own rerr_sweep on those fields."""
    _, test = blob_data
    model, quantizer = trained
    other = MLP(
        in_features=test.input_shape[0], num_classes=test.num_classes,
        hidden=(24,), rng=np.random.default_rng(7),
    )
    models = {"trained": model, "untrained": other}
    rates = [0.0, 0.01, 0.03]
    fields = make_error_fields(model.num_parameters(), 8, 3, seed=5)
    spec = SweepSpec(test, batch_size=64)
    spec.add_field_set("chips", fields)
    for key, net in models.items():
        spec.add_model(key, net, quantizer, quantize_model(net, quantizer))
        for rate in rates:
            spec.add_field_jobs(key, "chips", rate)
    results = run_sweep(spec)
    for key, net in models.items():
        reference = rerr_sweep(net, quantizer, test, rates, error_fields=fields)
        for rate, ref in zip(rates, reference.results):
            ours = assemble_robust_result(spec, results, key, "chips", rate)
            assert_results_identical(ours, ref)
    # The two models differ, so the shared chips score them apart.
    assert (assemble_robust_result(spec, results, "trained", "chips", 0.01).errors
            != assemble_robust_result(spec, results, "untrained", "chips", 0.01).errors)
