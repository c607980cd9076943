"""Tests for confidence statistics and redundancy metrics."""

import numpy as np
import pytest

from repro.biterror import inject_into_quantized
from repro.core import Trainer, TrainerConfig
from repro.data import ArrayDataset
from repro.eval import confidence_statistics, logit_statistics, redundancy_metrics
from repro.eval.redundancy import relative_absolute_error, relu_relevance, weight_relevance
from repro.models import MLP, LeNet, SimpleNet
from repro.nn import ReLU
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model


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


def test_logit_statistics_keys(rng):
    stats = logit_statistics(rng.normal(size=(10, 4)))
    assert set(stats) == {
        "mean_max_logit", "std_max_logit", "mean_logit", "max_logit", "min_logit",
    }
    assert stats["max_logit"] >= stats["min_logit"]


def test_confidence_statistics_clean_only(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    stats = confidence_statistics(model, quantizer, test)
    assert 0.0 < stats["confidence_clean"] <= 1.0
    assert "perturbed_mean_max_logit" not in stats


def test_confidence_statistics_with_perturbed_weights(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    quantized = quantize_model(model, quantizer)
    corrupted = inject_into_quantized(quantized, 0.05, np.random.default_rng(0))
    perturbed_weights = quantizer.dequantize(corrupted)
    stats = confidence_statistics(model, quantizer, test, perturbed_weights=perturbed_weights)
    assert "confidence_perturbed" in stats and "confidence_gap" in stats
    assert np.isclose(
        stats["confidence_gap"], stats["confidence_clean"] - stats["confidence_perturbed"]
    )


def test_weight_relevance_bounds(trained):
    model, _ = trained
    relevance = weight_relevance(model)
    assert 0.0 < relevance <= 1.0


def test_weight_relevance_uniform_weights_is_one():
    model = MLP(in_features=4, num_classes=2, hidden=(4,), rng=np.random.default_rng(0))
    for param in model.parameters():
        param.data[...] = 0.3
    assert np.isclose(weight_relevance(model), 1.0)


def test_relu_relevance_fraction(trained, blob_data):
    _, test = blob_data
    model, _ = trained
    fraction = relu_relevance(model, test)
    assert 0.0 <= fraction <= 1.0


@pytest.mark.parametrize("build", [
    lambda rng: SimpleNet(widths=(16, 32, 64), rng=rng),
    lambda rng: LeNet(in_channels=3, width=4, rng=rng),
], ids=["simplenet", "lenet"])
def test_relu_relevance_counts_the_per_layer_chains_final_relu(build):
    """An eval forward walks each conv block without materializing the ReLU
    input; the final ReLU's cache must still hold this batch's activations,
    not those of the training forward that ran before."""
    rng = np.random.default_rng(5)
    model = build(rng)
    model(rng.normal(size=(6, 3, 16, 16)))  # stale activations in every cache
    inputs = rng.normal(size=(20, 3, 16, 16))
    dataset = ArrayDataset(inputs, rng.integers(0, 10, size=20), num_classes=10)
    fraction = relu_relevance(model, dataset, batch_size=8)
    layers = model.body.layers
    final_relu = [layer for layer in layers if isinstance(layer, ReLU)][-1]
    nonzero = count = 0
    for start in range(0, 20, 8):
        h = inputs[start : start + 8]
        for layer in layers:  # each layer's own forward
            h = layer(h)
            if layer is final_relu:
                nonzero += int(np.count_nonzero(h > 0))
                count += h.size
    assert fraction == nonzero / count


def test_relative_absolute_error_positive(trained):
    model, quantizer = trained
    error = relative_absolute_error(model, quantizer, 0.02, num_samples=3)
    assert error > 0.0


def test_redundancy_metrics_keys(trained, blob_data):
    _, test = blob_data
    model, quantizer = trained
    metrics = redundancy_metrics(model, quantizer, test, bit_error_rate=0.02, num_samples=2)
    assert set(metrics) == {"relative_abs_error", "weight_relevance", "relu_relevance"}
