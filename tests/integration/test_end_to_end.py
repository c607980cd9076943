"""Integration tests: full training → quantization → bit errors → evaluation."""

import numpy as np
import pytest

from repro.biterror import make_error_fields, make_profiled_chips
from repro.core import train_robust_model
from repro.data import SyntheticImageConfig, make_synthetic_images, train_test_split
from repro.eval import evaluate_robust_error, profiled_sweep
from repro.models import build_model
from repro.utils.serialization import load_state_dict, save_state_dict


@pytest.fixture(scope="module")
def image_task():
    config = SyntheticImageConfig(
        num_classes=4, samples_per_class=24, image_size=8, channels=1,
        noise_std=0.05, max_shift=1, seed=13,
    )
    dataset = make_synthetic_images(config)
    return train_test_split(dataset, test_fraction=0.25, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def trained_cnn(image_task):
    train, test = image_task
    result = train_robust_model(
        train, test, model_name="lenet", width=4, clip_w_max=0.25,
        bit_error_rate=0.02, epochs=15, batch_size=16, precision=8, seed=3,
    )
    return result, test


def test_cnn_pipeline_learns_the_task(trained_cnn):
    result, _ = trained_cnn
    assert result.clean_error <= 0.35


def test_robust_error_pipeline_runs_at_multiple_rates(trained_cnn):
    result, test = trained_cnn
    fields = make_error_fields(result.quantized_weights.num_weights, 8, 5, seed=21)
    low = evaluate_robust_error(result.model, result.quantizer, test, 0.001, error_fields=fields)
    high = evaluate_robust_error(result.model, result.quantizer, test, 0.05, error_fields=fields)
    assert 0.0 <= low.mean_error <= 1.0
    assert high.mean_error >= low.mean_error - 0.05


def test_profiled_chip_evaluation(trained_cnn):
    result, test = trained_cnn
    chips = make_profiled_chips(seed=5)
    curve = profiled_sweep(
        result.model, result.quantizer, test, chips["chip2"], [0.02],
        offsets=(0, 512, 1024),
    )
    assert len(curve.results[0].errors) == 3


def test_serialization_round_trip_preserves_predictions(trained_cnn, tmp_path_factory):
    result, test = trained_cnn
    path = tmp_path_factory.mktemp("models") / "lenet.npz"
    save_state_dict(result.model.state_dict(), str(path))
    fresh = build_model(
        "lenet", in_channels=1, num_classes=4, width=4, rng=np.random.default_rng(99)
    )
    fresh.load_state_dict(load_state_dict(str(path)))
    inputs, _ = test[np.arange(min(16, len(test)))]
    result.model.eval()
    fresh.eval()
    np.testing.assert_allclose(result.model(inputs), fresh(inputs))


def test_mlp_clipping_improves_high_rate_robustness(blob_data):
    """Qualitative reproduction of the paper's core claim on a tiny task:

    at a high bit error rate, the clipped model's RErr is no worse than the
    unclipped model's (usually much better)."""
    train, test = blob_data
    kwargs = dict(model_name="mlp", hidden=(32,), epochs=15, batch_size=16, seed=7)
    plain = train_robust_model(train, test, clip_w_max=None, bit_error_rate=None, **kwargs)
    clipped = train_robust_model(train, test, clip_w_max=0.2, bit_error_rate=0.02, **kwargs)
    fields = make_error_fields(plain.quantized_weights.num_weights, 8, 8, seed=33)
    rate = 0.05
    rerr_plain = evaluate_robust_error(plain.model, plain.quantizer, test, rate, error_fields=fields)
    rerr_clipped = evaluate_robust_error(
        clipped.model, clipped.quantizer, test, rate, error_fields=fields
    )
    assert rerr_clipped.mean_error <= rerr_plain.mean_error + 0.05
