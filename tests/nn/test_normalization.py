"""Tests for GroupNorm and BatchNorm2d."""

import tracemalloc

import numpy as np
import pytest

import repro.nn.normalization as normalization_module
from helpers import check_layer_gradients
from repro.nn import BatchNorm2d, GroupNorm, _threads


def test_groupnorm_normalizes_per_group(rng):
    layer = GroupNorm(2, 4, affine=False)
    x = rng.normal(3.0, 2.0, size=(2, 4, 5, 5))
    out = layer(x)
    grouped = out.reshape(2, 2, -1)
    np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-10)
    np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-4)


def test_groupnorm_invalid_groups_raises():
    with pytest.raises(ValueError):
        GroupNorm(3, 4)


def test_groupnorm_channel_mismatch_raises(rng):
    layer = GroupNorm(2, 4)
    with pytest.raises(ValueError):
        layer(rng.normal(size=(1, 6, 4, 4)))


def test_groupnorm_reparameterized_scale_defaults_to_identity(rng):
    layer = GroupNorm(2, 4, reparameterize=True)
    # Stored scale is zero, effective scale is one.
    np.testing.assert_array_equal(layer.scale.data, np.zeros(4))
    np.testing.assert_array_equal(layer.effective_scale(), np.ones(4))
    baseline = GroupNorm(2, 4, affine=False)
    x = rng.normal(size=(2, 4, 3, 3))
    np.testing.assert_allclose(layer(x), baseline(x))


def test_groupnorm_non_reparameterized_scale(rng):
    layer = GroupNorm(2, 4, reparameterize=False)
    np.testing.assert_array_equal(layer.scale.data, np.ones(4))
    np.testing.assert_array_equal(layer.effective_scale(), np.ones(4))


def test_groupnorm_gradients(rng):
    layer = GroupNorm(2, 4)
    check_layer_gradients(layer, (2, 4, 3, 3), rng, atol=1e-4)


def test_batchnorm_training_normalizes_per_channel(rng):
    layer = BatchNorm2d(3, affine=False)
    x = rng.normal(5.0, 3.0, size=(8, 3, 4, 4))
    out = layer(x)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-4)


def test_batchnorm_running_statistics_updated(rng):
    layer = BatchNorm2d(2, momentum=0.5)
    x = rng.normal(2.0, 1.0, size=(16, 2, 4, 4))
    layer(x)
    assert not np.allclose(layer.running_mean, 0.0)
    assert not np.allclose(layer.running_var, 1.0)


def test_batchnorm_eval_uses_running_statistics(rng):
    layer = BatchNorm2d(2, momentum=1.0)
    x = rng.normal(2.0, 1.5, size=(32, 2, 4, 4))
    layer(x)  # training pass sets running stats to batch stats
    layer.eval()
    out_eval = layer(x)
    layer.train()
    out_train = layer(x)
    np.testing.assert_allclose(out_eval, out_train, atol=1e-6)


def test_batchnorm_batch_stats_at_eval(rng):
    layer = BatchNorm2d(2, use_batch_stats_at_eval=True)
    x = rng.normal(4.0, 2.0, size=(16, 2, 3, 3))
    layer.eval()
    out = layer(x)
    # Even in eval mode the output is normalized with batch statistics.
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-8)


def test_batchnorm_eval_does_not_update_running_stats(rng):
    layer = BatchNorm2d(2)
    layer.eval()
    before = layer.running_mean.copy()
    layer(rng.normal(3.0, 1.0, size=(8, 2, 3, 3)))
    np.testing.assert_array_equal(layer.running_mean, before)


def test_batchnorm_gradients_training(rng):
    layer = BatchNorm2d(3)
    check_layer_gradients(layer, (4, 3, 3, 3), rng, atol=1e-4)


def test_batchnorm_gradients_eval(rng):
    layer = BatchNorm2d(3)
    layer(rng.normal(size=(4, 3, 3, 3)))  # populate running stats
    layer.eval()
    check_layer_gradients(layer, (4, 3, 3, 3), rng, atol=1e-4)


def test_batchnorm_state_dict_includes_buffers(rng):
    layer = BatchNorm2d(2)
    layer(rng.normal(1.0, 1.0, size=(8, 2, 3, 3)))
    state = layer.state_dict()
    assert "running_mean" in state and "running_var" in state
    fresh = BatchNorm2d(2)
    fresh.load_state_dict(state)
    np.testing.assert_allclose(fresh.running_mean, layer.running_mean)


def test_groupnorm_backward_allocates_at_most_three_batch_sized_arrays(rng):
    layer = GroupNorm(4, 16)
    layer.scale.data[:] = 0.1 * rng.normal(size=16)
    x = rng.normal(size=(64, 16, 32, 32))
    grad_out = rng.normal(size=layer(x).shape)
    # Per thread: three tile-sized buffers (x_hat, its gradient, a product).
    tile = 3 * max(normalization_module._TILE_BYTES, x[0].nbytes)
    threads = _threads.blas_threads()
    tracemalloc.start()
    try:
        layer.backward(grad_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * x.nbytes + threads * tile + 256 * 1024
