"""Bit parity of the SimpleNet layers with test-local oracles of the plain math.

The conv oracle is the formulation the batch-wide layout replaced: loop-built
``(N, K, P)`` columns, one ``W @ cols[n]`` GEMM per sample plus the bias,
per-sample weight- and input-gradient GEMMs, a per-sample-layout
``col2im``, and a GroupNorm that takes its statistics from
``mean()``/``var()``.  The library must reproduce it bit for bit at every
SimpleNet layer shape, at the full batch of 64, at the short last batch of
4 that a 260-image plan ends with, and at 1 and 37 samples, which end
Conv2d's and GroupNorm's cache-sized tiles part-way at every shape.

The ReLU oracle is ``np.where(x > 0, x, 0.0)`` with an ``x > 0`` mask, and
the max-pool oracle gathers each window into a trailing axis and takes its
argmax.  Both must be matched bit for bit, signed zeros included, on
inputs full of signed zeros, NaN, infinities and tied windows.

Every layer spreads its sample tiles over the process's thread budget, so
each check also runs at a budget of 1 (everything inline on the calling
thread) and of 3 (more threads than a 2-core host has), with ReLU and
max-pool cut into one-sample tiles so that their regions really spread.
"""

import numpy as np
import pytest

import repro.nn.activations as activations_module
import repro.nn.pooling as pooling_module
from helpers import thread_budget
from repro.nn import Conv2d, GroupNorm, MaxPool2d, ReLU
from repro.nn.conv import conv_output_size

#: Thread budgets the parity checks run at besides the process default.
BUDGETS = [1, 3]

#: SimpleNet(widths=(16, 32, 64)) conv layers: (in, out, spatial side).
SIMPLENET_CONVS = [
    (3, 16, 32), (16, 16, 32), (16, 32, 16), (32, 32, 16), (32, 64, 8), (64, 64, 8)
]


def oracle_im2col(x, k, stride, padding):
    n, c, h, w = x.shape
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, k, k, out_h, out_w))
    for i in range(k):
        for j in range(k):
            rows = slice(i, i + stride * out_h, stride)
            columns = slice(j, j + stride * out_w, stride)
            cols[:, :, i, j] = padded[:, :, rows, columns]
    return cols.reshape(n, c * k * k, out_h * out_w), out_h, out_w


def oracle_col2im(cols, input_shape, k, stride, padding):
    n, c, h, w = input_shape
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)
    cols = cols.reshape(n, c, k, k, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for i in range(k):
        for j in range(k):
            rows = slice(i, i + stride * out_h, stride)
            columns = slice(j, j + stride * out_w, stride)
            padded[:, :, rows, columns] += cols[:, :, i, j]
    return padded[:, :, padding:h + padding, padding:w + padding]


def oracle_conv(layer, x, grad_output):
    """Forward output, input gradient, weight and bias gradients."""
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    cols, out_h, out_w = oracle_im2col(x, k, s, p)
    weight = layer.weight.data.reshape(layer.out_channels, -1)
    out = np.stack([np.matmul(weight, cols[b]) for b in range(len(x))])
    out = out + layer.bias.data[None, :, None]
    grad = grad_output.reshape(len(x), layer.out_channels, out_h * out_w)
    grad_weight = np.stack([np.matmul(grad[b], cols[b].T) for b in range(len(x))]).sum(axis=0)
    grad_bias = grad.sum(axis=(0, 2))
    grad_cols = np.stack([np.matmul(weight.T, grad[b]) for b in range(len(x))])
    grad_input = oracle_col2im(grad_cols, x.shape, k, s, p)
    grad_weight = grad_weight.reshape(layer.weight.shape)
    return out.reshape(grad_output.shape), grad_input, grad_weight, grad_bias


def oracle_groupnorm(layer, x, grad_output):
    """Forward output, input gradient, scale and bias gradients."""
    n, c, h, w = x.shape
    g = layer.num_groups
    grouped = x.reshape(n, g, -1)
    mean = grouped.mean(axis=2, keepdims=True)
    var = grouped.var(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    x_hat = ((grouped - mean) * inv_std).reshape(n, c, h, w)
    gamma = layer.effective_scale()[None, :, None, None]
    out = gamma * x_hat + layer.bias.data[None, :, None, None]
    grad_scale = (grad_output * x_hat).sum(axis=(0, 2, 3))
    grad_bias = grad_output.sum(axis=(0, 2, 3))
    grad_x_hat = (grad_output * gamma).reshape(n, g, -1)
    x_hat_g = x_hat.reshape(n, g, -1)
    m = grad_x_hat.shape[2]
    sum_grad = grad_x_hat.sum(axis=2, keepdims=True)
    sum_grad_xhat = (grad_x_hat * x_hat_g).sum(axis=2, keepdims=True)
    grad_input = (inv_std / m) * (m * grad_x_hat - sum_grad - x_hat_g * sum_grad_xhat)
    return out, grad_input.reshape(n, c, h, w), grad_scale, grad_bias


def check_conv_and_groupnorm(batch, in_channels, out_channels, side, budget=None):
    rng = np.random.default_rng(in_channels * 1000 + out_channels + batch)
    conv = Conv2d(in_channels, out_channels, kernel_size=3, padding=1, rng=rng)
    conv.bias.data[:] = rng.normal(size=out_channels)
    norm = GroupNorm(4, out_channels)
    norm.scale.data[:] = 0.1 * rng.normal(size=out_channels)
    norm.bias.data[:] = 0.1 * rng.normal(size=out_channels)
    x = rng.normal(size=(batch, in_channels, side, side))
    grad_norm = rng.normal(size=(batch, out_channels, side, side))

    # Only the layers run at the budget: the oracle's many small gemms would
    # crawl with more BLAS threads than cores.
    with thread_budget(budget):
        features = conv(x)
        normed = norm(features)
        grad_features = norm.backward(grad_norm)
        grad_x = conv.backward(grad_features)

    expected_features, expected_grad_x, expected_w, expected_b = oracle_conv(
        conv, x, grad_features
    )
    expected_normed, expected_grad_features, expected_scale, expected_shift = oracle_groupnorm(
        norm, features, grad_norm
    )
    assert features.flags.c_contiguous
    pairs = [
        (features, expected_features), (grad_x, expected_grad_x),
        (conv.weight.grad, expected_w), (conv.bias.grad, expected_b),
        (normed, expected_normed), (grad_features, expected_grad_features),
        (norm.scale.grad, expected_scale), (norm.bias.grad, expected_shift),
    ]
    for got, want in pairs:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("batch", [64, 4, 1, 37])
@pytest.mark.parametrize("in_channels,out_channels,side", SIMPLENET_CONVS)
def test_conv_and_groupnorm_match_the_per_sample_oracle_bit_for_bit(
    batch, in_channels, out_channels, side
):
    check_conv_and_groupnorm(batch, in_channels, out_channels, side)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("batch", [64, 4, 1, 37])
@pytest.mark.parametrize("in_channels,out_channels,side", SIMPLENET_CONVS)
def test_conv_and_groupnorm_match_the_oracle_at_every_thread_budget(
    budget, batch, in_channels, out_channels, side
):
    check_conv_and_groupnorm(batch, in_channels, out_channels, side, budget)


def oracle_relu(x, grad_output):
    mask = x > 0
    return np.where(mask, x, 0.0), np.where(mask, grad_output, 0.0)


def oracle_maxpool(x, k, grad_output):
    n, c, h, w = x.shape
    windows = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(n, c, h // k, w // k, k * k)
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    grad_windows = np.zeros(windows.shape)
    np.put_along_axis(grad_windows, argmax[..., None], grad_output[..., None], axis=-1)
    grad_windows = grad_windows.reshape(n, c, h // k, w // k, k, k)
    return out, grad_windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


#: Every awkward float a layer can meet.  NaNs share one bit pattern: which
#: of two different NaNs a maximum propagates is not specified.
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324])


def special_input(rng, shape):
    """Mostly special values, with runs of repeats so windows tie."""
    x = rng.choice(SPECIAL, size=shape)
    x[..., 1::2] = x[..., :-1:2]
    return x


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


RELU_SHAPES = [(2, 3, 4, 6), (1, 1, 1, 1), (3, 2, 5, 17)]


def check_relu(shape):
    rng = np.random.default_rng(sum(shape))
    x = special_input(rng, shape)
    grad_output = special_input(rng, shape)
    layer = ReLU()
    out = layer(x)
    grad_x = layer.backward(grad_output)
    want_out, want_grad = oracle_relu(x, grad_output)
    assert_bits_equal(out, want_out)
    assert_bits_equal(grad_x, want_grad)
    assert not np.signbit(out).any()  # -0.0 and NaN come out as +0.0


@pytest.mark.parametrize("shape", RELU_SHAPES)
def test_relu_matches_the_where_oracle_bit_for_bit(shape):
    check_relu(shape)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("shape", RELU_SHAPES)
def test_relu_matches_the_oracle_in_one_sample_tiles_at_every_thread_budget(
    budget, shape, monkeypatch
):
    monkeypatch.setattr(activations_module, "_TILE_BYTES", 1)
    with thread_budget(budget):
        check_relu(shape)


MAXPOOL_CASES = [(2, (2, 3, 4, 6)), (2, (5, 4, 8, 8)), (3, (2, 2, 9, 6))]


def check_maxpool(kernel, shape):
    rng = np.random.default_rng(kernel * 100 + sum(shape))
    x = special_input(rng, shape)
    # Whole windows of +0.0 and -0.0 in both orders: argmax keeps the first.
    x[0, 0, :kernel, :kernel] = 0.0
    x[0, 0, 0, 0] = -0.0
    x[-1, -1, -kernel:, -kernel:] = -0.0
    x[-1, -1, -1, -1] = 0.0
    layer = MaxPool2d(kernel)
    out = layer(x)
    grad_output = rng.normal(size=out.shape)
    grad_x = layer.backward(grad_output)
    want_out, want_grad = oracle_maxpool(x, kernel, grad_output)
    assert np.isnan(want_out).any() and (want_out == 0).any()
    assert_bits_equal(out, want_out)
    assert_bits_equal(grad_x, want_grad)


@pytest.mark.parametrize("kernel,shape", MAXPOOL_CASES)
def test_maxpool_matches_the_argmax_oracle_bit_for_bit(kernel, shape):
    check_maxpool(kernel, shape)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("kernel,shape", MAXPOOL_CASES)
def test_maxpool_matches_the_oracle_in_one_sample_tiles_at_every_thread_budget(
    budget, kernel, shape, monkeypatch
):
    monkeypatch.setattr(pooling_module, "_TILE_BYTES", 1)
    with thread_budget(budget):
        check_maxpool(kernel, shape)
