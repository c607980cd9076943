"""Bit parity of Conv2d and GroupNorm with a test-local oracle of the per-sample math.

The oracle is the formulation the batch-wide layout replaced: loop-built
``(N, K, P)`` columns, one ``W @ cols[n]`` GEMM per sample plus the bias,
per-sample weight- and input-gradient GEMMs, a per-sample-layout
``col2im``, and a GroupNorm that takes its statistics from
``mean()``/``var()``.  The library must reproduce it bit for bit at every
SimpleNet layer shape, at the full batch of 64 and at the short last batch
of 4 that a 260-image plan ends with.
"""

import numpy as np
import pytest

from repro.nn import Conv2d, GroupNorm
from repro.nn.conv import conv_output_size

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


@pytest.mark.parametrize("batch", [64, 4])
@pytest.mark.parametrize("in_channels,out_channels,side", SIMPLENET_CONVS)
def test_conv_and_groupnorm_match_the_per_sample_oracle_bit_for_bit(
    batch, in_channels, out_channels, side
):
    rng = np.random.default_rng(in_channels * 1000 + out_channels + batch)
    conv = Conv2d(in_channels, out_channels, kernel_size=3, padding=1, rng=rng)
    conv.bias.data[:] = rng.normal(size=out_channels)
    norm = GroupNorm(4, out_channels)
    norm.scale.data[:] = 0.1 * rng.normal(size=out_channels)
    norm.bias.data[:] = 0.1 * rng.normal(size=out_channels)
    x = rng.normal(size=(batch, in_channels, side, side))
    grad_norm = rng.normal(size=(batch, out_channels, side, side))

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
