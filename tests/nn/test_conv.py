"""Tests for Conv2d and the im2col/col2im primitives."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.conv as conv_module
from helpers import check_layer_gradients, thread_budget
from oracles import oracle_batch_columns
from repro.nn import Conv2d, _threads
from repro.nn.conv import col2im, conv_output_size, im2col


def naive_conv2d(x, weight, bias, stride, padding):
    """Reference convolution with explicit loops."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    window = x_padded[
                        b, :, i * stride : i * stride + kh, j * stride : j * stride + kw
                    ]
                    out[b, o, i, j] = (window * weight[o]).sum() + bias[o]
    return out


def naive_conv2d_backward(x, weight, grad_out, stride, padding):
    """Reference input, weight and bias gradients with explicit loops."""
    n, _, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    _, _, out_h, out_w = grad_out.shape
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    grad_padded = np.zeros_like(x_padded)
    grad_weight = np.zeros_like(weight)
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    rows = slice(i * stride, i * stride + kh)
                    columns = slice(j * stride, j * stride + kw)
                    g = grad_out[b, o, i, j]
                    grad_weight[o] += g * x_padded[b, :, rows, columns]
                    grad_padded[b, :, rows, columns] += g * weight[o]
    grad_x = grad_padded[:, :, padding : padding + h, padding : padding + w]
    return grad_x, grad_weight, grad_out.sum(axis=(0, 2, 3))


def test_conv_output_size():
    assert conv_output_size(8, 3, 1, 1) == 8
    assert conv_output_size(8, 3, 2, 1) == 4
    assert conv_output_size(7, 3, 1, 0) == 5


def test_im2col_shapes(rng):
    # One (C * kh * kw, N * OH * OW) matrix for the whole batch: row
    # (c, i, j), column (n, oh, ow).
    x = rng.normal(size=(2, 3, 8, 8))
    cols, out_h, out_w = im2col(x, 3, 3, 1, 1)
    assert cols.shape == (3 * 9, 2 * out_h * out_w)
    assert (out_h, out_w) == (8, 8)
    assert cols.flags.c_contiguous
    # Row (c=1, i=0, j=2), column (n=1, oh=3, ow=4) reads x[1, 1, 3 - 1 + 0, 4 - 1 + 2].
    assert cols[1 * 9 + 0 * 3 + 2, 1 * 64 + 3 * 8 + 4] == x[1, 1, 2, 5]


def test_im2col_col2im_adjoint(rng):
    """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
    x = rng.normal(size=(1, 2, 6, 6))
    cols, _, _ = im2col(x, 3, 3, 1, 1)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, 3, 3, 1, 1)).sum())
    assert np.isclose(lhs, rhs)


@pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
def test_forward_matches_naive(rng, stride, padding):
    layer = Conv2d(3, 4, kernel_size=3, stride=stride, padding=padding, rng=rng)
    x = rng.normal(size=(2, 3, 8, 8))
    expected = naive_conv2d(x, layer.weight.data, layer.bias.data, stride, padding)
    np.testing.assert_allclose(layer(x), expected, atol=1e-10)


def test_forward_wrong_channels_raises(rng):
    layer = Conv2d(3, 4, kernel_size=3, rng=rng)
    with pytest.raises(ValueError):
        layer(rng.normal(size=(1, 2, 8, 8)))


def test_gradients_match_finite_differences(rng):
    layer = Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
    check_layer_gradients(layer, (2, 2, 5, 5), rng, atol=1e-4)


def test_gradients_with_stride(rng):
    layer = Conv2d(2, 2, kernel_size=3, stride=2, padding=1, rng=rng)
    check_layer_gradients(layer, (1, 2, 6, 6), rng, atol=1e-4)


def test_conv_without_bias(rng):
    layer = Conv2d(1, 1, kernel_size=3, padding=1, bias=False, rng=rng)
    assert len(layer.parameters()) == 1
    out = layer(rng.normal(size=(1, 1, 4, 4)))
    assert out.shape == (1, 1, 4, 4)


# -- im2col vs. the loop oracle ---------------------------------------------


@pytest.mark.parametrize("stride,padding,kernel", [(1, 1, 3), (1, 0, 3), (2, 1, 3), (2, 0, 2), (3, 2, 5)])
def test_im2col_matches_the_loop_oracle(rng, stride, padding, kernel):
    x = rng.normal(size=(2, 3, 9, 11))
    cols, out_h, out_w = im2col(x, kernel, kernel, stride, padding)
    want, want_h, want_w = oracle_batch_columns(x, kernel, stride, padding)
    assert (out_h, out_w) == (want_h, want_w)
    np.testing.assert_array_equal(cols, want)  # bit-identical


def test_im2col_strided_result_owns_its_memory(rng):
    x = rng.normal(size=(1, 2, 6, 6))
    cols, _, _ = im2col(x, 3, 3, 1, 1)
    cols += 1.0  # must not touch the (padded copy of the) input
    again, _, _ = im2col(x, 3, 3, 1, 1)
    np.testing.assert_array_equal(again + 1.0, cols)


def test_matmul_gradients_match_finite_differences(rng):
    # Strided, over a batch of two: the per-sample weight-gradient GEMMs are
    # summed over the batch.
    layer = Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
    check_layer_gradients(layer, (2, 2, 6, 6), rng, atol=1e-4)


def test_im2col_strided_1x1_kernel_owns_its_memory(rng):
    # Degenerate 1x1 stride-1 windows are the input itself; im2col must still
    # hand back writable, unaliased columns (ResNet 1x1 projection shortcuts).
    x = rng.normal(size=(2, 3, 5, 5))
    cols, _, _ = im2col(x, 1, 1, 1, 0)
    assert cols.flags.writeable
    want, _, _ = oracle_batch_columns(x, 1, 1, 0)
    np.testing.assert_array_equal(cols, want)
    cols += 1.0
    np.testing.assert_array_equal(x, x)  # input untouched
    again, _, _ = im2col(x, 1, 1, 1, 0)
    np.testing.assert_array_equal(again + 1.0, cols)


# -- differential and allocation checks over random shapes ------------------


RANDOM_CONVS = dict(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    o=st.integers(1, 3),
    kernel=st.sampled_from([1, 2, 3, 5]),
    stride=st.sampled_from([1, 2, 3]),
    padding=st.sampled_from([0, 1, 2]),
    bias=st.booleans(),
    extra_h=st.integers(0, 5),
    extra_w=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)


def check_conv_against_naive_loops(
    n, c, o, kernel, stride, padding, bias, extra_h, extra_w, seed
):
    rng = np.random.default_rng(seed)
    h = max(1, kernel - 2 * padding) + extra_h
    w = max(1, kernel - 2 * padding) + extra_w
    layer = Conv2d(c, o, kernel, stride=stride, padding=padding, bias=bias, rng=rng)
    bias_values = rng.normal(size=o) if bias else np.zeros(o)
    if bias:
        layer.bias.data[:] = bias_values
    x = rng.normal(size=(n, c, h, w))

    out = layer(x)
    np.testing.assert_allclose(
        out, naive_conv2d(x, layer.weight.data, bias_values, stride, padding), atol=1e-10
    )
    grad_out = rng.normal(size=out.shape)
    grad_x = layer.backward(grad_out)
    want_x, want_w, want_b = naive_conv2d_backward(
        x, layer.weight.data, grad_out, stride, padding
    )
    np.testing.assert_allclose(grad_x, want_x, atol=1e-10)
    np.testing.assert_allclose(layer.weight.grad, want_w, atol=1e-10)
    if bias:
        np.testing.assert_allclose(layer.bias.grad, want_b, atol=1e-10)

    cols, _, _ = im2col(x, kernel, kernel, stride, padding)
    np.testing.assert_array_equal(cols, oracle_batch_columns(x, kernel, stride, padding)[0])
    y = rng.normal(size=cols.shape)
    back = col2im(y, x.shape, kernel, kernel, stride, padding)
    assert np.isclose(float((cols * y).sum()), float((x * back).sum()))


@settings(max_examples=40, deadline=None)
@given(**RANDOM_CONVS)
def test_conv_matches_naive_loops_over_random_shapes(**case):
    check_conv_against_naive_loops(**case)


@settings(max_examples=40, deadline=None)
@given(**RANDOM_CONVS)
def test_conv_matches_naive_loops_in_one_sample_tiles(**case):
    # A one-byte budget still takes one whole sample per tile, so every
    # batch of 2 or 3 runs forward and backward over several tiles.
    with mock.patch.object(conv_module, "_TILE_BYTES", 1):
        check_conv_against_naive_loops(**case)


@pytest.mark.parametrize("budget", [1, 3])
@settings(max_examples=40, deadline=None)
@given(**RANDOM_CONVS)
def test_conv_matches_naive_loops_at_every_thread_budget(budget, **case):
    with thread_budget(budget):
        check_conv_against_naive_loops(**case)


@pytest.mark.parametrize("budget", [1, 3])
@settings(max_examples=40, deadline=None)
@given(**RANDOM_CONVS)
def test_conv_matches_naive_loops_in_one_sample_tiles_at_every_thread_budget(budget, **case):
    # Batches of 2 or 3 one-sample tiles: at a budget of 3 each tile runs
    # on its own thread.
    with thread_budget(budget), mock.patch.object(conv_module, "_TILE_BYTES", 1):
        check_conv_against_naive_loops(**case)


def test_im2col_fills_a_caller_buffer(rng):
    x = rng.normal(size=(2, 3, 5, 5))
    want, _, _ = im2col(x, 3, 3, 1, 1)
    buffer = np.empty_like(want)
    got, out_h, out_w = im2col(x, 3, 3, 1, 1, out=buffer)
    assert got is buffer and (out_h, out_w) == (5, 5)
    np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="out="):
        im2col(x, 3, 3, 1, 1, out=np.empty((want.shape[1], want.shape[0])))


def test_eval_forward_allocates_its_output_and_one_tile(rng):
    layer = Conv2d(16, 16, 3, padding=1, rng=rng).eval()
    x = rng.normal(size=(64, 16, 32, 32))
    k_rows, positions = 16 * 3 * 3, 32 * 32
    # One tile: its columns (one sample's here, as they exceed the budget),
    # its GEMM output and its padded input.
    tile = (k_rows + 16) * positions * 8 + 16 * 34 * 34 * 8
    tracemalloc.start()
    try:
        out = layer(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A batch-wide column matrix alone would be 9x the output.
    assert peak <= out.nbytes + x.nbytes + tile + 64 * 1024


@pytest.mark.parametrize(
    "shape,kernel,stride,padding",
    [((16, 16, 32, 32), 3, 1, 1), ((8, 32, 16, 16), 3, 1, 1), ((4, 8, 19, 21), 5, 2, 2)],
)
def test_im2col_allocates_only_its_output_and_the_padded_input(
    rng, shape, kernel, stride, padding
):
    x = rng.normal(size=shape)
    n, c, h, w = shape
    padded_bytes = x.itemsize * n * c * (h + 2 * padding) * (w + 2 * padding)
    tracemalloc.start()
    try:
        cols, _, _ = im2col(x, kernel, kernel, stride, padding)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A few KiB of interpreter objects ride along; a second column-sized
    # copy would not fit.
    assert peak <= cols.nbytes + padded_bytes + 4096


def test_backward_allocates_the_input_gradient_and_one_tile_per_thread(rng):
    layer = Conv2d(16, 16, 3, padding=1, rng=rng)
    x = rng.normal(size=(64, 16, 32, 32))
    grad_out = rng.normal(size=layer(x).shape)
    k_rows, positions = 16 * 3 * 3, 32 * 32
    # Per thread: one sample's columns and (O, P) gradients (one sample's
    # columns exceed the tile budget here), plus the padded sample im2col
    # and col2im each allocate.
    tile = (k_rows + 16) * positions * 8 + 2 * 16 * 34 * 34 * 8
    per_sample_weight_grads = 64 * 16 * k_rows * 8
    threads = _threads.blas_threads()
    tracemalloc.start()
    try:
        grad_x = layer.backward(grad_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Batch-wide (K, N * P) gradient columns alone would be 9x the input.
    assert peak <= grad_x.nbytes + per_sample_weight_grads + threads * tile + 256 * 1024
