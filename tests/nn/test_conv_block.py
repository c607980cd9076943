"""The eval Conv2d → GroupNorm → ReLU walk against the per-layer chain.

In evaluation mode ``Sequential`` runs each Conv2d → GroupNorm → ReLU triple
through ``conv_block_forward``, one sample tile at a time.  Each case calls
the three layers directly (their own forwards, the per-layer path) and runs
the same layers as an eval ``Sequential`` four ways: default block tiles and
one-sample tiles (``_BLOCK_TILE_BYTES = 1``), each at a thread budget of 1
and of 3.  Every way must reproduce the chain bit for bit.

The one-sample ways are compared with a chain whose conv also takes one
sample per tile.  At these small shapes the two default tiles both hold the
whole batch, but a one-sample GEMM is narrower, and OpenBLAS may sum a
narrow product in another order (a one-column product is a GEMV), so equal
bits need equal GEMM shapes on both sides.
"""

import contextlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.conv as conv_module
import repro.nn.module as module_module
from helpers import thread_budget
from repro.nn import Conv2d, GroupNorm, MaxPool2d, ReLU, Sequential

#: (``_BLOCK_TILE_BYTES`` override or ``None`` for the default, thread budget).
WAYS = [(None, 1), (None, 3), (1, 1), (1, 3)]

#: Every awkward float a layer can meet.  NaNs share one bit pattern.
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])


def make_input(rng, shape, values):
    """Gaussian values, or Gaussian values salted with special floats."""
    x = rng.normal(rng.uniform(-2, 2), rng.choice([0.1, 1.0, 10.0]), size=shape)
    if values == "special":
        salt = rng.random(shape) < 0.05
        x[salt] = rng.choice(SPECIAL, size=int(salt.sum()))
    return x


def make_block(rng, c, o, kernel, stride, padding, bias, groups, affine, reparameterize):
    conv = Conv2d(c, o, kernel, stride=stride, padding=padding, bias=bias, rng=rng)
    if bias:
        conv.bias.data[:] = rng.normal(size=o)
    norm = GroupNorm(groups, o, affine=affine, reparameterize=reparameterize)
    if affine:
        norm.scale.data[:] = rng.normal(0.0, 0.5, size=o)
        norm.bias.data[:] = rng.normal(0.0, 0.5, size=o)
    return conv, norm, ReLU()


def walk(layers, x, tile_bytes, budget):
    tiles = (mock.patch.object(module_module, "_BLOCK_TILE_BYTES", tile_bytes)
             if tile_bytes is not None else contextlib.nullcontext())
    with thread_budget(budget), tiles:
        return Sequential(*layers).eval()(x)


# inf - inf in a special case's sums, on whichever thread runs the tile.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 9),
    c=st.integers(1, 3),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    padding=st.integers(0, 2),
    extra_h=st.integers(0, 4),
    extra_w=st.integers(0, 4),
    bias=st.booleans(),
    groups=st.integers(1, 3),
    per_group=st.integers(1, 3),
    affine=st.booleans(),
    reparameterize=st.booleans(),
    values=st.sampled_from(["normal", "special"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_eval_walk_equals_the_per_layer_chain_bit_for_bit(
    n, c, kernel, stride, padding, extra_h, extra_w, bias, groups, per_group,
    affine, reparameterize, values, seed,
):
    rng = np.random.default_rng(seed)
    smallest = max(1, kernel - 2 * padding)
    x = make_input(rng, (n, c, smallest + extra_h, smallest + extra_w), values)
    conv, norm, relu = make_block(rng, c, groups * per_group, kernel, stride, padding,
                                  bias, groups, affine, reparameterize)
    chains = {}
    for tile_bytes in (None, 1):
        conv_tiles = (mock.patch.object(conv_module, "_TILE_BYTES", tile_bytes)
                      if tile_bytes is not None else contextlib.nullcontext())
        with conv_tiles:
            chains[tile_bytes] = relu(norm(conv(x)))
    for tile_bytes, budget in WAYS:
        got, want = walk([conv, norm, relu], x, tile_bytes, budget), chains[tile_bytes]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (tile_bytes, budget)


def small_model(rng):
    conv, norm, relu = make_block(rng, 2, 4, 3, 1, 1, True, 2, True, True)
    return Sequential(conv, norm, relu, MaxPool2d(2)), (conv, norm, relu)


def test_a_backward_after_an_eval_forward_raises():
    """The walk drops the conv's and norm's caches: a backward cannot read
    the activations an older training forward left behind."""
    rng = np.random.default_rng(0)
    model, _ = small_model(rng)
    x = rng.normal(size=(3, 2, 6, 6))
    out = model(x)
    model.backward(np.ones_like(out))  # training forward: backward works
    model.eval()(x)
    with pytest.raises(RuntimeError, match="before forward"):
        model.backward(np.ones_like(out))


def test_relu_caches_the_walks_output_and_pickling_drops_it():
    rng = np.random.default_rng(1)
    model, (conv, norm, relu) = small_model(rng)
    x = rng.normal(size=(3, 2, 6, 6))
    model.eval()
    before = pickle.dumps(model)
    block_out = Sequential(conv, norm, relu).eval()(x)
    assert relu._output is block_out
    assert conv._cache is None and norm._cache is None
    model(x)
    assert pickle.dumps(model) == before
    assert pickle.loads(pickle.dumps(model)).layers[2]._output is None


def test_a_walk_checks_its_input_as_the_layers_do():
    rng = np.random.default_rng(2)
    conv, norm, relu = make_block(rng, 2, 4, 3, 1, 0, True, 2, True, True)
    model = Sequential(conv, norm, relu).eval()
    with pytest.raises(ValueError, match=r"Conv2d expected input \(N, 2, H, W\)"):
        model(rng.normal(size=(1, 3, 6, 6)))
    with pytest.raises(ValueError, match="non-positive output size"):
        model(rng.normal(size=(1, 2, 2, 2)))
    mismatched = Sequential(conv, GroupNorm(2, 6), relu).eval()
    with pytest.raises(ValueError, match="expected 6 channels, got 4"):
        mismatched(rng.normal(size=(1, 2, 6, 6)))
