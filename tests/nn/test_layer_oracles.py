"""GroupNorm, ReLU and MaxPool2d against per-sample loop oracles.

Each case runs a fresh layer forward and backward four ways: default tiles
and one-sample tiles (``_TILE_BYTES = 1``), each at a thread budget of 1
and of 3.  Every way must match the loop oracle of ``tests/oracles.py``,
and one-sample tiles spread over three threads must reproduce the default
single-threaded pass bit for bit.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.activations as activations_module
import repro.nn.normalization as normalization_module
import repro.nn.pooling as pooling_module
from helpers import thread_budget
from oracles import oracle_group_norm, oracle_max_pool, oracle_relu
from repro.nn import GroupNorm, MaxPool2d, ReLU

#: (``_TILE_BYTES`` override or ``None`` for the default, thread budget).
WAYS = [(None, 1), (None, 3), (1, 1), (1, 3)]


def run_every_way(module, make_layer, x, grad_out):
    """``{way: (output, input gradient, parameter gradients)}``."""
    results = {}
    for tile_bytes, budget in WAYS:
        layer = make_layer()
        tiles = (mock.patch.object(module, "_TILE_BYTES", tile_bytes)
                 if tile_bytes is not None else contextlib.nullcontext())
        with thread_budget(budget), tiles:
            out = layer(x)
            grad_x = layer.backward(grad_out)
        results[(tile_bytes, budget)] = (
            out, grad_x, [param.grad.copy() for param in layer.parameters()]
        )
    return results


def check_against(results, want_out, want_grad_x, want_param_grads=()):
    for out, grad_x, param_grads in results.values():
        np.testing.assert_allclose(out, want_out, atol=1e-10)
        np.testing.assert_allclose(grad_x, want_grad_x, atol=1e-10)
        for got, want in zip(param_grads, want_param_grads, strict=True):
            np.testing.assert_allclose(got, want, atol=1e-10)
    threaded, default = results[(1, 3)], results[(None, 1)]
    assert threaded[0].tobytes() == default[0].tobytes()
    assert threaded[1].tobytes() == default[1].tobytes()
    for got, want in zip(threaded[2], default[2], strict=True):
        assert got.tobytes() == want.tobytes()


def inputs(rng, shape, values):
    """Gaussian values, or small integers (ties and zeros), or those with a NaN."""
    if values == "normal":
        return rng.normal(rng.uniform(-2, 2), rng.choice([0.1, 1.0, 10.0]), size=shape)
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    if values == "nan":
        x.flat[rng.integers(x.size)] = np.nan
    return x


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    groups=st.integers(1, 3),
    per_group=st.integers(1, 3),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    eps=st.sampled_from([1e-5, 1e-3, 0.5]),
    affine=st.booleans(),
    reparameterize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_norm_matches_the_loop_oracle(
    n, groups, per_group, h, w, eps, affine, reparameterize, seed
):
    rng = np.random.default_rng(seed)
    c = groups * per_group
    x = inputs(rng, (n, c, h, w), "normal")
    grad_out = rng.normal(size=x.shape)
    scale, bias = rng.normal(0.0, 0.5, size=c), rng.normal(0.0, 0.5, size=c)

    def make_layer():
        layer = GroupNorm(groups, c, eps=eps, affine=affine, reparameterize=reparameterize)
        if affine:
            layer.scale.data[:] = scale
            layer.bias.data[:] = bias
        return layer

    gamma = make_layer().effective_scale()
    beta = bias if affine else np.zeros(c)
    want_out, want_grad_x, grad_gamma, grad_beta = oracle_group_norm(
        x, groups, gamma, beta, eps, grad_out
    )
    results = run_every_way(normalization_module, make_layer, x, grad_out)
    check_against(results, want_out, want_grad_x,
                  (grad_gamma, grad_beta) if affine else ())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    c=st.integers(1, 3),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    values=st.sampled_from(["normal", "ties", "nan"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_relu_matches_the_loop_oracle(n, c, h, w, values, seed):
    rng = np.random.default_rng(seed)
    x = inputs(rng, (n, c, h, w), values)
    grad_out = rng.normal(size=x.shape)
    want_out, want_grad_x = oracle_relu(x, grad_out)
    check_against(run_every_way(activations_module, ReLU, x, grad_out),
                  want_out, want_grad_x)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    c=st.integers(1, 3),
    k=st.integers(1, 3),
    out_h=st.integers(1, 3),
    out_w=st.integers(1, 3),
    values=st.sampled_from(["normal", "ties", "nan"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_pool_matches_the_loop_oracle(n, c, k, out_h, out_w, values, seed):
    rng = np.random.default_rng(seed)
    x = inputs(rng, (n, c, k * out_h, k * out_w), values)
    grad_out = rng.normal(size=(n, c, out_h, out_w))
    want_out, want_grad_x = oracle_max_pool(x, k, grad_out)
    check_against(run_every_way(pooling_module, lambda: MaxPool2d(k), x, grad_out),
                  want_out, want_grad_x)
