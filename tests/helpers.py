"""Shared test helpers: finite-difference gradient checking, thread budgets."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.nn import _threads
from repro.nn.module import Module


@contextmanager
def thread_budget(count: Optional[int]) -> Iterator[None]:
    """Run the body with a tile-thread budget of ``count`` (``None``: as is).

    The budget is BLAS's thread count, set through ``repro.nn._threads``.
    Where no settable BLAS is loaded, a fake get/set pair stands in, so the
    regions still spread their tiles over ``count`` threads.
    """
    if count is None:
        yield
    elif _threads._binding() is None:
        state = [count]
        fake = (lambda: state[0], lambda value: state.__setitem__(0, value))
        saved = _threads._binding
        _threads._binding = lambda: fake
        try:
            yield
        finally:
            _threads._binding = saved
    else:
        previous = _threads.set_blas_threads(count)
        try:
            yield
        finally:
            _threads.set_blas_threads(previous)


def numerical_gradient(
    func: Callable[[np.ndarray], float], x: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + epsilon
        plus = func(x)
        flat_x[i] = original - epsilon
        minus = func(x)
        flat_x[i] = original
        flat_grad[i] = (plus - minus) / (2.0 * epsilon)
    return grad


def check_layer_gradients(
    layer: Module,
    input_shape: Tuple[int, ...],
    rng: np.random.Generator,
    atol: float = 1e-5,
    rtol: float = 1e-4,
    input_scale: float = 1.0,
) -> None:
    """Check input and parameter gradients of a layer against finite differences.

    Uses the scalar objective ``sum(layer(x) * projection)`` with a fixed
    random projection so all output entries contribute.
    """
    x = rng.normal(0.0, input_scale, size=input_shape).astype(np.float64)
    output = layer(x)
    projection = rng.normal(size=output.shape)

    def objective_of_input(values: np.ndarray) -> float:
        return float((layer(values) * projection).sum())

    # Analytic gradients.
    layer.zero_grad()
    layer(x)
    grad_input = layer.backward(projection)

    numeric_input = numerical_gradient(objective_of_input, x.copy())
    np.testing.assert_allclose(grad_input, numeric_input, atol=atol, rtol=rtol)

    for name, param in layer.named_parameters():
        def objective_of_param(values: np.ndarray, _param=param) -> float:
            return float((layer(x) * projection).sum())

        numeric = numerical_gradient(objective_of_param, param.data)
        np.testing.assert_allclose(
            param.grad, numeric, atol=atol, rtol=rtol, err_msg=f"parameter {name}"
        )
