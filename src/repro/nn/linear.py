"""Fully connected (dense) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine transformation ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Generator used for He initialization of the weight.
    """

    _forward_caches = ("_cache_input",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.he_normal((in_features, out_features), rng))
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((out_features,)))
        self._cache_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (N, {self.in_features}), got {x.shape}"
            )
        self._cache_input = x
        out = x @ self.weight.data
        if self.has_bias:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward() called before forward()")
        x = self._cache_input
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.grad += x.T @ grad_output
        if self.has_bias:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data.T
