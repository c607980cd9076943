"""Element-wise activation layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Identity"]


class ReLU(Module):
    """Rectified linear unit, ``max(0, x)``."""

    _forward_caches = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() called before forward()")
        return np.where(self._mask, np.asarray(grad_output, dtype=np.float64), 0.0)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    _forward_caches = ("_mask",)

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() called before forward()")
        grad = np.asarray(grad_output, dtype=np.float64)
        return np.where(self._mask, grad, self.negative_slope * grad)


class Sigmoid(Module):
    """Logistic sigmoid."""

    _forward_caches = ("_output",)

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = 1.0 / (1.0 + np.exp(-x))
        self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward() called before forward()")
        s = self._output
        return np.asarray(grad_output, dtype=np.float64) * s * (1.0 - s)


class Tanh(Module):
    """Hyperbolic tangent."""

    _forward_caches = ("_output",)

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(np.asarray(x, dtype=np.float64))
        self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward() called before forward()")
        return np.asarray(grad_output, dtype=np.float64) * (1.0 - self._output**2)


class Identity(Module):
    """Pass-through layer (useful as a configurable no-op)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64)
