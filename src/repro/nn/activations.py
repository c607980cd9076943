"""Element-wise activation layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import _threads
from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Identity"]

#: Input bytes one ``ReLU`` tile may hold.
_TILE_BYTES = 1 << 18

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class ReLU(Module):
    """Rectified linear unit, ``max(0, x)``.

    The layer caches its output, not its input, as backward's mask:
    ``out > 0`` holds exactly where ``x > 0`` does, because the inputs that
    fail ``x > 0`` without being negative, NaN and -0.0, come out as +0.0,
    which fails it too.  So the eval block walk
    (:func:`repro.nn.module.conv_block_forward`), which never holds a whole
    ReLU input, hands the layer its output, and
    :func:`repro.eval.redundancy.relu_relevance` reads the same cache.
    """

    _forward_caches = ("_output",)

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)

        def run(first: int, last: int) -> None:
            # One pass, bit-identical to np.where(x > 0, x, 0.0): fmax ignores
            # NaN (NaN -> 0.0) and returns its second operand for -0.0 (-> +0.0).
            np.fmax(x[first:last], 0.0, out=out[first:last])

        _threads.spread(len(x), _threads.sample_tile(x, _TILE_BYTES), run)
        self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward() called before forward()")
        y = self._output
        grad_output = np.asarray(grad_output, dtype=np.float64)
        grad_input = np.empty_like(grad_output)
        grad_bits, input_bits = grad_output.view(np.uint64), grad_input.view(np.uint64)
        tile = _threads.sample_tile(y, _TILE_BYTES)

        def run(first: int, last: int) -> None:
            # np.where(y > 0, grad, 0.0) as bit operations, which take no
            # branch per element: the gradient's bits ANDed with all ones
            # where y > 0 and with zeros (+0.0) elsewhere.  Cache-sized
            # tiles keep the masks cached between the passes.
            ones = _threads.scratch(y[first : first + tile].size).view(np.uint64)
            for start in range(first, last, tile):
                block = slice(start, min(start + tile, last))
                mask = np.greater(y[block], 0.0)
                bits = np.multiply(mask, _ALL_ONES, out=ones[: mask.size].reshape(mask.shape))
                np.bitwise_and(grad_bits[block], bits, out=input_bits[block])

        _threads.spread(len(y), tile, run)
        return grad_input


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
