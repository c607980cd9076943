"""Spatial pooling layers (max, average, global average)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import _threads
from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]

#: Input bytes one ``MaxPool2d`` tile may hold.
_TILE_BYTES = 1 << 18

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _check_divisible(h: int, w: int, kernel: int) -> None:
    if h % kernel != 0 or w % kernel != 0:
        raise ValueError(
            f"Pooling with kernel {kernel} requires spatial dims divisible by the "
            f"kernel, got ({h}, {w})"
        )


class MaxPool2d(Module):
    """Non-overlapping max pooling (``stride == kernel_size``)."""

    _forward_caches = ("_cache",)

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.kernel_size = kernel_size
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        k = self.kernel_size
        _check_divisible(h, w, k)
        windows = x.reshape(n, c, h // k, k, w // k, k)
        out = np.empty((n, c, h // k, w // k))

        def run(first: int, last: int) -> None:
            # A running maximum over the k * k window offsets in argmax order.
            # On x86, numpy's vectorized np.maximum returns its second operand
            # when +0.0 meets -0.0, so the earlier value wins, as argmax picks
            # it (test_conv_parity pins this); NaN propagates.
            block, block_out = windows[first:last], out[first:last]
            np.copyto(block_out, block[:, :, :, 0, :, 0])
            for i in range(k):
                for j in range(k):
                    if i or j:
                        np.maximum(block[:, :, :, i, :, j], block_out, out=block_out)

        _threads.spread(n, _threads.sample_tile(x, _TILE_BYTES), run)
        self._cache = (x, out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x, out = self._cache
        n, c, h, w = x.shape
        k = self.kernel_size
        windows = x.reshape(n, c, h // k, k, w // k, k)
        grad_bits = np.asarray(grad_output, dtype=np.float64).view(np.uint64)
        grad_input = np.empty((n, c, h, w))
        grad_windows = grad_input.view(np.uint64).reshape(windows.shape)
        tile = _threads.sample_tile(x, _TILE_BYTES)

        def run(first: int, last: int) -> None:
            # The gradient goes where argmax would put it: at the first
            # window offset holding the maximum (the first NaN, if any), in
            # the forward's offset order.  Each offset's share is selected
            # with bit operations, so it is the gradient's bits or +0.0.
            ones = _threads.scratch(out[first : first + tile].size).view(np.uint64)
            for start in range(first, last, tile):
                block = slice(start, min(start + tile, last))
                maxima = out[block]
                nan_maxima = np.isnan(maxima)
                if not nan_maxima.any():
                    nan_maxima = None
                taken = np.zeros(maxima.shape, dtype=bool)
                bits = ones[: maxima.size].reshape(maxima.shape)
                for i in range(k):
                    for j in range(k):
                        window = windows[block, :, :, i, :, j]
                        hit = np.equal(window, maxima)
                        if nan_maxima is not None:
                            hit |= np.isnan(window) & nan_maxima
                        np.greater(hit, taken, out=hit)  # hit and not taken
                        taken |= hit
                        np.multiply(hit, _ALL_ONES, out=bits)
                        np.bitwise_and(grad_bits[block], bits,
                                       out=grad_windows[block, :, :, i, :, j])

        _threads.spread(n, tile, run)
        return grad_input


class AvgPool2d(Module):
    """Non-overlapping average pooling (``stride == kernel_size``)."""

    _forward_caches = ("_input_shape",)

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.kernel_size = kernel_size
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        k = self.kernel_size
        _check_divisible(h, w, k)
        self._input_shape = x.shape
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward() called before forward()")
        n, c, h, w = self._input_shape
        k = self.kernel_size
        grad = np.asarray(grad_output, dtype=np.float64) / (k * k)
        grad = np.repeat(np.repeat(grad, k, axis=2), k, axis=3)
        return grad


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing ``(N, C, 1, 1)``."""

    _forward_caches = ("_input_shape",)

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._input_shape = x.shape
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward() called before forward()")
        n, c, h, w = self._input_shape
        grad = np.asarray(grad_output, dtype=np.float64) / (h * w)
        return np.broadcast_to(grad, (n, c, h, w)).copy()
