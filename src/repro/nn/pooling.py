"""Spatial pooling layers (max, average, global average)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


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
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        k = self.kernel_size
        _check_divisible(h, w, k)
        windows = x.reshape(n, c, h // k, k, w // k, k)
        # A running maximum over the k * k window offsets in argmax order.
        # On x86, numpy's vectorized np.maximum returns its second operand
        # when +0.0 meets -0.0, so the earlier value wins, as argmax picks
        # it (test_conv_parity pins this); NaN propagates.
        out = windows[:, :, :, 0, :, 0].copy()
        for i in range(k):
            for j in range(k):
                if i or j:
                    np.maximum(windows[:, :, :, i, :, j], out, out=out)
        self._cache = x
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x = self._cache
        n, c, h, w = x.shape
        k = self.kernel_size
        windows = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
        argmax = windows.reshape(n, c, h // k, w // k, k * k).argmax(axis=-1)
        grad_windows = np.zeros((n, c, h // k, w // k, k * k), dtype=np.float64)
        np.put_along_axis(
            grad_windows, argmax[..., None], np.asarray(grad_output)[..., None], axis=-1
        )
        grad_windows = grad_windows.reshape(n, c, h // k, w // k, k, k)
        grad_input = grad_windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
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
