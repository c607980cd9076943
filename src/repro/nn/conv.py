"""2D convolution implemented via im2col / col2im.

The im2col transformation unrolls every receptive field of the whole batch
into one ``(C * kh * kw, N * OH * OW)`` column matrix, so a convolution is a
single matrix multiplication — the standard vectorized NumPy formulation.
``im2col`` / ``col2im`` are exposed as module-level functions so pooling
layers and tests can reuse them.

Two hot-path choices are configurable for validation and benchmarking:

* ``im2col`` gathers an ``np.lib.stride_tricks.as_strided`` window view
  straight into the column matrix (one copy) by default; ``method="loop"``
  keeps the per-kernel-offset slice loop as the reference implementation.
* The tensor contractions of ``Conv2d.forward``/``backward`` run as
  ``np.matmul`` calls that dispatch to BLAS by default;
  :func:`set_conv_contraction` switches back to the ``np.einsum``
  reference.  Both are validated against each other in the test suite.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = [
    "Conv2d",
    "im2col",
    "col2im",
    "conv_output_size",
    "set_conv_contraction",
    "get_conv_contraction",
    "conv_contraction",
    "CONTRACTIONS",
    "IM2COL_METHODS",
]

#: Contraction engines for Conv2d: BLAS-dispatched matmul vs. the einsum
#: reference.  Results agree to floating-point reduction order.
CONTRACTIONS = ("matmul", "einsum")

#: Window-unrolling strategies for im2col: a strided gather vs. the
#: per-kernel-offset slice loop reference.  Results are bit-identical.
IM2COL_METHODS = ("strided", "loop")

_contraction = "matmul"


def set_conv_contraction(mode: str) -> str:
    """Select the global Conv2d contraction engine; returns the previous one."""
    global _contraction
    if mode not in CONTRACTIONS:
        raise ValueError(f"unknown contraction {mode!r}; choose from {CONTRACTIONS}")
    previous = _contraction
    _contraction = mode
    return previous


def get_conv_contraction() -> str:
    """The currently selected Conv2d contraction engine."""
    return _contraction


@contextmanager
def conv_contraction(mode: str) -> Iterator[None]:
    """Temporarily switch the Conv2d contraction engine (for tests/benchmarks)."""
    previous = set_conv_contraction(mode)
    try:
        yield
    finally:
        set_conv_contraction(previous)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    method: str = "strided",
) -> Tuple[np.ndarray, int, int]:
    """Unroll the sliding windows of a whole batch into one column matrix.

    Row ``(c, i, j)`` of the result holds input channel ``c`` at kernel offset
    ``(i, j)``; column ``(n, oh, ow)`` is output position ``(oh, ow)`` of
    sample ``n``.  With every sample's windows side by side, a convolution
    over the whole batch is a single ``(O, K) @ (K, N * P)`` GEMM.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    method:
        ``"strided"`` (default) gathers an ``as_strided`` window view of the
        padded input straight into the result, one copy in total;
        ``"loop"`` fills it with one strided slice copy per kernel offset
        (the reference implementation).  Both produce bit-identical columns.

    Returns
    -------
    cols:
        C-contiguous array of shape
        ``(C * kernel_h * kernel_w, N * out_h * out_w)``, sharing no memory
        with ``x``.
    out_h, out_w:
        Spatial output size.
    """
    if method not in IM2COL_METHODS:
        raise ValueError(f"unknown im2col method {method!r}; choose from {IM2COL_METHODS}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"im2col produced non-positive output size for input {x.shape} "
            f"with kernel ({kernel_h},{kernel_w}), stride {stride}, padding {padding}"
        )
    x_padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    cols = np.empty((c, kernel_h, kernel_w, n, out_h, out_w), dtype=x.dtype)
    if method == "strided":
        sn, sc, sh, sw = x_padded.strides
        cols[...] = np.lib.stride_tricks.as_strided(
            x_padded,
            shape=cols.shape,
            strides=(sc, sh, sw, sn, stride * sh, stride * sw),
            writeable=False,
        )
    else:
        for i in range(kernel_h):
            i_max = i + stride * out_h
            for j in range(kernel_w):
                j_max = j + stride * out_w
                window = x_padded[:, :, i:i_max:stride, j:j_max:stride]
                cols[:, i, j] = window.transpose(1, 0, 2, 3)
    return cols.reshape(c * kernel_h * kernel_w, n * out_h * out_w), out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col` (scatter-add of overlapping windows).

    ``cols`` has :func:`im2col`'s ``(C * kernel_h * kernel_w, N * out_h *
    out_w)`` layout; windows are accumulated kernel offset by kernel offset.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    cols = cols.reshape(c, kernel_h, kernel_w, n, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            window = cols[:, i, j].transpose(1, 0, 2, 3)
            padded[:, :, i:i_max:stride, j:j_max:stride] += window
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


class Conv2d(Module):
    """2D convolution with square kernels.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Side length of the (square) convolution kernel.
    stride, padding:
        Stride and zero padding applied symmetrically.
    bias:
        Whether to learn a per-output-channel additive bias.
    rng:
        Generator used for He initialization.
    """

    _forward_caches = ("_cache",)

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.he_normal((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)))
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        cols, out_h, out_w = im2col(
            x, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        n = x.shape[0]
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        if _contraction == "matmul":
            # One (O, K) @ (K, N * P) BLAS gemm for the whole batch.
            out_mat = weight_mat @ cols
        else:
            out_mat = np.einsum("ok,kq->oq", weight_mat, cols)
        # Bias add and (O, N, P) -> (N, O, P) transpose in one pass, into a
        # C-contiguous output: downstream reductions sum in memory order, so a
        # transposed view would change their last bits.
        by_sample = out_mat.reshape(self.out_channels, n, out_h * out_w).transpose(1, 0, 2)
        out = np.empty((n, self.out_channels, out_h * out_w))
        if self.has_bias:
            np.add(by_sample, self.bias.data[None, :, None], out=out)
        else:
            out[...] = by_sample
        self._cache = (cols, x.shape)
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cols, input_shape = self._cache
        n, _, out_h, out_w = grad_output.shape
        p = out_h * out_w
        grad_by_sample = np.asarray(grad_output, dtype=np.float64).reshape(
            n, self.out_channels, p
        )
        # (O, N * P), the layout of the forward gemm's output (reshaping the
        # transposed view copies it into C order).
        grad_mat = grad_by_sample.transpose(1, 0, 2).reshape(self.out_channels, n * p)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        # Parameter gradients.
        if _contraction == "matmul":
            # Per-sample (O, P) @ (P, K) gemms over strided views of the
            # shared columns, summed over the batch in sample order: one
            # (O, N * P) @ (N * P, K) gemm would sum in another order and
            # change the gradient's last bits.
            grad_weight = np.matmul(
                grad_by_sample, cols.reshape(-1, n, p).transpose(1, 2, 0)
            ).sum(axis=0)
        else:
            grad_weight = np.einsum("oq,kq->ok", grad_mat, cols)
        self.weight.grad += grad_weight.reshape(self.weight.data.shape)
        if self.has_bias:
            self.bias.grad += grad_by_sample.sum(axis=(0, 2))
        # Input gradient.
        if _contraction == "matmul":
            # One (K, O) @ (O, N * P) gemm for the whole batch.
            grad_cols = weight_mat.T @ grad_mat
        else:
            grad_cols = np.einsum("ok,oq->kq", weight_mat, grad_mat)
        return col2im(
            grad_cols,
            input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
