"""2D convolution implemented via im2col / col2im.

The im2col transformation unrolls every receptive field of a batch into one
``(C * kh * kw, N * OH * OW)`` column matrix, so a convolution is a single
matrix multiplication — the standard vectorized NumPy formulation.
``im2col`` / ``col2im`` are exposed as module-level functions so pooling
layers and tests can reuse them.

``Conv2d`` walks the batch in tiles of whole samples whose columns fit a
fixed byte budget (half of a typical 2 MiB per-core L2; at least one
sample), spread over the process's thread budget (see
:mod:`repro.nn._threads`).  Forward gathers each tile into the running
thread's scratch buffer, multiplies it by one ``(O, K) @ (K, m * P)`` GEMM
into a second tile-sized buffer, and writes it with the bias add and the
``(O, m, P) -> (m, O, P)`` transpose into its slice of the C-contiguous
output.  The layer caches its input, not its columns.  Backward gathers
each tile again, runs the per-sample weight-gradient GEMMs into one
``(N, O, K)`` buffer, runs one ``(K, O) @ (O, m * P)`` input-gradient GEMM
into the columns' scratch and scatters it with :func:`col2im` into the
tile's slice of the input gradient; the ``(N, O, K)`` buffer is summed over
the batch in sample order after the tiles.  Scratch memory therefore scales
with the tile, not with ``N * K * P``.  Every output element is the same
dot product over ``K`` (or ``O``) in the same order as with per-sample
GEMMs, so neither tiling nor threads change a bit.

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

from repro.nn import _threads, init
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

#: Column bytes one ``Conv2d`` tile may hold: half of a typical 2 MiB
#: per-core L2, so a tile's columns are still cached when its GEMM reads them.
_TILE_BYTES = 1 << 20


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


def _output_hw(
    shape: Tuple[int, ...], kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[int, int]:
    out_h = conv_output_size(shape[2], kernel_h, stride, padding)
    out_w = conv_output_size(shape[3], kernel_w, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"im2col produced non-positive output size for input {tuple(shape)} "
            f"with kernel ({kernel_h},{kernel_w}), stride {stride}, padding {padding}"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    method: str = "strided",
    *,
    out: Optional[np.ndarray] = None,
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
    out:
        Optional C-contiguous array of the result's shape and dtype to
        gather into (a caller's scratch buffer); a new one otherwise.

    Returns
    -------
    cols:
        C-contiguous array of shape
        ``(C * kernel_h * kernel_w, N * out_h * out_w)``, sharing no memory
        with ``x`` (``out`` itself when given).
    out_h, out_w:
        Spatial output size.
    """
    if method not in IM2COL_METHODS:
        raise ValueError(f"unknown im2col method {method!r}; choose from {IM2COL_METHODS}")
    n, c, h, w = x.shape
    out_h, out_w = _output_hw(x.shape, kernel_h, kernel_w, stride, padding)
    shape = (c * kernel_h * kernel_w, n * out_h * out_w)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif out.shape != shape or out.dtype != x.dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"im2col out= must be a C-contiguous {x.dtype} array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    # Zeros plus one interior copy: np.pad's bookkeeping costs more than the
    # copy on a tile of a few samples.
    x_padded = x
    if padding:
        x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        x_padded[:, :, padding : padding + h, padding : padding + w] = x
    cols = out.reshape(c, kernel_h, kernel_w, n, out_h, out_w)
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
    return out, out_h, out_w


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

    def _samples_per_tile(self, positions: int) -> int:
        """Whole samples per tile: their columns fit ``_TILE_BYTES`` (at least 1)."""
        rows = self.in_channels * self.kernel_size * self.kernel_size
        return max(1, _TILE_BYTES // (rows * positions * 8))

    def _tiles(
        self, x: np.ndarray, positions: int, first: int, last: int
    ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(start, stop, columns, spare)`` per tile of samples ``[first, last)``.

        ``columns`` holds the tile's im2col matrix and ``spare`` has room for
        an ``(O, m * P)`` matrix; both are views of this thread's scratch.
        """
        k = self.kernel_size
        rows = self.in_channels * k * k
        tile = self._samples_per_tile(positions)
        buffer = _threads.scratch(
            min(tile, last - first) * (rows + self.out_channels) * positions
        )
        for start in range(first, last, tile):
            stop = min(start + tile, last)
            width = (stop - start) * positions
            cols = buffer[: rows * width].reshape(rows, width)
            spare = buffer[rows * width : (rows + self.out_channels) * width]
            im2col(x[start:stop], k, k, self.stride, self.padding, out=cols)
            yield start, stop, cols, spare.reshape(self.out_channels, width)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        k = self.kernel_size
        out_h, out_w = _output_hw(x.shape, k, k, self.stride, self.padding)
        n, p = x.shape[0], out_h * out_w
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        out = np.empty((n, self.out_channels, p))

        def run(first: int, last: int) -> None:
            for start, stop, cols, product in self._tiles(x, p, first, last):
                if _contraction == "matmul":
                    # One (O, K) @ (K, m * P) BLAS gemm per tile of m samples.
                    np.matmul(weight_mat, cols, out=product)
                else:
                    np.einsum("ok,kq->oq", weight_mat, cols, out=product)
                # Bias add and (O, m, P) -> (m, O, P) transpose in one pass,
                # into the tile's slice of the C-contiguous output: downstream
                # reductions sum in memory order, so a transposed view would
                # change their last bits.
                by_sample = product.reshape(self.out_channels, stop - start, p).transpose(1, 0, 2)
                if self.has_bias:
                    np.add(by_sample, self.bias.data[None, :, None], out=out[start:stop])
                else:
                    out[start:stop] = by_sample

        _threads.spread(n, self._samples_per_tile(p), run)
        self._cache = (x, x.shape)
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x, input_shape = self._cache
        n, _, out_h, out_w = grad_output.shape
        p = out_h * out_w
        grad_by_sample = np.asarray(grad_output, dtype=np.float64).reshape(
            n, self.out_channels, p
        )
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        k = self.kernel_size
        per_sample = np.empty((n,) + weight_mat.shape)
        grad_input = np.empty(input_shape)

        def run(first: int, last: int) -> None:
            for start, stop, cols, grad_mat in self._tiles(x, p, first, last):
                grads = grad_by_sample[start:stop]
                columns = cols.reshape(-1, stop - start, p)
                # Per-sample (O, P) @ (P, K) weight-gradient gemms over strided
                # views of the tile's columns, summed over the batch below.
                if _contraction == "matmul":
                    np.matmul(grads, columns.transpose(1, 2, 0), out=per_sample[start:stop])
                else:
                    np.einsum("nop,knp->nok", grads, columns, out=per_sample[start:stop])
                # Input gradient: the tile's (O, m * P) gradients, one
                # (K, O) @ (O, m * P) gemm into the columns' scratch, then
                # col2im into the tile's slice of the input gradient.
                np.copyto(grad_mat.reshape(self.out_channels, stop - start, p),
                          grads.transpose(1, 0, 2))
                if _contraction == "matmul":
                    np.matmul(weight_mat.T, grad_mat, out=cols)
                else:
                    np.einsum("ok,oq->kq", weight_mat, grad_mat, out=cols)
                grad_input[start:stop] = col2im(
                    cols, (stop - start,) + input_shape[1:], k, k, self.stride, self.padding
                )

        _threads.spread(n, self._samples_per_tile(p), run)
        # Summed over the batch in sample order after the region: one
        # (O, N * P) @ (N * P, K) gemm would sum in another order and change
        # the gradient's last bits.
        self.weight.grad += per_sample.sum(axis=0).reshape(self.weight.data.shape)
        if self.has_bias:
            self.bias.grad += grad_by_sample.sum(axis=(0, 2))
        return grad_input
