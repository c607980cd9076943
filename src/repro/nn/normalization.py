"""Normalization layers: group normalization and batch normalization.

Both layers implement the scale reparameterization from App. E of the paper:
the learnable scale is stored as an auxiliary parameter ``alpha'`` and applied
as ``alpha = 1 + alpha'``.  With aggressive weight clipping (e.g.
``w_max = 0.1``) a conventionally-parameterized scale could never reach its
natural default of 1; the reparameterization keeps the identity function
representable while the stored parameter stays inside the clipping range.

``BatchNorm2d`` additionally supports evaluating with *batch* statistics at
test time (``use_batch_stats_at_eval=True``), which Table 10 of the paper uses
to show that the accumulated running statistics are what make BN fragile
under random bit errors.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn import _threads
from repro.nn.module import Module, Parameter

__all__ = ["GroupNorm", "BatchNorm2d"]

#: Input bytes one ``GroupNorm`` tile may hold, so its centered values and
#: squares stay cached between the statistics and the output.
_TILE_BYTES = 1 << 19


class GroupNorm(Module):
    """Group normalization over ``(N, C, H, W)`` inputs.

    Parameters
    ----------
    num_groups:
        Number of channel groups; must divide ``num_channels``.
    num_channels:
        Number of input channels.
    eps:
        Numerical stabilizer added to the variance.
    affine:
        Whether to learn per-channel scale and bias.
    reparameterize:
        If ``True`` (default, as in the paper) the effective scale is
        ``1 + scale`` so the stored parameter can be clipped around zero.
    """

    _forward_caches = ("_cache",)

    def __init__(
        self,
        num_groups: int,
        num_channels: int,
        eps: float = 1e-5,
        affine: bool = True,
        reparameterize: bool = True,
    ):
        super().__init__()
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels ({num_channels}) must be divisible by "
                f"num_groups ({num_groups})"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.affine = affine
        self.reparameterize = reparameterize
        if affine:
            self.scale = Parameter(np.zeros(num_channels) if reparameterize else np.ones(num_channels))
            self.bias = Parameter(np.zeros(num_channels))
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def effective_scale(self) -> np.ndarray:
        """Return the scale actually applied to the normalized activations."""
        if not self.affine:
            return np.ones(self.num_channels)
        if self.reparameterize:
            return 1.0 + self.scale.data
        return self.scale.data

    def _check_channels(self, channels: int) -> None:
        if channels != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {channels}")

    def _normalize_tile(
        self,
        x: np.ndarray,
        out: np.ndarray,
        mean: np.ndarray,
        inv_std: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """Normalize the samples ``x`` into ``out``, both ``(m, C, P)`` arrays.

        The forward's tile kernel, shared by :meth:`forward` and the eval
        block walk (:func:`repro.nn.module.conv_block_forward`), which passes
        ``out=x`` to normalize in place.  The per-sample group statistics go
        into ``mean`` and ``inv_std``, ``(m, G, 1)`` each; ``scratch`` holds
        the centered values and their squares, ``2 * x.size`` float64s.  The
        reductions ``mean()`` and ``var()`` run (sum / count, squares sum /
        count), then x_hat goes straight into ``out`` and the affine map is
        applied in place.  Statistics are per sample, so tiles of whole
        samples change no bit.
        """
        size, g = len(x), self.num_groups
        grouped = x.reshape(size, g, -1)
        m = grouped.shape[2]
        centered_buffer, squares_buffer = scratch[: 2 * x.size].reshape(2, size, g, m)
        block_mean = np.divide(grouped.sum(axis=2, keepdims=True), m, out=mean)
        centered = np.subtract(grouped, block_mean, out=centered_buffer)
        squares = np.multiply(centered, centered, out=squares_buffer)
        var = squares.sum(axis=2, keepdims=True) / m
        block_inv_std = np.divide(1.0, np.sqrt(var + self.eps), out=inv_std)
        np.multiply(centered, block_inv_std, out=out.reshape(size, g, m))
        if self.affine:
            out *= self.effective_scale()[None, :, None]
            out += self.bias.data[None, :, None]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        self._check_channels(c)
        g = self.num_groups
        mean = np.empty((n, g, 1))
        inv_std = np.empty((n, g, 1))
        by_sample = x.reshape(n, c, -1)
        out = np.empty((n, c, h * w))
        tile = _threads.sample_tile(x, _TILE_BYTES)

        # Tiles of at most _TILE_BYTES keep the centered values and squares
        # cached between the statistics and the output.  Only the output is
        # batch-sized: backward recomputes x_hat from the cached input with
        # the same two operations.
        def run(first: int, last: int) -> None:
            scratch = _threads.scratch(2 * min(tile, last - first) * c * h * w)
            for start in range(first, last, tile):
                block = slice(start, min(start + tile, last))
                self._normalize_tile(by_sample[block], out[block], mean[block],
                                     inv_std[block], scratch)

        _threads.spread(n, tile, run)
        self._cache = (x, mean, inv_std)
        return out.reshape(n, c, h, w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x, mean, inv_std = self._cache
        n, c, h, w = x.shape
        g = self.num_groups
        grad_output = np.asarray(grad_output, dtype=np.float64)
        grouped = x.reshape(n, g, -1)
        m = grouped.shape[2]
        grad_input = np.empty((n, c, h, w))
        if self.affine:
            gamma = self.effective_scale()[None, :, None, None]
            # grad_output * x_hat, summed over the batch after the region.
            products = np.empty((n, c, h, w))
        tile = _threads.sample_tile(x, _TILE_BYTES)

        # Per tile: x_hat with forward's two operations, then the input
        # gradient (inv_std / m) * (m * dx_hat - sum(dx_hat)
        # - x_hat * sum(dx_hat * x_hat)), one operation at a time in that
        # order, the per-group sums reducing each sample's groups alone.
        def run(first: int, last: int) -> None:
            scratch = _threads.scratch(3 * min(tile, last - first) * g * m)
            x_hat_buffer, grad_x_hat_buffer, temp_buffer = scratch.reshape(3, -1, g, m)
            for start in range(first, last, tile):
                stop = min(start + tile, last)
                size = stop - start
                x_hat = np.subtract(grouped[start:stop], mean[start:stop], out=x_hat_buffer[:size])
                x_hat *= inv_std[start:stop]
                block_grad = grad_output[start:stop]
                if self.affine:
                    np.multiply(block_grad, x_hat.reshape(size, c, h, w), out=products[start:stop])
                    grad_x_hat = grad_x_hat_buffer[:size]
                    np.multiply(block_grad, gamma, out=grad_x_hat.reshape(size, c, h, w))
                else:
                    grad_x_hat = block_grad.reshape(size, g, m)
                sum_grad = grad_x_hat.sum(axis=2, keepdims=True)
                temp = np.multiply(grad_x_hat, x_hat, out=temp_buffer[:size])
                sum_grad_xhat = temp.sum(axis=2, keepdims=True)
                block_out = np.multiply(m, grad_x_hat, out=grad_input[start:stop].reshape(size, g, m))
                block_out -= sum_grad
                block_out -= np.multiply(x_hat, sum_grad_xhat, out=temp)
                np.multiply(inv_std[start:stop] / m, block_out, out=block_out)

        _threads.spread(n, tile, run)
        if self.affine:
            self.scale.grad += products.sum(axis=(0, 2, 3))
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
        return grad_input


class BatchNorm2d(Module):
    """Batch normalization over ``(N, C, H, W)`` inputs.

    Parameters
    ----------
    num_channels:
        Number of input channels.
    momentum:
        Running-statistics update factor (``new = (1 - momentum) * old +
        momentum * batch``).
    use_batch_stats_at_eval:
        If ``True`` the layer normalizes with the current batch statistics
        even in evaluation mode (Table 10 of the paper).
    """

    _forward_caches = ("_cache",)

    def __init__(
        self,
        num_channels: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        affine: bool = True,
        reparameterize: bool = True,
        use_batch_stats_at_eval: bool = False,
    ):
        super().__init__()
        self.num_channels = num_channels
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        self.reparameterize = reparameterize
        self.use_batch_stats_at_eval = use_batch_stats_at_eval
        if affine:
            self.scale = Parameter(np.zeros(num_channels) if reparameterize else np.ones(num_channels))
            self.bias = Parameter(np.zeros(num_channels))
        self._buffers: Dict[str, np.ndarray] = {
            "running_mean": np.zeros(num_channels),
            "running_var": np.ones(num_channels),
        }
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None

    @property
    def running_mean(self) -> np.ndarray:
        return self._buffers["running_mean"]

    @property
    def running_var(self) -> np.ndarray:
        return self._buffers["running_var"]

    def effective_scale(self) -> np.ndarray:
        """Return the scale actually applied to the normalized activations."""
        if not self.affine:
            return np.ones(self.num_channels)
        if self.reparameterize:
            return 1.0 + self.scale.data
        return self.scale.data

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        use_batch_stats = self.training or self.use_batch_stats_at_eval
        if use_batch_stats:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            if self.training:
                self._buffers["running_mean"] = (
                    (1.0 - self.momentum) * self._buffers["running_mean"]
                    + self.momentum * mean
                )
                self._buffers["running_var"] = (
                    (1.0 - self.momentum) * self._buffers["running_var"]
                    + self.momentum * var
                )
        else:
            mean = self._buffers["running_mean"]
            var = self._buffers["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, use_batch_stats)
        if not self.affine:
            return x_hat
        gamma = self.effective_scale()[None, :, None, None]
        beta = self.bias.data[None, :, None, None]
        return gamma * x_hat + beta

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x_hat, inv_std, used_batch_stats = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, c, h, w = grad_output.shape

        if self.affine:
            self.scale.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
            gamma = self.effective_scale()[None, :, None, None]
            grad_x_hat = grad_output * gamma
        else:
            grad_x_hat = grad_output

        if not used_batch_stats:
            # Statistics are constants; the normalization is a fixed affine map.
            return grad_x_hat * inv_std[None, :, None, None]

        m = n * h * w
        sum_grad = grad_x_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_grad_xhat = (grad_x_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        return (inv_std[None, :, None, None] / m) * (
            m * grad_x_hat - sum_grad - x_hat * sum_grad_xhat
        )
