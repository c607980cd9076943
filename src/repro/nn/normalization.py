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

from repro.nn.module import Module, Parameter

__all__ = ["GroupNorm", "BatchNorm2d"]


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
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]] = None

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
        g = self.num_groups
        grouped = x.reshape(n, g, -1)
        m = grouped.shape[2]
        # The reductions ``mean()`` and ``var()`` run, each done once, so the
        # statistics are bit-identical to theirs.  The centered buffer turns
        # into x_hat in place; the squares buffer takes the affine output.
        mean = grouped.sum(axis=2, keepdims=True) / m
        centered = grouped - mean
        squares = centered * centered
        var = squares.sum(axis=2, keepdims=True) / m
        inv_std = 1.0 / np.sqrt(var + self.eps)
        centered *= inv_std
        x_hat = centered.reshape(n, c, h, w)
        self._cache = (x_hat, inv_std, x.shape)
        if not self.affine:
            return x_hat
        gamma = self.effective_scale()[None, :, None, None]
        beta = self.bias.data[None, :, None, None]
        out = np.multiply(gamma, x_hat, out=squares.reshape(n, c, h, w))
        out += beta
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x_hat, inv_std, input_shape = self._cache
        n, c, h, w = input_shape
        g = self.num_groups
        grad_output = np.asarray(grad_output, dtype=np.float64)

        if self.affine:
            self.scale.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
            gamma = self.effective_scale()[None, :, None, None]
            grad_x_hat = grad_output * gamma
        else:
            grad_x_hat = grad_output

        grad_x_hat = grad_x_hat.reshape(n, g, -1)
        x_hat_g = x_hat.reshape(n, g, -1)
        m = grad_x_hat.shape[2]
        sum_grad = grad_x_hat.sum(axis=2, keepdims=True)
        sum_grad_xhat = (grad_x_hat * x_hat_g).sum(axis=2, keepdims=True)
        grad_grouped = (inv_std / m) * (
            m * grad_x_hat - sum_grad - x_hat_g * sum_grad_xhat
        )
        return grad_grouped.reshape(n, c, h, w)


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
