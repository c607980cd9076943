"""Base classes of the neural-network substrate.

``Parameter`` is a named tensor with an accompanying gradient buffer.
``Module`` is the base class for all layers and models; it handles parameter
and sub-module registration, training/evaluation mode, ``state_dict``
round-trips, and defines the layer-based ``forward``/``backward`` contract
used throughout the library:

* ``forward(x)`` computes the layer output and caches whatever the backward
  pass needs.
* ``backward(grad_output)`` accumulates parameter gradients (into
  ``Parameter.grad``) and returns the gradient with respect to the input.

In evaluation mode, :class:`Sequential` runs each Conv2d → GroupNorm → ReLU
triple through :func:`conv_block_forward`, which walks it one sample tile at
a time, writes no batch-sized intermediate and leaves the conv and the norm
nothing for ``backward``: a backward pass follows a training-mode forward.

Trainers that need to run a forward/backward pass through *perturbed* weights
(quantized and bit-error-injected weights, Alg. 1 of the paper) temporarily
swap ``Parameter.data`` and restore it afterwards; the gradients accumulated
during that pass are then applied to the clean floating-point weights exactly
as in the paper.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn import _threads

__all__ = ["Parameter", "Module", "Sequential", "conv_block_forward"]

#: Scratch bytes one thread's tile of a Conv2d → GroupNorm → ReLU walk may
#: fill.  Measured over 1-16 MiB on SimpleNet's blocks: the fastest at a
#: thread budget of 2, and within noise of the fastest at a budget of 1.
_BLOCK_TILE_BYTES = 4 << 20


class Parameter:
    """A trainable tensor with a gradient buffer.

    Parameters
    ----------
    data:
        Initial value.  Stored as ``float64`` for numerically stable gradient
        checks; the models in this repository are small enough that the extra
        precision costs little.
    name:
        Optional human-readable name, filled in by the owning module.
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zero."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for layers and models."""

    #: Attributes ``forward`` fills for ``backward``.  Pickling resets them to
    #: ``None``, their value at construction, so a pickled model never carries
    #: its last forward pass's activations.
    _forward_caches: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # -- registration ------------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            if not hasattr(self, "_parameters"):
                raise RuntimeError(
                    "Module.__init__() must be called before assigning parameters"
                )
            self._parameters[name] = value
            if not value.name:
                value.name = name
        elif isinstance(value, Module):
            if not hasattr(self, "_modules"):
                raise RuntimeError(
                    "Module.__init__() must be called before assigning sub-modules"
                )
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a sub-module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- parameter access --------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its sub-modules."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar weights (the paper's ``W``)."""
        return sum(p.size for p in self.parameters())

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs including ``self``."""
        yield (prefix.rstrip("."), self)
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def zero_grad(self) -> None:
        """Reset the gradient of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval mode -------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects BatchNorm statistics)."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode recursively."""
        return self.train(False)

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat ``{name: array}`` copy of all parameters and buffers."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, module in self.named_modules():
            prefix = f"{name}." if name else ""
            for buf_name, buf in getattr(module, "_buffers", {}).items():
                state[f"{prefix}{buf_name}"] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters (and buffers) from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name in params:
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].data.shape} vs {value.shape}"
                    )
                params[name].data[...] = value
        # Buffers (e.g. BatchNorm running statistics).
        for mod_name, module in self.named_modules():
            prefix = f"{mod_name}." if mod_name else ""
            buffers = getattr(module, "_buffers", None)
            if not buffers:
                continue
            for buf_name in list(buffers.keys()):
                key = f"{prefix}{buf_name}"
                if key in state:
                    buffers[buf_name] = np.asarray(state[key], dtype=np.float64).copy()

    # -- forward / backward -------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- pickling ------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        for name in self._forward_caches:
            state[name] = None
        return state


class Sequential(Module):
    """A module that chains sub-modules in order.

    In training mode every layer runs its own ``forward``.  In evaluation
    mode each Conv2d → GroupNorm → ReLU triple (those exact classes, in that
    order) goes through :func:`conv_block_forward` instead: same logits, bit
    for bit, without the conv and norm outputs ever being whole-batch
    arrays.  Every other layer, BatchNorm2d and MaxPool2d included, runs its
    own ``forward`` in both modes.
    """

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            self.register_module(f"layer{i}", layer)
            self.layers.append(layer)

    def append(self, layer: Module) -> None:
        """Append a layer at the end of the chain."""
        index = len(self.layers)
        self.register_module(f"layer{index}", layer)
        self.layers.append(layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        layers, index = self.layers, 0
        while index < len(layers):
            block = layers[index : index + 3]
            if not self.training and tuple(map(type, block)) == _conv_block_types():
                x = conv_block_forward(*block, x)
                index += 3
            else:
                x = layers[index](x)
                index += 1
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


@functools.lru_cache(maxsize=None)
def _conv_block_types() -> Tuple[type, type, type]:
    # Imported on first use: these modules import this one.
    from repro.nn.activations import ReLU
    from repro.nn.conv import Conv2d
    from repro.nn.normalization import GroupNorm

    return Conv2d, GroupNorm, ReLU


def conv_block_forward(conv, norm, relu, x: np.ndarray) -> np.ndarray:
    """Evaluation forward of a Conv2d → GroupNorm → ReLU triple, tile by tile.

    One :func:`~repro.nn._threads.spread` region walks the batch in tiles of
    whole samples.  Per tile, ``conv._forward_tile`` writes the convolution
    into this thread's scratch, ``norm._normalize_tile`` normalizes it there
    in place, and ReLU's ``fmax`` writes the tile's slice of the one
    batch-sized output.  Those are the kernels, and the numpy operations in
    the same order, that the three layers' own ``forward`` run, so the
    output is theirs bit for bit; the input checks are theirs too.

    A tile holds as many samples as fit :data:`_BLOCK_TILE_BYTES` (at least
    one) with their columns (K·P), conv product (O·P), conv output (O·P)
    and the norm's centered values and squares (2·O·P), the five disjoint
    slices the walk carves from the thread's scratch.

    ReLU's cache gets the output, as its own forward leaves it.  The conv's
    and the norm's caches are dropped, so a ``backward`` after this raises
    instead of reading an older training forward's activations.
    """
    x, out_h, out_w = conv._checked(x)
    norm._check_channels(conv.out_channels)
    n, o, p = len(x), conv.out_channels, out_h * out_w
    rows = conv.in_channels * conv.kernel_size * conv.kernel_size
    tile = max(1, _BLOCK_TILE_BYTES // (8 * (rows + 4 * o) * p))
    out = np.empty((n, o, p))

    def run(first: int, last: int) -> None:
        size = min(tile, last - first)
        scratch = _threads.scratch(size * (rows + 4 * o) * p)
        conv_scratch = scratch[: size * (rows + o) * p]
        conv_out = scratch[size * (rows + o) * p : size * (rows + 2 * o) * p]
        norm_scratch = scratch[size * (rows + 2 * o) * p :]
        mean, inv_std = np.empty((2, size, norm.num_groups, 1))
        for start in range(first, last, tile):
            stop = min(start + tile, last)
            tile_out = conv_out[: (stop - start) * o * p].reshape(stop - start, o, p)
            conv._forward_tile(x[start:stop], tile_out, conv_scratch)
            norm._normalize_tile(tile_out, tile_out, mean[: stop - start],
                                 inv_std[: stop - start], norm_scratch)
            np.fmax(tile_out, 0.0, out=out[start:stop])

    _threads.spread(n, tile, run)
    conv._cache = norm._cache = None
    relu._output = out.reshape(n, o, out_h, out_w)
    return relu._output
