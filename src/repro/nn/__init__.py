"""From-scratch, NumPy-based neural network substrate.

This package replaces the PyTorch substrate used by the paper.  It provides
layer-based forward/backward propagation (no tape autograd), which is all the
paper's feed-forward classifiers need, plus the specific components the paper
relies on: group normalization with the ``alpha = 1 + alpha'`` scale
reparameterization (App. E), batch normalization with the option of using
batch statistics at test time (Table 10), and cross-entropy with the paper's
label-smoothing variant (Sec. 5.2).
"""

from repro.nn import init
from repro.nn.activations import Identity, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.conv import Conv2d
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.losses import CrossEntropyLoss, accuracy, log_softmax, softmax
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.normalization import BatchNorm2d, GroupNorm
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "GroupNorm",
    "BatchNorm2d",
    "Flatten",
    "CrossEntropyLoss",
    "softmax",
    "log_softmax",
    "accuracy",
    "init",
]
