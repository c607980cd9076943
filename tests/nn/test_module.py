"""Tests for the Module/Parameter base classes."""

import pickle

import numpy as np
import pytest

from repro.models import SimpleNet
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)


class ToyModule(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 3)))
        self.child = Linear(3, 2, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.child(x @ self.weight.data)

    def backward(self, grad):
        grad = self.child.backward(grad)
        return grad @ self.weight.data.T


def test_parameter_registration_and_names():
    module = ToyModule()
    names = [name for name, _ in module.named_parameters()]
    assert "weight" in names
    assert "child.weight" in names
    assert "child.bias" in names


def test_parameter_shape_and_size():
    param = Parameter(np.zeros((3, 4)), name="p")
    assert param.shape == (3, 4)
    assert param.size == 12


def test_num_parameters_counts_all_scalars():
    module = ToyModule()
    expected = 2 * 3 + 3 * 2 + 2
    assert module.num_parameters() == expected


def test_zero_grad_resets_gradients():
    module = ToyModule()
    for param in module.parameters():
        param.grad += 1.0
    module.zero_grad()
    for param in module.parameters():
        assert np.all(param.grad == 0.0)


def test_train_eval_propagates_to_children():
    module = ToyModule()
    module.eval()
    assert not module.training
    assert not module.child.training
    module.train()
    assert module.training and module.child.training


def test_state_dict_round_trip():
    module = ToyModule()
    state = module.state_dict()
    other = ToyModule()
    # Perturb then load.
    for param in other.parameters():
        param.data += 1.0
    other.load_state_dict(state)
    for (_, a), (_, b) in zip(module.named_parameters(), other.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_load_state_dict_shape_mismatch_raises():
    module = ToyModule()
    state = module.state_dict()
    state["weight"] = np.zeros((5, 5))
    with pytest.raises(ValueError):
        module.load_state_dict(state)


def test_assign_parameter_before_init_raises():
    class Broken(Module):
        def __init__(self):
            self.weight = Parameter(np.zeros(3))

    with pytest.raises(RuntimeError):
        Broken()


def test_sequential_forward_backward_and_indexing():
    rng = np.random.default_rng(0)
    model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
    assert len(model) == 3
    assert isinstance(model[1], ReLU)
    x = rng.normal(size=(5, 4))
    out = model(x)
    assert out.shape == (5, 2)
    grad_in = model.backward(np.ones_like(out))
    assert grad_in.shape == x.shape


def test_sequential_append():
    model = Sequential(Linear(4, 4, rng=np.random.default_rng(0)))
    model.append(ReLU())
    assert len(model) == 2
    assert len(model.parameters()) == 2  # weight + bias of the linear layer


def test_named_modules_includes_nested():
    module = ToyModule()
    names = [name for name, _ in module.named_modules()]
    assert "" in names
    assert "child" in names


# -- pickling drops per-forward caches ----------------------------------------


def _simplenet():
    return SimpleNet(widths=(4, 8), rng=np.random.default_rng(0)), (3, 3, 8, 8)


def _every_cached_layer():
    model = Sequential(
        Conv2d(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(0)),
        BatchNorm2d(4),
        ReLU(),
        MaxPool2d(2),
        LeakyReLU(),
        AvgPool2d(2),
        Sigmoid(),
        Flatten(),
        Linear(16, 5, rng=np.random.default_rng(1)),
        Tanh(),
    )
    return model.eval(), (3, 3, 8, 8)


@pytest.mark.parametrize("build", [_simplenet, _every_cached_layer])
def test_pickle_is_unchanged_by_a_forward_pass(build):
    model, shape = build()
    x = np.random.default_rng(2).normal(size=shape)
    before = pickle.dumps(model)
    logits = model(x)
    assert pickle.dumps(model) == before  # no activations travel
    restored = pickle.loads(before)
    np.testing.assert_array_equal(restored(x), logits)
    # Pickling leaves the live model's caches alone: backward still works.
    model.backward(np.ones_like(logits))
