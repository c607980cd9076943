"""Tests for the model zoo and registry."""

import numpy as np
import pytest

from repro.models import (
    MLP,
    LeNet,
    ResNet,
    SimpleNet,
    WideResNet,
    build_model,
    list_models,
    model_summary,
    register_model,
)
from repro.models.common import make_norm
from repro.nn import BatchNorm2d, GroupNorm, Identity
from repro.nn.losses import CrossEntropyLoss


@pytest.fixture
def image_batch(rng):
    return rng.normal(size=(4, 3, 16, 16))


def _forward_backward(model, x, num_classes=10):
    logits = model(x)
    assert logits.shape == (x.shape[0], num_classes)
    labels = np.zeros(x.shape[0], dtype=np.int64)
    _, grad = CrossEntropyLoss()(logits, labels)
    grad_in = model.backward(grad)
    assert grad_in.shape == x.shape
    assert any(np.abs(p.grad).sum() > 0 for p in model.parameters())


def test_mlp_forward_backward(rng):
    model = MLP(in_features=20, num_classes=5, hidden=(16, 8), rng=rng)
    x = rng.normal(size=(6, 20))
    logits = model(x)
    assert logits.shape == (6, 5)
    _, grad = CrossEntropyLoss()(logits, np.zeros(6, dtype=np.int64))
    assert model.backward(grad).shape == x.shape


def test_mlp_flattens_image_input(rng):
    model = MLP(in_features=3 * 8 * 8, num_classes=4, hidden=(8,), rng=rng)
    assert model(rng.normal(size=(2, 3, 8, 8))).shape == (2, 4)


def test_lenet_forward_backward(rng):
    model = LeNet(in_channels=1, num_classes=10, width=4, rng=rng)
    x = rng.normal(size=(3, 1, 16, 16))
    _forward_backward(model, x)


def test_simplenet_forward_backward(rng, image_batch):
    model = SimpleNet(in_channels=3, num_classes=10, widths=(8, 16), convs_per_stage=1, rng=rng)
    _forward_backward(model, image_batch)


def test_resnet_forward_backward(rng, image_batch):
    model = ResNet(in_channels=3, num_classes=10, widths=(8, 16), blocks_per_stage=1, rng=rng)
    _forward_backward(model, image_batch)


def test_wideresnet_forward_backward(rng, image_batch):
    model = WideResNet(in_channels=3, num_classes=10, base_width=4, widen_factor=2, rng=rng)
    _forward_backward(model, image_batch)


@pytest.mark.parametrize("norm", ["gn", "bn", "bn-batchstats", "none"])
def test_norm_choices(norm, rng, image_batch):
    model = SimpleNet(in_channels=3, num_classes=10, widths=(8,), convs_per_stage=1, norm=norm, rng=rng)
    assert model(image_batch).shape == (4, 10)


def test_make_norm_types():
    assert isinstance(make_norm("gn", 8), GroupNorm)
    assert isinstance(make_norm("bn", 8), BatchNorm2d)
    assert isinstance(make_norm("none", 8), Identity)
    bn = make_norm("bn-batchstats", 8)
    assert isinstance(bn, BatchNorm2d) and bn.use_batch_stats_at_eval
    with pytest.raises(ValueError):
        make_norm("unknown", 8)


def test_make_norm_adjusts_group_count():
    # 6 channels is not divisible by the default 4 groups; must not raise.
    norm = make_norm("gn", 6)
    assert isinstance(norm, GroupNorm)
    assert 6 % norm.num_groups == 0


def test_registry_contains_default_models():
    names = list_models()
    for expected in ("mlp", "lenet", "simplenet", "resnet", "wideresnet"):
        assert expected in names


def test_build_model_and_summary(rng):
    model = build_model("lenet", in_channels=1, num_classes=4, width=4, rng=rng)
    summary = model_summary(model)
    assert summary["class"] == "LeNet"
    assert summary["num_parameters"] == model.num_parameters()
    assert summary["num_parameters"] > 0


def test_build_unknown_model_raises():
    with pytest.raises(KeyError):
        build_model("does-not-exist")


def test_register_duplicate_raises():
    with pytest.raises(ValueError):
        register_model("mlp", MLP)


def test_resnet_shortcut_on_channel_change(rng):
    from repro.models.resnet import ResidualBlock

    block = ResidualBlock(4, 8, downsample=True, rng=rng)
    x = rng.normal(size=(2, 4, 8, 8))
    out = block(x)
    assert out.shape == (2, 8, 4, 4)
    grad = block.backward(np.ones_like(out))
    assert grad.shape == x.shape


#: Small constructor arguments for every registered model.
SMALL = {
    "mlp": dict(in_features=3 * 8 * 8, num_classes=10, hidden=(16, 8)),
    "lenet": dict(in_channels=3, width=4),
    "simplenet": dict(widths=(4, 8)),
    "resnet": dict(widths=(4, 8)),
    "wideresnet": dict(base_width=2, widen_factor=2),
}
#: Registered models that take no ``norm`` argument.
NO_NORM = {"mlp"}


@pytest.mark.parametrize("name, norm", [
    (name, norm) for name in list_models()
    for norm in ((None,) if name in NO_NORM else ("gn", "none"))
])
def test_eval_logits_equal_training_logits_bit_for_bit(name, norm):
    """GroupNorm keeps no running statistics, so both modes compute the same
    function: the eval forward (which walks each Conv2d → GroupNorm → ReLU
    block tile by tile) must reproduce the per-layer training forward."""
    kwargs = dict(SMALL[name], rng=np.random.default_rng(0))
    if norm is not None:
        kwargs["norm"] = norm
    model = build_model(name, **kwargs)
    x = np.random.default_rng(1).normal(size=(5, 3, 8, 8))
    train_logits = model.train()(x)
    eval_logits = model.eval()(x)
    assert eval_logits.tobytes() == train_logits.tobytes()
