"""Golden-trajectory regression tests for the training hot path.

Short, fully seeded RandBET and PattBET runs whose final weights and loss
history are pinned by an :func:`~repro.utils.serialization.array_digest` —
recorded from the pre-refactor (seed) implementation.  The default
configuration (``error_draw="dense"``) is required to stay *bit-identical*
across hot-path refactors: a digest mismatch means the per-step numerics or
the RNG stream of Alg. 1 changed, which silently invalidates every seeded
experiment in the repository.

The runs use MLP models on purpose: ``Linear`` multiplies through
``np.dot``, whose reduction order is stable, whereas a Conv2d result depends
on the host's BLAS kernels (the GEMM's blocking and vector width set its
reduction order), so a conv digest would differ between hosts; Conv2d is
validated against loop oracles by tolerance elsewhere.  The digests are
floating-point exact and
therefore BLAS-build sensitive; if a digest mismatches on an exotic
platform while the rest of the suite (including the trainer parity tests)
passes, re-record by calling ``run_randbet()`` / ``run_pattbet()`` from this
module and updating the ``GOLDEN`` constants — in a commit that says so.
"""

import numpy as np
import pytest

from repro.biterror import BitErrorField, ChipProfile
from repro.core import PattBETConfig, PattBETTrainer, RandBETConfig, RandBETTrainer
from repro.data import make_blob_dataset, train_test_split
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant
from repro.utils.serialization import array_digest

# Digests recorded from the seed implementation (PR 2 state) of the default
# dense-draw training path.
GOLDEN = {
    "randbet_standard": "2d28d5c25a59f413f3ea1c365d15d4ba863bec7fd167b2e71608b4a3deafb0ed",
    "randbet_alternating": "a73b44fa868ace190b30fdff70cf47f766ca187d7efa4e166a534a9552d5ca58",
    "pattbet_field": "eb4c86019aafe331a8b070ac73dc163fe7250d66b396c43e38a5e0f01b0864b1",
    "pattbet_chip": "381f809b148fd58c9eea0d7fa140ae95dccd6460c91880194a97a062c352feee",
}


def golden_data():
    dataset = make_blob_dataset(
        num_classes=4,
        samples_per_class=40,
        num_features=12,
        separation=3.5,
        rng=np.random.default_rng(7),
    )
    train, _ = train_test_split(dataset, test_fraction=0.25, rng=np.random.default_rng(8))
    return train


def golden_model():
    return MLP(in_features=12, num_classes=4, hidden=(24,), rng=np.random.default_rng(0))


def trajectory_digest(trainer, model, train):
    history = trainer.train(train)
    weights = np.concatenate([p.data.reshape(-1) for p in model.parameters()])
    losses = np.asarray(history.epoch_losses, dtype=np.float64)
    return array_digest(weights, losses)


def run_randbet(**overrides):
    train = golden_data()
    model = golden_model()
    config_kwargs = dict(
        epochs=4,
        batch_size=16,
        learning_rate=0.05,
        seed=1,
        bit_error_rate=0.02,
        start_loss_threshold=100.0,
        clip_w_max=0.2,
    )
    config_kwargs.update(overrides)
    config = RandBETConfig(**config_kwargs)
    trainer = RandBETTrainer(model, FixedPointQuantizer(rquant(8)), config)
    return trajectory_digest(trainer, model, train)


def run_pattbet(pattern_kind, **overrides):
    train = golden_data()
    model = golden_model()
    config_kwargs = dict(
        epochs=4,
        batch_size=16,
        learning_rate=0.05,
        seed=1,
        bit_error_rate=0.02,
        start_loss_threshold=100.0,
        clip_w_max=0.2,
        memory_offset=3 if pattern_kind == "chip" else 0,
    )
    config_kwargs.update(overrides)
    config = PattBETConfig(**config_kwargs)
    num_weights = sum(p.data.size for p in model.parameters())
    if pattern_kind == "field":
        pattern = BitErrorField(num_weights, 8, np.random.default_rng(5))
    else:
        pattern = ChipProfile(
            rows=128,
            columns=64,
            column_alignment=0.4,
            stuck_at_one_fraction=0.7,
            seed=11,
        )
    trainer = PattBETTrainer(model, FixedPointQuantizer(rquant(8)), config, pattern)
    return trajectory_digest(trainer, model, train)


def test_randbet_standard_trajectory_is_golden():
    assert run_randbet() == GOLDEN["randbet_standard"]


def test_randbet_alternating_trajectory_is_golden():
    assert run_randbet(variant="alternating") == GOLDEN["randbet_alternating"]


def test_pattbet_field_trajectory_is_golden():
    assert run_pattbet("field") == GOLDEN["pattbet_field"]


def test_pattbet_chip_trajectory_is_golden():
    assert run_pattbet("chip") == GOLDEN["pattbet_chip"]


def test_sparse_draw_changes_the_randbet_trajectory():
    """The sparse draw is a *flagged* RNG-stream change: same distribution,
    different stream, therefore a different (but still deterministic)
    seeded trajectory."""
    sparse_a = run_randbet(error_draw="sparse")
    sparse_b = run_randbet(error_draw="sparse")
    assert sparse_a == sparse_b
    assert sparse_a != GOLDEN["randbet_standard"]


@pytest.mark.parametrize("pattern_kind", ["field", "chip"])
def test_pattbet_sparse_path_is_bit_identical(pattern_kind):
    """PattBET's pattern is fixed (no RNG per step), so the sparse delta
    de-quantization path must reproduce the dense trajectory exactly."""
    assert run_pattbet(pattern_kind, error_draw="sparse") == GOLDEN[f"pattbet_{pattern_kind}"]
