"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The expensive
part — training the standard suite of models (Normal, RQuant, Clipping,
RandBET at 8 and 4 bit) — is done once per session here; the benchmarked
callables are the evaluations that produce the reported numbers.

The scale is deliberately small (synthetic data, reduced SimpleNet, few
epochs) so the whole harness runs on two CPU cores in minutes.  Absolute
numbers therefore differ from the paper; what the benchmarks check and print
is the *shape* of each result (orderings, trends, crossovers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import pytest

from repro.biterror import BitErrorField, make_error_fields, make_profiled_chips
from repro.core import (
    RandBETConfig,
    RandBETTrainer,
    Trainer,
    TrainerConfig,
    train_robust_model,
)
from repro.core.pipeline import RobustTrainingResult
from repro.data import synthetic_cifar10, synthetic_mnist, train_test_split
from repro.eval import evaluate_robust_error
from repro.quant import FixedPointQuantizer, normal_quantization, rquant
from repro.utils.tables import Table

# ---------------------------------------------------------------------------
# Benchmark-wide configuration (kept small for CPU execution).
# ---------------------------------------------------------------------------

EPOCHS = 25
BATCH_SIZE = 16
WIDTHS = (12, 24)
CONVS_PER_STAGE = 1
SAMPLES_PER_CLASS = 20
NUM_ERROR_FIELDS = 5
CLIP_WMAX = 0.25
TRAIN_BIT_ERROR_RATE = 0.01
# The paper starts injecting bit errors once the clean loss drops below 1.75
# (CIFAR10).  Our synthetic task is fit within a few epochs, so the
# scale-appropriate analogue is a lower threshold: inject errors only once
# the model has essentially converged on the clean objective.
START_LOSS_THRESHOLD = 0.75

#: Bit error rates (fractions) at which RErr curves are evaluated.
EVAL_RATES = [0.0, 0.001, 0.005, 0.01, 0.025]


def print_table(table: Table) -> None:
    """Print a benchmark table with surrounding blank lines so it stands out."""
    print("\n\n" + table.render() + "\n")


@dataclass
class TrainedModel:
    """A trained model bundled with its quantizer and metadata."""

    name: str
    result: RobustTrainingResult

    @property
    def model(self):
        return self.result.model

    @property
    def quantizer(self) -> FixedPointQuantizer:
        return self.result.quantizer

    @property
    def clean_error(self) -> float:
        return self.result.clean_error


@pytest.fixture(scope="session")
def cifar_task():
    """The CIFAR10-like synthetic task (train, test)."""
    dataset = synthetic_cifar10(samples_per_class=SAMPLES_PER_CLASS, image_size=16)
    return train_test_split(dataset, test_fraction=0.25, rng=np.random.default_rng(0))


@pytest.fixture(scope="session")
def mnist_task():
    """The MNIST-like synthetic task (train, test)."""
    dataset = synthetic_mnist(samples_per_class=16, image_size=12)
    return train_test_split(dataset, test_fraction=0.25, rng=np.random.default_rng(1))


def train_simplenet(
    cifar_task,
    name: str,
    precision: int = 8,
    clip_w_max=None,
    bit_error_rate=None,
    quantizer: FixedPointQuantizer | None = None,
    label_smoothing: float = 0.0,
    norm: str = "gn",
    seed: int = 11,
    epochs: int = EPOCHS,
) -> TrainedModel:
    """Train one SimpleNet variant on the CIFAR10-like task."""
    train, test = cifar_task
    result = train_robust_model(
        train,
        test,
        model_name="simplenet",
        widths=WIDTHS,
        convs_per_stage=CONVS_PER_STAGE,
        precision=precision,
        clip_w_max=clip_w_max,
        bit_error_rate=bit_error_rate,
        epochs=epochs,
        batch_size=BATCH_SIZE,
        label_smoothing=label_smoothing,
        norm=norm,
        seed=seed,
        quantizer=quantizer,
        start_loss_threshold=START_LOSS_THRESHOLD,
    )
    return TrainedModel(name=name, result=result)


@pytest.fixture(scope="session")
def model_suite(cifar_task) -> Dict[str, TrainedModel]:
    """The standard model suite used across most tables/figures.

    Keys: ``normal`` (NORMAL quantization), ``rquant`` (robust quantization),
    ``clipping`` (RQuant + weight clipping), ``randbet`` (RQuant + clipping +
    RandBET), plus 4-bit variants of the last two.
    """
    suite: Dict[str, TrainedModel] = {}
    suite["normal"] = train_simplenet(
        cifar_task, "NORMAL", quantizer=FixedPointQuantizer(normal_quantization(8))
    )
    suite["rquant"] = train_simplenet(cifar_task, "RQUANT")
    suite["clipping"] = train_simplenet(cifar_task, f"CLIPPING {CLIP_WMAX}", clip_w_max=CLIP_WMAX)
    suite["randbet"] = train_simplenet(
        cifar_task,
        f"RANDBET {CLIP_WMAX} p={TRAIN_BIT_ERROR_RATE:.0%}",
        clip_w_max=CLIP_WMAX,
        bit_error_rate=TRAIN_BIT_ERROR_RATE,
    )
    suite["clipping_4bit"] = train_simplenet(
        cifar_task, f"CLIPPING {CLIP_WMAX} (4 bit)", precision=4, clip_w_max=CLIP_WMAX
    )
    suite["randbet_4bit"] = train_simplenet(
        cifar_task,
        f"RANDBET {CLIP_WMAX} (4 bit)",
        precision=4,
        clip_w_max=CLIP_WMAX,
        bit_error_rate=TRAIN_BIT_ERROR_RATE,
    )
    return suite


@pytest.fixture(scope="session")
def error_fields_8bit(model_suite) -> List[BitErrorField]:
    """Pre-determined 8-bit error fields shared by every evaluation."""
    num_weights = model_suite["rquant"].result.quantized_weights.num_weights
    return make_error_fields(num_weights, 8, NUM_ERROR_FIELDS, seed=2021)


@pytest.fixture(scope="session")
def error_fields_4bit(model_suite) -> List[BitErrorField]:
    """Pre-determined 4-bit error fields shared by every evaluation."""
    num_weights = model_suite["clipping_4bit"].result.quantized_weights.num_weights
    return make_error_fields(num_weights, 4, NUM_ERROR_FIELDS, seed=2022)


@pytest.fixture(scope="session")
def profiled_chips():
    """The three simulated profiled chips (Fig. 3)."""
    return make_profiled_chips(seed=7, scale=4)


def rerr_percent(trained: TrainedModel, test, rate: float, fields) -> float:
    """Average RErr (in %) of a trained model at bit error rate ``rate``."""
    report = evaluate_robust_error(
        trained.model, trained.quantizer, test, rate, error_fields=fields
    )
    return 100.0 * report.mean_error
