"""Quantization-aware training with optional weight clipping.

This is the baseline trainer of the paper (NORMAL / RQUANT / CLIPPING rows of
every table): stochastic gradient descent where each forward/backward pass
runs on the fake-quantized weights ``w_q = Q^{-1}(Q(w))`` while updates are
applied to the clean floating-point weights, with weights projected onto
``[-w_max, w_max]`` before quantization when clipping is enabled (Alg. 1
lines 5–11 without the bit-error branch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro import telemetry
from repro.core.clipping import clip_model_weights
from repro.data.datasets import ArrayDataset, DataLoader
from repro.nn.losses import CrossEntropyLoss, confidences
from repro.nn.module import Module
from repro.optim.schedules import ConstantLR, MultiStepLR
from repro.optim.sgd import SGD
from repro.quant.fixed_point import FixedPointQuantizer
from repro.quant.qat import model_weight_arrays, swap_weights
from repro.utils.rng import as_rng

__all__ = ["TrainerConfig", "TrainingHistory", "EvalResult", "Trainer"]


@dataclass
class TrainerConfig:
    """Hyper-parameters of quantization-aware training.

    The defaults mirror App. F of the paper (SGD, initial learning rate 0.05,
    momentum 0.9, weight decay 5e-4, multi-step decay at 2/5, 3/5 and 4/5 of
    the epochs) at a much smaller epoch budget suitable for the synthetic
    tasks.
    """

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_schedule: str = "paper"  # "paper" (multi-step) or "constant"
    clip_w_max: Optional[float] = None
    label_smoothing: float = 0.0
    quantization_aware: bool = True
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.clip_w_max is not None and self.clip_w_max <= 0:
            raise ValueError("clip_w_max must be positive when given")


@dataclass
class TrainingHistory:
    """Per-epoch training statistics."""

    epoch_losses: List[float] = field(default_factory=list)
    epoch_train_errors: List[float] = field(default_factory=list)
    epoch_test_errors: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    @property
    def final_test_error(self) -> float:
        return self.epoch_test_errors[-1] if self.epoch_test_errors else float("nan")


@dataclass
class EvalResult:
    """Clean evaluation result: error, loss and average confidence."""

    error: float
    loss: float
    average_confidence: float

    @property
    def accuracy(self) -> float:
        return 1.0 - self.error


class Trainer:
    """Quantization-aware trainer with optional weight clipping.

    Parameters
    ----------
    model:
        The model to train (modified in place).
    quantizer:
        Fixed-point quantizer used for fake quantization during training and
        for the final quantized model.  ``None`` disables quantization-aware
        training (used for the post-training-quantization experiments of
        Table 9).
    config:
        Training hyper-parameters.
    augment:
        Optional per-batch augmentation callable ``(inputs, rng) -> inputs``.
    """

    def __init__(
        self,
        model: Module,
        quantizer: Optional[FixedPointQuantizer],
        config: TrainerConfig,
        augment: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None,
    ):
        self.model = model
        self.quantizer = quantizer
        self.config = config
        self.augment = augment
        self.loss_fn = CrossEntropyLoss(label_smoothing=config.label_smoothing)
        self.optimizer = SGD(
            model.parameters(),
            lr=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        if config.lr_schedule == "paper":
            self.schedule = MultiStepLR.paper_schedule(config.learning_rate, config.epochs)
        elif config.lr_schedule == "constant":
            self.schedule = ConstantLR(config.learning_rate)
        else:
            raise ValueError(f"unknown lr_schedule {config.lr_schedule!r}")
        self.rng = as_rng(config.seed)
        self.history = TrainingHistory()
        self._running_loss: float = float("inf")

    # -- batch-level gradient computation -----------------------------------
    def compute_gradients(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Accumulate gradients for one batch and return the batch loss.

        Quantization-aware: the forward/backward pass runs on the fake
        quantized weights, the gradients land on the clean parameters
        (straight-through estimator).
        """
        if self.quantizer is not None and self.config.quantization_aware:
            fake_quantized = self.quantizer.quantize_dequantize(
                model_weight_arrays(self.model)
            )
            with swap_weights(self.model, fake_quantized):
                logits = self.model(inputs)
                loss, grad = self.loss_fn(logits, labels)
                self.model.backward(grad)
        else:
            logits = self.model(inputs)
            loss, grad = self.loss_fn(logits, labels)
            self.model.backward(grad)
        return loss

    # -- training loop -------------------------------------------------------
    def train_step(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Run one optimization step (clip, compute gradients, update)."""
        clip_model_weights(self.model, self.config.clip_w_max)
        self.optimizer.zero_grad()
        loss = self.compute_gradients(inputs, labels)
        self.optimizer.step()
        self._running_loss = loss
        return loss

    def train(
        self,
        train_dataset: ArrayDataset,
        test_dataset: Optional[ArrayDataset] = None,
    ) -> TrainingHistory:
        """Train for ``config.epochs`` epochs and return the history."""
        loader = DataLoader(
            train_dataset,
            batch_size=self.config.batch_size,
            shuffle=self.config.shuffle,
            rng=self.rng,
            augment=self.augment,
        )
        self.model.train()
        rec = telemetry.get_recorder()
        with rec.span(
            "trainer.train", epochs=self.config.epochs, examples=len(train_dataset)
        ):
            for epoch in range(self.config.epochs):
                lr = self.schedule.lr_at(epoch)
                self.optimizer.lr = lr
                with rec.span("trainer.epoch", epoch=epoch) as epoch_span:
                    self.on_epoch_start(epoch)
                    epoch_losses = []
                    for inputs, labels in loader:
                        epoch_losses.append(self.train_step(inputs, labels))
                    # Final projection so the returned weights satisfy the
                    # constraint.
                    clip_model_weights(self.model, self.config.clip_w_max)
                    mean_loss = (
                        float(np.mean(epoch_losses)) if epoch_losses else float("nan")
                    )
                    self.history.epoch_losses.append(mean_loss)
                    self.history.learning_rates.append(lr)
                    train_eval = self.evaluate(train_dataset)
                    self.history.epoch_train_errors.append(train_eval.error)
                    epoch_span.note(
                        loss=mean_loss, lr=lr, train_error=train_eval.error
                    )
                    if test_dataset is not None:
                        test_eval = self.evaluate(test_dataset)
                        self.history.epoch_test_errors.append(test_eval.error)
        return self.history

    def on_epoch_start(self, epoch: int) -> None:
        """Hook for subclasses (e.g. curricular RandBET)."""

    # -- evaluation ----------------------------------------------------------
    def evaluate(
        self, dataset: ArrayDataset, batch_size: Optional[int] = None
    ) -> EvalResult:
        """Clean test error of the (quantized, if configured) model."""
        batch_size = batch_size or self.config.batch_size
        weights = model_weight_arrays(self.model)
        if self.quantizer is not None:
            weights = self.quantizer.quantize_dequantize(weights)
        errors = 0
        total = 0
        losses = []
        confidence_sum = 0.0
        loss_fn = CrossEntropyLoss()
        was_training = self.model.training
        self.model.eval()
        try:
            with swap_weights(self.model, weights):
                for start in range(0, len(dataset), batch_size):
                    inputs, labels = dataset[
                        np.arange(start, min(start + batch_size, len(dataset)))
                    ]
                    logits = self.model(inputs)
                    loss, _ = loss_fn(logits, labels)
                    losses.append(loss)
                    predictions = logits.argmax(axis=1)
                    errors += int((predictions != labels).sum())
                    total += labels.shape[0]
                    confidence_sum += float(confidences(logits).sum())
        finally:
            self.model.train(was_training)
        return EvalResult(
            error=errors / max(total, 1),
            loss=float(np.mean(losses)) if losses else float("nan"),
            average_confidence=confidence_sum / max(total, 1),
        )
