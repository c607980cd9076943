"""Tests for the fused evaluation seam: batch plans and delta weight patching."""

import numpy as np
import pytest

from repro.biterror import BitErrorField, ChipProfile
from repro.core import Trainer, TrainerConfig
from repro.data import ArrayDataset
from repro.eval import confidence_statistics
from repro.eval.fast_eval import BatchPlan, DeltaWeightPatcher, evaluate_on_plan
from repro.eval.redundancy import relu_relevance
from repro.models import MLP
from repro.nn.losses import confidences
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import model_weight_arrays, quantize_model, swap_weights


@pytest.fixture
def setup(blob_data):
    _, test = blob_data
    model = MLP(
        in_features=test.input_shape[0], num_classes=test.num_classes,
        hidden=(16,), rng=np.random.default_rng(0),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    return model, quantizer, quantized, test


# -- BatchPlan ----------------------------------------------------------------


def test_batch_plan_covers_dataset_with_reference_boundaries(blob_data):
    _, test = blob_data
    plan = BatchPlan(test, batch_size=7)
    sizes = [labels.shape[0] for _, labels in plan]
    assert sum(sizes) == len(test) == plan.num_examples
    assert all(size == 7 for size in sizes[:-1])
    assert 1 <= sizes[-1] <= 7
    # Concatenating the plan's batches reconstructs the dataset in order.
    np.testing.assert_array_equal(
        np.concatenate([inputs for inputs, _ in plan]), test.inputs
    )
    np.testing.assert_array_equal(
        np.concatenate([labels for _, labels in plan]), test.labels
    )


def test_batch_plan_slices_are_views(blob_data):
    _, test = blob_data
    plan = BatchPlan(test, batch_size=16)
    for inputs, labels in plan:
        assert inputs.base is test.inputs
        assert labels.base is test.labels


def test_batch_plan_validates_batch_size(blob_data):
    _, test = blob_data
    for bad in (0, -1):
        with pytest.raises(ValueError, match="batch_size"):
            BatchPlan(test, batch_size=bad)


def test_evaluate_on_plan_matches_reference_loop(setup):
    model, quantizer, quantized, test = setup
    weights = quantizer.dequantize(quantized)
    batch_size = 13

    # The seed-era loop: fancy-index batching, per-batch accumulation.
    errors = 0
    total = 0
    confidence_sum = 0.0
    model.eval()
    with swap_weights(model, weights):
        for start in range(0, len(test), batch_size):
            index = np.arange(start, min(start + batch_size, len(test)))
            inputs, labels = test[index]
            logits = model(inputs)
            errors += int((logits.argmax(axis=1) != labels).sum())
            total += labels.shape[0]
            confidence_sum += float(confidences(logits).sum())
    model.train(True)
    reference = (errors / total, confidence_sum / total)

    plan = BatchPlan(test, batch_size=batch_size)
    assert evaluate_on_plan(model, weights, plan) == reference
    # Reusable: a second evaluation over the same plan is identical.
    assert evaluate_on_plan(model, weights, plan) == reference


def test_evaluate_on_plan_restores_training_mode(setup):
    model, quantizer, quantized, test = setup
    weights = quantizer.dequantize(quantized)
    plan = BatchPlan(test, batch_size=32)
    model.train(True)
    evaluate_on_plan(model, weights, plan)
    assert model.training
    model.eval()
    evaluate_on_plan(model, weights, plan)
    assert not model.training


class ForwardFails(MLP):
    def forward(self, x):
        raise RuntimeError("forward failed")


EVALUATIONS = {
    "evaluate_on_plan": lambda model, test: evaluate_on_plan(
        model, model_weight_arrays(model), BatchPlan(test, batch_size=32)),
    "Trainer.evaluate": lambda model, test: Trainer(
        model, FixedPointQuantizer(rquant(8)), TrainerConfig()).evaluate(test),
    "confidence_statistics": lambda model, test: confidence_statistics(model, None, test),
    "relu_relevance": lambda model, test: relu_relevance(model, test),
}


@pytest.mark.parametrize("evaluation", sorted(EVALUATIONS))
def test_an_evaluation_restores_training_mode_when_a_forward_raises(evaluation, blob_data):
    _, test = blob_data
    model = ForwardFails(in_features=test.input_shape[0], num_classes=test.num_classes,
                         hidden=(16,), rng=np.random.default_rng(0))
    weights = [p.data for p in model.parameters()]
    for training in (True, False):
        model.train(training)
        with pytest.raises(RuntimeError, match="forward failed"):
            EVALUATIONS[evaluation](model, test)
        assert all(m.training == training for m in model.modules())
        assert all(p.data is w for p, w in zip(model.parameters(), weights))


def test_empty_dataset_plan_evaluates_to_zero(setup):
    model, quantizer, quantized, test = setup
    weights = quantizer.dequantize(quantized)
    empty = ArrayDataset(
        np.empty((0,) + test.input_shape), np.empty(0, dtype=np.int64),
        num_classes=test.num_classes,
    )
    assert evaluate_on_plan(model, weights, BatchPlan(empty, 8)) == (0.0, 0.0)


# -- DeltaWeightPatcher -------------------------------------------------------


def _corruption(quantized, p=0.02, seed=3, backend="dense"):
    field = BitErrorField(
        quantized.num_weights, quantized.scheme.precision,
        np.random.default_rng(seed), backend=backend,
    )
    return field.apply_to_quantized(quantized, p, return_positions=True)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_patched_quantized_matches_full_dequantize(setup, backend):
    model, quantizer, quantized, _ = setup
    clean = quantizer.dequantize(quantized)
    corrupted, touched = _corruption(quantized, backend=backend)
    expected = quantizer.dequantize(corrupted)
    patcher = DeltaWeightPatcher(quantized, clean)
    with patcher.patched_quantized(corrupted, touched) as weights:
        for patched, full in zip(weights, expected):
            np.testing.assert_array_equal(patched, full)
    # Exact restoration after the context exits.
    for restored, original in zip(patcher.weights, quantizer.dequantize(quantized)):
        np.testing.assert_array_equal(restored, original)


def test_patched_delta_codes_match_patched_quantized(setup):
    model, quantizer, quantized, _ = setup
    clean = quantizer.dequantize(quantized)
    flat = quantized.flat_codes()
    field = BitErrorField(
        quantized.num_weights, quantized.scheme.precision,
        np.random.default_rng(5), backend="sparse",
    )
    touched, values = field.delta_apply(flat, 0.02)
    corrupted = field.apply_to_quantized(quantized, 0.02)
    patcher = DeltaWeightPatcher(quantized, clean)
    with patcher.patched(touched, values) as via_values:
        snapshot = [w.copy() for w in via_values]
    with patcher.patched_quantized(corrupted, touched) as via_quantized:
        for a, b in zip(snapshot, via_quantized):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_patched_chip_delta_matches_full_dequantize(setup, backend):
    """A profiled chip's ``delta_apply`` pair, patched, is bit-identical to
    de-quantizing the chip's full corruption at every rate and placement,
    stuck-at faults included, and is undone exactly after each draw."""
    model, quantizer, quantized, _ = setup
    clean = quantizer.dequantize(quantized)
    snapshot = [w.copy() for w in clean]
    chip = ChipProfile(rows=64, columns=32, column_alignment=0.4, seed=5,
                       backend=backend, stuck_at_one_fraction=0.7)
    patcher = DeltaWeightPatcher(quantized, clean)
    for rate, offset in ((0.0, 0), (0.02, 0), (0.02, 777), (0.05, 123)):
        touched, values = chip.delta_apply(quantized, rate, offset=offset)
        expected = quantizer.dequantize(
            chip.apply_to_quantized(quantized, rate, offset=offset)
        )
        with patcher.patched(touched, values) as weights:
            for patched, full in zip(weights, expected):
                np.testing.assert_array_equal(patched, full)
        for restored, original in zip(patcher.weights, snapshot):
            np.testing.assert_array_equal(restored, original)


def test_patcher_restores_on_exception(setup):
    model, quantizer, quantized, _ = setup
    clean = quantizer.dequantize(quantized)
    snapshot = [w.copy() for w in clean]
    corrupted, touched = _corruption(quantized)
    patcher = DeltaWeightPatcher(quantized, clean)
    with pytest.raises(RuntimeError, match="boom"):
        with patcher.patched_quantized(corrupted, touched):
            raise RuntimeError("boom")
    for restored, original in zip(clean, snapshot):
        np.testing.assert_array_equal(restored, original)


def test_patcher_empty_touched_is_a_noop(setup):
    model, quantizer, quantized, _ = setup
    clean = quantizer.dequantize(quantized)
    snapshot = [w.copy() for w in clean]
    patcher = DeltaWeightPatcher(quantized, clean)
    empty = np.empty(0, dtype=np.int64)
    with patcher.patched(empty, empty.astype(np.uint8)) as weights:
        for patched, original in zip(weights, snapshot):
            np.testing.assert_array_equal(patched, original)


def test_patcher_validation(setup):
    model, quantizer, quantized, _ = setup
    clean = quantizer.dequantize(quantized)
    patcher = DeltaWeightPatcher(quantized, clean)
    corrupted, touched = _corruption(quantized)
    with pytest.raises(ValueError, match="sorted"):
        with patcher.patched(touched[::-1], touched[::-1].astype(np.uint8)):
            pass
    with pytest.raises(ValueError, match="lie in"):
        with patcher.patched(
            np.array([quantized.num_weights]), np.array([0], dtype=np.uint8)
        ):
            pass
    with pytest.raises(ValueError, match="code values"):
        with patcher.patched(touched, np.empty(touched.size + 1, dtype=np.uint8)):
            pass
    with pytest.raises(ValueError, match="clean tensors"):
        DeltaWeightPatcher(quantized, clean[:-1])
    with pytest.raises(ValueError, match="float64"):
        DeltaWeightPatcher(quantized, [w.astype(np.float32) for w in clean])
