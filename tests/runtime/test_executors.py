"""Tests for the serial executor, job grouping and the cluster executor's parity."""

import os

import numpy as np
import pytest

import repro.cluster.worker as cluster_worker
from repro.biterror import ChipProfile, make_error_fields
from repro.cluster import ClusterExecutor
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import SerialExecutor, SweepSpec, group_jobs, run_sweep
from repro.runtime import executors as executors_module
from repro.utils.serialization import append_jsonl, read_jsonl


@pytest.fixture(scope="module")
def grid(blob_data):
    """A small multi-kind sweep spec builder (fresh spec per call)."""
    _, test = blob_data
    model = MLP(
        in_features=test.input_shape[0], num_classes=test.num_classes,
        hidden=(16,), rng=np.random.default_rng(1),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    fields = make_error_fields(quantized.num_weights, 8, 3, seed=9)
    chip = ChipProfile(rows=128, columns=64, column_alignment=0.4, seed=4)

    def build():
        spec = SweepSpec(test, batch_size=32)
        spec.add_model("m", model, quantizer, quantized)
        spec.add_field_set("f", fields)
        spec.add_chip("c", chip)
        for rate in (0.005, 0.01, 0.02):
            spec.add_field_jobs("m", "f", rate)
        spec.add_chip_jobs("m", "c", 0.02, offsets=(0, 500, 1000))
        return spec

    return build


def test_group_jobs_partitions_by_granularity_and_dedupes(grid):
    spec = grid()
    groups = group_jobs(spec.jobs)
    # 1 clean group + 3 field-rate groups (batched injection per cell) +
    # 3 chip groups (one per offset — offsets share no work, so they shard).
    assert len(groups) == 7
    assert all(len({j.group_key for j in g}) == 1 for g in groups)
    field_groups = [g for g in groups if g[0].kind == "field"]
    assert all(len(g) == 3 for g in field_groups)  # whole chip set together
    chip_groups = [g for g in groups if g[0].kind == "chip"]
    assert [len(g) for g in chip_groups] == [1, 1, 1]
    # Duplicated jobs (same content key) collapse into one execution.
    assert group_jobs(spec.jobs + spec.jobs) == groups


def test_every_serving_process_loads_the_runs_context_once(grid, monkeypatch, tmp_path):
    """Work items carry job records only: each serving process, the
    coordinator included, unpickles the run's context once and runs every
    item it claims against that copy, never against the caller's."""
    log = str(tmp_path / "contexts.jsonl")
    seen = []  # (pid, context): a forked daemon starts with a copy
    execute_group = cluster_worker.execute_group

    def recorded(context, jobs, **kwargs):
        seen.append((os.getpid(), context))  # held, so two loads cannot share an id
        loaded = {id(c) for pid, c in seen if pid == os.getpid()}
        append_jsonl(log, [{"pid": os.getpid(), "contexts": len(loaded)}])
        return execute_group(context, jobs, **kwargs)

    monkeypatch.setattr(cluster_worker, "execute_group", recorded)
    spec = grid()
    context, groups = spec.context(), group_jobs(spec.jobs)
    executor = ClusterExecutor(run_dir=str(tmp_path / "run"), max_workers=2,
                               lease_timeout=10.0, poll_interval=0.02)
    results = dict(cell for output in executor.run(context, groups) for cell in output)
    assert results == run_sweep(grid(), executor=SerialExecutor())
    records = read_jsonl(log)
    assert len(records) == len(groups)
    assert seen and all(c is not context for _, c in seen)  # the coordinator's items
    # The coordinator and one daemon shared seven items, so one ran several.
    assert len({record["pid"] for record in records}) < len(records)
    assert {record["contexts"] for record in records} == {1}


def test_groups_inject_through_the_module_level_names(grid, monkeypatch):
    """A field group makes one call to the module-level
    ``iter_apply_fields_batch`` with its chips in job order and patches each
    yielded ``(QuantizedWeights, touched)`` pair through
    ``DeltaWeightPatcher.patched_quantized``; a chip job patches through
    ``DeltaWeightPatcher.patched``.  Profilers wrap exactly these names to
    time the injection, and the results stay those of the unwrapped run."""
    from repro.eval.fast_eval import DeltaWeightPatcher
    from repro.quant.fixed_point import QuantizedWeights

    reference = run_sweep(grid(), executor=SerialExecutor())
    streams, patches = [], []
    stream = executors_module.iter_apply_fields_batch

    def recorded_stream(fields, quantized, p):
        streams.append((list(fields), p))
        return stream(fields, quantized, p)

    patched, patched_quantized = DeltaWeightPatcher.patched, DeltaWeightPatcher.patched_quantized

    def recorded_patched(self, touched, code_values):
        patches.append(("patched", type(touched), np.asarray(touched).size))
        return patched(self, touched, code_values)

    def recorded_patched_quantized(self, corrupted, touched):
        patches.append(("patched_quantized", type(corrupted), np.asarray(touched).size))
        return patched_quantized(self, corrupted, touched)

    monkeypatch.setattr(executors_module, "iter_apply_fields_batch", recorded_stream)
    monkeypatch.setattr(DeltaWeightPatcher, "patched", recorded_patched)
    monkeypatch.setattr(DeltaWeightPatcher, "patched_quantized", recorded_patched_quantized)
    spec = grid()
    assert run_sweep(spec, executor=SerialExecutor()) == reference

    fields = spec.field_sets["f"]
    groups = group_jobs(spec.jobs)
    field_groups = [group for group in groups if group[0].kind == "field"]
    assert streams == [
        ([fields[job.index] for job in group], group[0].rate) for group in field_groups
    ]
    chip_jobs = sum(len(group) for group in groups if group[0].kind == "chip")
    field_jobs = sum(len(group) for group in field_groups)
    assert [name for name, _, _ in patches].count("patched_quantized") == field_jobs
    assert [name for name, _, _ in patches].count("patched") == chip_jobs
    assert all(
        kind is QuantizedWeights for name, kind, _ in patches if name == "patched_quantized"
    )
    assert any(size > 0 for _, _, size in patches)


def test_model_entry_clean_weights_memoized_and_not_pickled(grid):
    import pickle

    spec = grid()
    entry = spec.models["m"]
    first = entry.clean_weights()
    assert entry.clean_weights() is first  # memoized per process
    for ours, reference in zip(first, entry.quantizer.dequantize(entry.quantized)):
        np.testing.assert_array_equal(ours, reference)
    shipped = pickle.loads(pickle.dumps(entry))
    assert shipped._clean_weights_cache is None  # decoded per worker, not shipped


def test_patcher_and_batch_plan_are_reused_across_groups(grid):
    """One DeltaWeightPatcher / BatchPlan pair per (model, process)."""
    spec = grid()
    context = spec.context()
    entry = context.models["m"]
    plan = context.batch_plan()
    patcher = entry.patcher()
    assert context.batch_plan() is plan
    assert entry.patcher() is patcher
    groups = group_jobs(spec.jobs)
    for group in groups:
        executors_module.execute_group(context, group)
    # Executing every group created no new plan or patcher.
    assert context.batch_plan() is plan
    assert entry.patcher() is patcher
    # Neither cache ships to workers.
    import pickle

    blob = pickle.loads(pickle.dumps(context))
    assert "_plan_cache" not in blob.__dict__
    assert blob.models["m"]._patcher_cache is None

