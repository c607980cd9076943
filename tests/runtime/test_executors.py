"""Tests for the serial executor, job grouping and the cluster executor's parity."""

import errno
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


@pytest.mark.parametrize("chunk_size", [1, 2, 3])
def test_chunked_injection_is_result_identical(grid, chunk_size):
    reference = run_sweep(grid(), executor=SerialExecutor())
    chunked = run_sweep(grid(), executor=SerialExecutor(chunk_size=chunk_size))
    assert chunked == reference


@pytest.mark.slow
def test_cluster_chunked_matches_serial(grid):
    """``chunk_size`` reaches the forked daemons through the manifest."""
    chunked = run_sweep(grid(), executor=ClusterExecutor(max_workers=2, chunk_size=1))
    assert chunked == run_sweep(grid(), executor=SerialExecutor())


def test_chunk_size_reaches_the_coordinators_own_items(grid, monkeypatch, tmp_path):
    """A host that refuses the fork leaves every group to the coordinator,
    which reads the executor's ``chunk_size`` back from the manifest."""
    chunk_sizes = []
    execute_group = cluster_worker.execute_group

    def recorded(context, jobs, **kwargs):
        chunk_sizes.append(kwargs.get("chunk_size"))
        return execute_group(context, jobs, **kwargs)

    def refuse():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(cluster_worker, "execute_group", recorded)
    monkeypatch.setattr(os, "fork", refuse)
    executor = ClusterExecutor(run_dir=str(tmp_path), max_workers=4, chunk_size=2,
                               lease_timeout=5.0, poll_interval=0.01)
    chunked = run_sweep(grid(), executor=executor)
    assert chunked == run_sweep(grid(), executor=SerialExecutor())
    assert chunk_sizes == [2] * len(group_jobs(grid().jobs))


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


def test_executor_chunk_size_validation():
    with pytest.raises(ValueError, match="chunk_size"):
        SerialExecutor(chunk_size=0)


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

