"""Tests for the broker, worker loop and ClusterExecutor (in-process paths).

Daemon-spawning end-to-end runs are exercised by
``tests/cluster/test_failure_modes.py`` (marked slow) and the cluster
benchmark; these tests drive the same protocol in-process so they stay fast
and deterministic.
"""

import os
import pickle

import pytest

from repro.cluster import (
    ClusterExecutor,
    JobQueue,
    group_item_id,
    merge_shards,
    prepare_run_dir,
    read_manifest,
    repair_run_dir,
    submit_spec,
    verify_run_dir,
    worker_loop,
)
from repro.cluster.cli import run_status
from repro.runtime import (
    ResultStore,
    SerialExecutor,
    group_jobs,
    resolve_executor,
    run_sweep,
)
from repro.utils.serialization import atomic_write_json


def _record_queue_backend(run_dir, name):
    """Rewrite the manifest with a ``queue_backend`` field, which older
    submissions recorded."""
    manifest = read_manifest(run_dir)
    manifest["queue_backend"] = name
    atomic_write_json(os.path.join(run_dir, "manifest.json"), manifest)


def test_submit_then_worker_loop_completes_the_sweep(grid, tmp_path):
    run_dir = str(tmp_path)
    spec = grid()
    submission = submit_spec(run_dir, spec)
    assert submission.enqueued and not submission.skipped
    stats = worker_loop(run_dir, worker_id="w0")
    assert stats.items == len(submission.enqueued)
    assert JobQueue(run_dir).is_drained()
    merge_shards(run_dir)
    store = ResultStore(run_dir)
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert all(store.get(key) == cell for key, cell in serial.items())


def test_submission_is_idempotent_and_cache_aware(grid, tmp_path):
    run_dir = str(tmp_path)
    first = submit_spec(run_dir, grid())
    second = submit_spec(run_dir, grid())
    assert not second.enqueued
    assert set(second.skipped) == set(first.enqueued)
    worker_loop(run_dir, worker_id="w0")
    merge_shards(run_dir)
    # Every cell is stored now: resubmission enqueues nothing at all.
    warm = submit_spec(run_dir, grid())
    assert not warm.enqueued
    assert len(warm.cached_keys) == len({j.content_key for j in grid().jobs})


def test_prepare_refuses_conflicting_context_with_live_items(grid, tmp_path):
    run_dir = str(tmp_path)
    spec = grid()
    prepare_run_dir(run_dir, spec.context(), group_jobs(spec.jobs))
    other = grid()
    other.batch_size = 16  # different context bytes, same queue
    with pytest.raises(ValueError, match="different context"):
        prepare_run_dir(run_dir, other.context(), group_jobs(other.jobs))


def test_resubmit_after_an_in_process_forward_is_accepted(grid, blob_data, tmp_path):
    """A forward pass fills the layers' caches; they must not leak into the
    pickled context, or the unchanged spec would look like a different one."""
    run_dir = str(tmp_path)
    spec = grid()
    first = submit_spec(run_dir, spec)
    spec.models["m"].model(blob_data[1].inputs[:20])
    again = submit_spec(run_dir, grid())
    assert not again.enqueued
    assert set(again.skipped) == set(first.enqueued)


def test_manifest_records_run_parameters(grid, tmp_path):
    run_dir = str(tmp_path)
    spec = grid()
    submission = submit_spec(run_dir, spec, chunk_size=2, lease_timeout=7.0)
    manifest = read_manifest(run_dir)
    assert manifest["chunk_size"] == 2
    assert manifest["lease_timeout"] == 7.0
    assert set(manifest["expected_keys"]) == {j.content_key for j in spec.jobs}
    assert set(submission.expected_keys) == set(manifest["expected_keys"])


def test_a_manifest_recording_the_filesystem_backend_still_runs(grid, tmp_path):
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    _record_queue_backend(run_dir, "filesystem")
    stats = worker_loop(run_dir, worker_id="w0")
    assert stats.items == len(submission.enqueued)
    merge_shards(run_dir)
    store = ResultStore(run_dir)
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert all(store.get(key) == cell for key, cell in serial.items())
    assert verify_run_dir(run_dir).clean


def test_a_run_submitted_on_the_kv_backend_is_refused(grid, tmp_path):
    """Its items lived outside queue/: serving it would find nothing to do."""
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    _record_queue_backend(run_dir, "kv")
    with pytest.raises(ValueError, match="queue_backend"):
        worker_loop(run_dir, worker_id="w0")
    assert JobQueue(run_dir).pending_ids() == sorted(submission.enqueued)


@pytest.mark.parametrize("recorded", [None, "filesystem"], ids=["unrecorded", "filesystem"])
def test_read_manifest_accepts_the_filesystem_queue(grid, tmp_path, recorded):
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    if recorded is not None:
        _record_queue_backend(run_dir, recorded)
    manifest = read_manifest(run_dir)
    assert manifest.get("queue_backend") == recorded  # new runs record none
    assert set(manifest["expected_keys"]) == set(submission.expected_keys)


@pytest.mark.parametrize(
    "reader",
    [verify_run_dir, repair_run_dir, run_status, merge_shards],
    ids=["verify", "repair", "status", "merge"],
)
def test_every_manifest_reader_refuses_a_kv_run(grid, tmp_path, reader):
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    _record_queue_backend(run_dir, "kv")
    with pytest.raises(ValueError, match="queue_backend"):
        reader(run_dir)
    assert JobQueue(run_dir).pending_ids() == sorted(submission.enqueued)
    assert not os.path.exists(os.path.join(run_dir, "results.jsonl"))


def test_worker_shards_are_single_writer_and_durable(grid, tmp_path):
    run_dir = str(tmp_path)
    submit_spec(run_dir, grid())
    worker_loop(run_dir, worker_id="alpha", max_items=2)
    worker_loop(run_dir, worker_id="beta")
    shards = sorted(os.listdir(os.path.join(run_dir, "shards")))
    assert shards == ["worker-alpha.jsonl", "worker-beta.jsonl"]
    merge_shards(run_dir)
    serial = run_sweep(grid(), executor=SerialExecutor())
    store = ResultStore(run_dir)
    assert all(store.get(key) == cell for key, cell in serial.items())


def test_cluster_executor_inline_fallback_matches_serial(grid, tmp_path):
    """With spawning disabled and no workers, the coordinator self-serves."""
    executor = ClusterExecutor(
        run_dir=str(tmp_path),
        spawn_workers=False,
        lease_timeout=5.0,
        poll_interval=0.01,
        stall_timeout=0.0,  # no workers will ever come: fall back at once
    )
    results = run_sweep(grid(), executor=executor)
    assert results == run_sweep(grid(), executor=SerialExecutor())


def test_cluster_executor_resumes_from_warm_run_dir(grid, tmp_path):
    run_dir = str(tmp_path)
    executor = ClusterExecutor(
        run_dir=run_dir, spawn_workers=False, poll_interval=0.01, stall_timeout=0.0
    )
    first = run_sweep(grid(), executor=executor)
    # Warm store: the second run answers everything without queue traffic.
    again = ClusterExecutor(
        run_dir=run_dir, spawn_workers=False, poll_interval=0.01, stall_timeout=0.0
    )
    second = run_sweep(grid(), executor=again)
    assert second == first
    assert JobQueue(run_dir).counts()["pending"] == 0


def test_cluster_executor_streams_every_group_exactly_once(grid, tmp_path):
    spec = grid()
    groups = group_jobs(spec.jobs)
    executor = ClusterExecutor(
        run_dir=str(tmp_path), spawn_workers=False, poll_interval=0.01,
        stall_timeout=0.0,
    )
    outputs = list(executor.run(spec.context(), groups))
    assert len(outputs) == len(groups)
    yielded = [key for output in outputs for key, _ in output]
    assert sorted(yielded) == sorted(j.content_key for j in spec.jobs)
    # Item ids are deterministic, so the run is replayable/joinable.
    assert {group_item_id(g) for g in groups} == {
        group_item_id(g) for g in group_jobs(grid().jobs)
    }


def test_executor_registry_resolution():
    assert isinstance(resolve_executor(None), SerialExecutor)
    assert isinstance(resolve_executor("serial"), SerialExecutor)
    assert resolve_executor("parallel").max_workers >= 1
    assert isinstance(resolve_executor("cluster"), ClusterExecutor)
    sentinel = SerialExecutor()
    assert resolve_executor(sentinel) is sentinel
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor("quantum")


def test_cluster_executor_validation():
    with pytest.raises(ValueError, match="max_workers"):
        ClusterExecutor(max_workers=0)
    with pytest.raises(ValueError, match="lease_timeout"):
        ClusterExecutor(lease_timeout=0)
    with pytest.raises(ValueError, match="chunk_size"):
        ClusterExecutor(chunk_size=0)


def test_context_round_trips_through_pickle_without_caches(grid, tmp_path):
    spec = grid()
    context = spec.context()
    context.batch_plan()  # populate the process-local cache
    entry = context.models["m"]
    entry.patcher()
    blob = pickle.loads(pickle.dumps(context))
    assert "_plan_cache" not in blob.__dict__
    assert blob.models["m"]._patcher_cache is None
    assert blob.models["m"]._clean_weights_cache is None


def test_same_dir_store_and_executor_stay_duplicate_free(grid, tmp_path):
    """store=<run_dir> alongside ClusterExecutor(run_dir=<same>) — the
    documented resumable combination — must not double-write the log."""
    from repro.utils.serialization import read_jsonl

    run_dir = str(tmp_path)
    executor = ClusterExecutor(
        run_dir=run_dir, spawn_workers=False, poll_interval=0.01, stall_timeout=0.0
    )
    results = run_sweep(grid(), executor=executor, store=run_dir)
    keys = [r["key"] for r in read_jsonl(os.path.join(run_dir, "results.jsonl"))]
    assert sorted(keys) == sorted(results)  # one line per cell, no doubles
    # A store in a *different* directory is still written as usual.
    other_dir = str(tmp_path / "elsewhere")
    executor2 = ClusterExecutor(
        run_dir=str(tmp_path / "run2"), spawn_workers=False,
        poll_interval=0.01, stall_timeout=0.0,
    )
    run_sweep(grid(), executor=executor2, store=other_dir)
    assert len(ResultStore(other_dir)) == len(results)


def test_stall_detection_trusts_fresh_lease_heartbeats(grid, tmp_path):
    """A worker deep in a long group (stale beacon, fresh lease) keeps its
    claim: the coordinator must not declare the run stalled."""
    spec = grid()
    run_dir = str(tmp_path)
    submit_spec(run_dir, spec, lease_timeout=30.0)
    queue = JobQueue(run_dir, lease_timeout=30.0)
    item = queue.claim("busy-worker")  # lease just heartbeaten (claim touches)
    executor = ClusterExecutor(
        run_dir=run_dir, spawn_workers=False, poll_interval=0.01,
        lease_timeout=30.0, stall_timeout=0.0,
    )
    assert not executor._stalled(run_dir, queue, [], 0.0)
    # Once the lease goes protocol-stale, the stall may fire.
    leased = os.path.join(queue.queue_dir, "leased", item.item_id + ".json")
    old = 0.0
    os.utime(leased, (old, old))
    assert executor._stalled(run_dir, queue, [], 0.0)
