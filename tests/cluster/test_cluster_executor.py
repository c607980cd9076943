"""Tests for the broker, worker loop and ClusterExecutor.

Most drive the protocol in-process (``max_workers=1``: the coordinator
serves every item) so they stay fast and deterministic; the few that fork
daemons check how many, and what a finished run leaves behind.  Crash and
chaos runs are in ``tests/cluster/test_failure_modes.py`` and
``tests/cluster/test_chaos.py``.
"""

import itertools
import os
import pickle

import pytest

from repro.cluster import (
    ClusterExecutor,
    JobQueue,
    group_item_id,
    live_worker_ids,
    merge_shards,
    prepare_run_dir,
    read_manifest,
    repair_run_dir,
    submit_spec,
    verify_run_dir,
    worker_loop,
)
from repro.cluster.cli import main as cluster_main
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
    submission = submit_spec(run_dir, spec, lease_timeout=7.0)
    manifest = read_manifest(run_dir)
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


def test_a_manifest_recording_a_chunk_size_drains_to_the_serial_store(grid, tmp_path):
    """Older submissions recorded how many chips a field group corrupted at
    once; no result depended on it, so a worker ignores the field."""
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    manifest = read_manifest(run_dir)
    manifest["chunk_size"] = 3
    atomic_write_json(os.path.join(run_dir, "manifest.json"), manifest)
    stats = worker_loop(run_dir, worker_id="w0")
    assert stats.items == len(submission.enqueued)
    merge_shards(run_dir)
    store = ResultStore(run_dir)
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert len(store) == len(serial)
    assert all(store.get(key) == cell for key, cell in serial.items())
    assert verify_run_dir(run_dir).clean


def test_submit_cli_refuses_the_retired_chunk_size_flag(grid, tmp_path, capsys):
    """The flag went with the option: passing it is a usage error that
    submits nothing, rather than a setting silently dropped."""
    spec_path = str(tmp_path / "spec.pkl")
    with open(spec_path, "wb") as handle:
        pickle.dump(grid(), handle)
    run_dir = str(tmp_path / "run")
    with pytest.raises(SystemExit) as exit_info:
        cluster_main(["submit", run_dir, "--spec", spec_path, "--chunk-size", "2"])
    assert exit_info.value.code == 2
    assert "--chunk-size" in capsys.readouterr().err
    assert not os.path.exists(run_dir)
    assert cluster_main(["submit", run_dir, "--spec", spec_path]) == 0
    assert "chunk_size" not in read_manifest(run_dir)


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


def test_a_run_submitted_with_a_subsample_size_is_refused(grid, tmp_path):
    """Its cells' keys folded the subset size in: a worker serving them on
    the full dataset would store wrong numbers under them."""
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    manifest = read_manifest(run_dir)
    assert "subsample" not in manifest  # new runs record none
    manifest["subsample"] = 8
    atomic_write_json(os.path.join(run_dir, "manifest.json"), manifest)
    with pytest.raises(ValueError, match="subsample=8"):
        worker_loop(run_dir, worker_id="w0")
    with pytest.raises(ValueError, match="subsample=8"):
        verify_run_dir(run_dir)
    assert JobQueue(run_dir).pending_ids() == sorted(submission.enqueued)


def test_a_manifest_recording_no_subsample_size_still_runs(grid, tmp_path):
    """Full-dataset runs recorded ``"subsample": null``; they drain as before."""
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    manifest = read_manifest(run_dir)
    manifest["subsample"] = None
    atomic_write_json(os.path.join(run_dir, "manifest.json"), manifest)
    stats = worker_loop(run_dir, worker_id="w0")
    assert stats.items == len(submission.enqueued)
    merge_shards(run_dir)
    store = ResultStore(run_dir)
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert all(store.get(key) == cell for key, cell in serial.items())
    assert verify_run_dir(run_dir).clean


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


def test_a_lone_coordinator_forks_nothing_and_matches_serial(grid, tmp_path, forks):
    """``max_workers=1``: the coordinator serves every item itself."""
    executor = ClusterExecutor(run_dir=str(tmp_path), max_workers=1,
                               lease_timeout=5.0, poll_interval=0.01)
    results = run_sweep(grid(), executor=executor)
    assert results == run_sweep(grid(), executor=SerialExecutor())
    assert forks == []
    assert os.listdir(tmp_path / "shards") == [f"worker-coordinator-{os.getpid()}.jsonl"]


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_the_coordinator_is_one_of_max_workers(grid, tmp_path, forks, workers):
    spec = grid()
    assert len(group_jobs(spec.jobs)) >= workers
    executor = ClusterExecutor(run_dir=str(tmp_path), max_workers=workers,
                               lease_timeout=10.0, poll_interval=0.02)
    assert run_sweep(spec, executor=executor) == run_sweep(grid(), executor=SerialExecutor())
    assert forks == [workers] * (workers - 1)  # each daemon one of `workers`


def _two_worker_run(grid, run_dir):
    executor = ClusterExecutor(run_dir=run_dir, max_workers=2, lease_timeout=10.0,
                               poll_interval=0.02)
    run_sweep(grid(), executor=executor)
    return executor


def test_a_finished_run_leaves_no_live_worker(grid, tmp_path):
    """The reaped daemon's beacon and the coordinator's are gone; the
    daemon's log stays."""
    run_dir = str(tmp_path)
    executor = _two_worker_run(grid, run_dir)
    assert live_worker_ids(run_dir, ttl=executor.lease_timeout) == []
    left = [name for name in os.listdir(os.path.join(run_dir, "workers"))
            if not name.startswith(".")]  # see the temp-file test below
    assert left == [f"local-{os.getpid()}-0.log"]


def test_a_failing_closing_telemetry_write_still_reaps_the_daemons(
    grid, tmp_path, monkeypatch
):
    """The coordinator's closing ``worker.exit`` write may fail (a full
    disk): the run raises, but its daemon is terminated and no beacon of
    the run looks live."""
    import errno
    import signal
    import time

    from repro.cluster import coordinator
    from repro.cluster.worker import ServeLoop

    pids = []
    spawn = coordinator.spawn_local_worker

    def recorded(*args, **kwargs):
        process = spawn(*args, **kwargs)
        pids.append(process.pid)
        return process

    def full_disk(self):
        raise OSError(errno.ENOSPC, "No space left on device")

    # A daemon that never claims, so it is alive when the coordinator,
    # having served every item itself, closes the run.
    monkeypatch.setattr(coordinator, "_serve_forked", lambda *args: time.sleep(60))
    monkeypatch.setattr(coordinator, "spawn_local_worker", recorded)
    monkeypatch.setattr(ServeLoop, "stop", full_disk)
    run_dir = str(tmp_path)
    executor = ClusterExecutor(run_dir=run_dir, max_workers=2, lease_timeout=10.0,
                               poll_interval=0.02)
    try:
        with pytest.raises(OSError, match="No space"):
            run_sweep(grid(), executor=executor)
        assert len(pids) == 1
        with pytest.raises(ProcessLookupError):
            os.kill(pids[0], 0)  # terminated and reaped
        assert live_worker_ids(run_dir, ttl=executor.lease_timeout) == []
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_a_killed_beacon_writers_temp_file_is_not_a_live_worker(tmp_path):
    """A daemon terminated inside its first beacon write leaves the atomic
    write's temp file behind; it names no worker."""
    workers = tmp_path / "workers"
    workers.mkdir()
    (workers / ".tmp-k1ll3d~").write_text("")
    (workers / "w1.log").write_text("")
    (workers / "w1").write_text("1\n")
    assert live_worker_ids(str(tmp_path), ttl=60.0) == ["w1"]


def test_repair_needs_no_force_right_after_a_run(grid, tmp_path, capsys):
    run_dir = str(tmp_path)
    _two_worker_run(grid, run_dir)
    assert cluster_main(["repair", run_dir]) == 0
    assert "live worker" not in capsys.readouterr().err


def test_a_second_run_into_the_same_dir_forks_its_daemons_again(grid, tmp_path, forks):
    run_dir = str(tmp_path)
    spec = grid()
    groups = group_jobs(spec.jobs)
    counts = []
    for part in (groups[:2], groups[2:4]):
        executor = ClusterExecutor(run_dir=run_dir, max_workers=2, lease_timeout=10.0,
                                   poll_interval=0.02)
        assert len(list(executor.run(spec.context(), part))) == 2
        counts.append(len(forks))
    assert counts[0] and counts[1] == 2 * counts[0]


def test_cluster_executor_resumes_from_warm_run_dir(grid, tmp_path):
    run_dir = str(tmp_path)
    executor = ClusterExecutor(run_dir=run_dir, max_workers=1, poll_interval=0.01)
    first = run_sweep(grid(), executor=executor)
    # Warm store: the second run answers everything without queue traffic.
    again = ClusterExecutor(run_dir=run_dir, max_workers=1, poll_interval=0.01)
    second = run_sweep(grid(), executor=again)
    assert second == first
    assert JobQueue(run_dir).counts()["pending"] == 0


def test_cluster_executor_streams_every_group_exactly_once(grid, tmp_path):
    spec = grid()
    groups = group_jobs(spec.jobs)
    executor = ClusterExecutor(run_dir=str(tmp_path), max_workers=1, poll_interval=0.01)
    outputs = list(executor.run(spec.context(), groups))
    assert len(outputs) == len(groups)
    yielded = [key for output in outputs for key, _ in output]
    assert sorted(yielded) == sorted(j.content_key for j in spec.jobs)
    # Item ids are deterministic, so the run is replayable/joinable.
    assert {group_item_id(g) for g in groups} == {
        group_item_id(g) for g in group_jobs(grid().jobs)
    }


def test_executor_name_resolution():
    assert isinstance(resolve_executor(None), SerialExecutor)
    assert isinstance(resolve_executor("serial"), SerialExecutor)
    assert isinstance(resolve_executor("cluster"), ClusterExecutor)
    sentinel = SerialExecutor()
    assert resolve_executor(sentinel) is sentinel
    with pytest.raises(ValueError, match="choose None, 'serial', 'cluster' or an executor"):
        resolve_executor("quantum")
    # Parallel sweeps run on the cluster executor; the pool's name is gone.
    with pytest.raises(ValueError, match="unknown executor 'parallel'"):
        resolve_executor('parallel')


def test_cluster_executor_validation():
    with pytest.raises(ValueError, match="max_workers"):
        ClusterExecutor(max_workers=0)
    with pytest.raises(ValueError, match="lease_timeout"):
        ClusterExecutor(lease_timeout=0)


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
    executor = ClusterExecutor(run_dir=run_dir, max_workers=1, poll_interval=0.01)
    results = run_sweep(grid(), executor=executor, store=run_dir)
    keys = [r["key"] for r in read_jsonl(os.path.join(run_dir, "results.jsonl"))]
    assert sorted(keys) == sorted(results)  # one line per cell, no doubles
    # A store in a *different* directory is still written as usual.
    other_dir = str(tmp_path / "elsewhere")
    executor2 = ClusterExecutor(run_dir=str(tmp_path / "run2"), max_workers=1,
                                poll_interval=0.01)
    run_sweep(grid(), executor=executor2, store=other_dir)
    assert len(ResultStore(other_dir)) == len(results)


def test_the_coordinator_serves_around_a_freshly_heartbeaten_lease(grid, tmp_path):
    """A worker deep in a long group (fresh lease) keeps its claim: the
    coordinator serves every other item and leaves that lease, and its
    fence, alone, until the lease expires."""
    spec = grid()
    groups = group_jobs(spec.jobs)
    run_dir = str(tmp_path)
    submit_spec(run_dir, spec, lease_timeout=30.0)
    queue = JobQueue(run_dir, lease_timeout=30.0)
    item = queue.claim("busy-worker")  # lease just heartbeaten (claim touches)
    fence = queue.fence_of(item.item_id)
    executor = ClusterExecutor(run_dir=run_dir, max_workers=1, poll_interval=0.01,
                               lease_timeout=30.0)
    outputs = executor.run(spec.context(), groups)
    served = list(itertools.islice(outputs, len(groups) - 1))
    (busy,) = [group for group in groups if group_item_id(group) == item.item_id]
    assert {key for output in served for key, _ in output} == (
        {job.content_key for job in spec.jobs} - {job.content_key for job in busy})
    assert queue.leased_ids() == [item.item_id]
    assert queue.pending_ids() == []
    assert queue.fence_of(item.item_id) == fence
    # The busy worker dies: once its lease is stale the coordinator takes it.
    os.utime(os.path.join(queue.queue_dir, "leased", item.item_id + ".json"), (0.0, 0.0))
    assert [key for key, _ in next(outputs)] == [job.content_key for job in busy]
    assert list(outputs) == [] and queue.is_drained()
