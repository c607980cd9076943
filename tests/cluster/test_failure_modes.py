"""Cluster failure modes: crashed workers, lease recovery, exactly-once results.

The headline guarantee under test: a worker SIGKILLed mid-group (lease held,
no results written) never loses or duplicates a cell — lease expiry requeues
its group, a surviving worker re-executes it, and the content-keyed merge
keeps the canonical results complete and duplicate-free.
"""

import errno
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.cluster.coordinator as coordinator
import repro.cluster.worker as cluster_worker
from repro import faults, telemetry
from repro.cluster import (
    ClusterExecutor,
    JobQueue,
    merge_shards,
    spawn_local_worker,
    submit_spec,
    worker_loop,
)
from repro.faults import FAULTS_ENV, FaultPlan, FaultRule
from repro.runtime import ResultStore, SerialExecutor, run_sweep
from repro.utils.serialization import append_jsonl, read_jsonl

#: SIGKILL the worker process right after its first claim: mid-group, with
#: the lease held and no results written.
CRASH_AFTER_FIRST_CLAIM = FaultPlan([FaultRule(seam="claim", kind="sigkill", nth=1)])


def _spawn_worker(run_dir, worker_id, extra_env=None):
    """Start a real worker subprocess (optionally with a fault schedule)."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cluster", "worker", run_dir,
         "--id", worker_id, "--poll", "0.05"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _results_keys(run_dir):
    path = os.path.join(run_dir, "results.jsonl")
    return [record["key"] for record in read_jsonl(path)]


@pytest.mark.slow
def test_sigkill_mid_group_loses_and_duplicates_nothing(grid, tmp_path):
    """The ISSUE's crash-recovery criterion, end to end with real processes."""
    run_dir = str(tmp_path)
    spec = grid()
    submission = submit_spec(run_dir, spec, lease_timeout=1.0)
    assert submission.enqueued

    crashy = _spawn_worker(run_dir, "crashy", CRASH_AFTER_FIRST_CLAIM.to_env())
    crashy.wait(timeout=60)
    assert crashy.returncode == -9  # died by its own SIGKILL, mid-group
    queue = JobQueue(run_dir, lease_timeout=1.0)
    assert len(queue.leased_ids()) == 1  # the orphaned lease
    time.sleep(1.1)  # let it expire

    # A healthy worker requeues the orphan and finishes everything.
    stats = worker_loop(run_dir, worker_id="healthy", lease_timeout=1.0)
    assert stats.requeued >= 1
    assert queue.is_drained()
    merge_shards(run_dir)

    serial = run_sweep(grid(), executor=SerialExecutor())
    store = ResultStore(run_dir)
    expected = {job.content_key for job in spec.jobs}
    # Complete: every cell present and bit-identical to the serial run.
    assert all(store.get(key) == cell for key, cell in serial.items())
    # Duplicate-free: one canonical line per content key, nothing missing.
    keys = _results_keys(run_dir)
    assert set(keys) == expected
    assert len(keys) == len(expected)


def test_one_shot_worker_stays_to_rescue_a_peers_last_lease(grid, tmp_path):
    """A one-shot cluster worker does not exit while a peer holds the run's
    last lease: it waits out the lease, requeues it and runs the item."""
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid(), lease_timeout=0.5)
    queue = JobQueue(run_dir, lease_timeout=0.5)
    held = queue.claim("peer")  # a peer that will never report back
    # A patient worker (long expiry horizon) drains everything else.
    worker_loop(run_dir, worker_id="first", lease_timeout=600.0,
                max_items=len(submission.enqueued) - 1)
    assert queue.pending_ids() == [] and queue.leased_ids() == [held.item_id]
    assert queue.heartbeat(held.item_id)  # the peer's lease is fresh again

    stats = worker_loop(run_dir, worker_id="rescuer", poll_interval=0.01,
                        max_poll=0.05)
    assert stats.requeued == 1
    assert stats.item_ids == [held.item_id]
    assert queue.is_drained()


@pytest.mark.slow
def test_late_finisher_after_lease_loss_only_adds_dedupable_records(grid, tmp_path):
    """A slow worker that finishes after losing its lease cannot corrupt state."""
    run_dir = str(tmp_path)
    spec = grid()
    submit_spec(run_dir, spec, lease_timeout=600.0)
    queue = JobQueue(run_dir, lease_timeout=600.0)

    # Worker A claims an item but "stalls" (we simulate by claiming inline).
    item = queue.claim("slow")
    # Its lease force-expires (e.g. an operator requeues a stuck run).
    assert queue.requeue_expired(now=time.time() + 1200.0) == [item.item_id]
    # Worker B executes everything, including the requeued item.
    worker_loop(run_dir, worker_id="fast", lease_timeout=600.0)
    assert queue.is_drained()
    # Worker A now finishes late: completion fails, results only re-merge.
    assert not queue.complete(item.item_id)
    merge_shards(run_dir)
    merge_shards(run_dir)  # idempotent under re-runs
    serial = run_sweep(grid(), executor=SerialExecutor())
    store = ResultStore(run_dir)
    assert all(store.get(key) == cell for key, cell in serial.items())
    keys = _results_keys(run_dir)
    assert len(keys) == len(set(keys))


@pytest.mark.slow
def test_spawned_daemons_complete_a_sweep_bit_identically(grid, tmp_path):
    """The coordinator's daemon path: 2 local workers, exact serial parity."""
    executor = ClusterExecutor(
        run_dir=str(tmp_path),
        max_workers=2,
        lease_timeout=10.0,
        poll_interval=0.02,
    )
    results = run_sweep(grid(), executor=executor)
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert set(results) == set(serial)
    for key, cell in serial.items():
        assert results[key] == cell  # equal, not merely close


@pytest.mark.slow
def test_coordinator_survives_a_crashing_daemon_fleet(grid, tmp_path, monkeypatch):
    """Every spawned daemon dies after one claim; the sweep still completes.

    The daemons (and their respawned replacements) read the SIGKILL
    schedule from the environment and keep killing themselves until the
    restart budget runs out, while the coordinator serves the rest.  This
    process installs a plan of its own first: an installed plan outranks the
    environment, so the coordinator's items do not kill the test runner, and
    its stall on every item lets each daemon claim before the queue drains.
    A forked daemon must not inherit that plan, or none would ever die.
    """
    monkeypatch.setenv(FAULTS_ENV, CRASH_AFTER_FIRST_CLAIM.to_env()[FAULTS_ENV])
    faults.install(FaultPlan([FaultRule(seam="execute", kind="stall", stall_s=0.2,
                                        times=None)]))
    run_dir = str(tmp_path / "run")
    executor = ClusterExecutor(
        run_dir=run_dir,
        max_workers=2,
        lease_timeout=1.0,
        poll_interval=0.02,
    )
    try:
        with telemetry.recording(str(tmp_path), name="coordinator", echo=None) as rec:
            results = run_sweep(grid(), executor=executor)
    finally:
        faults.clear()
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert results == serial
    keys = _results_keys(run_dir)
    assert len(keys) == len(set(keys))  # recovery introduced no duplicates
    records = read_jsonl(rec.path)
    events = [r["name"] for r in records if r["type"] == "event"]
    assert "cluster.restart" in events  # daemons died and were replaced
    # ... and the coordinator served items itself, in this process.
    items = [r for r in records if r.get("name") == "worker.item"]
    assert items and {r["worker"] for r in items} == {f"coordinator-{os.getpid()}"}


def test_a_refused_fork_leaves_every_item_to_the_coordinator(grid, tmp_path, monkeypatch):
    """A host that refuses the fork gets the sweep finished by the coordinator."""
    def refuse():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    run_dir = str(tmp_path / "run")
    executor = ClusterExecutor(run_dir=run_dir, max_workers=2,
                               lease_timeout=5.0, poll_interval=0.01)
    with telemetry.recording(str(tmp_path), name="coordinator", echo=None) as rec:
        results = run_sweep(grid(), executor=executor)
    assert results == run_sweep(grid(), executor=SerialExecutor())
    assert os.listdir(os.path.join(run_dir, "shards")) == [
        f"worker-coordinator-{os.getpid()}.jsonl"]
    assert "cluster.spawn" not in {r.get("name") for r in read_jsonl(rec.path)}


def test_a_forked_daemon_starts_clean(grid, tmp_path, monkeypatch):
    """A daemon forked from this process keeps none of its per-process
    state: no fault plan, telemetry recorder or SIGTERM handler (it installs
    its own), and its output goes to its own log."""
    seen = str(tmp_path / "seen.jsonl")
    execute_group = cluster_worker.execute_group

    def probe(context, jobs, **kwargs):
        append_jsonl(seen, [{
            "pid": os.getpid(),
            "plan": faults.current() is not None,
            "sink": telemetry.get_recorder().path if telemetry.enabled() else None,
            "sigterm": signal.getsignal(signal.SIGTERM) is coordinator._exit_on_sigterm,
        }])
        return execute_group(context, jobs, **kwargs)

    monkeypatch.setattr(cluster_worker, "execute_group", probe)
    run_dir = str(tmp_path / "run")
    worker_id = "daemon"
    handler = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    faults.install(FaultPlan())
    try:
        with telemetry.recording(str(tmp_path), name="parent", echo=None) as rec:
            # Submitted while recording: the manifest asks workers for sinks.
            submission = submit_spec(run_dir, grid(), lease_timeout=10.0)
            daemon = spawn_local_worker(run_dir, worker_id, poll_interval=0.02)
            daemon.join(timeout=60)
    finally:
        faults.clear()
        signal.signal(signal.SIGTERM, handler)
    assert daemon.exitcode == 0
    merge_shards(run_dir)
    store = ResultStore(run_dir)
    assert all(store.get(key) == cell
               for key, cell in run_sweep(grid(), executor=SerialExecutor()).items())

    records = read_jsonl(seen)
    assert len(records) == len(submission.enqueued)
    for record in records:
        assert record["pid"] == daemon.pid
        assert not record["plan"]
        assert record["sink"] == os.path.join(run_dir, "telemetry",
                                              f"worker-{worker_id}.jsonl")
        assert record["sigterm"]
    parent = read_jsonl(rec.path)
    assert not [r for r in parent if r.get("name", "").startswith("worker.")]
    assert [r["type"] for r in parent].count("metrics") == 1
    with open(os.path.join(run_dir, "workers", f"{worker_id}.log"),
              encoding="utf-8") as handle:
        assert f"worker {worker_id}: " in handle.read()
