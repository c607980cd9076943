"""Cluster-side telemetry: manifest propagation, worker spans, status --json.

The invariant at the heart of this file: **each execution of a work item
produces exactly one ``worker.item`` span** — claim through complete,
whether or not the completion rename wins.  A lost lease therefore shows up
as one span per *executing* worker (plus a ``worker.lost_leases`` counter
on the loser), never zero and never two from the same worker.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import repro.cluster.worker as cluster_worker
from repro import telemetry
from repro.cluster import ClusterExecutor, JobQueue, merge_shards, submit_spec, worker_loop
from repro.cluster.cli import main as cluster_main, run_status
from repro.cluster.queue import DONE, LEASED
from repro.runtime import group_jobs, run_sweep
from repro.telemetry.report import load_run_records, merged_run_metrics


@pytest.fixture(autouse=True)
def no_recorder_leaks():
    telemetry.disable()
    yield
    telemetry.disable()


def worker_item_spans(run_dir):
    return [
        r for r in load_run_records(run_dir)
        if r.get("type") == "span" and r.get("name") == "worker.item"
    ]


def test_manifest_flag_makes_workers_record_their_own_sinks(grid, tmp_path):
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submission = submit_spec(run_dir, grid(), lease_timeout=600.0)
    # The submission recorded the manifest flag; this worker starts with no
    # recorder of its own and must auto-configure from it.
    assert not telemetry.enabled()
    stats = worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
    assert not telemetry.enabled()  # the worker-owned recorder was torn down
    assert stats.items == len(submission.enqueued)

    spans = worker_item_spans(run_dir)
    assert len(spans) == len(submission.enqueued)
    assert {s["sink"] for s in spans} == {"worker-w1"}
    assert all(s["completed"] is True and s["cells"] >= 1 for s in spans)
    merged = merged_run_metrics(run_dir)
    assert merged["counters"]["worker.items"] == stats.items
    assert merged["counters"]["queue.claims"] == stats.items
    assert merged["counters"].get("worker.lost_leases", 0) == 0


def test_exactly_one_worker_span_per_execution_across_a_lost_lease(grid, tmp_path):
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submission = submit_spec(run_dir, grid(), lease_timeout=600.0)
    items = len(submission.enqueued)
    queue = JobQueue(run_dir, lease_timeout=600.0)

    # Worker A executes one item whose lease force-expires mid-execution:
    # its completion rename must fail, its span must still be recorded.
    original_complete = JobQueue.complete
    expired = {}

    def expire_then_complete(self, item_id):
        if not expired:
            expired[item_id] = True
            self.requeue_expired(now=time.time() + 1200.0)
        return original_complete(self, item_id)

    JobQueue.complete = expire_then_complete
    try:
        slow = worker_loop(run_dir, worker_id="slow", lease_timeout=600.0,
                           max_items=1)
    finally:
        JobQueue.complete = original_complete
    assert slow.lost_leases == 1
    (lost_item,) = expired

    # Worker B re-executes the requeued item (and everything else).
    fast = worker_loop(run_dir, worker_id="fast", lease_timeout=600.0)
    assert queue.is_drained()
    assert fast.lost_leases == 0

    spans = worker_item_spans(run_dir)
    # items + 1 executions happened: the lost item ran on both workers.
    assert len(spans) == items + 1
    by_pair = {(s["sink"], s["item"]) for s in spans}
    assert len(by_pair) == len(spans)  # never two spans from one worker
    lost_spans = [s for s in spans if s["item"] == lost_item]
    assert sorted(s["completed"] for s in lost_spans) == [False, True]
    merged = merged_run_metrics(run_dir)
    assert merged["counters"]["worker.lost_leases"] == 1
    assert merged["counters"]["queue.leases_lost"] == 1
    assert merged["counters"]["queue.requeued_expired"] == 1
    assert merged["counters"]["worker.items"] == items + 1


def test_a_worker_flushes_its_counters_before_it_publishes_an_items_cells(
    grid, tmp_path, monkeypatch
):
    """A coordinator stops its daemons as soon as it has merged their last
    cells, so an item's counters must be in the worker's sink before the
    item's cells are in its shard."""
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submit_spec(run_dir, grid(), lease_timeout=600.0)
    publishes = []
    append_jsonl = cluster_worker.append_jsonl

    def publish(path, records, **kwargs):
        # The sink as a reader would find it if the worker stopped here.
        snapshots = [r for r in load_run_records(run_dir)
                     if r["type"] == "metrics" and r["sink"] == "worker-w1"]
        counted = snapshots[-1]["counters"].get("engine.cells", 0) if snapshots else 0
        publishes.append((counted, len(records)))
        return append_jsonl(path, records, **kwargs)

    monkeypatch.setattr(cluster_worker, "append_jsonl", publish)
    stats = worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
    assert len(publishes) == stats.items > 1
    published = 0
    for counted, cells in publishes:
        published += cells
        assert counted == published  # this item's cells included


def test_caller_installed_recorder_wins_over_the_manifest_flag(grid, tmp_path):
    run_dir = str(tmp_path / "run")
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submit_spec(run_dir, grid(), lease_timeout=600.0)
    with telemetry.recording(str(tmp_path / "own"), name="mine", echo=None) as rec:
        worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
        assert telemetry.get_recorder() is rec  # not replaced mid-loop
    # Every worker span landed in the caller's sink, not the run dir's.
    assert {s["sink"] for s in worker_item_spans(str(tmp_path / "own"))} == {"mine"}


def test_the_coordinator_records_one_start_and_exit_however_many_polls(
    grid, tmp_path, monkeypatch
):
    """The coordinator runs one round of the worker loop per poll, yet its
    sink holds one ``worker.start`` and one ``worker.exit`` for the run and
    no metrics snapshot per poll.  The run polls for a couple of seconds: a
    dead peer holds the last item's lease until it expires."""
    run_dir = str(tmp_path)
    spec = grid()
    groups = group_jobs(spec.jobs)
    submit_spec(run_dir, spec, lease_timeout=2.0)
    JobQueue(run_dir, lease_timeout=2.0).claim("dead-peer")
    scans = []
    scan = cluster_worker._scan

    def counted(*args):
        scans.append(1)
        return scan(*args)

    monkeypatch.setattr(cluster_worker, "_scan", counted)
    executor = ClusterExecutor(run_dir=run_dir, max_workers=1, lease_timeout=2.0,
                               poll_interval=0.02)
    with telemetry.recording(run_dir, name="caller", echo=None):
        outputs = list(executor.run(spec.context(), groups))
    assert len(outputs) == len(groups)
    assert len(scans) > 20  # many polls while the dead peer's lease ran out

    coordinator = f"coordinator-{os.getpid()}"
    records = [r for r in load_run_records(run_dir) if r["sink"] == "caller"]
    lifetime = [r for r in records if r["type"] == "event"
                and r["name"] in ("worker.start", "worker.exit")]
    assert [(r["name"], r["worker"]) for r in lifetime] == [
        ("worker.start", coordinator), ("worker.exit", coordinator)]
    assert lifetime[1]["items"] == len(groups)  # the whole run's count
    # Each item flushes its counters twice (before it publishes, after it
    # completes); the coordinator adds one snapshot at exit and the
    # recording one at close.
    snapshots = [r for r in records if r["type"] == "metrics"]
    assert len(snapshots) <= 2 * len(groups) + 2


def test_every_daemon_that_starts_records_its_exit(grid, tmp_path, monkeypatch):
    """The coordinator terminates its daemon once the last cells merge; the
    daemon, backing off while the coordinator serves that last item, still
    records its ``worker.exit``.  The coordinator's items are slowed so that
    it holds the last one in nearly every drain."""
    coordinator_pid = os.getpid()
    execute_group = cluster_worker.execute_group

    def slow_in_the_coordinator(context, jobs):
        if os.getpid() == coordinator_pid:
            time.sleep(0.06)
        return execute_group(context, jobs)

    monkeypatch.setattr(cluster_worker, "execute_group", slow_in_the_coordinator)
    started = 0
    for drain in range(6):
        run_dir = str(tmp_path / f"drain-{drain}")
        executor = ClusterExecutor(run_dir=run_dir, max_workers=2, lease_timeout=10.0,
                                   poll_interval=0.02)
        with telemetry.recording(run_dir, name="caller", echo=None):
            run_sweep(grid(), executor=executor)
        lifetimes = {}
        for record in load_run_records(run_dir):
            if (record["sink"].startswith("worker-local-") and record["type"] == "event"
                    and record["name"] in ("worker.start", "worker.exit")):
                lifetimes.setdefault(record["sink"], []).append(record["name"])
        for sink, names in lifetimes.items():
            assert names == ["worker.start", "worker.exit"], (drain, sink, names)
        started += len(lifetimes)
    assert started >= 3  # the daemon got going in most drains


def test_worker_loop_records_one_start_and_exit_per_call(grid, tmp_path):
    """An external worker's lifetime is one ``worker_loop`` call: two calls
    over one run record two start/exit pairs, each exit with its own call's
    items."""
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    with telemetry.recording(run_dir, name="caller", echo=None):
        first = worker_loop(run_dir, worker_id="w0", max_items=2)
        second = worker_loop(run_dir, worker_id="w0")
    assert first.items == 2
    assert first.items + second.items == len(submission.enqueued)
    lifetime = [
        (r["name"], r.get("items")) for r in load_run_records(run_dir)
        if r["sink"] == "caller" and r["type"] == "event"
        and r["name"] in ("worker.start", "worker.exit")
    ]
    assert lifetime == [
        ("worker.start", None), ("worker.exit", first.items),
        ("worker.start", None), ("worker.exit", second.items),
    ]


def test_status_json_surfaces_queue_results_and_lease_counters(grid, tmp_path, capsys):
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submit_spec(run_dir, grid(), lease_timeout=600.0)
    worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
    merge_shards(run_dir)

    status = run_status(run_dir)
    assert status["complete"] is True
    assert status["stored"] == status["expected"] > 0
    assert status["queue"][LEASED] == 0 and status["queue"][DONE] > 0
    assert status["lost_leases"] == 0
    assert status["telemetry"]["worker.items"] == status["queue"][DONE]

    assert cluster_main(["status", run_dir, "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["complete"] is True
    assert parsed["telemetry"]["worker.cells"] == parsed["stored"]

    # The text rendering surfaces the lease counters when telemetry exists.
    assert cluster_main(["status", run_dir]) == 0
    text = capsys.readouterr().out
    assert "leases: 0 lost, 0 expired requeued" in text


def test_status_works_without_any_telemetry(grid, tmp_path, capsys):
    run_dir = str(tmp_path)
    submit_spec(run_dir, grid(), lease_timeout=600.0)
    worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
    merge_shards(run_dir)
    status = run_status(run_dir)
    assert status["telemetry"] is None
    assert status["complete"] is True
    assert cluster_main(["status", run_dir]) == 0
    assert "leases:" not in capsys.readouterr().out
