"""The worker's claim loop, one round at a time.

:class:`~repro.cluster.worker.ServeLoop` holds what :func:`serve` keeps
between rounds, so the cluster coordinator can serve at most one item per
poll while recording one worker lifetime (one ``worker.start``, one
``worker.exit``) for its whole run.
"""

from __future__ import annotations

import pytest

import repro.cluster.worker as cluster_worker
from repro import telemetry
from repro.cluster import JobQueue, submit_spec
from repro.cluster.worker import RunSource, ServeLoop
from repro.telemetry.report import load_run_records


@pytest.fixture(autouse=True)
def no_recorder_leaks():
    telemetry.disable()
    yield
    telemetry.disable()


def lifetime_events(run_dir, sink):
    return [
        record for record in load_run_records(run_dir)
        if record["sink"] == sink and record["type"] == "event"
        and record["name"] in ("worker.start", "worker.exit")
    ]


def test_a_round_serves_at_most_one_item(grid, tmp_path):
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    queue = JobQueue(run_dir)
    loop = ServeLoop(RunSource(run_dir), "w0", poll_interval=0.01, max_poll=0.01)
    loop.start()
    for served in range(1, len(submission.enqueued) + 1):
        loop.round()
        assert len(queue.done_ids()) == served
    loop.stop()
    assert loop.stats.items == len(submission.enqueued)
    assert queue.is_drained()


def test_a_round_with_nothing_to_claim_waits_one_poll(grid, tmp_path, monkeypatch):
    """Every item is leased by a live peer: each round serves nothing and
    sleeps one jittered poll (never longer than ``max_poll``), so a waiting
    coordinator neither spins nor stalls."""
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid(), lease_timeout=600.0)
    queue = JobQueue(run_dir, lease_timeout=600.0)
    while queue.claim("peer") is not None:
        pass
    sleeps = []
    monkeypatch.setattr(cluster_worker.time, "sleep", sleeps.append)
    loop = ServeLoop(RunSource(run_dir), "w0", poll_interval=0.05, max_poll=0.05)
    loop.start()
    for _ in range(3):
        loop.round()
    loop.stop()
    assert len(sleeps) == 3
    assert all(0.025 <= delay < 0.075 for delay in sleeps), sleeps
    assert loop.stats.items == 0
    assert len(queue.leased_ids()) == len(submission.enqueued)


def test_idle_rounds_back_off_exponentially_up_to_max_poll(tmp_path, monkeypatch):
    """Delays double from ``poll_interval`` to the ``max_poll`` cap, each
    jittered by a factor in [0.5, 1.5) that depends on the worker id only."""
    sleeps = []
    monkeypatch.setattr(cluster_worker.time, "sleep", sleeps.append)

    def backoffs(worker_id):
        loop = ServeLoop(RunSource(str(tmp_path)), worker_id,
                         poll_interval=0.01, max_poll=0.08)
        del sleeps[:]
        for _ in range(7):
            loop.back_off()
        return list(sleeps)

    delays = backoffs("w0")
    for polls, delay in enumerate(delays):
        base = min(0.01 * 2.0**polls, 0.08)
        assert 0.5 * base <= delay < 1.5 * base, (polls, delay)
    assert backoffs("w0") == delays
    assert backoffs("w1") != delays


@pytest.mark.parametrize("recorder", ["caller", "own-sink"])
def test_start_and_stop_bracket_any_number_of_rounds(grid, tmp_path, recorder):
    """One ``worker.start`` and one ``worker.exit`` with the totals of every
    round, however many rounds run, idle ones included.  Under a caller's
    recorder the loop leaves it installed; a worker that opened its own sink
    (the manifest asked for telemetry) closes it."""
    run_dir = str(tmp_path)

    def drive(rounds):
        loop = ServeLoop(RunSource(run_dir), "w0", poll_interval=0.01, max_poll=0.01)
        loop.start()
        for _ in range(rounds):
            loop.round()
        loop.stop()
        return loop

    if recorder == "caller":
        submission = submit_spec(run_dir, grid())
        with telemetry.recording(run_dir, name="caller", echo=None):
            loop = drive(len(submission.enqueued) + 2)
            assert telemetry.enabled()
        sink = "caller"
    else:
        with telemetry.recording(run_dir, name="submitter", echo=None):
            submission = submit_spec(run_dir, grid())
        loop = drive(len(submission.enqueued) + 2)
        assert not telemetry.enabled()
        sink = "worker-w0"
    events = lifetime_events(run_dir, sink)
    assert [(event["name"], event["worker"]) for event in events] == [
        ("worker.start", "w0"), ("worker.exit", "w0")]
    assert events[1]["items"] == loop.stats.items == len(submission.enqueued)
    assert events[1]["failures"] == 0
