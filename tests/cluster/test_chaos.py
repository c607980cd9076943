"""Deterministic chaos: seeded fault schedules over a real sweep.

The invariant every test here asserts, under different fault mixes:

* the sweep **terminates** (no hang, no crash-looping worker),
* every cell that was not deliberately poisoned merges **exactly** (bit
  parity with a clean serial run) and **duplicate-free**,
* the dead-letter set equals exactly the poisoned items, each with a
  readable failure record after exactly ``max_attempts`` attempts.

SIGKILL and torn-write fault kinds run only in subprocess workers — firing
them in-process would take the test runner down with them.  The in-process
tests therefore restrict themselves to ``exception`` and ``stall`` kinds.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro import faults
from repro.cluster import (
    ClusterExecutor,
    JobQueue,
    RetryPolicy,
    group_item_id,
    merge_shards,
    submit_spec,
    worker_loop,
)
from repro.faults import FaultPlan, FaultRule, InjectedFault
from repro.runtime import ResultStore, SerialExecutor, group_jobs, run_sweep


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear()
    yield
    faults.clear()


NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _poison_target(spec):
    """(item_id, content_keys) of the first queue item of ``spec``."""
    group = group_jobs(spec.jobs)[0]
    return group_item_id(group), {job.content_key for job in group}


def _results_keys(run_dir):
    from repro.utils.serialization import parse_jsonl_line

    path = os.path.join(run_dir, "results.jsonl")
    with open(path) as handle:
        parsed = [parse_jsonl_line(line) for line in handle if line.strip()]
    assert all(status == "ok" for _, status in parsed)
    return [record["key"] for record, _ in parsed]


def _assert_survivors_exact(run_dir, serial, poison_keys):
    """Merged results: bit parity for every non-poisoned cell, no doubles,
    and nothing from a poisoned cell leaked into the canonical store."""
    merge_shards(run_dir)
    store = ResultStore(run_dir)
    for key, cell in serial.items():
        if key not in poison_keys:
            assert store.get(key) == cell  # equal, not merely close
    keys = _results_keys(run_dir)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(serial) - poison_keys


def test_poisoned_item_dead_letters_and_the_rest_of_the_sweep_survives(
    grid, tmp_path
):
    """The ISSUE's acceptance criterion, in-process: one deterministically
    raising item dead-letters after exactly ``max_attempts`` attempts with a
    readable traceback; the worker loop survives and drains everything else."""
    run_dir = str(tmp_path)
    spec = grid()
    poison_id, poison_keys = _poison_target(spec)
    plan = FaultPlan(
        [FaultRule(seam="execute", kind="exception", match=poison_id,
                   times=None, note="poison")]
    )
    submission = submit_spec(run_dir, spec, retry=NO_BACKOFF, fault_plan=plan)
    assert poison_id in submission.enqueued

    stats = worker_loop(run_dir, worker_id="chaos", poll_interval=0.01)
    assert faults.current() is None  # the manifest plan was uninstalled

    # Containment: the loop outlived every injected failure.
    assert stats.failures == NO_BACKOFF.max_attempts
    assert stats.dead_lettered == 1
    assert stats.items == len(submission.enqueued) - 1

    queue = JobQueue(run_dir)
    assert queue.is_drained()
    assert queue.failed_ids() == [poison_id]
    record = queue.failure_record(poison_id)
    failure = record["failure"]
    assert failure["exc_type"] == "InjectedFault"
    assert "InjectedFault" in failure["traceback"]
    assert failure["attempts"] == NO_BACKOFF.max_attempts
    assert [entry["attempt"] for entry in record["history"]] == [1, 2, 3]
    assert queue.attempts_histogram()[NO_BACKOFF.max_attempts] == 1

    serial = run_sweep(grid(), executor=SerialExecutor())
    _assert_survivors_exact(run_dir, serial, poison_keys)


def test_malloc_fault_is_contained_like_any_poisoned_attempt(grid, tmp_path):
    """An injected ``MemoryError`` at the execute seam must cost attempts,
    not the worker: the item dead-letters with ``exc_type == MemoryError``
    and every other cell still merges exactly."""
    run_dir = str(tmp_path)
    spec = grid()
    poison_id, poison_keys = _poison_target(spec)
    plan = FaultPlan(
        [FaultRule(seam="execute", kind="malloc", match=poison_id,
                   times=None, note="allocation pressure")]
    )
    submission = submit_spec(run_dir, spec, retry=NO_BACKOFF, fault_plan=plan)

    stats = worker_loop(run_dir, worker_id="oom", poll_interval=0.01)
    assert stats.failures == NO_BACKOFF.max_attempts
    assert stats.dead_lettered == 1
    assert stats.items == len(submission.enqueued) - 1

    queue = JobQueue(run_dir)
    assert queue.is_drained()
    assert queue.failed_ids() == [poison_id]
    failure = queue.failure_record(poison_id)["failure"]
    assert failure["exc_type"] == "MemoryError"
    assert "MemoryError" in failure["traceback"]

    serial = run_sweep(grid(), executor=SerialExecutor())
    _assert_survivors_exact(run_dir, serial, poison_keys)


def test_cluster_executor_returns_partial_results_and_a_failure_report(
    grid, tmp_path
):
    """A poisoned run terminates with every survivable cell plus a
    :class:`FailureReport` naming the dead-lettered item and its cells."""
    spec = grid()
    poison_id, poison_keys = _poison_target(spec)
    retry = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)
    plan = FaultPlan(
        [FaultRule(seam="execute", kind="exception", match=poison_id,
                   times=None, note="poison")]
    )
    executor = ClusterExecutor(
        run_dir=str(tmp_path), max_workers=1, poll_interval=0.01,
        retry=retry, fault_plan=plan,
    )
    results = run_sweep(grid(), executor=executor)
    serial = run_sweep(grid(), executor=SerialExecutor())

    assert set(results) == set(serial) - poison_keys  # partial, not empty
    for key in results:
        assert results[key] == serial[key]

    report = executor.failure_report
    assert report  # truthy exactly when something dead-lettered
    assert report.items == [poison_id]
    assert set(report.keys) == poison_keys
    failure = report.failures[0].failure
    assert failure["exc_type"] == "InjectedFault"
    assert failure["attempts"] == retry.max_attempts
    assert poison_id in report.summary()


def test_seeded_chaos_schedule_preserves_the_core_invariant(grid, tmp_path):
    """A randomized (but seeded, hence replayable) schedule of transient
    faults plus one persistent poison: the sweep terminates, survivors are
    exact and duplicate-free, dead letters are exactly the poison."""
    run_dir = str(tmp_path)
    spec = grid()
    poison_id, poison_keys = _poison_target(spec)
    # Worst case every probabilistic firing lands on one unlucky item, so
    # its transient budget (times=3) must stay below max_attempts.
    retry = RetryPolicy(max_attempts=4, backoff_base=0.0, jitter=0.0)
    plan = FaultPlan(
        [
            FaultRule(seam="execute", kind="exception", match=poison_id,
                      times=None, note="poison"),
            FaultRule(seam="execute", kind="exception", p=0.35, times=3,
                      note="transient flake"),
            FaultRule(seam="publish", kind="stall", stall_s=0.02, times=2),
            FaultRule(seam="heartbeat", kind="stall", stall_s=0.01, times=2),
        ],
        seed=1234,
    )
    submission = submit_spec(run_dir, spec, retry=retry, fault_plan=plan)

    stats = worker_loop(run_dir, worker_id="chaos", poll_interval=0.01)
    queue = JobQueue(run_dir)
    assert queue.is_drained()  # terminated despite the weather
    assert stats.dead_lettered == 1
    assert queue.failed_ids() == [poison_id]
    failure = queue.failure_record(poison_id)["failure"]
    assert failure["exc_type"] == "InjectedFault"
    assert failure["attempts"] == retry.max_attempts

    serial = run_sweep(grid(), executor=SerialExecutor())
    _assert_survivors_exact(run_dir, serial, poison_keys)
    # The coin flips are seed-deterministic per (item, visit) — proven in
    # tests/faults — but the queue's claim shuffle makes the interleaving
    # (hence the exact attempt histogram) run-specific.  What must replay is
    # the *invariant*: a rerun of the same schedule converges identically.
    rerun_dir = str(tmp_path / "rerun")
    submit_spec(rerun_dir, grid(), retry=retry, fault_plan=plan)
    worker_loop(rerun_dir, worker_id="chaos", poll_interval=0.01)
    rerun_queue = JobQueue(rerun_dir)
    assert rerun_queue.is_drained()
    assert rerun_queue.failed_ids() == [poison_id]
    _assert_survivors_exact(rerun_dir, serial, poison_keys)


def _spawn_worker_with_env(run_dir, worker_id, extra_env):
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cluster", "worker", run_dir,
         "--id", worker_id, "--poll", "0.05"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.mark.slow
def test_torn_shard_write_is_skipped_counted_and_healed(grid, tmp_path):
    """A worker SIGKILLed halfway through a shard append leaves a torn final
    line; the merge skips it, a healthy worker re-executes the group, and
    the canonical store ends complete, exact and duplicate-free."""
    run_dir = str(tmp_path)
    spec = grid()
    submit_spec(run_dir, spec, lease_timeout=1.0)

    # The torn-write plan travels via the environment to this worker only —
    # the manifest stays clean so the healing worker runs fault-free.
    plan = FaultPlan([FaultRule(seam="publish", kind="torn_write", nth=1)])
    torn = _spawn_worker_with_env(run_dir, "torn", plan.to_env())
    torn.wait(timeout=60)
    assert torn.returncode == -9  # died mid-append, by design

    shard = os.path.join(run_dir, "shards", "worker-torn.jsonl")
    with open(shard, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    with pytest.raises(json.JSONDecodeError):
        json.loads(lines[-1])  # the final line really is torn

    queue = JobQueue(run_dir, lease_timeout=1.0)
    assert len(queue.leased_ids()) == 1  # the orphaned lease
    time.sleep(1.1)
    stats = worker_loop(run_dir, worker_id="healer", lease_timeout=1.0)
    assert stats.requeued >= 1
    assert queue.is_drained()
    assert queue.failed_ids() == []  # a crash is not a dead letter

    serial = run_sweep(grid(), executor=SerialExecutor())
    _assert_survivors_exact(run_dir, serial, poison_keys=set())


@pytest.mark.slow
def test_daemon_fleet_with_injected_exceptions_converges(grid, tmp_path):
    """The full daemon path under a manifest-propagated schedule: spawned
    workers inherit the plan, contain the poison, and the coordinator
    degrades gracefully to partial results plus a failure report."""
    spec = grid()
    poison_id, poison_keys = _poison_target(spec)
    retry = RetryPolicy(max_attempts=2, backoff_base=0.05, backoff_max=0.1)
    plan = FaultPlan(
        [FaultRule(seam="execute", kind="exception", match=poison_id,
                   times=None, note="poison")]
    )
    executor = ClusterExecutor(
        run_dir=str(tmp_path), max_workers=2, lease_timeout=10.0,
        poll_interval=0.02, retry=retry, fault_plan=plan,
    )
    results = run_sweep(grid(), executor=executor)
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert set(results) == set(serial) - poison_keys
    for key in results:
        assert results[key] == serial[key]
    report = executor.failure_report
    assert report and report.items == [poison_id]
    assert report.failures[0].failure["exc_type"] == "InjectedFault"


def test_status_and_retry_failed_cli_drive_the_dead_letter_workflow(
    grid, tmp_path, capsys
):
    """The operator loop: status surfaces the dead letter and its attempt
    histogram; retry-failed requeues it with a fresh budget; unknown items
    are a usage error."""
    from repro.cluster.cli import main as cluster_main, run_status

    run_dir = str(tmp_path)
    spec = grid()
    poison_id, _ = _poison_target(spec)
    plan = FaultPlan(
        [FaultRule(seam="execute", kind="exception", match=poison_id,
                   times=None, note="poison")]
    )
    submit_spec(run_dir, spec, retry=NO_BACKOFF, fault_plan=plan)
    worker_loop(run_dir, worker_id="chaos", poll_interval=0.01)

    status = run_status(run_dir)
    assert status["queue"]["failed"] == 1
    assert status["failed_items"] == [poison_id]
    assert status["attempts"][str(NO_BACKOFF.max_attempts)] == 1

    assert cluster_main(["retry-failed", run_dir, "--item", "no-such-item"]) == 2
    assert cluster_main(["retry-failed", run_dir, "--item", poison_id]) == 0
    capsys.readouterr()
    queue = JobQueue(run_dir)
    assert queue.failed_ids() == []
    assert queue.counts()["pending"] == 1
    assert cluster_main(["retry-failed", run_dir]) == 0  # empty: a no-op
    assert "nothing to retry" in capsys.readouterr().out


def test_injected_fault_is_a_regular_exception():
    """Containment treats injected faults like any job failure — nothing in
    the worker special-cases them, so InjectedFault must be a plain error."""
    assert issubclass(InjectedFault, RuntimeError)


def _sorted_store_lines(run_dir):
    with open(os.path.join(run_dir, "results.jsonl"), encoding="utf-8") as fh:
        return sorted(line for line in fh if line.strip())


def test_zombie_stall_resume_cannot_contaminate_the_canonical_store(
    grid, tmp_path
):
    """The fence acceptance criterion, fully deterministic: a worker that
    claims an item, stalls past its lease (the ``stall_resume`` kind — a
    pause the process survives), loses the item to a healthy peer and then
    resumes its publish cannot reach the canonical store.  The merged
    ``results.jsonl`` is bit-identical to a clean run's; the zombie's lines
    land in ``quarantine.jsonl`` with fence-violation reasons."""
    import pickle

    from repro.cluster import repair_run_dir, verify_run_dir
    from repro.runtime.executors import execute_group
    from repro.runtime.spec import EvalJob
    from repro.runtime.store import job_metadata
    from repro.utils.serialization import append_jsonl, read_jsonl

    run_dir = str(tmp_path / "chaos")
    clean_dir = str(tmp_path / "clean")
    submit_spec(run_dir, grid(), lease_timeout=0.5)

    # The zombie claims an item at fence epoch 1 and executes it...
    queue = JobQueue(run_dir, lease_timeout=0.5)
    zitem = queue.claim("zombie")
    assert zitem is not None and zitem.fence == 1
    with open(os.path.join(run_dir, "context.pkl"), "rb") as fh:
        context = pickle.load(fh)
    jobs = [EvalJob.from_record(r) for r in zitem.payload["jobs"]]
    jobs_by_key = {job.content_key: job for job in jobs}
    zombie_records = []
    for key, cell in execute_group(context, jobs):
        record = {
            "key": key, "error": float(cell.error),
            "confidence": float(cell.confidence),
            "worker": "zombie", "item": zitem.item_id, "fence": zitem.fence,
        }
        record.update(job_metadata(jobs_by_key[key]))
        zombie_records.append(record)

    # ... then stalls at the publish seam past its lease; the lease
    # expires and the item is requeued out from under it.
    plan = FaultPlan([FaultRule(seam="publish", kind="stall_resume",
                                match=zitem.item_id, stall_s=0.05)])
    faults.install(plan)
    old = time.time() - 60.0
    os.utime(queue._path("leased", zitem.item_id), (old, old))
    assert zitem.item_id in queue.requeue_expired()

    # A healthy worker re-claims it (fence epoch 2) and drains the run.
    stats = worker_loop(run_dir, worker_id="w1", poll_interval=0.01)
    assert stats.items == len(queue.done_ids())
    assert queue.is_drained()
    assert queue.fence_of(zitem.item_id) == 2

    # The zombie finally resumes: its stall elapses, it publishes its
    # stale-fenced lines, and its completion rename loses.
    faults.fire("publish", zitem.item_id)  # the stall_resume pause
    zombie_shard = os.path.join(run_dir, "shards", "worker-zombie.jsonl")
    append_jsonl(zombie_shard, zombie_records, checksum=True)
    assert not queue.complete(zitem.item_id)

    merge_stats = merge_shards(run_dir)
    assert merge_stats.quarantined == len(zombie_records)

    # Ground truth: the same sweep, same healthy worker id, no chaos.
    submit_spec(clean_dir, grid(), lease_timeout=0.5)
    worker_loop(clean_dir, worker_id="w1", poll_interval=0.01)
    merge_shards(clean_dir)
    assert _sorted_store_lines(run_dir) == _sorted_store_lines(clean_dir)

    entries = read_jsonl(os.path.join(run_dir, "quarantine.jsonl"))
    assert {e["reason"] for e in entries} == {"fence_stale"}
    assert ({e["record"]["key"] for e in entries}
            == {r["key"] for r in zombie_records})

    # verify still flags the zombie's shard residue; repair quarantines it
    # (without touching the store) and the audit comes back clean.
    report = verify_run_dir(run_dir)
    assert report.counts() == {"shard.stale_fence": len(zombie_records)}
    before = _sorted_store_lines(run_dir)
    rstats = repair_run_dir(run_dir)
    assert rstats.shard_lines_quarantined == len(zombie_records)
    assert rstats.store_lines_quarantined == 0
    assert _sorted_store_lines(run_dir) == before
    assert verify_run_dir(run_dir).clean


def test_disk_full_publish_nacks_and_repair_restores_verify_clean(
    grid, tmp_path
):
    """An injected ENOSPC mid-append: the worker nacks (one failure, no
    dead letter), the retry republishes the whole group, the canonical
    store ends exact, and verify flags only the torn residue — which
    repair quarantines, restoring a clean audit."""
    from repro.cluster import repair_run_dir, verify_run_dir
    from repro.utils.serialization import read_jsonl

    run_dir = str(tmp_path)
    spec = grid()
    target_id, _ = _poison_target(spec)
    plan = FaultPlan([FaultRule(seam="publish", kind="disk_full",
                                match=target_id, times=1)])
    submit_spec(run_dir, spec, retry=NO_BACKOFF, fault_plan=plan)
    stats = worker_loop(run_dir, worker_id="w1", poll_interval=0.01)
    assert stats.failures == 1  # the injected ENOSPC cost one attempt
    assert stats.dead_lettered == 0
    queue = JobQueue(run_dir)
    assert queue.is_drained() and queue.failed_ids() == []
    assert queue.fence_of(target_id) == 2  # nack + re-claim bumped the epoch

    # No torn canonical state: the merged store is exact and complete.
    serial = run_sweep(grid(), executor=SerialExecutor())
    _assert_survivors_exact(run_dir, serial, poison_keys=set())

    report = verify_run_dir(run_dir)
    assert report.counts() == {"shard.torn_line": 1}  # the ENOSPC residue
    rstats = repair_run_dir(run_dir)
    assert rstats.shard_lines_quarantined == 1
    assert verify_run_dir(run_dir).clean
    entries = read_jsonl(os.path.join(run_dir, "quarantine.jsonl"))
    assert [e["reason"] for e in entries] == ["torn"]
    assert "raw" in entries[0]  # the undecodable bytes are kept for audit
