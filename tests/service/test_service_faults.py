"""Fault schedules and failure paths under service workers.

Service workers run the cluster's one worker loop, so every way a chaos
schedule reaches a cluster worker — an installed plan, the
``REPRO_FAULT_SCHEDULE`` environment variable, the run manifest — reaches
them too, resolved per tenant.  The rest of the file covers the service's
own failure paths: a poisoned dispatch, the finalization lock and the
one-shot exit rule.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro import faults, telemetry
from repro.cluster import JobQueue, RetryPolicy, worker_loop
from repro.faults import FaultPlan, FaultRule
from repro.runtime import ResultStore, SerialExecutor, run_sweep
from repro.service import FairShareScheduler, ServiceRegistry, service_worker_loop
from repro.service.worker import MERGE_LOCK_FILENAME, STALE_LOCK_S
from repro.telemetry.report import load_run_records, merged_run_metrics

ONE_ATTEMPT = RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0)
NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
#: Every execution raises: under ONE_ATTEMPT each item dead-letters at once.
POISON = FaultPlan(
    [FaultRule(seam="execute", kind="exception", times=None, note="poison")]
)


@pytest.fixture(autouse=True)
def no_leaks():
    faults.clear()
    telemetry.disable()
    yield
    faults.clear()
    telemetry.disable()


@pytest.fixture
def registry(tmp_path):
    return ServiceRegistry(str(tmp_path / "svc"))


def assert_solo_identical(registry, tenant_id, spec):
    store = ResultStore(registry.tenant_run_dir(tenant_id))
    solo = run_sweep(spec, executor=SerialExecutor())
    assert len(store) == len(solo)
    assert all(store.get(key) == cell for key, cell in solo.items())


def assert_all_dead_lettered(registry, tenant_id, submission):
    queue = JobQueue(registry.tenant_run_dir(tenant_id))
    assert queue.is_drained()
    assert queue.failed_ids() == sorted(submission.enqueued)
    for item_id in submission.enqueued:
        failure = queue.failure_record(item_id)["failure"]
        assert failure["exc_type"] == "InjectedFault"
    assert registry.get(tenant_id).state == "failed"


def test_tenant_manifest_plan_fires_for_that_tenant_only(registry, grid):
    poisoned = registry.submit(
        "poisoned", grid(), retry=ONE_ATTEMPT, fault_plan=POISON
    )
    registry.submit("clean", grid(rates=(0.02,), chip_rate=0.02))
    stats = service_worker_loop(registry.service_dir, worker_id="w0")
    assert faults.current() is None  # no tenant's plan stays armed

    assert stats.per_tenant["poisoned"].dead_lettered == len(poisoned.enqueued)
    assert stats.per_tenant["poisoned"].items == 0
    assert_all_dead_lettered(registry, "poisoned", poisoned)
    assert stats.per_tenant["clean"].failures == 0
    assert registry.get("clean").state == "done"
    assert_solo_identical(registry, "clean", grid(rates=(0.02,), chip_rate=0.02))


def test_service_worker_cli_honors_the_env_schedule(registry, grid):
    """``python -m repro.service worker`` resolves REPRO_FAULT_SCHEDULE."""
    import repro

    submission = registry.submit("alice", grid(), retry=ONE_ATTEMPT)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    env.update(POISON.to_env())
    done = subprocess.run(
        [sys.executable, "-m", "repro.service", "worker", registry.service_dir,
         "--id", "w0", "--poll", "0.05"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert f"{len(submission.enqueued)} failure(s)" in done.stdout
    assert_all_dead_lettered(registry, "alice", submission)


def test_run_scoped_manifest_rule_fires_once_across_two_service_workers(
    registry, grid
):
    once = FaultPlan(
        [FaultRule(seam="execute", kind="exception", scope="run", times=1)]
    )
    submission = registry.submit("alice", grid(), retry=NO_BACKOFF, fault_plan=once)
    assert len(submission.enqueued) >= 3
    first = service_worker_loop(registry.service_dir, worker_id="w0", max_items=1)
    second = service_worker_loop(registry.service_dir, worker_id="w1")
    # Each worker parsed its own copy of the plan (fresh per-process
    # counters); only the slot file keeps the second from firing again.
    assert (first.failures, second.failures) == (1, 0)
    assert first.items == 1
    assert second.items == len(submission.enqueued) - 1
    faults_dir = os.path.join(registry.tenant_run_dir("alice"), faults.BUDGET_DIRNAME)
    assert os.listdir(faults_dir) == ["rule-0-slot-0"]
    assert registry.get("alice").state == "done"
    assert_solo_identical(registry, "alice", grid())


@pytest.mark.parametrize("loop", ["cluster", "service"])
def test_installed_plan_outranks_the_manifest_and_is_restored(registry, grid, loop):
    """The caller's plan wins over a tenant's manifest plan, is bound to the
    tenant's budget directory, and is the installed plan again on return."""
    submission = registry.submit("alice", grid(), retry=ONE_ATTEMPT, fault_plan=POISON)
    mine = FaultPlan(
        [FaultRule(seam="claim", kind="stall", stall_s=0.0, scope="run", times=1)]
    )
    faults.install(mine)
    if loop == "cluster":
        stats = worker_loop(registry.tenant_run_dir("alice"), worker_id="w0")
    else:
        stats = service_worker_loop(registry.service_dir, worker_id="w0")
    assert faults.current() is mine
    assert stats.failures == 0  # the manifest's poison never armed
    assert stats.items == len(submission.enqueued)
    assert mine.fired_counts() == {"claim:stall": 1}
    faults_dir = os.path.join(registry.tenant_run_dir("alice"), faults.BUDGET_DIRNAME)
    assert os.listdir(faults_dir) == ["rule-0-slot-0"]


class RefundSpy(FairShareScheduler):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.refunds = []

    def refund(self, tenant: str) -> None:
        self.refunds.append(tenant)
        super().refund(tenant)


def test_poisoned_dispatch_costs_one_pick_not_the_worker(registry, grid):
    plan = FaultPlan([FaultRule(seam="dispatch", kind="exception", times=1)])
    with telemetry.recording(registry.service_dir, name="submitter", echo=None):
        submission = registry.submit("alice", grid(), fault_plan=plan)
    scheduler = RefundSpy()
    stats = service_worker_loop(
        registry.service_dir, worker_id="w0", poll_interval=0.01, scheduler=scheduler
    )
    assert scheduler.refunds == ["alice"]  # the poisoned pick's credit came back
    assert stats.items == len(submission.enqueued)
    assert stats.failures == 0  # nothing was claimed, so no attempt was burned
    counters = merged_run_metrics(registry.service_dir)["counters"]
    assert counters["service.dispatch_failures"] == 1
    failed_spans = [
        r for r in load_run_records(registry.service_dir)
        if r.get("name") == "service.dispatch" and r.get("failed")
    ]
    assert [s["tenant"] for s in failed_spans] == ["alice"]
    assert registry.get("alice").state == "done"
    assert_solo_identical(registry, "alice", grid())


def test_fresh_merge_lock_defers_finalization_and_a_stale_one_is_broken(
    registry, grid
):
    registry.submit("alice", grid())
    run_dir = registry.tenant_run_dir("alice")
    lock = os.path.join(run_dir, MERGE_LOCK_FILENAME)
    with open(lock, "w") as handle:
        handle.write("peer\n")  # a live finalizer elsewhere holds the lock

    first = service_worker_loop(registry.service_dir, worker_id="w0")
    assert first.items > 0 and first.finalized == []
    assert JobQueue(run_dir).is_drained()
    assert registry.get("alice").state == "active"  # drained, not finalized
    assert os.path.exists(lock)
    assert len(ResultStore(run_dir)) == 0  # nothing merged yet

    stale = time.time() - STALE_LOCK_S - 1.0
    os.utime(lock, (stale, stale))  # the holder died long ago
    second = service_worker_loop(registry.service_dir, worker_id="w1")
    assert second.items == 0 and second.finalized == ["alice"]
    assert not os.path.exists(lock)
    third = service_worker_loop(registry.service_dir, worker_id="w2")
    assert third.finalized == []
    terminal = [
        record for record in registry.get("alice").history
        if record.get("state") in ("done", "failed")
    ]
    assert [record["state"] for record in terminal] == ["done"]
    assert_solo_identical(registry, "alice", grid())


def test_one_shot_service_worker_leaves_a_peers_last_lease(registry, grid):
    """Unlike a cluster worker, a service worker does not stay for a lease a
    peer still holds: it returns, and the tenant stays active."""
    submission = registry.submit("alice", grid(), lease_timeout=10.0)
    queue = JobQueue(registry.tenant_run_dir("alice"), lease_timeout=10.0)
    held = queue.claim("peer")
    stats = service_worker_loop(registry.service_dir, worker_id="w0")
    assert stats.items == len(submission.enqueued) - 1
    assert stats.requeued == 0 and stats.finalized == []
    assert queue.leased_ids() == [held.item_id]
    assert registry.get("alice").state == "active"
