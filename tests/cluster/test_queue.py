"""Tests for the claim-by-rename leased job queue."""

import json
import multiprocessing
import os
import time

import pytest

from repro.cluster import JobQueue, RetryPolicy
from repro.cluster.integrity import verify_run_dir


@pytest.fixture
def queue(tmp_path):
    return JobQueue(str(tmp_path), lease_timeout=0.2)


@pytest.fixture
def retry_queue(tmp_path):
    """A queue with a tight, deterministic retry budget and no backoff wait."""
    policy = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
    return JobQueue(str(tmp_path), lease_timeout=0.2, retry=policy)


def test_enqueue_claim_complete_lifecycle(queue):
    assert queue.enqueue("a", {"item": "a", "jobs": []})
    assert queue.counts() == {"pending": 1, "leased": 0, "done": 0, "failed": 0}
    item = queue.claim("w1")
    assert item is not None and item.item_id == "a"
    # The claim stamps the attempt count and fence epoch into the payload.
    assert item.payload == {"item": "a", "jobs": [], "attempt": 1, "fence": 1}
    assert item.attempt == 1
    assert item.fence == 1
    assert queue.counts() == {"pending": 0, "leased": 1, "done": 0, "failed": 0}
    assert not queue.is_drained()
    assert queue.complete("a")
    assert queue.counts() == {"pending": 0, "leased": 0, "done": 1, "failed": 0}
    assert queue.is_drained()


def test_enqueue_is_idempotent_across_states(queue):
    assert queue.enqueue("a", {"jobs": []})
    assert not queue.enqueue("a", {"jobs": ["other"]})  # pending: kept as-is
    item = queue.claim("w")
    assert not queue.enqueue("a", {"jobs": []})  # leased
    queue.complete(item.item_id)
    assert not queue.enqueue("a", {"jobs": []})  # done
    assert queue.counts()["done"] == 1


def test_each_item_claimed_exactly_once(queue):
    for index in range(8):
        queue.enqueue(f"item-{index}", {"jobs": []})
    claimed = []
    while True:
        item = queue.claim("w")
        if item is None:
            break
        claimed.append(item.item_id)
    assert sorted(claimed) == [f"item-{i}" for i in range(8)]
    assert queue.claim("w") is None  # nothing claimable twice


def _drain(run_dir, worker_id, go, out):
    """Claim and complete until nothing is claimable; report every claim."""
    queue = JobQueue(run_dir)
    go.wait()
    claims = []
    while True:
        item = queue.claim(worker_id)
        if item is None:
            break
        claims.append((item.item_id, item.fence, queue.complete(item.item_id)))
    out.put(claims)


def test_each_item_claimed_exactly_once_across_processes(tmp_path):
    """Four processes racing on one queue: the renames pick one winner per item."""
    queue = JobQueue(str(tmp_path))
    ids = [f"item-{index:03d}" for index in range(200)]
    for item_id in ids:
        queue.enqueue(item_id, {"jobs": []})
    ctx = multiprocessing.get_context("fork")
    go, out = ctx.Event(), ctx.Queue()
    procs = [
        ctx.Process(target=_drain, args=(queue.run_dir, f"w{index}", go, out))
        for index in range(4)
    ]
    for proc in procs:
        proc.start()
    go.set()
    claims = [claim for _ in procs for claim in out.get(timeout=60)]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    assert sorted(item_id for item_id, _, _ in claims) == ids
    assert all(fence == 1 and completed for _, fence, completed in claims)
    assert queue.counts() == {"pending": 0, "leased": 0, "done": 200, "failed": 0}


def _requeue(run_dir, go, out):
    queue = JobQueue(run_dir)
    go.wait()
    out.put(queue.requeue_expired())


def test_expired_leases_are_requeued_exactly_once_across_processes(tmp_path):
    """Four processes scanning one queue's stale leases: each is moved back
    to pending by exactly one of them."""
    queue = JobQueue(str(tmp_path))
    ids = [f"item-{index:03d}" for index in range(100)]
    for item_id in ids:
        queue.enqueue(item_id, {"jobs": []})
    while queue.claim("crashed") is not None:
        pass
    stale = time.time() - 10 * queue.lease_timeout
    for item_id in ids:
        assert queue._touch("leased", item_id, ts=stale)
    ctx = multiprocessing.get_context("fork")
    go, out = ctx.Event(), ctx.Queue()
    procs = [ctx.Process(target=_requeue, args=(queue.run_dir, go, out)) for _ in range(4)]
    for proc in procs:
        proc.start()
    go.set()
    requeued = [item_id for _ in procs for item_id in out.get(timeout=60)]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    assert sorted(requeued) == ids
    assert queue.counts() == {"pending": 100, "leased": 0, "done": 0, "failed": 0}


def test_requeue_expired_returns_stale_leases(queue):
    queue.enqueue("a", {"jobs": []})
    queue.enqueue("b", {"jobs": []})
    first = queue.claim("w1")
    assert queue.requeue_expired() == []  # fresh lease stays leased
    # Age the lease past the timeout and requeue it.
    assert queue.requeue_expired(now=time.time() + 1.0) == [first.item_id]
    assert queue.counts() == {"pending": 2, "leased": 0, "done": 0, "failed": 0}
    # The requeued item is claimable again.
    again = {queue.claim("w2").item_id, queue.claim("w2").item_id}
    assert first.item_id in again


def test_heartbeat_extends_the_lease(queue):
    queue.enqueue("a", {"jobs": []})
    queue.claim("w1")
    later = time.time() + 1.0
    assert queue.heartbeat("a")
    queue._touch("leased", "a", ts=later)  # simulate a future heartbeat
    assert queue.requeue_expired(now=later + 0.1) == []  # heartbeat counted


def test_complete_after_lost_lease_reports_failure(queue):
    queue.enqueue("a", {"jobs": []})
    queue.claim("w1")
    queue.requeue_expired(now=time.time() + 1.0)  # lease expires
    other = queue.claim("w2")  # another worker takes over
    assert other.item_id == "a"
    # The original worker finishes late: its complete must fail, not clobber.
    queue.release(other.item_id)
    queue.claim("w2")
    assert queue.complete("a")
    assert not queue.complete("a")  # second completion finds nothing


def test_release_and_requeue_done(queue):
    queue.enqueue("a", {"jobs": []})
    queue.claim("w")
    assert queue.release("a")
    assert queue.counts()["pending"] == 1
    queue.claim("w")
    queue.complete("a")
    assert queue.requeue_done("a")
    assert queue.counts() == {"pending": 1, "leased": 0, "done": 0, "failed": 0}


def test_lease_timeout_validation(tmp_path):
    with pytest.raises(ValueError, match="lease_timeout"):
        JobQueue(str(tmp_path), lease_timeout=0.0)


# -- retries and dead-lettering -----------------------------------------------


def _fail(retry_queue, item, exc_type="ValueError", message="boom"):
    return retry_queue.nack(
        item,
        {"exc_type": exc_type, "message": message, "traceback": "tb"},
        worker="w1",
    )


def test_nack_retries_until_the_budget_then_dead_letters(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    for attempt in (1, 2):
        item = retry_queue.claim("w1")
        assert item.attempt == attempt
        assert _fail(retry_queue, item) == "retry"
        assert retry_queue.counts()["pending"] == 1
    item = retry_queue.claim("w1")
    assert item.attempt == 3
    assert _fail(retry_queue, item) == "failed"
    assert retry_queue.counts() == {
        "pending": 0, "leased": 0, "done": 0, "failed": 1,
    }
    assert retry_queue.is_drained()  # dead letters never block drain
    assert retry_queue.claim("w1") is None


def test_failure_record_carries_traceback_and_history(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    for _ in range(3):
        _fail(retry_queue, retry_queue.claim("w1"))
    assert retry_queue.failed_ids() == ["a"]
    record = retry_queue.failure_record("a")
    failure = record["failure"]
    assert failure["exc_type"] == "ValueError"
    assert failure["message"] == "boom"
    assert failure["traceback"] == "tb"
    assert failure["worker"] == "w1"
    assert failure["attempts"] == 3
    history = record["history"]
    assert [entry["attempt"] for entry in history] == [1, 2, 3]
    assert all(entry["exc_type"] == "ValueError" for entry in history)


def test_retry_after_defers_the_claim(tmp_path):
    policy = RetryPolicy(max_attempts=3, backoff_base=30.0, jitter=0.0)
    queue = JobQueue(str(tmp_path), lease_timeout=0.2, retry=policy)
    queue.enqueue("a", {"item": "a", "jobs": []})
    item = queue.claim("w1")
    assert queue.nack(item, {"exc_type": "E", "message": "m"}, worker="w1") == "retry"
    # Backing off: pending but not claimable until retry_after passes.
    assert queue.counts()["pending"] == 1
    assert queue.claim("w1") is None
    assert queue.counts()["pending"] == 1  # deferral returned it untouched


def test_crash_loop_is_dead_lettered_at_claim(retry_queue):
    """Workers that crash without nacking burn one attempt per claim; the
    claim after the budget dead-letters instead of feeding a fourth worker."""
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    for _ in range(3):
        assert retry_queue.claim("w1") is not None  # claimed, then "crashed"
        retry_queue.requeue_expired(now=time.time() + 1.0)
    assert retry_queue.claim("w1") is None
    assert retry_queue.failed_ids() == ["a"]
    failure = retry_queue.failure_record("a")["failure"]
    assert failure["exc_type"] == "WorkerCrashLoop"
    assert failure["attempts"] == 3


def test_retry_failed_requeues_with_fresh_budget(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    retry_queue.enqueue("b", {"item": "b", "jobs": []})
    for _ in range(3):
        items = [retry_queue.claim("w1"), retry_queue.claim("w1")]
        for item in items:
            if item is not None:
                _fail(retry_queue, item)
    assert sorted(retry_queue.failed_ids()) == ["a", "b"]
    assert retry_queue.retry_failed(item_ids=["a"]) == ["a"]
    assert retry_queue.counts()["pending"] == 1
    assert retry_queue.counts()["failed"] == 1
    item = retry_queue.claim("w1")
    assert item.item_id == "a"
    assert item.attempt == 1  # fresh budget
    assert "failure" not in item.payload
    assert len(item.payload["history"]) == 3  # the past is kept
    assert retry_queue.retry_failed() == ["b"]  # default: everything failed


def test_enqueue_does_not_resurrect_dead_letters(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    for _ in range(3):
        _fail(retry_queue, retry_queue.claim("w1"))
    assert not retry_queue.enqueue("a", {"item": "a", "jobs": []})
    assert retry_queue.failed_ids() == ["a"]


def test_attempts_histogram(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    retry_queue.enqueue("b", {"item": "b", "jobs": []})
    item = retry_queue.claim("w1")
    retry_queue.complete(item.item_id)
    histogram = retry_queue.attempts_histogram()
    assert histogram == {0: 1, 1: 1}  # one unclaimed, one first-try


def test_retry_policy_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(
        max_attempts=5, backoff_base=0.5, backoff_factor=2.0,
        backoff_max=3.0, jitter=0.5,
    )
    delays = [policy.delay(attempt, token="item-x") for attempt in (1, 2, 3, 4)]
    assert delays == [policy.delay(a, token="item-x") for a in (1, 2, 3, 4)]
    for attempt, delay in enumerate(delays, start=1):
        ceiling = min(0.5 * 2.0 ** (attempt - 1), 3.0)
        assert 0.5 * ceiling <= delay <= ceiling
    # Different items jitter differently (decorrelated fleets).
    assert policy.delay(1, token="item-x") != policy.delay(1, token="item-y")


def test_retry_policy_manifest_round_trip():
    policy = RetryPolicy(max_attempts=7, backoff_base=0.1, jitter=0.25)
    assert RetryPolicy.from_manifest(policy.to_manifest()) == policy
    assert RetryPolicy.from_manifest(None) == RetryPolicy()
    assert RetryPolicy.from_manifest({"max_attempts": 2, "junk": 9}) == RetryPolicy(
        max_attempts=2
    )
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)


# -- claim vs. lease expiry ---------------------------------------------------


def test_every_move_starts_a_fresh_heartbeat(queue):
    queue.enqueue("a", {"item": "a", "jobs": []})
    stale = time.time() - 10 * queue.lease_timeout
    for src, dst in [("pending", "leased"), ("leased", "done"), ("done", "pending")]:
        assert queue._touch(src, "a", ts=stale)
        before = time.time()
        assert queue._move(src, dst, "a")
        assert queue._mtime(dst, "a") >= before - 1.0  # second granularity
        assert queue._read(dst, "a") == {"item": "a", "jobs": []}


@pytest.mark.parametrize("step", ["read", "write"])
def test_claim_starts_the_lease_before_an_expiry_scan_can_see_it(queue, monkeypatch, step):
    """An item queued longer ago than the lease timeout must not look like a
    stale lease the moment it is claimed: an expiry scan between the claim's
    move and its read (or its rewrite) must leave the claim intact."""
    queue.enqueue("a", {"item": "a", "jobs": []})
    queue._touch("pending", "a", ts=time.time() - 10 * queue.lease_timeout)
    real = getattr(queue, "_" + step)

    def scan_first(state, item_id, *args):
        if state == "leased":
            assert queue.requeue_expired() == []
        return real(state, item_id, *args)

    monkeypatch.setattr(queue, "_" + step, scan_first)
    item = queue.claim("w1")
    assert item is not None and item.item_id == "a" and item.attempt == 1
    assert queue.counts() == {"pending": 0, "leased": 1, "done": 0, "failed": 0}
    assert verify_run_dir(queue.run_dir, lease_timeout=queue.lease_timeout).counts() == {}


# -- storage: one file per item, one rename per transition --------------------


def _item_file(queue, state, item_id):
    return os.path.join(queue.queue_dir, state, item_id + ".json")


def test_write_then_read_round_trips_and_overwrites(queue):
    assert queue._read("pending", "a") is None
    queue._write("pending", "a", {"v": 1})
    assert queue._read("pending", "a") == {"v": 1}
    queue._write("pending", "a", {"v": 2})  # atomic replace
    assert queue._read("pending", "a") == {"v": 2}
    assert queue.pending_ids() == ["a"]


@pytest.mark.parametrize(
    "content",
    [None, b"\xff\xfe not json", b"[1, 2]\n"],
    ids=["absent", "undecodable", "not-an-object"],
)
def test_read_is_none_for_an_absent_or_unreadable_item(queue, content):
    if content is not None:
        with open(_item_file(queue, "pending", "a"), "wb") as handle:
            handle.write(content)
    assert queue._read("pending", "a") is None
    assert queue.fence_of("a") is None


def test_move_loses_when_the_source_is_gone(queue):
    queue._write("leased", "a", {"item": "a", "fence": 9})
    assert not queue._move("pending", "leased", "a")
    # The loser left the winner's item untouched.
    assert queue._read("leased", "a") == {"item": "a", "fence": 9}


def test_move_treats_a_refused_rename_as_a_lost_race(queue, monkeypatch):
    """A racing network filesystem can refuse the rename with EACCES."""
    queue.enqueue("a", {"jobs": []})

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src)

    monkeypatch.setattr(os, "rename", refuse)
    assert not queue._move("pending", "leased", "a")
    assert queue.claim("w1") is None
    monkeypatch.undo()
    assert queue.counts() == {"pending": 1, "leased": 0, "done": 0, "failed": 0}


def test_touch_moves_the_heartbeat_and_leaves_the_payload(queue):
    queue._write("leased", "a", {"item": "a"})
    first = queue._mtime("leased", "a")
    assert first is not None
    assert queue._touch("leased", "a", ts=first + 5.0)
    assert queue._mtime("leased", "a") == first + 5.0
    assert queue._read("leased", "a") == {"item": "a"}


def test_touch_and_mtime_report_a_missing_item(queue):
    assert not queue._touch("leased", "missing")
    assert queue._mtime("leased", "missing") is None
    assert not queue.heartbeat("missing")


def test_remove_reports_whether_it_removed(queue):
    queue._write("done", "a", {"item": "a"})
    assert queue._remove("done", "a")
    assert not queue._remove("done", "a")  # already gone
    assert queue.done_ids() == []


def test_ids_skip_in_flight_temporaries(queue):
    queue.enqueue("b", {"jobs": []})
    queue.enqueue("a", {"jobs": []})
    # A writer killed mid-write leaves its temporary beside the items.
    crash = os.path.join(queue.queue_dir, "pending", ".tmp-crash~")
    with open(crash, "wb") as handle:
        handle.write(b'{"jobs": [')
    assert queue.pending_ids() == ["a", "b"]
    assert queue.counts()["pending"] == 2
    assert sorted(item.item_id for item in iter(lambda: queue.claim("w"), None)) == [
        "a",
        "b",
    ]


# -- the on-disk layout older run dirs share ----------------------------------


def test_enqueue_writes_one_canonical_json_file_per_item(queue):
    payload = {"jobs": [{"key": "k"}], "item": "a"}
    queue.enqueue("a", payload)
    with open(_item_file(queue, "pending", "a"), "rb") as handle:
        assert handle.read() == (json.dumps(payload, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("state", ["pending", "leased", "done", "failed"])
def test_an_item_file_written_by_an_earlier_tree_is_read_in_its_state(tmp_path, state):
    item_dir = tmp_path / "queue" / state
    item_dir.mkdir(parents=True)
    (item_dir / "x.json").write_text(
        json.dumps({"attempt": 1, "fence": 2, "jobs": []}, sort_keys=True) + "\n"
    )
    queue = JobQueue(str(tmp_path))
    expected = {name: 0 for name in ("pending", "leased", "done", "failed")}
    expected[state] = 1
    assert queue.counts() == expected
    assert queue.fence_of("x") == 2
    assert queue.fences() == {"x": 2}
    assert queue.attempts_histogram() == {1: 1}


def test_a_pending_item_written_by_an_earlier_tree_is_claimed_at_the_next_fence(
    tmp_path,
):
    item_dir = tmp_path / "queue" / "pending"
    item_dir.mkdir(parents=True)
    (item_dir / "x.json").write_text(
        json.dumps({"attempt": 0, "fence": 2, "jobs": []}, sort_keys=True) + "\n"
    )
    queue = JobQueue(str(tmp_path))
    item = queue.claim("w1")
    assert item is not None and item.item_id == "x"
    assert (item.attempt, item.fence) == (1, 3)
    assert queue.complete("x")
    assert queue.is_drained()
