"""Atomically-leased filesystem job queue: the cluster's coordination core.

Workers that share nothing but a filesystem coordinate through four
directories under ``<run_dir>/queue/``::

    queue/
        pending/<item>.json    # claimable work items (one job group each)
        leased/<item>.json     # claimed; the file's mtime is the heartbeat
        done/<item>.json       # completed (results live in the shards)
        failed/<item>.json     # dead-lettered, with a failure record

Every state transition is a single :func:`os.rename` of the item file —
atomic on POSIX filesystems — so exactly one claimant wins a race and a
crash can never leave an item in two states or in none:

* **claim**: ``pending/x.json -> leased/x.json``.  Losers get
  ``FileNotFoundError`` and move on to the next candidate.  Every move
  refreshes the file's mtime before the rename, so the item arrives in
  ``leased/`` with its lease already started.  The winner then stamps the
  item's **fence epoch** — a per-item counter that increments at every claim and
  never resets.  Workers tag each shard line they publish with their fence;
  the merger rejects lines whose fence is stale for that item, so a zombie
  worker that resumes after losing its lease cannot contaminate the
  canonical store alongside the item's new owner (see
  :mod:`repro.cluster.merge`).
* **heartbeat**: ``os.utime`` on the leased file.  Workers heartbeat from a
  background thread while executing, so a long group never looks abandoned.
* **expiry / requeue**: any process may move a leased item whose mtime is
  older than the lease timeout back to ``pending/`` — a SIGKILLed worker's
  groups are retried elsewhere.  If the original worker was merely slow and
  finishes anyway, its completion rename simply fails (the lease was lost)
  and its shard records are deduplicated by content key on merge, so the
  protocol is at-least-once with exactly-once *results*.
* **complete**: ``leased/x.json -> done/x.json`` — only after the worker has
  flushed the group's results to its shard, so a completed item always has
  durable results.
* **nack / dead-letter**: a worker whose execution *raised* reports the
  failure instead of crashing.  The claim stamped an attempt count into the
  payload; below the run's :class:`RetryPolicy` budget the item goes back to
  ``pending/`` carrying a ``retry_after`` timestamp (exponential backoff
  with deterministic derived-seed jitter) that :meth:`JobQueue.claim`
  honors.  At the budget, the item moves to ``queue/failed/`` — the
  dead-letter directory — with a structured failure record (exception type,
  traceback, worker, full attempt history) folded into the item file.  An
  item whose workers keep *crashing* (never reporting) burns one attempt per
  claim and is dead-lettered by the next claim after the budget, so one
  poisoned group can never crash-loop a fleet forever.

Item payloads are small JSON documents (the serialized
:class:`~repro.runtime.spec.EvalJob` records of one executor group), written
atomically so readers on other hosts never observe partial files.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import telemetry
from repro.utils.rng import derived_seed, new_rng
from repro.utils.serialization import atomic_write_json

__all__ = [
    "JobQueue",
    "WorkItem",
    "RetryPolicy",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_ATTEMPTS",
]

#: Seconds a leased item may go without a heartbeat before any process may
#: requeue it.  Generous relative to the heartbeat interval (a quarter of
#: it) so transient stalls don't cause spurious requeues.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Executions an item gets before it is dead-lettered.
DEFAULT_MAX_ATTEMPTS = 3

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
STATES = (PENDING, LEASED, DONE, FAILED)


@dataclass(frozen=True)
class RetryPolicy:
    """How many executions an item gets, and how retries back off.

    The policy is manifest-configurable per run (see
    :func:`repro.cluster.broker.prepare_run_dir`), so every participant —
    coordinator, spawned daemons, external workers — enforces the same
    budget.  Backoff for attempt ``n`` is
    ``min(backoff_base * backoff_factor**(n-1), backoff_max)`` scaled by a
    deterministic jitter in ``[1 - jitter, 1]`` derived from the item id and
    attempt number, so a fleet retrying the same item doesn't thunder in
    lockstep yet every rerun of a chaos schedule sees identical delays.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be non-negative, got {self.backoff_base}"
            )
        if self.backoff_factor < 1:
            raise ValueError(
                f"backoff_factor must be at least 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before retrying after the ``attempt``-th failure."""
        base = min(
            self.backoff_base * self.backoff_factor ** max(attempt - 1, 0),
            self.backoff_max,
        )
        if base <= 0 or self.jitter <= 0:
            return base
        u = new_rng(derived_seed("retry-jitter", token, attempt)).random()
        return base * (1.0 - self.jitter * u)

    def to_manifest(self) -> Dict[str, float]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "jitter": self.jitter,
        }

    @classmethod
    def from_manifest(cls, obj: Optional[Dict[str, object]]) -> "RetryPolicy":
        if not obj:
            return cls()
        known = {f for f in cls.__dataclass_fields__}
        fields = {k: v for k, v in dict(obj).items() if k in known}
        if "max_attempts" in fields:
            fields["max_attempts"] = int(fields["max_attempts"])
        return cls(**fields)


@dataclass(frozen=True)
class WorkItem:
    """One claimed queue item: id, payload, attempt number, fence epoch."""

    item_id: str
    payload: Dict[str, object]
    attempt: int = 1
    fence: int = 1


class JobQueue:
    """The claim-by-rename job queue of one cluster run directory.

    Parameters
    ----------
    run_dir:
        The shared run directory; the queue lives under ``<run_dir>/queue/``.
    lease_timeout:
        Seconds without a heartbeat after which a leased item is considered
        abandoned and :meth:`requeue_expired` moves it back to pending.
    retry:
        The run's :class:`RetryPolicy` (default: a fresh one).  Workers
        construct their queue with the manifest's policy so the whole fleet
        agrees on the attempt budget.
    """

    def __init__(
        self,
        run_dir: str,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        retry: Optional[RetryPolicy] = None,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        self.run_dir = os.path.abspath(run_dir)
        self.queue_dir = os.path.join(self.run_dir, "queue")
        self.lease_timeout = float(lease_timeout)
        self.retry = retry or RetryPolicy()
        for state in STATES:
            os.makedirs(os.path.join(self.queue_dir, state), exist_ok=True)

    # -- storage: one file per item, one rename per transition ----------------

    def _path(self, state: str, item_id: str) -> str:
        return os.path.join(self.queue_dir, state, item_id + ".json")

    def _ids(self, state: str) -> List[str]:
        """Sorted ids of the items currently in ``state``."""
        try:
            names = os.listdir(os.path.join(self.queue_dir, state))
        except FileNotFoundError:
            return []
        return sorted(name[: -len(".json")] for name in names if name.endswith(".json"))

    def _read(self, state: str, item_id: str) -> Optional[Dict[str, object]]:
        """The item's payload, or ``None`` if absent or undecodable."""
        try:
            with open(self._path(state, item_id), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):  # ValueError: bad JSON or bad UTF-8
            return None
        return payload if isinstance(payload, dict) else None

    def _write(self, state: str, item_id: str, payload: Dict[str, object]) -> None:
        # Atomic replace; the fresh file's mtime doubles as the heartbeat.
        atomic_write_json(self._path(state, item_id), payload)

    def _move(self, src: str, dst: str, item_id: str) -> bool:
        """Rename the item from ``src`` to ``dst``; ``False``: lost the race.

        The item arrives with a fresh heartbeat: a claim's lease must be live
        the moment the item is visible as leased, or a concurrent expiry scan
        could take it back before the claimant's rewrite.
        """
        source = self._path(src, item_id)
        try:
            os.utime(source)  # the rename keeps the fresh mtime
            os.rename(source, self._path(dst, item_id))
        except (FileNotFoundError, PermissionError):
            # Lost the rename race (or a racing network filesystem); the
            # False return *is* the signal the scheduler acts on.
            return False
        return True

    def _touch(self, state: str, item_id: str, ts: Optional[float] = None) -> bool:
        """Set the item's heartbeat to ``ts`` (or now); ``False`` if gone."""
        try:
            os.utime(self._path(state, item_id), None if ts is None else (ts, ts))
        except FileNotFoundError:
            return False
        return True

    def _mtime(self, state: str, item_id: str) -> Optional[float]:
        """The item's last heartbeat, or ``None`` if it is gone."""
        try:
            return os.stat(self._path(state, item_id)).st_mtime
        except OSError:
            return None

    def _remove(self, state: str, item_id: str) -> bool:
        try:
            os.unlink(self._path(state, item_id))
        except FileNotFoundError:
            return False
        return True

    # -- producer side --------------------------------------------------------

    def enqueue(self, item_id: str, payload: Dict[str, object]) -> bool:
        """Publish a work item; returns ``False`` if it already exists.

        Idempotent across resubmissions: an item already pending, leased,
        done or dead-lettered (deterministic ids make re-submitted groups
        collide on purpose) is left untouched — resurrecting a failed item
        takes an explicit :meth:`retry_failed`.  The payload is written
        atomically, so a claimant can never read a partial item.
        """
        if any(os.path.exists(self._path(state, item_id)) for state in STATES):
            return False
        self._write(PENDING, item_id, payload)
        telemetry.get_recorder().count("queue.enqueued")
        return True

    # -- worker side ----------------------------------------------------------

    def claim(self, worker_id: str = "") -> Optional[WorkItem]:
        """Atomically claim one pending item, or ``None`` if none is claimable.

        Candidates are tried in random order so a fleet of workers doesn't
        stampede the same file; each attempt is one rename, and losing a
        race just moves on to the next candidate.  The move into ``leased``
        starts the lease clock, so a concurrent :meth:`requeue_expired`
        never mistakes a just-claimed item's queue time for a stale
        heartbeat.  The winner then stamps the incremented attempt count
        into the item (atomically) before returning, so even a worker that
        is SIGKILLed one instruction later has burned an attempt.

        Two retry-policy gates apply per candidate: an item whose
        ``retry_after`` (set by :meth:`nack`) is still in the future is put
        back without burning an attempt, and an item that already used its
        whole attempt budget — its workers crashed without ever reporting —
        is dead-lettered here instead of executed a ``max_attempts+1``-th
        time.
        """
        rec = telemetry.get_recorder()
        now = time.time()
        candidates = self._ids(PENDING)
        # repro: ignore[REP001] claim-order decorrelation across worker
        # processes is *meant* to be nondeterministic; results are merged by
        # content key, so claim order can never affect sweep output.
        random.shuffle(candidates)
        for item_id in candidates:
            if not self._move(PENDING, LEASED, item_id):
                rec.count("queue.claim_races")
                continue  # lost the race (or racing filesystem); next
            payload = self._read(LEASED, item_id)
            if payload is None:
                # Unreadable item (should be impossible with atomic writes);
                # surface rather than silently dropping work.
                raise RuntimeError(f"claimed item {item_id!r} is unreadable")
            retry_after = float(payload.get("retry_after") or 0.0)
            if retry_after > now:
                # Backing off: return it untouched and keep scanning.
                self._move(LEASED, PENDING, item_id)
                rec.count("queue.deferred")
                continue
            attempt = int(payload.get("attempt") or 0) + 1
            if attempt > self.retry.max_attempts:
                # Every budgeted attempt ended in a crash (claimed, never
                # nacked, lease expired).  Dead-letter instead of feeding
                # the poison to yet another worker.
                self._dead_letter(
                    item_id,
                    payload,
                    worker=worker_id,
                    error={
                        "exc_type": "WorkerCrashLoop",
                        "message": (
                            f"all {self.retry.max_attempts} attempt(s) were "
                            "claimed but never reported back (worker crashes "
                            "or lost leases)"
                        ),
                        "traceback": "",
                    },
                    attempts=attempt - 1,
                )
                continue
            payload["attempt"] = attempt
            # The fence epoch counts *claims*, not attempts: unlike the
            # attempt counter it survives retry_failed, so no later owner
            # can ever share a fence with an earlier one.
            fence = int(payload.get("fence") or 0) + 1
            payload["fence"] = fence
            # Atomic rewrite; refreshes the heartbeat the move started.
            self._write(LEASED, item_id, payload)
            rec.count("queue.claims")
            return WorkItem(
                item_id=item_id, payload=payload, attempt=attempt, fence=fence
            )
        return None

    def nack(
        self,
        item: WorkItem,
        error: Optional[Dict[str, object]] = None,
        worker: str = "",
    ) -> str:
        """Report a failed execution; returns the item's disposition.

        ``"retry"``: attempts remain — the item went back to pending with a
        backoff ``retry_after`` stamp.  ``"failed"``: the attempt budget is
        spent — the item was dead-lettered with a structured failure record.
        ``"lost"``: the lease had already expired and someone else owns the
        item now; nothing to do (their execution carries its own attempt).

        ``error`` should carry ``exc_type``/``message``/``traceback``; the
        full attempt history accumulates in the payload either way.
        """
        rec = telemetry.get_recorder()
        error = dict(error or {})
        payload = dict(item.payload)
        history = list(payload.get("history") or [])
        history.append(
            {
                "attempt": item.attempt,
                "worker": worker,
                "ts": time.time(),
                "exc_type": error.get("exc_type"),
                "message": error.get("message"),
            }
        )
        payload["history"] = history
        if item.attempt >= self.retry.max_attempts:
            return self._dead_letter(
                item.item_id, payload, worker=worker, error=error,
                attempts=item.attempt,
            )
        delay = self.retry.delay(item.attempt, token=item.item_id)
        payload["retry_after"] = time.time() + delay
        self._write(LEASED, item.item_id, payload)
        if not self._move(LEASED, PENDING, item.item_id):
            rec.count("queue.leases_lost")
            return "lost"
        rec.count("queue.nacks")
        rec.event(
            "queue.nacked", level="warning",
            item=item.item_id, attempt=item.attempt, worker=worker,
            exc_type=error.get("exc_type"), retry_in=round(delay, 3),
        )
        return "retry"

    def _dead_letter(
        self,
        item_id: str,
        payload: Dict[str, object],
        worker: str,
        error: Dict[str, object],
        attempts: int,
    ) -> str:
        """Move a leased item to ``failed/`` with its failure record.

        The record is folded into the item file and written atomically
        *before* the rename, so a crash in between leaves a leased item that
        already carries its failure — the next claim re-dead-letters it.
        """
        rec = telemetry.get_recorder()
        payload = dict(payload)
        payload["failure"] = {
            "exc_type": error.get("exc_type"),
            "message": error.get("message"),
            "traceback": error.get("traceback"),
            "worker": worker,
            "attempts": attempts,
            "ts": time.time(),
        }
        self._write(LEASED, item_id, payload)
        if not self._move(LEASED, FAILED, item_id):
            rec.count("queue.leases_lost")
            return "lost"
        rec.count("queue.dead_lettered")
        rec.event(
            "queue.dead_lettered", level="error",
            item=item_id, attempts=attempts, worker=worker,
            exc_type=error.get("exc_type"), message=error.get("message"),
        )
        return "failed"

    def retry_failed(self, item_ids: Optional[List[str]] = None) -> List[str]:
        """Return dead-lettered items to pending with a fresh attempt budget.

        The recovery half of the dead-letter workflow (``repro.cluster
        retry-failed``): the attempt counter and backoff stamp reset, the
        failure record is cleared, but the accumulated attempt history stays
        so a twice-dead item tells its whole story — and the fence epoch is
        deliberately *not* reset, so shard lines published by pre-failure
        owners stay stale forever.  Returns the ids actually requeued.
        """
        requeued = []
        for item_id in item_ids if item_ids is not None else self.failed_ids():
            payload = self._read(FAILED, item_id)
            if payload is None:
                # An unreadable (or just-raced) dead-letter item is left in
                # failed/ for manual inspection; requeueing garbage would be
                # worse.
                continue
            payload["attempt"] = 0
            payload.pop("retry_after", None)
            payload.pop("failure", None)
            self._write(FAILED, item_id, payload)
            if not self._move(FAILED, PENDING, item_id):
                continue  # a concurrent retry-failed already requeued it
            requeued.append(item_id)
        if requeued:
            rec = telemetry.get_recorder()
            rec.count("queue.retried_failed", len(requeued))
            rec.event("queue.retry_failed", items=len(requeued))
        return requeued

    def heartbeat(self, item_id: str, skew: float = 0.0) -> bool:
        """Refresh the lease on ``item_id``; ``False`` if the lease is lost.

        ``skew`` offsets the stamped mtime from the local clock — the seam
        the ``clock_skew`` fault kind drives to rehearse a worker whose
        clock runs ahead (a future-dated lease defeats expiry-based
        recovery; ``cluster verify`` flags it).
        """
        ts = time.time() + skew if skew else None
        if not self._touch(LEASED, item_id, ts=ts):
            return False
        telemetry.get_recorder().count("queue.heartbeats")
        return True

    def complete(self, item_id: str) -> bool:
        """Move a leased item to done; ``False`` if the lease was lost.

        Callers must flush the item's results to durable storage *before*
        completing, so a done item always has results somewhere.
        """
        if self._move(LEASED, DONE, item_id):
            telemetry.get_recorder().count("queue.completed")
            return True
        telemetry.get_recorder().count("queue.leases_lost")
        return False

    def release(self, item_id: str) -> bool:
        """Voluntarily return a leased item to pending (e.g. on shutdown)."""
        return self._move(LEASED, PENDING, item_id)

    def requeue_done(self, item_id: str) -> bool:
        """Return a done item to pending (recovery from lost results).

        Only the coordinator's last-resort path uses this — when an item is
        marked done but its results are nowhere to be found (e.g. a shard
        deleted before it was merged).  Re-execution is safe: results are
        keyed by content and deduplicated on merge.
        """
        return self._move(DONE, PENDING, item_id)

    # -- recovery -------------------------------------------------------------

    def requeue_expired(self, now: Optional[float] = None) -> List[str]:
        """Return abandoned leased items (stale heartbeat) to pending.

        Any process — coordinator or worker — may call this; the rename is
        atomic, so concurrent requeuers cannot duplicate an item.  Returns
        the ids actually requeued.
        """
        now = time.time() if now is None else float(now)
        requeued = []
        for item_id in self._ids(LEASED):
            heartbeat_at = self._mtime(LEASED, item_id)
            if heartbeat_at is None:
                # Completed or requeued by someone else between list and
                # read; nothing left to recover.
                continue
            if now - heartbeat_at <= self.lease_timeout:
                continue
            if not self._move(LEASED, PENDING, item_id):
                continue  # a concurrent requeuer (or the slow owner) won
            requeued.append(item_id)
        if requeued:
            rec = telemetry.get_recorder()
            rec.count("queue.requeued_expired", len(requeued))
            rec.event(
                "queue.requeue_expired", level="warning",
                items=len(requeued), lease_timeout=self.lease_timeout,
            )
        return requeued

    # -- inspection -----------------------------------------------------------

    def freshest_lease_age(self, now: Optional[float] = None) -> Optional[float]:
        """Age in seconds of the most recently heartbeaten lease.

        ``None`` when nothing is leased.  A small value proves some worker
        is alive and executing *right now* even if its idle-loop beacon has
        gone stale (beacons are only touched between items, heartbeats
        throughout) — the signal the coordinator's stall detection trusts
        before stealing work.
        """
        now = time.time() if now is None else float(now)
        ages = []
        for item_id in self._ids(LEASED):
            heartbeat_at = self._mtime(LEASED, item_id)
            if heartbeat_at is None:
                continue  # the lease ended between list and read
            ages.append(now - heartbeat_at)
        return min(ages) if ages else None

    def fence_of(self, item_id: str) -> Optional[int]:
        """The item's current fence epoch, or ``None`` if it is gone (gc'd).

        Reads the item's file in whichever state directory holds it; an
        item mid-rename can briefly look absent, in which case the caller
        must treat the fence as unknown rather than zero.
        """
        for state in STATES:
            payload = self._read(state, item_id)
            if payload is None:
                continue  # not in this state (or mid-move out of it)
            return int(payload.get("fence") or 0)
        return None

    def fences(self) -> Dict[str, int]:
        """``{item_id: fence}`` over every item in every state.

        The authoritative fence table at scan time: an item's current fence
        lives in its state file (stamped by the latest claim).  Because
        fences only ever increase, a scanned value is a valid *lower bound*
        even if another claim lands right after — the merge guard exploits
        this to cache the table and re-scan only when a record's fence looks
        new (see :class:`repro.cluster.merge.FenceTable`).
        """
        table: Dict[str, int] = {}
        for state in STATES:
            for item_id in self._ids(state):
                payload = self._read(state, item_id)
                if payload is None:
                    # Item mid-move between list and read; its fence is
                    # picked up from its new state next scan.
                    continue
                table[item_id] = int(payload.get("fence") or 0)
        return table

    def pending_ids(self) -> List[str]:
        return self._ids(PENDING)

    def leased_ids(self) -> List[str]:
        return self._ids(LEASED)

    def done_ids(self) -> List[str]:
        return self._ids(DONE)

    def failed_ids(self) -> List[str]:
        """Ids of dead-lettered items (sorted)."""
        return self._ids(FAILED)

    def failure_record(self, item_id: str) -> Optional[Dict[str, object]]:
        """The dead-lettered item's payload (failure + history), or ``None``."""
        return self._read(FAILED, item_id)

    def attempts_histogram(self) -> Dict[int, int]:
        """``{attempt_count: items}`` over every item in every state.

        An item that succeeded first try counts under 1; a dead-lettered
        item counts under ``max_attempts``.  Status-time diagnostics only —
        this reads every item file.
        """
        histogram: Dict[int, int] = {}
        for state in STATES:
            for item_id in self._ids(state):
                payload = self._read(state, item_id)
                if payload is None:
                    # Diagnostics only: an item mid-move (or mid-rewrite)
                    # drops out of this snapshot, not the queue.
                    continue
                attempt = int(payload.get("attempt") or 0)
                histogram[attempt] = histogram.get(attempt, 0) + 1
        return histogram

    def counts(self) -> Dict[str, int]:
        """``{"pending": n, "leased": n, "done": n, "failed": n}`` snapshot."""
        return {state: len(self._ids(state)) for state in STATES}

    def is_drained(self) -> bool:
        """True when nothing is pending or leased.

        Dead-lettered items count as drained — they will never become
        claimable without an explicit :meth:`retry_failed`, so waiting on
        them would wait forever.
        """
        return not self._ids(PENDING) and not self._ids(LEASED)
