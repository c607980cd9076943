"""The one worker loop: claim → execute → shard-append → complete.

Run one per process/host against a shared run directory::

    python -m repro.cluster worker <run_dir>

:func:`serve` is the only claim loop: cluster workers (:func:`worker_loop`)
run it over one run directory, a one-tenant :class:`RunSource`, and service
workers (:mod:`repro.service.worker`) over a registry of tenants.  Each
round it

1. refreshes the worker's liveness beacon, requeues expired leases of
   crashed peers and snapshots each runnable tenant's queue (one
   :class:`RunHandle` per tenant holds its knobs, queue, lazily loaded
   context and fault plan);
2. picks a tenant and, under that tenant's fault plan, claims one item;
3. executes the item's group on the same
   :func:`~repro.runtime.executors.execute_group` every other executor uses
   (which is what makes cluster results bit-identical to serial ones),
   while a background thread heartbeats the lease so long groups never
   look abandoned;
4. appends the group's results to this worker's **own** shard file —
   single-writer, append-only, so no cross-host write races exist — and
   only then marks the item done.

If this worker is SIGKILLed mid-group, its lease goes stale and the group
is retried elsewhere; if it instead finishes after losing its lease, the
completion rename fails and its shard records are deduplicated by content
key on merge.  Either way the merged results are complete and exact.

A job that *raises* is contained, not fatal: the worker records the failure
(``worker.item_failures`` counter plus a ``worker.item_failed`` event with
the traceback) and nacks the item back to the queue, which retries it with
backoff or dead-letters it once the run's
:class:`~repro.cluster.queue.RetryPolicy` budget is spent — the loop itself
survives to claim the next item.  The :mod:`repro.faults` seams (claim,
execute, publish, complete, heartbeat) are woven through this flow so chaos
schedules can inject exceptions, stalls, SIGKILLs and torn shard writes at
exactly these points.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import faults, telemetry
from repro.cluster.broker import (
    CONTEXT_FILENAME,
    SHARDS_DIRNAME,
    WORKERS_DIRNAME,
    read_manifest,
)
from repro.cluster.queue import (
    DEFAULT_LEASE_TIMEOUT,
    JobQueue,
    RetryPolicy,
    WorkItem,
)
from repro.runtime.executors import execute_group
from repro.runtime.spec import EvalJob
from repro.runtime.store import job_metadata
from repro.utils.rng import derived_seed, new_rng
from repro.utils.serialization import append_jsonl, atomic_write_text, jsonl_line

__all__ = [
    "WorkerStats", "ServiceWorkerStats", "RunHandle", "RunSource", "serve",
    "worker_loop", "default_worker_id", "live_worker_ids",
]


def default_worker_id() -> str:
    """A worker id unique across the hosts sharing a run directory."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker did for one run directory (one tenant)."""

    worker_id: str = ""
    items: int = 0
    cells: int = 0
    requeued: int = 0
    lost_leases: int = 0
    failures: int = 0
    dead_lettered: int = 0
    item_ids: List[str] = field(default_factory=list)


@dataclass
class ServiceWorkerStats:
    """What one :func:`serve` call did, across every tenant it served.

    A run directory is a one-tenant source, so :func:`worker_loop` returns
    that tenant's :class:`WorkerStats` from :attr:`per_tenant`.
    """

    worker_id: str = ""
    items: int = 0
    cells: int = 0
    failures: int = 0
    dead_lettered: int = 0
    requeued: int = 0
    lost_leases: int = 0
    locality_hits: int = 0
    locality_misses: int = 0
    steals: int = 0
    context_loads: int = 0
    finalized: List[str] = field(default_factory=list)
    per_tenant: Dict[str, WorkerStats] = field(default_factory=dict)

    def tenant_stats(self, tenant_id: str) -> WorkerStats:
        if tenant_id not in self.per_tenant:
            self.per_tenant[tenant_id] = WorkerStats(worker_id=self.worker_id)
        return self.per_tenant[tenant_id]

    def fold(self) -> None:
        """Roll the per-tenant counters up into the service-level ones."""
        for name in ("items", "cells", "failures", "dead_lettered", "requeued",
                     "lost_leases"):
            setattr(self, name, sum(getattr(s, name) for s in self.per_tenant.values()))


class _Heartbeat:
    """Background lease refresher for the item currently executing."""

    def __init__(self, queue: JobQueue, item_id: str, interval: float):
        self._queue = queue
        self._item_id = item_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            faults.fire("heartbeat", self._item_id)
            skew = faults.clock_skew("heartbeat", self._item_id)
            self._queue.heartbeat(self._item_id, skew=skew or 0.0)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# -- liveness beacons ---------------------------------------------------------


def _touch_beacon(root: str, worker_id: str) -> None:
    """Refresh this worker's beacon ``<root>/workers/<worker_id>``."""
    path = os.path.join(root, WORKERS_DIRNAME, worker_id)
    try:
        os.utime(path)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Atomic create: a reader may look at any moment, and a torn write
        # would make a live worker look dead.
        atomic_write_text(path, str(os.getpid()) + "\n")


def live_worker_ids(run_dir: str, ttl: float) -> List[str]:
    """Workers whose beacon under ``run_dir`` (or a service dir) is fresher
    than ``ttl`` seconds."""
    workers_dir = os.path.join(run_dir, WORKERS_DIRNAME)
    try:
        names = os.listdir(workers_dir)
    except FileNotFoundError:
        return []
    now = time.time()
    live = []
    for name in names:
        if name.endswith(".log"):
            continue  # daemon stdout logs share the directory, not beacons
        try:
            if now - os.stat(os.path.join(workers_dir, name)).st_mtime <= ttl:
                live.append(name)
        # repro: ignore[REP008] beacon removed between listdir and stat (gc
        # or a clean worker exit); that worker just isn't live.
        except OSError:
            continue
    return sorted(live)


# -- the loop -----------------------------------------------------------------


class RunHandle:
    """A worker's cached handles for one run directory (one tenant).

    The manifest knobs and the queue are cheap and always held; the pickled
    context loads lazily — *having it loaded* is what "warm" means to the
    fair-share scheduler.  ``plan`` is the process-wide fault schedule (the
    caller's installed plan, else :data:`~repro.faults.FAULTS_ENV`); without
    one the manifest's applies.  ``lease_timeout`` overrides the manifest's.
    """

    def __init__(self, run_dir: str, plan=None, lease_timeout: Optional[float] = None):
        self.run_dir = os.path.abspath(run_dir)
        manifest = read_manifest(self.run_dir) or {}
        if lease_timeout is None:
            lease_timeout = float(manifest.get("lease_timeout") or DEFAULT_LEASE_TIMEOUT)
        chunk = manifest.get("chunk_size")
        self.chunk_size = int(chunk) if chunk is not None else None
        self.checksum = bool(manifest.get("checksums"))
        self.telemetry = bool(manifest.get("telemetry"))
        retry = RetryPolicy.from_manifest(manifest.get("retry"))
        self.queue = JobQueue(self.run_dir, lease_timeout=lease_timeout, retry=retry)
        self.heartbeat_interval = max(lease_timeout / 4.0, 0.05)
        if plan is None and manifest.get("faults"):
            plan = faults.FaultPlan.from_json(manifest["faults"])
        self.plan = plan
        self._context = None

    @property
    def warm(self) -> bool:
        return self._context is not None

    def context(self):
        if self._context is None:
            with open(os.path.join(self.run_dir, CONTEXT_FILENAME), "rb") as handle:
                self._context = pickle.load(handle)
        return self._context

    def shard_path(self, worker_id: str) -> str:
        return os.path.join(self.run_dir, SHARDS_DIRNAME, f"worker-{worker_id}.jsonl")

    @contextmanager
    def faults_installed(self) -> Iterator[None]:
        """Run the block under this run's plan, then restore the caller's.

        Binding shares run-scoped rules' budgets (``scope="run"``) with every
        process serving this run, through slot files under its ``faults/``.
        """
        previous = faults.current()
        if self.plan is not None:
            self.plan.bind(os.path.join(self.run_dir, faults.BUDGET_DIRNAME))
        faults.install(self.plan)
        try:
            yield
        finally:
            faults.install(previous)


class RunSource:
    """A run directory as a work source: a one-tenant service.

    :func:`serve` asks its source only what differs between a run and a
    service; :mod:`repro.service.worker` implements the same hooks over a
    registry of tenants.
    """

    #: The one-shot exit waits for leased items, so a one-shot fleet rescues
    #: a crashed peer's last lease once it expires.
    waits_on_leases = True

    def __init__(self, run_dir: str, lease_timeout: Optional[float] = None):
        self.root = os.path.abspath(run_dir)  # beacons and a worker-owned sink
        self.tenant = os.path.basename(self.root)
        self.lease_timeout = lease_timeout  # None: the manifest's

    def runnable(self) -> List[Tuple[str, str, float]]:
        """``(tenant_id, run_dir, priority)`` of every tenant to serve."""
        return [(self.tenant, self.root, 1.0)]

    def pick(self, outstanding, priorities, warm) -> Optional[Tuple[str, str]]:
        """``(tenant_id, reason)`` to claim from next, or ``None``."""
        return (self.tenant, "leader") if outstanding.get(self.tenant) else None

    def refund(self, tenant_id: str) -> None:
        """Return the credit of a pick that served nothing."""

    def claimed(self, tenant_id: str) -> None:
        """A claim from ``tenant_id`` succeeded."""

    def drained(self, tenant_id: str, handle: RunHandle, stats) -> None:
        """``tenant_id`` holds nothing pending or leased.  A run needs nothing
        here: the coordinator or ``repro.cluster merge`` merges its shards."""


def _scan(source, handles: Dict[str, RunHandle], plan, stats: ServiceWorkerStats):
    """One round's claimable and leased counts over the runnable tenants.

    Crash recovery crosses tenants: every tenant's expired leases are
    requeued.  A tenant submitted with telemetry makes a worker without a
    recorder record into the source's root (one sink per worker).
    """
    _touch_beacon(source.root, stats.worker_id)
    outstanding: Dict[str, int] = {}
    priorities: Dict[str, float] = {}
    leased = 0
    for tenant_id, run_dir, priority in source.runnable():
        handle = handles.get(tenant_id)
        if handle is None:
            if not os.path.isdir(run_dir):
                continue  # registered but never prepared; skip
            handle = handles[tenant_id] = RunHandle(run_dir, plan, source.lease_timeout)
            if handle.telemetry and not telemetry.enabled():
                telemetry.configure(source.root, name=f"worker-{stats.worker_id}")
        requeued = len(handle.queue.requeue_expired())
        if requeued:
            stats.tenant_stats(tenant_id).requeued += requeued
            telemetry.get_recorder().count("worker.requeued", requeued)
        # Only pending/ and leased/ are listed: done/ grows with the run.
        pending = len(handle.queue.pending_ids())
        in_flight = len(handle.queue.leased_ids())
        outstanding[tenant_id] = pending
        priorities[tenant_id] = priority
        leased += in_flight
        if not pending and not in_flight:
            source.drained(tenant_id, handle, stats)
    return outstanding, priorities, leased


def _dispatch(source, handles, pick, warm, stats: ServiceWorkerStats) -> bool:
    """Serve one pick under the tenant's fault plan; ``True`` if an item ran."""
    tenant_id, reason = pick
    handle = handles[tenant_id]
    rec = telemetry.get_recorder()
    worker_id = stats.worker_id
    with handle.faults_installed(), rec.span(
        "service.dispatch", worker=worker_id, tenant=tenant_id, reason=reason,
    ) as span:
        try:
            faults.fire("dispatch", tenant_id)
            if reason == "steal":
                stats.steals += 1
                rec.count("service.steals")
                faults.fire("steal", tenant_id)
        except Exception as exc:  # noqa: BLE001 - the containment boundary
            # A poisoned dispatch costs one pick, not the worker: nothing is
            # claimed yet, so the pick's credit goes back.
            source.refund(tenant_id)
            span.note(failed=True, exc_type=type(exc).__name__)
            rec.count("service.dispatch_failures")
            rec.event(
                "service.dispatch_failed", level="error",
                worker=worker_id, tenant=tenant_id,
                exc_type=type(exc).__name__, message=str(exc)[:500],
            )
            return False
        item = handle.queue.claim(worker_id)
        span.note(claimed=item is not None)
        if item is None:
            # The snapshot went stale (a peer claimed the work, or every
            # pending item is backing off): hand the credit back.
            source.refund(tenant_id)
            rec.count("service.empty_claims")
            return False
        if tenant_id == warm and handle.warm:
            stats.locality_hits += 1
            rec.count("service.locality_hits")
        else:
            stats.locality_misses += 1
            rec.count("service.locality_misses")
        if not handle.warm:
            stats.context_loads += 1
            rec.count("service.context_loads")
        context = handle.context()
        source.claimed(tenant_id)
        tenant_stats = stats.tenant_stats(tenant_id)
        _execute_item(
            handle.queue, context, item, handle.shard_path(worker_id), worker_id,
            handle.chunk_size, handle.heartbeat_interval, tenant_stats,
            checksum=handle.checksum,
        )
        span.note(items=tenant_stats.items)
    return True


def serve(source, worker_id: str, poll_interval: float = 0.2,
          max_poll: Optional[float] = None, max_idle: Optional[float] = None,
          max_items: Optional[int] = None,
          exit_when_drained: bool = True) -> ServiceWorkerStats:
    """Drain ``source`` (a :class:`RunSource` or the service's registry).

    The knobs are :func:`worker_loop`'s.  With ``exit_when_drained`` the
    loop returns once the source has nothing to pick — and, for a source
    that :attr:`~RunSource.waits_on_leases`, nothing leased either.  The
    caller's fault plan and telemetry recorder are in place on return.
    """
    stats = ServiceWorkerStats(worker_id=worker_id)
    caller_recorder = telemetry.get_recorder()
    plan = faults.current()
    if plan is None:
        plan = faults.plan_from_env()
    handles: Dict[str, RunHandle] = {}
    warm: Optional[str] = None
    max_poll = max(poll_interval, 2.0) if max_poll is None else float(max_poll)
    idle_rng = new_rng(derived_seed("worker-idle", worker_id))
    idle_polls, idle_since = 0, time.monotonic()
    try:
        outstanding, priorities, leased = _scan(source, handles, plan, stats)
        telemetry.get_recorder().event("worker.start", worker=worker_id, root=source.root)
        while True:
            pick = source.pick(outstanding, priorities, warm)
            if pick is None and exit_when_drained and not (
                leased and source.waits_on_leases
            ):
                return stats
            if pick is not None and _dispatch(source, handles, pick, warm, stats):
                warm = pick[0]
                idle_polls, idle_since = 0, time.monotonic()
            elif max_idle is not None and time.monotonic() - idle_since > max_idle:
                return stats
            else:
                # Capped exponential backoff with deterministic jitter in
                # [0.5, 1.5): idle fleets poll ever more gently, but any
                # deferred (backing-off) item is revisited within max_poll.
                delay = min(poll_interval * 2.0 ** min(idle_polls, 16), max_poll)
                time.sleep(delay * (0.5 + idle_rng.random()))
                idle_polls += 1
            outstanding, priorities, leased = _scan(source, handles, plan, stats)
            stats.fold()
            if max_items is not None and stats.items >= max_items:
                return stats
    finally:
        stats.fold()
        rec = telemetry.get_recorder()
        rec.event(
            "worker.exit", worker=worker_id, items=stats.items, cells=stats.cells,
            failures=stats.failures, lost_leases=stats.lost_leases,
            locality_hits=stats.locality_hits, steals=stats.steals,
            finalized=len(stats.finalized),
        )
        if rec is caller_recorder:
            rec.flush_metrics()
        else:
            telemetry.disable()  # the worker's own sink: flush and close it


def worker_loop(
    run_dir: str,
    worker_id: Optional[str] = None,
    lease_timeout: Optional[float] = None,
    poll_interval: float = 0.2,
    max_poll: Optional[float] = None,
    max_idle: Optional[float] = None,
    max_items: Optional[int] = None,
    exit_when_drained: bool = True,
) -> WorkerStats:
    """Run the claim/execute/append/complete loop until there is no work.

    Parameters
    ----------
    worker_id:
        Unique name of this worker (default ``<hostname>-<pid>``); names the
        shard file and the liveness beacon.
    lease_timeout:
        Lease expiry horizon; defaults to the run's manifest value, so every
        participant agrees on what "abandoned" means.
    poll_interval:
        Initial sleep between claim attempts while the queue is empty.
        Consecutive empty polls back off exponentially (with deterministic
        jitter derived from the worker id through :mod:`repro.utils.rng`) up
        to ``max_poll``, so an idle fleet doesn't hammer a shared
        filesystem; any claimed item resets the backoff.
    max_poll:
        Idle-sleep ceiling (default: ``max(poll_interval, 2.0)`` seconds).
    max_idle:
        Exit after this many seconds without claiming anything (``None``: no
        idle limit).
    max_items:
        Execute at most this many items (testing hook).
    exit_when_drained:
        Exit as soon as the queue holds no pending or leased items (the
        default — right for one-shot fleets and coordinator-spawned
        daemons).  ``False`` keeps serving across future submissions to the
        same run directory until ``max_idle`` (or termination) — the
        long-lived daemon mode (``repro.cluster worker --serve``).

    Fault schedules come from :mod:`repro.faults` — installed, via
    :data:`~repro.faults.FAULTS_ENV`, or via the run manifest
    (``manifest["faults"]``), in that precedence order.
    """
    source = RunSource(run_dir, lease_timeout)
    stats = serve(
        source, worker_id or default_worker_id(), poll_interval=poll_interval,
        max_poll=max_poll, max_idle=max_idle, max_items=max_items,
        exit_when_drained=exit_when_drained,
    )
    return stats.tenant_stats(source.tenant)


# -- one item -----------------------------------------------------------------


def _execute_item(
    queue: JobQueue,
    context,
    item: WorkItem,
    shard_path: str,
    worker_id: str,
    chunk_size: Optional[int],
    heartbeat_interval: float,
    stats: WorkerStats,
    checksum: bool = False,
) -> None:
    """Execute one claimed item and publish its results durably.

    Exactly one ``worker.item`` span is recorded per *execution* of an item
    — claim through complete, whether or not the completion rename wins —
    so a lost lease (the item re-executed elsewhere) shows up as one span
    per executing worker, never zero and never two from the same worker.
    """
    rec = telemetry.get_recorder()
    jobs = [EvalJob.from_record(record) for record in item.payload["jobs"]]
    jobs_by_key = {job.content_key: job for job in jobs}
    with rec.span(
        "worker.item", worker=worker_id, item=item.item_id, jobs=len(jobs),
        attempt=item.attempt,
    ) as span:
        try:
            faults.fire("claim", item.item_id)
            with _Heartbeat(queue, item.item_id, heartbeat_interval):
                faults.fire("execute", item.item_id)
                output = execute_group(context, jobs, chunk_size=chunk_size)
            records = []
            for key, cell in output:
                job = jobs_by_key.get(key)
                record = {
                    "key": key,
                    "error": float(cell.error),
                    "confidence": float(cell.confidence),
                    "worker": worker_id,
                    "item": item.item_id,
                    # The fence this execution ran under: the merge layer
                    # rejects lines whose fence is stale for the item, so a
                    # zombie re-publish after a lost lease never lands.
                    "fence": item.fence,
                }
                if job is not None:
                    record.update(job_metadata(job))
                records.append(record)
            faults.fire("publish", item.item_id)
            if faults.should_tear("publish", item.item_id):
                _torn_publish(shard_path, records, checksum=checksum)
            if faults.should_fill_disk("publish", item.item_id):
                _disk_full_publish(shard_path, records, checksum=checksum)
            # Durability before visibility: results reach the shard before
            # the item is marked done, so a done item always has its cells
            # on disk.
            append_jsonl(shard_path, records, checksum=checksum)
            faults.fire("complete", item.item_id)
        except Exception as exc:  # noqa: BLE001 - the containment boundary
            # A poisoned job must cost one attempt, not one worker: record
            # the failure, hand the item back to the retry/dead-letter
            # machinery, and keep the loop alive.
            _record_item_failure(queue, item, exc, worker_id, stats, span)
            rec.flush_metrics()
            return
        completed = queue.complete(item.item_id)
        span.note(cells=len(records), completed=completed)
    stats.items += 1
    stats.cells += len(records)
    stats.item_ids.append(item.item_id)
    rec.count("worker.items")
    rec.count("worker.cells", len(records))
    if not completed:
        # The lease expired mid-execution and someone requeued (and possibly
        # re-ran) the item.  Our shard records stay — the merge dedupes.
        stats.lost_leases += 1
        rec.count("worker.lost_leases")
        rec.event(
            "worker.lease_lost", level="warning",
            worker=worker_id, item=item.item_id,
        )
    # Snapshot after every item so a mid-run `status --json` / `report` sees
    # current counters without waiting for the worker to exit.
    rec.flush_metrics()


def _record_item_failure(
    queue: JobQueue,
    item: WorkItem,
    exc: BaseException,
    worker_id: str,
    stats: WorkerStats,
    span,
) -> None:
    """Report one failed execution to telemetry and the queue."""
    rec = telemetry.get_recorder()
    error = {
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }
    disposition = queue.nack(item, error, worker=worker_id)
    stats.failures += 1
    if disposition == "failed":
        stats.dead_lettered += 1
    span.note(failed=True, exc_type=error["exc_type"], disposition=disposition)
    rec.count("worker.item_failures")
    rec.event(
        "worker.item_failed", level="error",
        worker=worker_id, item=item.item_id, attempt=item.attempt,
        exc_type=error["exc_type"], message=error["message"][:500],
        disposition=disposition,
    )


def _torn_publish(
    shard_path: str, records: List[dict], checksum: bool = False
) -> None:
    """Chaos hook: die mid-append, leaving a truncated final shard line.

    Writes every record but the last as complete lines, then half of the
    last record's line with no trailing newline, fsyncs so the torn bytes
    are durably on disk, and SIGKILLs the process — exactly what a worker
    killed mid-``append_jsonl`` leaves behind.  The merge layer must skip
    (and count) the torn line, and the item — never completed — is retried
    after lease expiry.
    """
    import signal

    lines = [jsonl_line(record, checksum=checksum) for record in records]
    torn = lines[-1][: max(1, len(lines[-1]) // 2)]
    os.makedirs(os.path.dirname(os.path.abspath(shard_path)), exist_ok=True)
    with open(shard_path, "a", encoding="utf-8") as handle:
        handle.writelines(lines[:-1])
        handle.write(torn)
        handle.flush()
        os.fsync(handle.fileno())
    os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here


def _disk_full_publish(
    shard_path: str, records: List[dict], checksum: bool = False
) -> None:
    """Chaos hook: run out of disk mid-append — torn line, then ``ENOSPC``.

    Unlike :func:`_torn_publish` the worker *survives*: it writes a torn
    prefix of the first record's line (what a filesystem that filled up
    mid-``write`` leaves behind), fsyncs it durable, then raises the
    ``OSError`` the real syscall would have.  The containment boundary
    nacks the item, the retry republishes the full group, and the merge
    layer skips-and-counts the torn residue.
    """
    import errno

    line = jsonl_line(records[0], checksum=checksum)
    os.makedirs(os.path.dirname(os.path.abspath(shard_path)), exist_ok=True)
    with open(shard_path, "a", encoding="utf-8") as handle:
        handle.write(line[: max(1, len(line) // 2)])
        handle.flush()
        os.fsync(handle.fileno())
    raise OSError(errno.ENOSPC, "No space left on device (injected)", shard_path)
