"""The service worker: one long-lived daemon serving every tenant fairly.

:func:`service_worker_loop` runs the one worker loop
(:func:`repro.cluster.worker.serve`) over a *service* directory
(:mod:`repro.service.registry`) instead of a single run directory, so
every single-run guarantee — heartbeats, fault seams and per-tenant fault
plans, failure containment, shard-append durability — holds per tenant.
The registry source supplies only what differs:

1. the runnable tenants, folded from the tenant table (the loop requeues
   expired leases of every one of them, so a worker serving tenant A still
   rescues tenant B's abandoned groups);
2. the pick: the :class:`~repro.service.scheduler.FairShareScheduler` —
   deficit round-robin over priorities, preferring the tenant whose context
   this worker already has warm, stealing when another would starve — and
   its refund when a pick served nothing;
3. ``queued → active`` on a tenant's first claim;
4. when a tenant drains, finalization: merge its shards into its canonical
   store under an ``O_CREAT|O_EXCL`` merge lock (exactly one finalizer per
   tenant fleet-wide) and fold its terminal state (``done``, or ``failed``
   when dead-lettered items remain) into the registry.

Per-pick telemetry: a ``service.dispatch`` span (tenant, reason, item) and
the ``service.locality_hits`` / ``service.locality_misses`` /
``service.steals`` counters that the fair-share tests assert against.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.cluster.merge import MergeStats, merge_shards
from repro.cluster.worker import (
    RunHandle,
    ServiceWorkerStats,
    default_worker_id,
    serve,
)
from repro.service.registry import ServiceRegistry, Tenant
from repro.service.scheduler import FairShareScheduler

__all__ = ["ServiceWorkerStats", "service_worker_loop", "MERGE_LOCK_FILENAME"]

#: Per-tenant finalization lock; exactly one worker merges a drained tenant.
MERGE_LOCK_FILENAME = "merge.lock"

#: A merge lock older than this is a dead finalizer's debris and is broken.
STALE_LOCK_S = 120.0


def _finalize_tenant(
    registry: ServiceRegistry,
    tenant_id: str,
    handle: RunHandle,
    stats: ServiceWorkerStats,
) -> bool:
    """Merge a drained tenant's shards and fold its terminal state.

    Guarded by an ``O_CREAT|O_EXCL`` lock file in the tenant's run dir so
    exactly one worker finalizes; the merge itself is idempotent (content
    keys dedupe), so a crashed finalizer costs nothing but a stale lock,
    which the next worker breaks after :data:`STALE_LOCK_S`.
    """
    lock_path = os.path.join(handle.run_dir, MERGE_LOCK_FILENAME)
    try:
        lock_age = time.time() - os.stat(lock_path).st_mtime
        if lock_age > STALE_LOCK_S:
            os.unlink(lock_path)
    # repro: ignore[REP008] no lock (or a racing breaker won) — either way
    # the O_EXCL acquisition below decides who finalizes.
    except OSError:
        pass
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False  # another worker is finalizing
    rec = telemetry.get_recorder()
    try:
        os.write(fd, f"{stats.worker_id}\n".encode())
        os.close(fd)
        merge_stats: MergeStats = merge_shards(handle.run_dir)
        failed = handle.queue.failed_ids()
        state = "failed" if failed else "done"
        registry.set_state(tenant_id, state, worker=stats.worker_id)
        stats.finalized.append(tenant_id)
        rec.count("service.finalized")
        rec.event(
            "service.tenant_finalized",
            level="warning" if failed else "info",
            tenant=tenant_id, state=state, merged=merge_stats.merged,
            duplicates=merge_stats.duplicates, failed_items=len(failed),
        )
        return True
    finally:
        try:
            os.unlink(lock_path)
        # repro: ignore[REP008] best-effort release; a leaked lock is broken
        # as stale by the next finalizer.
        except OSError:
            pass


class _RegistrySource:
    """A service registry as a work source: the hooks of
    :class:`repro.cluster.worker.RunSource` over every runnable tenant."""

    #: The one-shot exit ignores peers' leases (see service_worker_loop).
    waits_on_leases = False
    lease_timeout = None

    def __init__(self, registry: ServiceRegistry, scheduler: FairShareScheduler,
                 worker_id: str):
        self.registry = registry
        self.root = registry.service_dir
        self.scheduler = scheduler
        self.worker_id = worker_id
        self.tenants: Dict[str, Tenant] = {}
        self.handles: Dict[str, RunHandle] = {}

    def runnable(self) -> List[Tuple[str, str, float]]:
        self.tenants = self.registry.runnable()
        return [(tenant_id, self.registry.tenant_run_dir(tenant_id), tenant.priority)
                for tenant_id, tenant in sorted(self.tenants.items())]

    def pick(self, outstanding, priorities, warm) -> Optional[Tuple[str, str]]:
        pick = self.scheduler.pick(outstanding, priorities, warm=warm)
        return None if pick is None else (pick.tenant, pick.reason)

    def refund(self, tenant_id: str) -> None:
        self.scheduler.refund(tenant_id)

    def claimed(self, tenant_id: str) -> None:
        if self.tenants[tenant_id].state == "queued":
            self.registry.set_state(tenant_id, "active", worker=self.worker_id)

    def drained(self, tenant_id: str, handle: RunHandle, stats) -> None:
        _finalize_tenant(self.registry, tenant_id, handle, stats)


def service_worker_loop(
    service_dir: str,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    max_poll: Optional[float] = None,
    max_idle: Optional[float] = None,
    max_items: Optional[int] = None,
    exit_when_drained: bool = True,
    seed: int = 0,
    scheduler: Optional[FairShareScheduler] = None,
) -> ServiceWorkerStats:
    """Serve every runnable tenant of ``service_dir`` until there is no work.

    Parameters
    ----------
    worker_id:
        Unique name of this worker (default ``<hostname>-<pid>``); names the
        per-tenant shard files and the service-level beacon.
    poll_interval / max_poll:
        Idle-poll backoff, exactly as in the single-run worker loop
        (capped exponential with deterministic jitter).
    max_idle:
        Exit after this many seconds without claiming anything.
    max_items:
        Execute at most this many items across all tenants (testing hook).
    exit_when_drained:
        Exit once no runnable tenant has a pending item (the default).
        Unlike a cluster worker it does not stay for items a peer still
        holds leased: the peer completes them, or a later worker requeues
        them once the lease expires, and the tenant stays ``active`` until
        then.  Staying costs throughput: with it, the ``sweep-service``
        benchmark lost 13.5 % on a 2-vCPU host (median 45.8 → 39.6 ops/s,
        six paired 8 s runs).  ``False`` keeps serving
        future submissions until ``max_idle`` — the resident daemon mode
        (``--serve``).
    seed:
        Fair-share tie-break seed: workers given distinct seeds spread
        across tenants instead of herding, while a fixed seed makes a
        single worker's dispatch order fully deterministic.
    scheduler:
        An explicit :class:`FairShareScheduler` (testing hook; default one
        is built from ``seed``).
    """
    worker_id = worker_id or default_worker_id()
    source = _RegistrySource(
        ServiceRegistry(service_dir), scheduler or FairShareScheduler(seed=seed),
        worker_id,
    )
    return serve(
        source, worker_id, poll_interval=poll_interval, max_poll=max_poll,
        max_idle=max_idle, max_items=max_items, exit_when_drained=exit_when_drained,
    )
