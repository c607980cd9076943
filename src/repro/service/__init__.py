"""``repro.service`` — sweep-as-a-service: a multi-tenant scheduler.

The cluster subsystem (:mod:`repro.cluster`) runs *one* sweep across a
fleet; this subsystem turns that into a long-lived **service**: many
tenants (each a submitted :class:`~repro.runtime.spec.SweepSpec`, each its
own full cluster run directory) share one pool of resident workers that
dispatch fairly across them:

* :mod:`repro.service.registry` — :class:`ServiceRegistry`: the tenant
  table (priority, ``queued|active|paused|done|failed`` state) as a
  last-wins fold of an append-only ``tenants.jsonl`` event log; ``submit``
  reuses the cluster broker, so every single-run tool keeps working per
  tenant;
* :mod:`repro.service.scheduler` — :class:`FairShareScheduler`: pure,
  deterministic deficit-round-robin over per-tenant outstanding work,
  priority-weighted, locality-aware (prefer the tenant whose context the
  worker has warm) with anti-starvation stealing;
* :mod:`repro.service.worker` — :func:`service_worker_loop`: the resident
  daemon, the cluster's one worker loop over the tenant table (heartbeats,
  fault seams and plans, containment included): it picks fairly and
  finalizes drained tenants (locked merge + terminal state);
* :mod:`repro.service.reports` — the read path: ``status`` snapshots and
  per-tenant RErr-vs-rate tables from the merged canonical stores;
* :mod:`repro.service.cli` — ``submit`` / ``worker`` / ``workers`` /
  ``status`` / ``pause`` / ``resume`` / ``report`` / ``verify``.

Because every tenant rides the unchanged cluster protocol, the bit-identity
guarantee holds per tenant: a service run's merged store carries exactly
the cells a solo ``executor="cluster"`` run of the same spec produces —
the property ``benchmarks/bench_service.py`` asserts.
"""

from repro.service.registry import RUNNABLE_STATES, STATES, ServiceRegistry, Tenant
from repro.service.reports import (
    service_status,
    tenant_report_data,
    tenant_tables,
)
from repro.service.scheduler import FairShareScheduler, Pick
from repro.service.worker import ServiceWorkerStats, service_worker_loop

__all__ = [
    "ServiceRegistry",
    "Tenant",
    "STATES",
    "RUNNABLE_STATES",
    "FairShareScheduler",
    "Pick",
    "ServiceWorkerStats",
    "service_worker_loop",
    "service_status",
    "tenant_report_data",
    "tenant_tables",
]
