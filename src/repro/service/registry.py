"""The service registry: multi-tenant bookkeeping under one service dir.

A *service directory* turns the single-run cluster protocol into a
long-lived, multi-tenant scheduler's shared state::

    <service_dir>/
        tenants.jsonl        # append-only tenant event log (fold = truth)
        tenants/<id>/        # one full cluster run directory per tenant
        workers/             # service-level worker liveness beacons

Each **tenant** is one submitted :class:`~repro.runtime.spec.SweepSpec`
run — its run directory is prepared by the ordinary cluster broker
(:func:`repro.cluster.broker.submit_spec`), so every existing tool
(``status``, ``merge``, ``verify``, ``repair``) works on a tenant
unchanged.  The registry adds only what the broker doesn't know: the
tenant's **priority** (its fair-share weight) and **state**
(``queued | active | paused | done | failed``).

Tenant facts live in ``tenants.jsonl`` as an append-only event log —
atomic single-``write`` appends, exactly like every other log in the repo
— and the current table is the *last-wins fold* of that log.  Appending
instead of rewriting means concurrent workers and operators never race a
read-modify-write: a pause and a state transition both land, and the fold
orders them by file position.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import telemetry
from repro.cluster.broker import read_manifest
from repro.utils.serialization import append_jsonl, read_jsonl

__all__ = [
    "STATES",
    "RUNNABLE_STATES",
    "TENANTS_FILENAME",
    "TENANTS_DIRNAME",
    "Tenant",
    "ServiceRegistry",
]

#: Tenant lifecycle states.  ``queued`` → ``active`` on the first dispatch;
#: a drained tenant lands in ``done`` (or ``failed`` when dead-lettered
#: items remain); ``paused`` removes the tenant from dispatch without
#: touching its queue.
STATES = ("queued", "active", "paused", "done", "failed")

#: States the dispatcher may claim from.
RUNNABLE_STATES = ("queued", "active")

TENANTS_FILENAME = "tenants.jsonl"
TENANTS_DIRNAME = "tenants"

_TENANT_ID = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass
class Tenant:
    """The folded current state of one registered tenant."""

    tenant_id: str
    priority: float = 1.0
    state: str = "queued"
    submitted_at: float = 0.0
    updated_at: float = 0.0
    enqueued: int = 0
    cached: int = 0
    expected: int = 0
    history: List[Dict[str, object]] = field(default_factory=list)

    @property
    def runnable(self) -> bool:
        return self.state in RUNNABLE_STATES


class ServiceRegistry:
    """Tenant bookkeeping over one service directory (see module docs)."""

    def __init__(self, service_dir: str):
        self.service_dir = os.path.abspath(service_dir)
        self.tenants_path = os.path.join(self.service_dir, TENANTS_FILENAME)

    # -- paths ----------------------------------------------------------------

    def tenant_run_dir(self, tenant_id: str) -> str:
        """The cluster run directory backing ``tenant_id``."""
        return os.path.join(self.service_dir, TENANTS_DIRNAME, tenant_id)

    # -- the event log --------------------------------------------------------

    def _append(self, record: Dict[str, object]) -> None:
        record = dict(record)
        record.setdefault("ts", time.time())
        os.makedirs(self.service_dir, exist_ok=True)
        append_jsonl(self.tenants_path, [record])

    def tenants(self) -> Dict[str, Tenant]:
        """The current tenant table: a last-wins fold of ``tenants.jsonl``."""
        table: Dict[str, Tenant] = {}
        for record in read_jsonl(self.tenants_path):
            tenant_id = record.get("tenant")
            if not isinstance(tenant_id, str) or not tenant_id:
                continue
            tenant = table.get(tenant_id)
            if tenant is None:
                tenant = table[tenant_id] = Tenant(tenant_id=tenant_id)
            ts = float(record.get("ts") or 0.0)
            if record.get("event") == "submitted":
                tenant.submitted_at = ts
                for attr in ("enqueued", "cached", "expected"):
                    if isinstance(record.get(attr), int):
                        setattr(tenant, attr, record[attr])
            if isinstance(record.get("priority"), (int, float)):
                tenant.priority = float(record["priority"])
            state = record.get("state")
            if isinstance(state, str) and state in STATES:
                tenant.state = state
            tenant.updated_at = max(tenant.updated_at, ts)
            tenant.history.append(record)
        return table

    def get(self, tenant_id: str) -> Optional[Tenant]:
        return self.tenants().get(tenant_id)

    # -- registration ---------------------------------------------------------

    def submit(
        self,
        tenant_id: str,
        spec,
        priority: float = 1.0,
        **submit_kwargs,
    ):
        """Register ``spec`` as tenant ``tenant_id`` and publish its work.

        The heavy lifting is the ordinary broker submission into the
        tenant's run directory (``**submit_kwargs`` pass straight through to
        :func:`repro.cluster.broker.submit_spec` — ``lease_timeout``,
        ``retry`` and ``fault_plan``).  Resubmitting an
        existing tenant is the broker's idempotent resubmission:
        already-queued items are skipped, warm cells are cached, and a
        ``done`` tenant with new work returns to ``queued``.

        Returns the broker's :class:`~repro.cluster.broker.Submission`.
        """
        if not _TENANT_ID.match(tenant_id):
            raise ValueError(
                f"invalid tenant id {tenant_id!r}: use letters, digits, "
                "dots, underscores and dashes"
            )
        if priority <= 0:
            raise ValueError(f"priority must be positive, got {priority}")
        from repro.cluster.broker import submit_spec

        submission = submit_spec(self.tenant_run_dir(tenant_id), spec, **submit_kwargs)
        state = "queued" if submission.enqueued else None
        existing = self.get(tenant_id)
        if existing is None or existing.state in ("done", "failed"):
            state = "queued"
        record = {
            "tenant": tenant_id,
            "event": "submitted",
            "priority": float(priority),
            "enqueued": len(submission.enqueued),
            "cached": len(submission.cached_keys),
            "expected": len(submission.expected_keys),
        }
        if state is not None:
            record["state"] = state
        self._append(record)
        telemetry.get_recorder().event(
            "service.submitted",
            tenant=tenant_id,
            priority=float(priority),
            enqueued=len(submission.enqueued),
        )
        return submission

    # -- state transitions ----------------------------------------------------

    def _require(self, tenant_id: str) -> Tenant:
        tenant = self.get(tenant_id)
        if tenant is None:
            raise KeyError(f"unknown tenant {tenant_id!r} in {self.service_dir}")
        return tenant

    def set_state(self, tenant_id: str, state: str, **fields) -> None:
        if state not in STATES:
            raise ValueError(f"unknown tenant state {state!r}; one of {STATES}")
        self._require(tenant_id)
        self._append({"tenant": tenant_id, "event": "state", "state": state, **fields})
        telemetry.get_recorder().event(
            "service.tenant_state", tenant=tenant_id, state=state,
        )

    def set_priority(self, tenant_id: str, priority: float) -> None:
        if priority <= 0:
            raise ValueError(f"priority must be positive, got {priority}")
        self._require(tenant_id)
        self._append(
            {"tenant": tenant_id, "event": "priority", "priority": float(priority)}
        )

    def pause(self, tenant_id: str) -> None:
        """Remove the tenant from dispatch; its queue and leases are untouched."""
        self.set_state(tenant_id, "paused")

    def resume(self, tenant_id: str) -> None:
        """Return a paused (or finished) tenant to the dispatchable pool."""
        tenant = self._require(tenant_id)
        has_work = tenant.state != "done"
        self.set_state(tenant_id, "queued" if has_work else "done")

    # -- derived views --------------------------------------------------------

    def runnable(self) -> Dict[str, Tenant]:
        """Tenants the dispatcher may currently claim from."""
        return {
            tenant_id: tenant
            for tenant_id, tenant in self.tenants().items()
            if tenant.runnable
        }

    def tenant_manifest(self, tenant_id: str) -> Dict[str, object]:
        return read_manifest(self.tenant_run_dir(tenant_id)) or {}
