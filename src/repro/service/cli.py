"""Command-line interface of the sweep service.

The operator's view of a long-lived multi-tenant service directory::

    # register sweeps as tenants (any time, any priority)
    python -m repro.service submit svc alice --spec alice_spec.pkl --priority 2
    python -m repro.service submit svc bob --spec bob_spec.pkl

    # attach long-lived workers (any number of hosts; shared filesystem only)
    python -m repro.service worker svc

    # operate
    python -m repro.service status svc
    python -m repro.service workers svc
    python -m repro.service pause svc bob
    python -m repro.service resume svc bob

    # read results: per-tenant RErr-vs-rate tables from the merged stores
    python -m repro.service report svc --json

    # audit every tenant's run directory with the cluster verifier
    python -m repro.service verify svc

Each tenant is a full cluster run directory under ``svc/tenants/<id>/``, so
``python -m repro.cluster <cmd> svc/tenants/<id>`` remains available for
single-tenant surgery (``retry-failed``, ``repair``, ``gc``, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from typing import Optional, Sequence

from repro.cluster.queue import DEFAULT_LEASE_TIMEOUT
from repro.runtime.spec import SweepSpec
from repro.service.registry import TENANTS_FILENAME, ServiceRegistry
from repro.service.reports import (
    service_status,
    service_summary_table,
    tenant_report_data,
    tenant_tables,
)
from repro.service.worker import service_worker_loop

__all__ = ["main", "build_parser"]


def _cmd_submit(args) -> int:
    with open(args.spec, "rb") as handle:
        spec = pickle.load(handle)
    if not isinstance(spec, SweepSpec):
        print(f"error: {args.spec} does not hold a pickled SweepSpec", file=sys.stderr)
        return 2
    registry = ServiceRegistry(args.service_dir)
    submission = registry.submit(
        args.tenant,
        spec,
        priority=args.priority,
        chunk_size=args.chunk_size,
        lease_timeout=args.lease_timeout,
    )
    print(
        f"tenant {args.tenant}: {len(submission.enqueued)} new item(s) "
        f"({len(submission.skipped)} already queued/done, "
        f"{len(submission.cached_keys)} cell(s) already stored), "
        f"priority {args.priority:g}"
    )
    return 0


def _cmd_worker(args) -> int:
    stats = service_worker_loop(
        args.service_dir,
        worker_id=args.id,
        poll_interval=args.poll,
        max_poll=args.max_poll,
        max_idle=args.max_idle,
        max_items=args.max_items,
        exit_when_drained=not args.serve,
        seed=args.seed,
    )
    print(
        f"service worker {stats.worker_id}: {stats.items} item(s), "
        f"{stats.cells} cell(s) across {len(stats.per_tenant)} tenant(s); "
        f"{stats.locality_hits} warm / {stats.locality_misses} cold dispatches, "
        f"{stats.steals} steal(s), {stats.failures} failure(s), "
        f"{len(stats.finalized)} tenant(s) finalized"
    )
    return 0


def _cmd_workers(args) -> int:
    status = service_status(args.service_dir, worker_ttl=args.worker_ttl)
    if args.json:
        print(json.dumps(status["workers"], indent=2))
        return 0
    if not status["workers"]:
        print("no live service workers")
    for worker in status["workers"]:
        print(worker)
    return 0


def _cmd_status(args) -> int:
    status = service_status(args.service_dir, worker_ttl=args.worker_ttl)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(service_summary_table(status).render())
    workers = ", ".join(status["workers"]) or "none"
    print(f"\nlive workers: {workers}")
    return 0


def _cmd_pause(args) -> int:
    ServiceRegistry(args.service_dir).pause(args.tenant)
    print(f"tenant {args.tenant}: paused")
    return 0


def _cmd_resume(args) -> int:
    registry = ServiceRegistry(args.service_dir)
    registry.resume(args.tenant)
    tenant = registry.get(args.tenant)
    print(f"tenant {args.tenant}: {tenant.state if tenant else 'unknown'}")
    return 0


def _cmd_report(args) -> int:
    report = tenant_report_data(args.service_dir, tenant_ids=args.tenant)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    for table in tenant_tables(report):
        print(table.render())
        print()
    return 0


def _cmd_verify(args) -> int:
    from repro.cluster.integrity import verify_run_dir

    registry = ServiceRegistry(args.service_dir)
    worst = 0
    for tenant_id in sorted(registry.tenants()):
        run_dir = registry.tenant_run_dir(tenant_id)
        report = verify_run_dir(run_dir, only=args.only)
        verdict = "clean" if report.clean else f"{len(report.findings)} finding(s)"
        print(f"tenant {tenant_id}: {verdict}")
        if not report.clean:
            worst = 1
            for finding in report.findings:
                print(f"  [{finding.check}] {finding.detail}")
    return worst


def _service_dir(path: str) -> str:
    """argparse type of ``status`` and ``verify``: a directory holding
    ``tenants.jsonl`` (anything else is a usage error, exit 2)."""
    if not os.path.isfile(os.path.join(path, TENANTS_FILENAME)):
        raise argparse.ArgumentTypeError(
            f"not a service directory (no {TENANTS_FILENAME}): {os.path.abspath(path)}"
        )
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Multi-tenant sweep service over a shared filesystem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="register a pickled SweepSpec as a tenant")
    p.add_argument("service_dir")
    p.add_argument("tenant", help="tenant id ([A-Za-z0-9._-]+)")
    p.add_argument("--spec", required=True, help="path to a pickled SweepSpec")
    p.add_argument("--priority", type=float, default=1.0,
                   help="fair-share weight (2.0 = twice the service rate)")
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--lease-timeout", type=float, default=DEFAULT_LEASE_TIMEOUT)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("worker", help="serve every runnable tenant fairly")
    p.add_argument("service_dir")
    p.add_argument("--id", default=None, help="worker id (default host-pid)")
    p.add_argument("--poll", type=float, default=0.2)
    p.add_argument("--max-poll", type=float, default=None)
    p.add_argument("--max-idle", type=float, default=None,
                   help="exit after this many idle seconds")
    p.add_argument("--max-items", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="fair-share tie-break seed (give workers distinct "
                        "seeds to spread them across tenants)")
    p.add_argument("--serve", action="store_true",
                   help="keep serving future submissions (daemon mode)")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("workers", help="list live service workers")
    p.add_argument("service_dir")
    p.add_argument("--worker-ttl", type=float, default=60.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_workers)

    p = sub.add_parser("status", help="per-tenant queue / store overview")
    p.add_argument("service_dir", type=_service_dir)
    p.add_argument("--worker-ttl", type=float, default=60.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("pause", help="remove a tenant from dispatch")
    p.add_argument("service_dir")
    p.add_argument("tenant")
    p.set_defaults(func=_cmd_pause)

    p = sub.add_parser("resume", help="return a tenant to the dispatch pool")
    p.add_argument("service_dir")
    p.add_argument("tenant")
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser("report",
                       help="per-tenant RErr-vs-rate tables from merged stores")
    p.add_argument("service_dir")
    p.add_argument("--tenant", action="append", default=None,
                   help="restrict to this tenant (repeatable)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify",
                       help="run the cluster integrity audit on every tenant")
    p.add_argument("service_dir", type=_service_dir)
    p.add_argument("--only", action="append", default=None, metavar="CHECK",
                   help="restrict to this check or check family (repeatable)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
