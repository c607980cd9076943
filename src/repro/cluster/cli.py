"""Command-line interface of the cluster subsystem.

Everything an operator needs to run a distributed sweep by hand — the same
primitives :class:`~repro.cluster.coordinator.ClusterExecutor` drives
programmatically::

    # on one host: publish a pickled SweepSpec into a shared run directory
    python -m repro.cluster submit runs/fig7 --spec fig7_spec.pkl

    # on every worker host (any number, any time; shared filesystem only)
    python -m repro.cluster worker runs/fig7

    # anywhere: watch progress, recover crashed workers' leases
    python -m repro.cluster status runs/fig7

    # after fixing whatever poisoned them: give dead-lettered items new life
    python -m repro.cluster retry-failed runs/fig7

    # when (or while) workers run: fold shards into the canonical results
    python -m repro.cluster merge runs/fig7

    # long-lived run directories: drop duplicate log lines, collect debris
    python -m repro.cluster compact runs/fig7
    python -m repro.cluster gc runs/fig7

    # audit the run directory's integrity invariants; quarantine violations
    python -m repro.cluster verify runs/fig7 --json
    python -m repro.cluster repair runs/fig7

``submit`` takes a pickled :class:`~repro.runtime.spec.SweepSpec` (build it
in Python with the usual ``SweepSpec`` API and ``pickle.dump`` it) because a
spec is a program-level object; scripted pipelines normally skip the CLI and
call :func:`repro.cluster.submit_spec` / ``ClusterExecutor`` directly.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from typing import Dict, Optional, Sequence

from repro.cluster.broker import read_manifest, submit_spec
from repro.cluster.integrity import (
    DEFAULT_SKEW_TOLERANCE,
    repair_run_dir,
    require_run_dir,
    verify_run_dir,
)
from repro.cluster.merge import (
    QUARANTINE_FILENAME,
    compact_results,
    gc_run_dir,
    merge_shards,
)
from repro.cluster.queue import DEFAULT_LEASE_TIMEOUT, JobQueue
from repro.cluster.worker import live_worker_ids, worker_loop
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore
from repro.utils.serialization import atomic_write_text

__all__ = ["main", "run_status"]


def _cmd_submit(args) -> int:
    with open(args.spec, "rb") as handle:
        spec = pickle.load(handle)
    if not isinstance(spec, SweepSpec):
        print(f"error: {args.spec} does not hold a pickled SweepSpec", file=sys.stderr)
        return 2
    submission = submit_spec(
        args.run_dir,
        spec,
        chunk_size=args.chunk_size,
        lease_timeout=args.lease_timeout,
    )
    print(
        f"submitted {len(submission.enqueued)} new item(s) to {submission.run_dir} "
        f"({len(submission.skipped)} already queued/done, "
        f"{len(submission.cached_keys)} cell(s) already stored)"
    )
    return 0


def _cmd_worker(args) -> int:
    stats = worker_loop(
        args.run_dir,
        worker_id=args.id,
        lease_timeout=args.lease_timeout,
        poll_interval=args.poll,
        max_poll=args.max_poll,
        max_idle=args.max_idle,
        max_items=args.max_items,
        exit_when_drained=not args.serve,
    )
    print(
        f"worker {stats.worker_id}: {stats.items} item(s), {stats.cells} cell(s), "
        f"{stats.failures} failure(s) ({stats.dead_lettered} dead-lettered), "
        f"{stats.requeued} expired lease(s) requeued, "
        f"{stats.lost_leases} lease(s) lost"
    )
    return 0


def run_status(run_dir: str, worker_ttl: float = DEFAULT_LEASE_TIMEOUT) -> Dict:
    """One machine-readable snapshot of a cluster run directory.

    The dict behind both renderings of ``repro.cluster status`` (text and
    ``--json``).  When the run was submitted with telemetry enabled, the
    merged per-worker counters (claims, requeues, lost leases, …) are folded
    in under ``"telemetry"``; without sinks the key maps to ``None`` rather
    than failing — status must work on any run directory.
    """
    from repro.telemetry.report import merged_run_metrics

    from repro.utils.serialization import read_jsonl

    run_dir = os.path.abspath(run_dir)
    queue = JobQueue(run_dir)
    store = ResultStore(run_dir)
    manifest = read_manifest(run_dir) or {}
    expected = manifest.get("expected_keys") or []
    stored = sum(1 for key in expected if key in store) if expected else len(store)
    quarantined = len(read_jsonl(os.path.join(run_dir, QUARANTINE_FILENAME)))
    telemetry_counters = None
    try:
        merged = merged_run_metrics(run_dir)
        if merged["counters"] or merged["gauges"] or merged["timers"]:
            telemetry_counters = merged["counters"]
    except Exception:  # noqa: BLE001 - diagnostics must never sink status
        telemetry_counters = None
    return {
        "run_dir": run_dir,
        "queue": queue.counts(),
        "stored": stored,
        "expected": len(expected),
        "complete": bool(expected) and stored == len(expected),
        "workers": live_worker_ids(run_dir, ttl=worker_ttl),
        "lost_leases": int((telemetry_counters or {}).get("worker.lost_leases", 0)),
        "requeued_expired": int(
            (telemetry_counters or {}).get("queue.requeued_expired", 0)
        ),
        "failed_items": queue.failed_ids(),
        "quarantined": quarantined,
        # {attempt: items} across every state — a crash-free run is all 1s;
        # retries shift mass right, and mass at max_attempts marks poison.
        "attempts": {
            str(attempt): count
            for attempt, count in sorted(queue.attempts_histogram().items())
        },
        "telemetry": telemetry_counters,
    }


def _cmd_status(args) -> int:
    status = run_status(args.run_dir, worker_ttl=args.worker_ttl)
    queue = JobQueue(status["run_dir"])
    if args.requeue_expired:
        requeued = queue.requeue_expired()
        status["queue"] = queue.counts()
        status["requeued_now"] = len(requeued)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status["queue"]
    live = status["workers"]
    print(f"run dir: {status['run_dir']}")
    print(
        f"queue: {counts['pending']} pending, {counts['leased']} leased, "
        f"{counts['done']} done, {counts['failed']} failed"
    )
    if status["expected"]:
        print(f"results: {status['stored']}/{status['expected']} expected cells stored")
    else:
        print(f"results: {status['stored']} cells stored")
    print(f"workers: {len(live)} live ({', '.join(live) if live else 'none'})")
    if status["attempts"]:
        histogram = ", ".join(
            f"{count} item(s) x{attempt}" for attempt, count in status["attempts"].items()
        )
        print(f"attempts: {histogram}")
    if status["failed_items"]:
        print(f"dead-lettered: {', '.join(status['failed_items'])}")
        print("  (inspect queue/failed/<item>.json; requeue with retry-failed)")
    if status["quarantined"]:
        print(
            f"quarantined: {status['quarantined']} record(s) "
            f"(see {QUARANTINE_FILENAME}; audit with verify)"
        )
    if status["telemetry"] is not None:
        print(
            f"leases: {status['lost_leases']} lost, "
            f"{status['requeued_expired']} expired requeued"
        )
    if "requeued_now" in status:
        print(f"requeued {status['requeued_now']} expired lease(s)")
    print(f"status: {'complete' if status['complete'] else 'in progress'}")
    return 0


def _cmd_retry_failed(args) -> int:
    queue = JobQueue(args.run_dir)
    failed = queue.failed_ids()
    if args.item:
        missing = sorted(set(args.item) - set(failed))
        if missing:
            print(
                f"error: not dead-lettered: {', '.join(missing)}", file=sys.stderr
            )
            return 2
    if not failed:
        print("nothing to retry: the dead-letter directory is empty")
        return 0
    requeued = queue.retry_failed(item_ids=args.item or None)
    print(
        f"requeued {len(requeued)} dead-lettered item(s) with a fresh attempt "
        f"budget: {', '.join(requeued)}"
    )
    return 0


def _cmd_merge(args) -> int:
    stats = merge_shards(args.run_dir)
    print(
        f"merged {stats.merged} new cell(s) from {stats.shards} shard(s) "
        f"({stats.duplicates} duplicate(s) skipped)"
    )
    return 0


def _cmd_compact(args) -> int:
    live = live_worker_ids(args.run_dir, ttl=args.worker_ttl)
    if live and not args.force:
        print(
            f"error: {len(live)} live worker(s) attached ({', '.join(live)}); "
            "compaction must not race an active writer — wait for the run to "
            "quiesce or pass --force",
            file=sys.stderr,
        )
        return 2
    stats = compact_results(args.run_dir)
    print(
        f"compacted results.jsonl: {stats.lines_before} -> {stats.lines_after} "
        f"line(s) ({stats.duplicates_dropped} duplicate(s), "
        f"{stats.malformed_dropped} malformed dropped)"
    )
    return 0


def _render_report(report) -> None:
    print(f"run dir: {report.run_dir}")
    if report.clean:
        print("verify: clean — every integrity invariant holds")
        return
    print(f"verify: {len(report.findings)} finding(s)")
    for check, count in sorted(report.counts().items()):
        print(f"  {check}: {count}")
    for finding in report.findings[:20]:
        where = f" [{finding.source}]" if finding.source else ""
        what = " ".join(
            f"{name}={getattr(finding, name)}"
            for name in ("key", "item", "worker")
            if getattr(finding, name)
        )
        detail = f" — {finding.detail}" if finding.detail else ""
        print(f"  {finding.check}{where} {what}{detail}".rstrip())
    if len(report.findings) > 20:
        print(f"  ... and {len(report.findings) - 20} more (use --json --out)")


def _cmd_verify(args) -> int:
    report = verify_run_dir(
        args.run_dir,
        lease_timeout=args.lease_timeout,
        skew_tolerance=args.skew_tolerance,
        only=args.only,
    )
    if args.out:
        atomic_write_text(
            args.out, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        _render_report(report)
    return 0 if report.clean else 1


def _cmd_repair(args) -> int:
    # A dry run writes nothing, so the live-writer guard does not apply.
    live = [] if args.dry_run else live_worker_ids(args.run_dir, ttl=args.worker_ttl)
    if live and not args.force:
        print(
            f"error: {len(live)} live worker(s) attached ({', '.join(live)}); "
            "repair rewrites shard and store files and must not race an "
            "active writer — wait for the run to quiesce or pass --force",
            file=sys.stderr,
        )
        return 2
    stats = repair_run_dir(
        args.run_dir,
        lease_timeout=args.lease_timeout,
        skew_tolerance=args.skew_tolerance,
        dry_run=args.dry_run,
    )
    verb = "repair (dry run): would" if args.dry_run else "repair:"
    print(
        f"{verb} {stats.leases_reset} skewed lease(s) reset, "
        f"{stats.leases_requeued} orphan lease(s) requeued, "
        f"{stats.shard_lines_quarantined} shard line(s) and "
        f"{stats.store_lines_quarantined} store line(s) quarantined"
    )
    if args.dry_run:
        for action in stats.planned:
            fields = " ".join(
                f"{name}={action[name]}"
                for name in ("reason", "key", "item", "worker", "skew", "stale_for")
                if action.get(name) is not None
            )
            print(f"  would {action['action']} [{action.get('source', '')}] "
                  f"{fields}".rstrip())
        if not stats.planned:
            print("  nothing to repair — the run directory is clean")
        return 0
    report = verify_run_dir(
        args.run_dir,
        lease_timeout=args.lease_timeout,
        skew_tolerance=args.skew_tolerance,
    )
    if report.clean:
        print("verify: clean after repair")
        return 0
    _render_report(report)
    return 1


def _cmd_gc(args) -> int:
    stats = gc_run_dir(args.run_dir, worker_ttl=args.worker_ttl)
    print(
        f"gc: merged {stats.merge.merged} cell(s), removed "
        f"{stats.done_items_removed} done item(s), {stats.shards_removed} "
        f"shard(s), {stats.beacons_removed} stale beacon(s)"
    )
    return 0


def _run_dir(path: str) -> str:
    """argparse type of ``status``, ``verify`` and ``repair``: a run dir.

    A path without ``queue/`` is a usage error (exit 2), and nothing is
    created there.
    """
    try:
        return require_run_dir(path)
    except FileNotFoundError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Distributed sweep execution over a shared filesystem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="publish a pickled SweepSpec as work items")
    p.add_argument("run_dir")
    p.add_argument("--spec", required=True, help="path to a pickled SweepSpec")
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--lease-timeout", type=float, default=DEFAULT_LEASE_TIMEOUT)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("worker", help="serve the queue: claim, execute, append")
    p.add_argument("run_dir")
    p.add_argument("--id", default=None, help="worker id (default host-pid)")
    p.add_argument("--poll", type=float, default=0.2, help="base claim poll seconds")
    p.add_argument("--max-poll", type=float, default=None,
                   help="cap of the idle-poll exponential backoff")
    p.add_argument("--lease-timeout", type=float, default=None,
                   help="override the run's lease timeout")
    p.add_argument("--max-idle", type=float, default=None,
                   help="exit after this many idle seconds")
    p.add_argument("--max-items", type=int, default=None)
    p.add_argument("--serve", action="store_true",
                   help="keep serving after the queue drains (daemon mode)")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("status", help="queue / results / worker overview")
    p.add_argument("run_dir", type=_run_dir)
    p.add_argument("--worker-ttl", type=float, default=DEFAULT_LEASE_TIMEOUT,
                   help="beacon freshness horizon for liveness")
    p.add_argument("--requeue-expired", action="store_true",
                   help="also requeue expired leases")
    p.add_argument("--json", action="store_true",
                   help="emit the status snapshot as JSON")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("retry-failed",
                       help="requeue dead-lettered items with a fresh attempt budget")
    p.add_argument("run_dir")
    p.add_argument("--item", action="append", default=None,
                   help="specific item id(s) to requeue (default: all failed)")
    p.set_defaults(func=_cmd_retry_failed)

    p = sub.add_parser("merge", help="fold worker shards into results.jsonl")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("compact", help="rewrite results.jsonl without duplicates "
                                       "(requires a quiesced run directory)")
    p.add_argument("run_dir")
    p.add_argument("--worker-ttl", type=float, default=DEFAULT_LEASE_TIMEOUT,
                   help="beacon freshness horizon for the live-writer guard")
    p.add_argument("--force", action="store_true",
                   help="compact even with live workers attached (unsafe)")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser("verify",
                       help="audit run-dir integrity (fences, checksums, "
                            "leases, dedupe); exit 1 on findings")
    p.add_argument("run_dir", type=_run_dir)
    p.add_argument("--lease-timeout", type=float, default=None,
                   help="override the manifest's lease timeout")
    p.add_argument("--skew-tolerance", type=float,
                   default=DEFAULT_SKEW_TOLERANCE,
                   help="future-mtime slack before a lease counts as skewed")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON on stdout")
    p.add_argument("--out", default=None,
                   help="also write the JSON report to this path")
    p.add_argument("--only", action="append", default=None, metavar="CHECK",
                   help="restrict the report to this check (exact name like "
                        "store.duplicate_key, or a family like queue); "
                        "repeatable")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("repair",
                       help="quarantine integrity violations and rewrite the "
                            "damaged files atomically (then re-verify)")
    p.add_argument("run_dir", type=_run_dir)
    p.add_argument("--lease-timeout", type=float, default=None,
                   help="override the manifest's lease timeout")
    p.add_argument("--skew-tolerance", type=float,
                   default=DEFAULT_SKEW_TOLERANCE,
                   help="future-mtime slack before a lease counts as skewed")
    p.add_argument("--worker-ttl", type=float, default=DEFAULT_LEASE_TIMEOUT,
                   help="beacon freshness horizon for the live-writer guard")
    p.add_argument("--force", action="store_true",
                   help="repair even with live workers attached (unsafe)")
    p.add_argument("--dry-run", action="store_true",
                   help="write nothing: print every lease reset/requeue and "
                        "quarantine the repair would perform")
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("gc", help="merge shards, then collect run-dir debris")
    p.add_argument("run_dir")
    p.add_argument("--worker-ttl", type=float, default=300.0,
                   help="beacons older than this are considered dead")
    p.set_defaults(func=_cmd_gc)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
