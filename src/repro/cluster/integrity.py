"""Verify/repair: prove (or restore) the invariants of a cluster run dir.

The cluster protocol *prevents* most corruption — atomic renames, fenced
publishes, checksummed appends, quarantine at merge — but prevention is a
claim, and this module is the audit that makes it checkable: ``verify``
walks a run directory and tests every invariant the stack relies on,
emitting a machine-readable report; ``repair`` quarantines the offending
bytes and rewrites the damaged files atomically, after which ``verify``
must come back clean.  The STPA framing (see PAPERS.md): each corruption
scenario is a hazard, each check its mechanical detector.

================================  ===========================================
check                             hazard it detects
================================  ===========================================
``queue.duplicate_item``          one item id in two state directories (a
                                  broken rename or restored backup)
``queue.orphan_lease``            a lease past the timeout nobody requeued
``queue.clock_skew``              a lease heartbeaten into the *future* — a
                                  skewed worker clock defeats mtime expiry
``shard.torn_line``               truncated shard append (killed writer)
``shard.corrupt_line``            shard line whose checksum footer disagrees
``shard.stale_fence``             a zombie's post-lease-loss publish
``store.torn_line``               truncated canonical append
``store.corrupt_line``            canonical line failing its checksum
``store.duplicate_key``           one content key stored twice
``store.dead_letter_leak``        a dead-lettered item's key in the store
``store.fence_leak``              a canonical record traceable (via its
                                  worker/item provenance) to a stale-fenced
                                  shard line that slipped through
``store.missing_key``             a done item's cell in neither the store
                                  nor any shard: a result that was lost
``queue.missing_item``            a cell the manifest expects that is in
                                  neither the store nor any shard and that
                                  no queue item lists: work that was lost
================================  ===========================================

``repair`` handles each finding class: skewed leases get their mtimes
reset (so expiry-based recovery works again), orphan leases are requeued,
torn/corrupt/stale lines move to ``quarantine.jsonl`` (raw bytes for the
undecodable, full records otherwise) and the surviving lines are rewritten
**byte-for-byte** — intact records are never re-serialized, so a
post-repair diff shows only deletions.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.cluster.broker import MANIFEST_FILENAME, read_manifest
from repro.cluster.merge import (
    FenceTable,
    MergeGuard,
    discover_shards,
    quarantine_entry,
)
from repro.cluster.queue import DONE, LEASED, STATES, JobQueue
from repro.runtime.store import RESULTS_FILENAME
from repro.utils.serialization import atomic_write_text, parse_jsonl_line

__all__ = [
    "IntegrityFinding",
    "IntegrityReport",
    "RepairStats",
    "require_run_dir",
    "verify_run_dir",
    "repair_run_dir",
]

#: Seconds a lease mtime may sit in the future before it counts as skew
#: (filesystem timestamp granularity and NFS drift need a little slack).
DEFAULT_SKEW_TOLERANCE = 5.0


@dataclass(frozen=True)
class IntegrityFinding:
    """One invariant violation: which check, where, and the evidence."""

    check: str
    source: str = ""  # file (relative to the run dir) the evidence lives in
    key: Optional[str] = None
    item: Optional[str] = None
    worker: Optional[str] = None
    detail: str = ""

    def to_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {"check": self.check, "source": self.source}
        for name in ("key", "item", "worker"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass
class IntegrityReport:
    """The outcome of one :func:`verify_run_dir` audit."""

    run_dir: str
    findings: List[IntegrityFinding] = field(default_factory=list)
    ts: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.check] = counts.get(finding.check, 0) + 1
        return counts

    def to_json(self) -> Dict[str, object]:
        return {
            "run_dir": self.run_dir,
            "clean": self.clean,
            "ts": self.ts,
            "counts": self.counts(),
            "findings": [finding.to_record() for finding in self.findings],
        }


def require_run_dir(run_dir: str) -> str:
    """``run_dir`` made absolute; ``FileNotFoundError`` unless it holds ``queue/``.

    An audit of a path that holds nothing must neither report it clean nor
    create a queue there.
    """
    run_dir = os.path.abspath(run_dir)
    if not os.path.isdir(os.path.join(run_dir, "queue")):
        raise FileNotFoundError(f"not a cluster run directory (no queue/): {run_dir}")
    return run_dir


def _lease_timeout(run_dir: str, lease_timeout: Optional[float]) -> float:
    if lease_timeout is not None:
        return float(lease_timeout)
    manifest = read_manifest(run_dir) or {}
    from repro.cluster.queue import DEFAULT_LEASE_TIMEOUT

    return float(manifest.get("lease_timeout") or DEFAULT_LEASE_TIMEOUT)


def _raw_lines(path: str) -> List[str]:
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [line for line in handle if line.strip()]


def _shard_fence_index(
    run_dir: str,
) -> Dict[Tuple[str, str, str], int]:
    """``{(key, worker, item): max fence}`` over every intact shard line.

    The provenance index behind ``store.fence_leak``: a canonical record
    carries its worker/item but (deliberately) not its fence, so the fence
    it was published under is recovered from the worker's shard.  The max
    over matching lines is the right witness — if any fresh-fenced publish
    of the same cell by the same worker exists, the record's content is
    identical to the legitimate one and there is nothing to flag.
    """
    index: Dict[Tuple[str, str, str], int] = {}
    for path in discover_shards(run_dir):
        for line in _raw_lines(path):
            record, status = parse_jsonl_line(line)
            if status != "ok":
                continue
            key = record.get("key")
            worker = record.get("worker")
            item = record.get("item")
            fence = record.get("fence")
            if not (
                isinstance(key, str)
                and isinstance(worker, str)
                and isinstance(item, str)
                and fence is not None
            ):
                continue
            probe = (key, worker, item)
            index[probe] = max(index.get(probe, 0), int(fence))
    return index


def _check_queue(
    queue: JobQueue,
    lease_timeout: float,
    skew_tolerance: float,
    now: float,
    findings: List[IntegrityFinding],
) -> None:
    seen: Dict[str, str] = {}
    for state in STATES:
        for item_id in queue._ids(state):
            if item_id in seen:
                findings.append(
                    IntegrityFinding(
                        check="queue.duplicate_item",
                        source=f"queue/{state}/{item_id}.json",
                        item=item_id,
                        detail=f"also present in queue/{seen[item_id]}/",
                    )
                )
            else:
                seen[item_id] = state
    for item_id in queue.leased_ids():
        mtime = queue._mtime(LEASED, item_id)
        if mtime is None:
            # The lease ended between list and read; whatever state the
            # item is in now, it is not an orphan lease.
            continue
        if mtime > now + skew_tolerance:
            findings.append(
                IntegrityFinding(
                    check="queue.clock_skew",
                    source=f"queue/leased/{item_id}.json",
                    item=item_id,
                    detail=f"lease mtime {mtime - now:.1f}s in the future",
                )
            )
        elif now - mtime > lease_timeout:
            findings.append(
                IntegrityFinding(
                    check="queue.orphan_lease",
                    source=f"queue/leased/{item_id}.json",
                    item=item_id,
                    detail=f"lease stale for {now - mtime:.1f}s, never requeued",
                )
            )


def _check_shards(
    run_dir: str,
    fences: FenceTable,
    findings: List[IntegrityFinding],
) -> Set[str]:
    """Check every shard line; returns the keys of the intact ones."""
    keys: Set[str] = set()
    for path in discover_shards(run_dir):
        source = os.path.basename(path)
        for line in _raw_lines(path):
            record, status = parse_jsonl_line(line)
            if status == "torn":
                findings.append(
                    IntegrityFinding(check="shard.torn_line", source=source)
                )
                continue
            if status == "corrupt":
                findings.append(
                    IntegrityFinding(check="shard.corrupt_line", source=source)
                )
                continue
            if isinstance(record.get("key"), str):
                keys.add(record["key"])
            item = record.get("item")
            fence = record.get("fence")
            if (
                isinstance(item, str)
                and fence is not None
                and fences.is_stale(item, int(fence))
            ):
                findings.append(
                    IntegrityFinding(
                        check="shard.stale_fence",
                        source=source,
                        key=record.get("key"),
                        item=item,
                        worker=record.get("worker"),
                        detail=f"fence {fence} behind the item's current epoch",
                    )
                )
    return keys


def _check_store(
    run_dir: str,
    guard: MergeGuard,
    fences: FenceTable,
    shard_index: Dict[Tuple[str, str, str], int],
    findings: List[IntegrityFinding],
) -> Set[str]:
    """Check every canonical line; returns the keys of the intact ones."""
    source = RESULTS_FILENAME
    dead_keys = guard.dead_letter_keys()
    seen: Set[str] = set()
    for line in _raw_lines(os.path.join(run_dir, RESULTS_FILENAME)):
        record, status = parse_jsonl_line(line)
        if status == "torn":
            findings.append(IntegrityFinding(check="store.torn_line", source=source))
            continue
        if status == "corrupt":
            findings.append(
                IntegrityFinding(check="store.corrupt_line", source=source)
            )
            continue
        key = record.get("key")
        if not isinstance(key, str):
            continue
        if key in seen:
            findings.append(
                IntegrityFinding(
                    check="store.duplicate_key", source=source, key=key
                )
            )
            continue
        seen.add(key)
        if key in dead_keys:
            findings.append(
                IntegrityFinding(
                    check="store.dead_letter_leak",
                    source=source,
                    key=key,
                    item=record.get("item"),
                    worker=record.get("worker"),
                )
            )
            continue
        worker = record.get("worker")
        item = record.get("item")
        if isinstance(worker, str) and isinstance(item, str):
            fence = shard_index.get((key, worker, item))
            if fence is not None and fences.is_stale(item, fence):
                findings.append(
                    IntegrityFinding(
                        check="store.fence_leak",
                        source=source,
                        key=key,
                        item=item,
                        worker=worker,
                        detail=(
                            f"published at fence {fence}, behind the item's "
                            "current epoch"
                        ),
                    )
                )
    return seen


def _check_complete(
    run_dir: str,
    queue: JobQueue,
    found: Set[str],
    findings: List[IntegrityFinding],
) -> None:
    """Flag each cell that no store or shard line holds and nothing owes.

    A worker appends an item's cells to its shard before it marks the item
    done, so every done item's keys must be somewhere (``store.missing_key``).
    Failed, pending and leased items owe no results yet, but they do own
    their keys: a submission enqueues an item for every key the manifest
    expects (or finds one already in some state), and no code path deletes
    an item file, so an expected key that is neither found nor owned lost
    its item (``queue.missing_item``).  Resubmitting the spec re-enqueues
    that group.
    """
    owned: Set[str] = set()
    for state in STATES:
        for item_id in queue._ids(state):
            payload = queue._read(state, item_id) or {}
            for job in payload.get("jobs") or []:
                key = job.get("content_key") if isinstance(job, dict) else None
                if not isinstance(key, str):
                    continue
                owned.add(key)
                if state == DONE and key not in found:
                    findings.append(
                        IntegrityFinding(
                            check="store.missing_key",
                            source=f"queue/done/{item_id}.json",
                            key=key,
                            item=item_id,
                            detail="in neither results.jsonl nor any shard",
                        )
                    )
    expected = (read_manifest(run_dir) or {}).get("expected_keys") or []
    for key in dict.fromkeys(expected):
        if key not in found and key not in owned:
            findings.append(
                IntegrityFinding(
                    check="queue.missing_item",
                    source=MANIFEST_FILENAME,
                    key=key,
                    detail="expected, but neither stored nor listed by any "
                           "queue item",
                )
            )


def _matches_only(check: str, only: Sequence[str]) -> bool:
    """Whether ``check`` is selected by the ``only`` filter.

    Each entry matches its exact check name or, as a prefix, a whole family
    (``"queue"`` selects ``queue.orphan_lease``, ``queue.clock_skew``, ...).
    """
    for entry in only:
        entry = entry.rstrip(".")
        if check == entry or check.startswith(entry + "."):
            return True
    return False


def verify_run_dir(
    run_dir: str,
    lease_timeout: Optional[float] = None,
    skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
    now: Optional[float] = None,
    only: Optional[Sequence[str]] = None,
) -> IntegrityReport:
    """Audit ``run_dir`` against the full invariant set (read-only).

    Meant for quiesced or finished runs: an *active* fleet legitimately
    holds fresh leases and mid-append shard tails, so run it after workers
    exit (the chaos-smoke CI job), before trusting ``results.jsonl``, or
    any time ``status`` looks suspicious.  Detection only — nothing is
    modified; hand the report's findings to :func:`repair_run_dir`.

    ``only`` restricts the *report* to the named checks (exact names like
    ``"store.duplicate_key"`` or families like ``"queue"``); the audit
    itself always runs in full, so filtering never changes what a finding
    would have said.  Raises ``FileNotFoundError`` when ``run_dir`` holds no
    ``queue/``.
    """
    run_dir = require_run_dir(run_dir)
    now = time.time() if now is None else float(now)
    lease_timeout = _lease_timeout(run_dir, lease_timeout)
    queue = JobQueue(run_dir, lease_timeout=lease_timeout)
    guard = MergeGuard(run_dir, queue=queue)
    fences = guard.fences
    findings: List[IntegrityFinding] = []
    _check_queue(queue, lease_timeout, skew_tolerance, now, findings)
    shard_keys = _check_shards(run_dir, fences, findings)
    store_keys = _check_store(
        run_dir, guard, fences, _shard_fence_index(run_dir), findings
    )
    _check_complete(run_dir, queue, shard_keys | store_keys, findings)
    if only:
        findings = [f for f in findings if _matches_only(f.check, only)]
    report = IntegrityReport(run_dir=run_dir, findings=findings, ts=now)
    rec = telemetry.get_recorder()
    rec.event(
        "integrity.verified",
        level="info" if report.clean else "warning",
        run_dir=run_dir, findings=len(findings),
    )
    if findings:
        rec.count("integrity.findings", len(findings))
    return report


@dataclass
class RepairStats:
    """What one :func:`repair_run_dir` pass changed (or, dry, would change)."""

    leases_reset: int = 0  # future-dated mtimes stamped back to now
    leases_requeued: int = 0  # orphan leases returned to pending
    shard_lines_quarantined: int = 0
    store_lines_quarantined: int = 0
    #: ``True`` when this was a dry run: the counters tally would-be
    #: actions, :attr:`planned` details each one, and nothing was written.
    dry_run: bool = False
    #: One record per planned/performed action, populated on dry runs:
    #: ``{"action": "reset_lease"|"requeue_lease"|"quarantine", ...}``.
    planned: List[Dict[str, object]] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(
            self.leases_reset
            or self.leases_requeued
            or self.shard_lines_quarantined
            or self.store_lines_quarantined
        )


def _repair_file(
    run_dir: str,
    path: str,
    keep_line,
    stats_bump,
    dry_run: bool = False,
    planned: Optional[List[Dict[str, object]]] = None,
) -> None:
    """Rewrite one JSONL file keeping only lines ``keep_line`` blesses.

    ``keep_line(line) -> Optional[reason]`` returns ``None`` to keep the
    line (its original bytes survive verbatim) or a quarantine reason to
    drop it; the rewrite is atomic and skipped entirely when nothing was
    dropped, so intact files are never touched.  With ``dry_run`` nothing
    is quarantined or rewritten — each would-be drop is appended to
    ``planned`` instead (and still counted through ``stats_bump``).
    """
    raw = _raw_lines(path)
    if not raw:
        return
    kept: List[str] = []
    dropped = 0
    source = os.path.relpath(path, run_dir)
    for line in raw:
        reason = keep_line(line)
        if reason is None:
            kept.append(line if line.endswith("\n") else line + "\n")
            continue
        record, status = parse_jsonl_line(line)
        if dry_run:
            if planned is not None:
                planned.append(
                    {
                        "action": "quarantine",
                        "source": source,
                        "reason": reason,
                        "key": (record or {}).get("key"),
                        "item": (record or {}).get("item"),
                        "worker": (record or {}).get("worker"),
                    }
                )
            dropped += 1
            continue
        quarantine_entry(
            run_dir,
            reason,
            record=record if status == "ok" else None,
            raw=None if status == "ok" else line.strip(),
            source=source,
            key=(record or {}).get("key"),
            item=(record or {}).get("item"),
            worker=(record or {}).get("worker"),
        )
        dropped += 1
    if dropped:
        if not dry_run:
            atomic_write_text(path, "".join(kept))
        stats_bump(dropped)


def repair_run_dir(
    run_dir: str,
    lease_timeout: Optional[float] = None,
    skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
    now: Optional[float] = None,
    dry_run: bool = False,
) -> RepairStats:
    """Quarantine every invariant violation and rewrite the damaged files.

    The write-side twin of :func:`verify_run_dir`: skewed lease mtimes are
    reset to the local clock, orphan leases requeued, and torn / corrupt /
    stale-fenced / duplicate / dead-lettered lines moved from the shards
    and the canonical store into ``quarantine.jsonl``.  Intact lines are
    preserved byte-for-byte.  Two finding classes are deliberately left
    alone: ``queue.duplicate_item`` (the same id in two state directories)
    has no mechanical winner — which copy is truth depends on how the
    corruption happened, so it stays an operator decision — and
    ``store.missing_key`` and ``queue.missing_item`` name cells that must be
    recomputed, which no rewrite can do (for a missing item, resubmitting
    the spec re-enqueues its group).  Requires a quiesced run directory:
    rewriting a file an active worker is appending to would lose its
    in-flight line (the CLI refuses while live beacons are present).

    With ``dry_run=True`` nothing is written at all: the returned stats
    count would-be actions and :attr:`RepairStats.planned` itemizes each
    one (including every line that *would* be quarantined) — the preview
    behind ``repro.cluster repair --dry-run``.  Raises ``FileNotFoundError``
    when ``run_dir`` holds no ``queue/``.
    """
    run_dir = require_run_dir(run_dir)
    now = time.time() if now is None else float(now)
    lease_timeout = _lease_timeout(run_dir, lease_timeout)
    queue = JobQueue(run_dir, lease_timeout=lease_timeout)
    guard = MergeGuard(run_dir, queue=queue)
    fences = guard.fences
    stats = RepairStats(dry_run=dry_run)

    # Leases first: a skewed mtime would hide an orphan from requeue.
    for item_id in queue.leased_ids():
        mtime = queue._mtime(LEASED, item_id)
        if mtime is None:
            # Lease ended between list and read — nothing left to reset
            # or requeue.
            continue
        if mtime > now + skew_tolerance:
            if dry_run:
                stats.leases_reset += 1
                stats.planned.append(
                    {
                        "action": "reset_lease",
                        "item": item_id,
                        "source": f"queue/leased/{item_id}.json",
                        "skew": round(mtime - now, 3),
                    }
                )
            elif queue._touch(LEASED, item_id, ts=now):
                stats.leases_reset += 1
    if dry_run:
        for item_id in queue.leased_ids():
            mtime = queue._mtime(LEASED, item_id)
            if mtime is None or mtime > now + skew_tolerance:
                continue  # gone, or a skew the (planned) reset handles first
            if now - mtime > lease_timeout:
                stats.leases_requeued += 1
                stats.planned.append(
                    {
                        "action": "requeue_lease",
                        "item": item_id,
                        "source": f"queue/leased/{item_id}.json",
                        "stale_for": round(now - mtime, 3),
                    }
                )
    else:
        stats.leases_requeued = len(queue.requeue_expired(now=now))

    # The shard fence index must be built BEFORE shard repair rewrites the
    # evidence the store's fence_leak check needs.
    shard_index = _shard_fence_index(run_dir)

    def _shard_reason(line: str) -> Optional[str]:
        record, status = parse_jsonl_line(line)
        if status == "torn":
            return "torn"
        if status == "corrupt":
            return "checksum"
        item = record.get("item")
        fence = record.get("fence")
        if (
            isinstance(item, str)
            and fence is not None
            and fences.is_stale(item, int(fence))
        ):
            return "fence_stale"
        return None

    for path in discover_shards(run_dir):
        _repair_file(
            run_dir, path, _shard_reason,
            lambda n: setattr(
                stats, "shard_lines_quarantined", stats.shard_lines_quarantined + n
            ),
            dry_run=dry_run,
            planned=stats.planned,
        )

    dead_keys = guard.dead_letter_keys()
    seen: Set[str] = set()

    def _store_reason(line: str) -> Optional[str]:
        record, status = parse_jsonl_line(line)
        if status == "torn":
            return "torn"
        if status == "corrupt":
            return "checksum"
        key = record.get("key")
        if isinstance(key, str):
            if key in seen:
                return "duplicate_key"
            if key in dead_keys:
                # Mark seen so a later duplicate of a dead key is reported
                # under its primary reason, not as a duplicate.
                seen.add(key)
                return "dead_letter"
            worker = record.get("worker")
            item = record.get("item")
            if isinstance(worker, str) and isinstance(item, str):
                fence = shard_index.get((key, worker, item))
                if fence is not None and fences.is_stale(item, fence):
                    seen.add(key)
                    return "fence_stale"
            seen.add(key)
        return None

    _repair_file(
        run_dir,
        os.path.join(run_dir, RESULTS_FILENAME),
        _store_reason,
        lambda n: setattr(
            stats, "store_lines_quarantined", stats.store_lines_quarantined + n
        ),
        dry_run=dry_run,
        planned=stats.planned,
    )

    rec = telemetry.get_recorder()
    rec.event(
        "integrity.repaired",
        level="warning" if stats.changed and not dry_run else "info",
        run_dir=run_dir,
        dry_run=dry_run,
        leases_reset=stats.leases_reset,
        leases_requeued=stats.leases_requeued,
        shard_lines=stats.shard_lines_quarantined,
        store_lines=stats.store_lines_quarantined,
    )
    return stats
