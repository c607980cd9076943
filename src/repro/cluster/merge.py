"""Store tooling: merge worker shards into the canonical results.

Every cluster worker appends completed cells to its own shard
(``<run_dir>/shards/worker-<id>.jsonl``) — single-writer files, so no cross
host append races exist.  This module folds those shards into the canonical
:class:`~repro.runtime.store.ResultStore` log (``results.jsonl``):

* :func:`merge_shards` is **idempotent by construction** — records are keyed
  by their content key and :meth:`ResultStore.put` no-ops on keys it already
  holds, so re-running a merge (or merging shards holding duplicate cells
  from a requeued-then-finished-twice group) never duplicates a result;
* :class:`ShardTail` gives the coordinator incremental merging: it remembers
  a per-file byte offset and only parses complete new lines, tolerating a
  shard whose writer is mid-append.

The merge path is also where the run's **integrity gate** lives: a
:class:`MergeGuard` checks every record against the queue's fence epochs
(:class:`FenceTable` — a zombie worker that resumed after losing its lease
publishes *stale-fenced* lines, which must never reach the canonical store)
and against the dead-letter directory (a failed item's already-published
partial results are excluded *by key*, not by hoping they never landed).
Rejected records are not dropped: they move to
``<run_dir>/quarantine.jsonl`` with a structured reason record, so an
operator can audit exactly what was kept out and why.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro import telemetry
from repro.cluster.broker import SHARDS_DIRNAME, read_manifest
from repro.cluster.queue import JobQueue
from repro.runtime.spec import CellResult
from repro.runtime.store import ResultStore
from repro.utils.serialization import append_jsonl, parse_jsonl_line, read_jsonl

__all__ = [
    "ShardTail",
    "FenceTable",
    "MergeGuard",
    "QUARANTINE_FILENAME",
    "discover_shards",
    "merge_records",
    "merge_shards",
    "MergeStats",
]

#: Rejected records land here (run-dir root, beside ``results.jsonl``).
QUARANTINE_FILENAME = "quarantine.jsonl"


def discover_shards(run_dir: str) -> List[str]:
    """Paths of every worker shard in ``run_dir``, sorted for determinism."""
    shards_dir = os.path.join(os.path.abspath(run_dir), SHARDS_DIRNAME)
    try:
        names = os.listdir(shards_dir)
    except FileNotFoundError:
        return []
    return sorted(
        os.path.join(shards_dir, name)
        for name in names
        if name.endswith(".jsonl")
    )


class ShardTail:
    """Incremental reader of one append-only shard file.

    ``read_new`` returns the complete records appended since the last call.
    The offset only advances past newline-terminated lines, so a record the
    writer is still flushing is picked up whole on a later call instead of
    being half-parsed — the property the coordinator's poll loop relies on.
    A shard that shrinks (rewritten by ``repair``, or deleted and recreated
    by hand) resets the tail to the start.
    """

    def __init__(self, path: str):
        self.path = path
        self.offset = 0

    def read_new(self) -> List[dict]:
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self.offset:
            self.offset = 0  # truncated/recreated shard: re-read from scratch
        if size == self.offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            chunk = handle.read(size - self.offset)
        last_newline = chunk.rfind(b"\n")
        if last_newline < 0:
            return []  # only a partial line so far; keep the offset
        complete, self.offset = chunk[: last_newline + 1], self.offset + last_newline + 1
        records = []
        torn = 0
        corrupt = 0
        for line in complete.split(b"\n"):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                torn += 1  # a writer died mid-line; the record is unrecoverable
                continue
            record, status = parse_jsonl_line(text)
            if status == "ok":
                records.append(record)
            elif status == "torn":
                torn += 1
            elif status == "corrupt":
                corrupt += 1
        if torn:
            telemetry.get_recorder().count("io.torn_lines", torn)
        if corrupt:
            telemetry.get_recorder().count("io.corrupt_lines", corrupt)
        return records


class FenceTable:
    """Cached view of the queue's per-item fence epochs for the merge gate.

    Fences only ever increase, so a cached value is a valid *lower bound*:
    a record whose fence is already below it is stale no matter what
    happened since, with no disk access.  Only an unknown item or a record
    claiming a fence *ahead* of the cache forces a re-read of that item's
    file — the slow path that catches a re-claim the cache hasn't seen.
    An item the queue no longer knows at all (its file deleted by hand, or
    collected in a run dir written by an older version) cannot be judged
    and is accepted.
    """

    def __init__(self, queue: JobQueue):
        self._queue = queue
        self._cache: Dict[str, int] = {}

    def is_stale(self, item_id: str, fence: int) -> bool:
        fence = int(fence)
        cached = self._cache.get(item_id)
        if cached is None or fence > cached:
            current = self._queue.fence_of(item_id)
            if current is None:
                return False  # item gone; no authority left to call it stale
            cached = max(cached or 0, current)
            self._cache[item_id] = cached
        return fence < cached


class MergeGuard:
    """The integrity gate every record passes before the canonical store.

    Two checks, both provenance-based: the record's ``(item, fence)`` must
    match the item's *current* fence epoch (:class:`FenceTable` — rejects a
    zombie's post-lease-loss publishes), and the record's key must not
    belong to a dead-lettered item (rejects the partial results a failed
    group managed to publish before its final attempt died).  Rejects are
    appended to ``quarantine.jsonl`` with the reason, source file and
    provenance — auditable, never silently dropped.
    """

    def __init__(self, run_dir: str, queue: Optional[JobQueue] = None):
        self.run_dir = os.path.abspath(run_dir)
        self._queue = queue or JobQueue(self.run_dir)
        self.fences = FenceTable(self._queue)
        self._dead_keys_by_item: Dict[str, Set[str]] = {}
        self.quarantined = 0

    def dead_letter_keys(self) -> Set[str]:
        """Content keys belonging to currently dead-lettered items."""
        keys: Set[str] = set()
        for item_id in self._queue.failed_ids():
            cached = self._dead_keys_by_item.get(item_id)
            if cached is None:
                payload = self._queue.failure_record(item_id) or {}
                cached = {
                    record.get("content_key")
                    for record in (payload.get("jobs") or [])
                    if isinstance(record, dict) and record.get("content_key")
                }
                self._dead_keys_by_item[item_id] = cached
            keys |= cached
        return keys

    def check(self, record: dict) -> Optional[str]:
        """The quarantine reason for ``record``, or ``None`` if it may merge."""
        item_id = record.get("item")
        fence = record.get("fence")
        if isinstance(item_id, str) and fence is not None:
            try:
                fence = int(fence)
            except (TypeError, ValueError):
                return "fence_invalid"
            if self.fences.is_stale(item_id, fence):
                return "fence_stale"
        if record.get("key") in self.dead_letter_keys():
            return "dead_letter"
        return None

    def quarantine(self, record: dict, reason: str, source: str = "") -> None:
        """Append one rejected record to the run's quarantine log."""
        quarantine_entry(
            self.run_dir,
            reason,
            record=record,
            source=source,
            key=record.get("key"),
            item=record.get("item"),
            worker=record.get("worker"),
        )
        self.quarantined += 1


def quarantine_entry(
    run_dir: str,
    reason: str,
    record: Optional[dict] = None,
    raw: Optional[str] = None,
    source: str = "",
    **provenance,
) -> None:
    """Append one reason-stamped entry to ``<run_dir>/quarantine.jsonl``.

    ``record`` carries an intact-but-rejected record (fence violations,
    dead-letter leaks, duplicates); ``raw`` carries the undecodable bytes of
    a torn or checksum-corrupt line.  Quarantine is append-only and plain
    JSONL — the audit trail must stay readable even when everything else in
    the run directory is suspect.
    """
    entry = {"reason": reason, "source": source, "ts": time.time()}
    if record is not None:
        entry["record"] = record
    if raw is not None:
        entry["raw"] = raw
    entry.update({k: v for k, v in provenance.items() if v is not None})
    append_jsonl(os.path.join(os.path.abspath(run_dir), QUARANTINE_FILENAME), [entry])
    rec = telemetry.get_recorder()
    rec.count("store.quarantined")
    rec.event(
        "store.quarantined", level="warning",
        reason=reason, source=source,
        key=provenance.get("key"), item=provenance.get("item"),
    )


def _record_result(record: dict) -> Optional[CellResult]:
    key = record.get("key")
    if not isinstance(key, str):
        return None
    try:
        return CellResult(
            error=float(record["error"]), confidence=float(record["confidence"])
        )
    except (KeyError, TypeError, ValueError):
        return None


@dataclass
class MergeStats:
    """Outcome of one :func:`merge_shards` pass."""

    shards: int = 0
    records: int = 0  # intact records seen across shards
    merged: int = 0  # new keys appended to the canonical store
    duplicates: int = 0  # records whose key was already stored
    quarantined: int = 0  # records the MergeGuard rejected


def merge_records(
    store: ResultStore,
    records,
    stats: Optional[MergeStats] = None,
    guard: Optional[MergeGuard] = None,
    source: str = "",
):
    """Fold shard-shaped ``records`` into ``store``, deduplicating by key.

    The single merge body behind :func:`merge_shards` and the coordinator's
    incremental tailing: malformed records are skipped, keys the store
    already holds count as duplicates, and worker annotations (everything
    beyond the result fields) are forwarded as record metadata — except the
    fence, which is transport-level provenance: stripping it keeps the
    canonical store byte-comparable across topologies (a cell that needed
    three claims stores identically to one that needed one).  With a
    ``guard``, every record passes the integrity gate *before* the dedupe —
    a zombie's stale line must reach quarantine, not be silently absorbed
    as a duplicate of its legitimate twin.
    """
    stats = MergeStats() if stats is None else stats
    for record in records:
        result = _record_result(record)
        if result is None:
            continue
        stats.records += 1
        if guard is not None:
            reason = guard.check(record)
            if reason is not None:
                guard.quarantine(record, reason, source=source)
                stats.quarantined += 1
                continue
        if record["key"] in store:
            stats.duplicates += 1
        else:
            metadata = {
                k: v
                for k, v in record.items()
                if k not in ("key", "error", "confidence", "fence")
            }
            store.put(record["key"], result, metadata=metadata or None)
            stats.merged += 1
    return stats


def merge_shards(
    run_dir: str,
    store: Optional[ResultStore] = None,
    guard: Optional[MergeGuard] = None,
) -> MergeStats:
    """Fold every worker shard into the canonical ``results.jsonl``.

    Content keys dedupe: a key already in the store (from an earlier merge,
    a previous run, or another shard) is counted as a duplicate and not
    re-appended, which makes the merge idempotent under re-runs and immune
    to at-least-once execution.  Every record passes the
    :class:`MergeGuard` integrity gate (a fresh one per call unless the
    caller shares its own): stale-fenced and dead-lettered records land in
    quarantine instead of the store.
    """
    if store is None:
        manifest = read_manifest(run_dir) or {}
        store = ResultStore(run_dir, checksum=bool(manifest.get("checksums")))
    guard = MergeGuard(run_dir) if guard is None else guard
    stats = MergeStats()
    for path in discover_shards(run_dir):
        stats.shards += 1
        merge_records(
            store, read_jsonl(path), stats, guard=guard,
            source=os.path.basename(path),
        )
    return stats
