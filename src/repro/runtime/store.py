"""Content-addressed result store: JSONL records under a run directory.

A :class:`ResultStore` persists one JSON record per completed evaluation
cell, keyed by the cell's content key (see :mod:`repro.runtime.spec`).  The
layout of a run directory is deliberately boring::

    <run_dir>/
        results.jsonl    # one {"key", "error", "confidence", ...} per line

Appending is atomic enough for resumability: if a sweep is killed mid-write,
at worst the final line is truncated and silently skipped on reload
(:func:`repro.utils.serialization.read_jsonl`), so the next run re-executes
only that cell.  Because keys hash the *content* of every input (quantized
codes, dataset, field/chip state, rate, offset, batch size), a store can be
shared across sweeps, scripts and processes: any cell already computed
anywhere — under any model or field naming — is a cache hit, and any input
change (different weights, different chip, different batch size) misses
cleanly instead of serving stale results.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro import telemetry
from repro.runtime.spec import CellResult, EvalJob
from repro.utils.serialization import append_jsonl, read_jsonl

__all__ = ["ResultStore", "job_metadata"]

RESULTS_FILENAME = "results.jsonl"


def job_metadata(job: EvalJob) -> Dict[str, object]:
    """The canonical human-inspection fields a result record carries.

    One definition shared by :meth:`ResultStore.put` and the cluster
    workers' shard records, so every ``results.jsonl``-shaped file uses the
    same annotation schema regardless of which process wrote it.
    """
    return {
        "kind": job.kind,
        "model": job.model_key,
        "source": job.source_key,
        "rate": job.rate,
        "index": job.index,
        "offset": job.offset,
    }


class ResultStore:
    """A JSONL-backed cache of evaluation-cell results.

    Parameters
    ----------
    run_dir:
        Directory holding the run's ``results.jsonl``; created if missing.
        Existing records are loaded eagerly, so membership tests and reads
        never touch the filesystem after construction.
    checksum:
        ``True`` suffixes every appended line with the integrity footer of
        :func:`repro.utils.serialization.jsonl_line` (cluster runs enable
        this via their manifest).  Reading is always footer-tolerant, so
        the flag only affects what *this* store writes; ``False`` (the
        default) keeps the log byte-identical to the historical format.
    """

    def __init__(self, run_dir: str, checksum: bool = False):
        self.run_dir = os.path.abspath(run_dir)
        self.checksum = bool(checksum)
        os.makedirs(self.run_dir, exist_ok=True)
        self.path = os.path.join(self.run_dir, RESULTS_FILENAME)
        self._cache: Dict[str, CellResult] = {}
        malformed = 0
        for record in read_jsonl(self.path):
            key = record.get("key")
            if not isinstance(key, str):
                malformed += 1
                continue
            try:
                result = CellResult(
                    error=float(record["error"]),
                    confidence=float(record["confidence"]),
                )
            except (KeyError, TypeError, ValueError):
                malformed += 1
                continue
            # A key's first record wins, as in `put` (which never clobbers)
            # and in repair (which quarantines the later copies).
            self._cache.setdefault(key, result)
        if malformed:
            # A record we cannot type is dropped (the cell will simply be
            # recomputed), but never silently: surface it in telemetry.
            telemetry.get_recorder().count("store.malformed_records", malformed)

    def __contains__(self, key: str) -> bool:
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, key: str) -> Optional[CellResult]:
        """The cached result for ``key``, or ``None`` on a miss."""
        return self._cache.get(key)

    def put(
        self,
        key: str,
        result: CellResult,
        job: Optional[EvalJob] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record ``result`` under ``key`` (appends one JSONL line).

        Re-putting an existing key is a no-op, so replayed cells never bloat
        the log.  ``job`` metadata (or an arbitrary JSON-safe ``metadata``
        dict — the shard merger forwards worker annotations through it),
        when given, is stored alongside for human inspection of the run
        directory — it is not part of the key and cannot shadow the result
        fields.
        """
        if key in self._cache:
            telemetry.get_recorder().count("store.dedupes")
            return
        telemetry.get_recorder().count("store.puts")
        record = {}
        if metadata is not None:
            record.update(metadata)
        if job is not None:
            record.update(job_metadata(job))
        record.update(
            {
                "key": key,
                "error": float(result.error),
                "confidence": float(result.confidence),
            }
        )
        append_jsonl(self.path, [record], checksum=self.checksum)
        self._cache[key] = result

    def discard(self, key: str) -> bool:
        """Forget ``key`` in this store's *cache*; ``True`` if it was held.

        The log is untouched (append-only); discarding only reopens the
        key for a future :meth:`put`.  The cluster coordinator uses this
        when a dead-lettered item's partial results were already merged —
        the repair path (``repro.cluster repair``) rewrites the log itself.
        """
        return self._cache.pop(key, None) is not None
