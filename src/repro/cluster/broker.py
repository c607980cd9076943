"""The cluster broker: shard a sweep into leased work items under a run dir.

A cluster run directory is the entire shared state of a distributed sweep —
workers need nothing else (no network, no database, no coordinator
liveness)::

    <run_dir>/
        context.pkl       # pickled SweepContext (models, dataset, fields)
        manifest.json     # expected content keys, chunk_size, lease timeout
        queue/            # the leased work-item queue (repro.cluster.queue)
        shards/           # per-worker result shards (worker-<id>.jsonl)
        workers/          # worker liveness beacons (mtime = last seen)
        results.jsonl     # the canonical merged ResultStore log

:func:`prepare_run_dir` publishes a grouped job graph: it writes the heavy
context once (atomically), enqueues every job group as one work item with a
**deterministic id** (a digest of the group's content keys, so resubmitting
the same sweep is idempotent), and records the expected content keys in the
manifest.  :func:`submit_spec` is the spec-level wrapper that first resolves
the run directory's canonical store so warm cells are never re-enqueued.

Safety: a run directory is bound to one context.  Publishing a *different*
context while unfinished items exist is refused — those items would execute
against resources their content keys never hashed.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import faults, telemetry
from repro.cluster.queue import DEFAULT_LEASE_TIMEOUT, JobQueue, RetryPolicy
from repro.runtime.executors import group_jobs
from repro.runtime.spec import EvalJob, SweepContext, SweepSpec
from repro.runtime.store import ResultStore
from repro.utils.serialization import atomic_write_bytes, atomic_write_json, read_jsonl

__all__ = [
    "CONTEXT_FILENAME",
    "MANIFEST_FILENAME",
    "SHARDS_DIRNAME",
    "WORKERS_DIRNAME",
    "Submission",
    "group_item_id",
    "read_manifest",
    "prepare_run_dir",
    "submit_spec",
]

CONTEXT_FILENAME = "context.pkl"
MANIFEST_FILENAME = "manifest.json"
SHARDS_DIRNAME = "shards"
WORKERS_DIRNAME = "workers"


def group_item_id(group: Sequence[EvalJob]) -> str:
    """Deterministic queue-item id of one job group.

    A digest over the group's content keys (order-sensitive — groups keep
    spec order), so the same group from the same spec always maps to the
    same item: resubmission after a crash re-collides with the existing
    item instead of duplicating work.
    """
    hasher = hashlib.sha256()
    for job in group:
        hasher.update(job.content_key.encode())
        hasher.update(b"\n")
    return "group-" + hasher.hexdigest()[:20]


@dataclass
class Submission:
    """What one :func:`prepare_run_dir` call published."""

    run_dir: str
    expected_keys: List[str] = field(default_factory=list)
    enqueued: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)  # already queued/done
    cached_keys: List[str] = field(default_factory=list)  # warm in the store

    @property
    def num_items(self) -> int:
        return len(self.enqueued) + len(self.skipped)


def _context_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def read_manifest(run_dir: str) -> Optional[Dict[str, object]]:
    """The run directory's manifest, or ``None`` before the first submission.

    Raises ``ValueError`` for a run submitted on the removed ``kv`` queue
    backend: its items live outside ``queue/``, so a worker would find the
    queue empty and call the run drained without running anything.
    """
    path = os.path.join(run_dir, MANIFEST_FILENAME)
    if not os.path.exists(path):
        return None
    records = read_jsonl(path)  # one-document file; reuse the tolerant reader
    manifest = records[0] if records else None
    backend = (manifest or {}).get("queue_backend", "filesystem")
    if backend != "filesystem":
        raise ValueError(
            f"run directory {run_dir!r} was submitted on queue_backend "
            f"{backend!r}; only the filesystem queue is supported"
        )
    return manifest


def prepare_run_dir(
    run_dir: str,
    context: SweepContext,
    groups: Sequence[Sequence[EvalJob]],
    chunk_size: Optional[int] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
    checksums: bool = True,
) -> Submission:
    """Publish ``groups`` (and their ``context``) as claimable work items.

    Idempotent: groups whose deterministic item id already exists in any
    queue state are skipped, and re-publishing the byte-identical context is
    a no-op.  Publishing a *different* context is refused while pending or
    leased items exist (they were enqueued against the old one); once the
    queue holds only done items the context may be replaced.

    ``retry`` (the run's attempt budget / backoff knobs) and ``fault_plan``
    (a chaos schedule for every worker serving this run) are recorded in the
    manifest so the whole fleet — spawned daemons included — agrees on them;
    so is ``checksums`` (on by default for cluster runs), which makes every
    shard and canonical-store line carry a per-line integrity footer that
    ``repro.cluster verify`` can audit.
    """
    run_dir = os.path.abspath(run_dir)
    retry = retry or RetryPolicy()
    queue = JobQueue(run_dir, lease_timeout=lease_timeout, retry=retry)
    os.makedirs(os.path.join(run_dir, SHARDS_DIRNAME), exist_ok=True)
    os.makedirs(os.path.join(run_dir, WORKERS_DIRNAME), exist_ok=True)

    groups = [list(group) for group in groups]
    blob = pickle.dumps(context, protocol=4)
    digest = _context_digest(blob)
    context_path = os.path.join(run_dir, CONTEXT_FILENAME)
    if os.path.exists(context_path) and not queue.is_drained():
        with open(context_path, "rb") as handle:
            existing_digest = _context_digest(handle.read())
        if existing_digest != digest:
            raise ValueError(
                f"run directory {run_dir!r} holds unfinished work items "
                "published against a different context; drain the queue (or "
                "gc the run directory) before submitting a different sweep"
            )
    atomic_write_bytes(context_path, blob)

    submission = Submission(run_dir=run_dir)
    expected = []
    for group in groups:
        expected.extend(job.content_key for job in group)
        item_id = group_item_id(group)
        payload = {
            "item": item_id,
            "jobs": [job.to_record() for job in group],
        }
        if queue.enqueue(item_id, payload):
            submission.enqueued.append(item_id)
        else:
            submission.skipped.append(item_id)
    submission.expected_keys = expected

    atomic_write_json(
        os.path.join(run_dir, MANIFEST_FILENAME),
        {
            "context": digest,
            "chunk_size": chunk_size,
            "lease_timeout": float(lease_timeout),
            "subsample": context.subsample,
            "expected_keys": expected,
            # Submitting with telemetry enabled asks every worker serving
            # this run directory to record its own sink here too (see
            # repro.cluster.worker.worker_loop).
            "telemetry": telemetry.enabled(),
            "retry": retry.to_manifest(),
            # A chaos schedule every worker honors (an installed plan or the
            # FAULTS_ENV variable wins inside a given worker process).
            "faults": fault_plan.to_json() if fault_plan is not None else None,
            # Per-line checksum footers on shard/store appends fleet-wide.
            "checksums": bool(checksums),
        },
    )
    telemetry.get_recorder().event(
        "broker.submitted",
        run_dir=run_dir,
        enqueued=len(submission.enqueued),
        skipped=len(submission.skipped),
        expected_cells=len(expected),
    )
    return submission


def submit_spec(
    run_dir: str,
    spec: SweepSpec,
    chunk_size: Optional[int] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
    checksums: bool = True,
) -> Submission:
    """Publish every not-yet-stored cell of ``spec`` to ``run_dir``.

    The spec-level entry point behind the ``repro.cluster submit`` CLI and
    any script that wants to enqueue work for externally-started workers.
    Cells already present in the run directory's canonical store (the merged
    ``results.jsonl``) are recorded as cached and not enqueued — the same
    resolution :func:`repro.runtime.engine.run_sweep` performs, so a
    resubmitted sweep only queues what is actually missing.
    """
    store = ResultStore(run_dir)
    missing: List[EvalJob] = []
    cached: List[str] = []
    seen = set()
    for job in spec.jobs:
        if job.content_key in store:
            cached.append(job.content_key)
        elif job.content_key not in seen:
            seen.add(job.content_key)
            missing.append(job)
    submission = prepare_run_dir(
        run_dir,
        spec.context(),
        group_jobs(missing),
        chunk_size=chunk_size,
        lease_timeout=lease_timeout,
        retry=retry,
        fault_plan=fault_plan,
        checksums=checksums,
    )
    submission.cached_keys = cached
    submission.expected_keys = [job.content_key for job in spec.jobs]
    return submission
