"""The cluster coordinator: submit a sweep, babysit workers, stream results.

:class:`ClusterExecutor` is the drop-in third executor beside
:class:`~repro.runtime.executors.SerialExecutor` and
:class:`~repro.runtime.executors.ParallelExecutor` — same
``run(context, groups)`` contract, so every sweep driver gains multi-host
execution through ``executor="cluster"`` (or an explicit instance) with no
other change.  ``run``:

1. publishes the context and job groups to a run directory (a fresh
   temporary one by default; pass ``run_dir=`` to make the run resumable
   and joinable by workers on other hosts), skipping groups the
   directory's canonical store already answers;
2. spawns local worker daemons (``python -m repro.cluster worker``) unless
   live workers are already attached to the directory or
   ``spawn_workers=False``; each gets an equal share of this host's CPUs
   as its BLAS thread count, unless the user set one of
   ``OPENBLAS/OMP/MKL_NUM_THREADS``;
3. polls: incrementally merges worker shards into the canonical store
   (idempotent, content keys dedupe), requeues expired leases so crashed
   workers' groups are retried, restarts dead local daemons within a
   budget, and yields each group's results as soon as its cells are all
   stored — the same streaming contract the other executors honour;
4. if every avenue of delegation is exhausted (daemons kept dying, or no
   worker showed up for ``stall_timeout`` seconds), finishes the remaining
   items **in-process** through the very same queue protocol, so a sweep
   handed to the cluster executor always completes.

Workers run :func:`repro.runtime.executors.execute_group` on the shipped
context — the engine's single execution primitive — so cluster results are
bit-identical to ``SerialExecutor``'s by construction.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Sequence

from repro import faults as faults_module
from repro import telemetry
from repro.cluster.broker import (
    WORKERS_DIRNAME,
    group_item_id,
    prepare_run_dir,
)
from repro.cluster.failures import FailureReport
from repro.cluster.merge import (
    MergeGuard,
    ShardTail,
    discover_shards,
    quarantine_entry,
)
from repro.cluster.queue import DEFAULT_LEASE_TIMEOUT, JobQueue, RetryPolicy
from repro.cluster.worker import live_worker_ids, worker_loop
from repro.nn import _threads
from repro.runtime.executors import GroupOutput, register_executor
from repro.runtime.spec import EvalJob, SweepContext
from repro.runtime.store import ResultStore

__all__ = ["ClusterExecutor", "spawn_local_worker"]


def spawn_local_worker(
    run_dir: str,
    worker_id: str,
    poll_interval: float = 0.05,
    extra_env: Optional[Dict[str, str]] = None,
) -> subprocess.Popen:
    """Start one local worker daemon subprocess against ``run_dir``.

    The child gets this interpreter and this process's import path (so the
    daemon finds ``repro`` regardless of how the parent was launched), and
    logs to ``<run_dir>/workers/<worker_id>.log``.
    """
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    if extra_env:
        env.update(extra_env)
    log_dir = os.path.join(run_dir, WORKERS_DIRNAME)
    os.makedirs(log_dir, exist_ok=True)
    log = open(os.path.join(log_dir, f"{worker_id}.log"), "ab")
    try:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cluster",
                "worker",
                run_dir,
                "--id",
                worker_id,
                "--poll",
                str(poll_interval),
            ],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    finally:
        log.close()  # the child inherited the descriptor


class ClusterExecutor:
    """Execute job groups across worker daemons sharing a filesystem.

    Parameters
    ----------
    run_dir:
        Shared run directory.  ``None`` (the default) uses a fresh temporary
        directory that is removed after the run; pass a path to get a
        resumable run that external workers (other processes or hosts
        mounting the same filesystem) can join with
        ``python -m repro.cluster worker <run_dir>``.
    max_workers:
        Local daemons to spawn when none are attached (default: host CPU
        count, the :class:`ParallelExecutor` convention); never more than
        there are work items.
    lease_timeout:
        Seconds without a heartbeat before a claimed item is considered
        abandoned and retried elsewhere.
    poll_interval:
        Coordinator poll cadence (shard merging, lease expiry, liveness).
    spawn_workers:
        ``False`` delegates exclusively to externally-started workers (the
        coordinator still merges, requeues and — after ``stall_timeout``
        with no live worker — completes in-process rather than hanging).
    chunk_size:
        Forwarded to every worker's :func:`execute_group` (see the serial
        executor; results are identical for every value).
    stall_timeout:
        Seconds without progress or live workers before the coordinator
        falls back to in-process execution (``None``: ``2 * lease_timeout``).
    retry:
        The run's :class:`~repro.cluster.queue.RetryPolicy` (attempt budget
        and backoff); recorded in the manifest so spawned and external
        workers enforce the same budget.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` chaos schedule, propagated
        to every worker through the manifest (the chaos tests' hook).
    checksums:
        Per-line integrity footers on every shard and canonical-store
        append, fleet-wide via the manifest (default on; see
        :mod:`repro.utils.serialization`).  Disable only to produce
        byte-identical legacy logs.

    A run that dead-letters items terminates with **partial results**: the
    failed groups are never yielded, and :attr:`failure_report` holds a
    :class:`~repro.cluster.failures.FailureReport` naming each dead-lettered
    item, its failure record and the content keys it cost.  Runs with no
    failures leave :attr:`failure_report` as ``None``.
    """

    def __init__(
        self,
        run_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = 0.05,
        spawn_workers: bool = True,
        chunk_size: Optional[int] = None,
        stall_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[faults_module.FaultPlan] = None,
        checksums: bool = True,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self.run_dir = run_dir
        self.max_workers = int(max_workers or (os.cpu_count() or 1))
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.spawn_workers = spawn_workers
        self.chunk_size = chunk_size
        self.stall_timeout = (
            2.0 * self.lease_timeout if stall_timeout is None else float(stall_timeout)
        )
        self.retry = retry
        self.fault_plan = fault_plan
        self.checksums = bool(checksums)
        #: The last run's dead-letter report (``None``: nothing failed).
        self.failure_report: Optional[FailureReport] = None

    @property
    def results_path(self) -> Optional[str]:
        """The canonical results file this executor persists to (or ``None``).

        :func:`repro.runtime.engine.run_sweep` consults this so that passing
        ``store=<same run_dir>`` alongside this executor does not append
        every cell a second time — the coordinator's shard merge is already
        writing the canonical log.
        """
        if self.run_dir is None:
            return None
        from repro.runtime.store import RESULTS_FILENAME

        return os.path.join(os.path.abspath(self.run_dir), RESULTS_FILENAME)

    # -- the executor contract ------------------------------------------------

    def run(
        self, context: SweepContext, groups: Sequence[Sequence[EvalJob]]
    ) -> Iterator[GroupOutput]:
        """Yield each group's results as its cells reach the canonical store."""
        return self._run(context, [list(group) for group in groups])

    def _run(
        self, context: SweepContext, groups: List[List[EvalJob]]
    ) -> Iterator[GroupOutput]:
        if not groups:
            return
        own_tmp = self.run_dir is None
        run_dir = os.path.abspath(
            tempfile.mkdtemp(prefix="repro-cluster-") if own_tmp else self.run_dir
        )
        rec = telemetry.get_recorder()
        procs: List[subprocess.Popen] = []
        self.failure_report = None
        report = FailureReport()
        # Manual enter/exit rather than `with`: _run is a generator, and the
        # span must close in the same finally that reaps the daemons so it
        # records even when the consuming iterator is abandoned mid-run.
        span = rec.span("cluster.run", run_dir=run_dir, groups=len(groups))
        span.__enter__()
        try:
            store = ResultStore(run_dir, checksum=self.checksums)
            outstanding: Dict[str, List[EvalJob]] = {}
            for group in groups:
                output = self._group_output(store, group)
                if output is not None:
                    yield output  # warm in the canonical store: no queue trip
                else:
                    outstanding[group_item_id(group)] = group
            span.note(warm=len(groups) - len(outstanding))
            if not outstanding:
                return
            prepare_run_dir(
                run_dir,
                context,
                list(outstanding.values()),
                chunk_size=self.chunk_size,
                lease_timeout=self.lease_timeout,
                retry=self.retry,
                fault_plan=self.fault_plan,
                checksums=self.checksums,
            )
            queue = JobQueue(run_dir, lease_timeout=self.lease_timeout, retry=self.retry)
            guard = MergeGuard(run_dir, queue=queue)
            procs = self._maybe_spawn(run_dir, len(outstanding))
            if procs:
                rec.event("cluster.spawn", workers=len(procs), run_dir=run_dir)
            spawn_failed = (
                self.spawn_workers
                and not procs
                and not live_worker_ids(run_dir, ttl=self.lease_timeout)
            )
            tails: Dict[str, ShardTail] = {}
            restarts_left = self.max_workers
            last_progress = time.monotonic()
            while outstanding:
                merged = self._merge_new(run_dir, store, tails, guard)
                if merged:
                    rec.count("cluster.merged_cells", merged)
                drained = []
                for item_id, group in outstanding.items():
                    output = self._group_output(store, group)
                    if output is not None:
                        drained.append(item_id)
                        yield output
                for item_id in drained:
                    del outstanding[item_id]
                if not outstanding:
                    return
                if merged or drained:
                    last_progress = time.monotonic()
                queue.requeue_expired()
                # Dead-lettered items will never produce results: drop them
                # from the wait set (graceful degradation — the run
                # terminates with partial results plus a failure report
                # instead of spinning forever on a poisoned group).
                for item_id in queue.failed_ids():
                    group = outstanding.pop(item_id, None)
                    if group is None:
                        continue
                    report.add(
                        item_id,
                        queue.failure_record(item_id),
                        keys=[job.content_key for job in group],
                    )
                    # Exclude the dead letter's partial results *by key*:
                    # any cell an earlier attempt already published (and a
                    # prior poll merged) is quarantined out of the live
                    # store, and the guard blocks later shard copies.
                    for job in group:
                        if job.content_key in store:
                            quarantine_entry(
                                run_dir, "dead_letter",
                                key=job.content_key, item=item_id,
                                source="coordinator",
                            )
                            store.discard(job.content_key)
                    last_progress = time.monotonic()
                    rec.count("cluster.dead_lettered")
                    rec.event(
                        "cluster.dead_lettered", level="error",
                        item=item_id, cells=len(group),
                    )
                if not outstanding:
                    return
                procs, restarts_left = self._babysit(
                    run_dir, procs, restarts_left, queue
                )
                if spawn_failed or self._stalled(run_dir, queue, procs, last_progress):
                    # Nobody is (or stays) alive to serve the queue: finish
                    # the remaining items here, through the same protocol
                    # (claim, execute, shard-append, complete), so the sweep
                    # always terminates.  Only protocol-expired leases are
                    # stolen — an actively heartbeating worker keeps its
                    # claim (stall detection already proved none is fresh);
                    # items marked done without reachable results (a gc'd
                    # unmerged shard) are re-published.
                    rec.event(
                        "cluster.fallback", level="warning",
                        items=len(outstanding),
                        reason="spawn failed" if spawn_failed else "stalled",
                    )
                    queue.requeue_expired()
                    if queue.is_drained():
                        for item_id in outstanding:
                            queue.requeue_done(item_id)
                    worker_loop(
                        run_dir,
                        worker_id=f"coordinator-{os.getpid()}",
                        lease_timeout=self.lease_timeout,
                        poll_interval=self.poll_interval,
                        max_idle=self.poll_interval,
                    )
                    last_progress = time.monotonic()
                    continue
                time.sleep(self.poll_interval)
        finally:
            if report:
                self.failure_report = report
                span.note(failed_items=len(report.items), failed_cells=len(report.keys))
                rec.event(
                    "cluster.failure_report", level="warning",
                    items=len(report.items), cells=len(report.keys),
                )
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                    proc.kill()
                    proc.wait()
            span.__exit__(*sys.exc_info())
            if own_tmp:
                shutil.rmtree(run_dir, ignore_errors=True)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _group_output(
        store: ResultStore, group: List[EvalJob]
    ) -> Optional[GroupOutput]:
        """The group's ``(key, CellResult)`` list, or ``None`` if incomplete."""
        output = []
        for job in group:
            cell = store.get(job.content_key)
            if cell is None:
                return None
            output.append((job.content_key, cell))
        return output

    def _maybe_spawn(self, run_dir: str, num_items: int) -> List[subprocess.Popen]:
        if not self.spawn_workers:
            return []
        if live_worker_ids(run_dir, ttl=self.lease_timeout):
            return []  # external workers already attached: don't double up
        count = max(1, min(self.max_workers, num_items))
        procs = []
        for index in range(count):
            try:
                procs.append(
                    spawn_local_worker(
                        run_dir,
                        worker_id=f"local-{os.getpid()}-{index}",
                        poll_interval=self.poll_interval,
                        extra_env=_threads.worker_env(self.max_workers),
                    )
                )
            # repro: ignore[REP008] spawn refusal *is* the degradation signal
            # — the caller falls back to in-process execution with however
            # many daemons did start.
            except OSError:
                break
        return procs

    def _babysit(
        self,
        run_dir: str,
        procs: List[subprocess.Popen],
        restarts_left: int,
        queue: JobQueue,
    ):
        """Replace dead local daemons while work remains (within budget)."""
        alive = [proc for proc in procs if proc.poll() is None]
        dead = len(procs) - len(alive)
        if dead and not queue.is_drained():
            telemetry.get_recorder().event(
                "cluster.restart", level="warning",
                dead=dead, restarts_left=restarts_left,
            )
            while restarts_left > 0 and len(alive) < max(1, min(
                self.max_workers, len(queue.pending_ids()) + len(queue.leased_ids())
            )):
                restarts_left -= 1
                try:
                    alive.append(
                        spawn_local_worker(
                            run_dir,
                            worker_id=f"local-{os.getpid()}-r{restarts_left}",
                            poll_interval=self.poll_interval,
                            extra_env=_threads.worker_env(self.max_workers),
                        )
                    )
                except OSError:
                    restarts_left = 0
                    break
        return alive, restarts_left

    def _stalled(
        self,
        run_dir: str,
        queue: JobQueue,
        procs: List[subprocess.Popen],
        last_progress: float,
    ) -> bool:
        if any(proc.poll() is None for proc in procs):
            return False  # our own daemons are alive; give them time
        if time.monotonic() - last_progress <= self.stall_timeout:
            return False
        if live_worker_ids(run_dir, ttl=self.stall_timeout):
            return False  # an idle-looping worker will claim eventually
        # Beacons are only refreshed between items; a worker deep inside a
        # long group announces itself through its lease heartbeats instead.
        freshest = queue.freshest_lease_age()
        return freshest is None or freshest > self.lease_timeout

    def _merge_new(
        self,
        run_dir: str,
        store: ResultStore,
        tails: Dict[str, ShardTail],
        guard: Optional[MergeGuard] = None,
    ) -> int:
        """Incrementally merge fresh shard records; returns new cells stored."""
        from repro.cluster.merge import merge_records

        merged = 0
        for path in discover_shards(run_dir):
            tail = tails.get(path)
            if tail is None:
                tail = tails[path] = ShardTail(path)
            merged += merge_records(
                store, tail.read_new(), guard=guard,
                source=os.path.basename(path),
            ).merged
        return merged


register_executor("cluster", ClusterExecutor)
