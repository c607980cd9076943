"""The cluster coordinator: submit a sweep, serve it beside forked daemons.

:class:`ClusterExecutor` is the parallel executor beside
:class:`~repro.runtime.executors.SerialExecutor` — same
``run(context, groups)`` contract, so every sweep driver gains parallel and
multi-host execution through ``executor="cluster"`` (or an explicit
instance such as ``ClusterExecutor(max_workers=4)``) with no other change.
``max_workers`` is the number of processes on this host that serve the run:
the coordinator itself and up to ``max_workers - 1`` forked daemons.
``run``:

1. publishes the context and job groups to a run directory (a fresh
   temporary one by default; pass ``run_dir=`` to make the run resumable
   and joinable by workers on other hosts), skipping groups the
   directory's canonical store already answers;
2. forks ``min(max_workers, outstanding groups) - 1`` local worker daemons
   (:func:`spawn_local_worker`: each runs ``python -m repro.cluster worker``
   in a copy of this process, with no new interpreter to start) unless
   live workers are already attached to the directory; the coordinator and
   each daemon get an equal share of this host's CPUs as their BLAS thread
   count, unless the user set one of ``OPENBLAS/OMP/MKL_NUM_THREADS``;
3. polls: incrementally merges worker shards into the canonical store
   (idempotent, content keys dedupe), yields each group's results as soon
   as its cells are all stored — the same streaming contract the other
   executors honour — restarts dead local daemons within a budget, and
   then runs one round of the one worker loop
   (:class:`~repro.cluster.worker.ServeLoop`, kept for the whole run) to
   serve at most one item itself, waiting about one poll when nothing can
   be claimed.

The coordinator is always a live worker, so every sweep terminates: a host
that refuses the fork, or daemons that keep dying, leave every item to it.

Workers run :func:`repro.runtime.executors.execute_group` on the shipped
context — the engine's single execution primitive — so cluster results are
bit-identical to ``SerialExecutor``'s by construction.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
from multiprocessing.process import BaseProcess
from typing import Dict, Iterator, List, Optional, Sequence

from repro import faults as faults_module
from repro import telemetry
from repro.cluster import cli
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
from repro.cluster.worker import RunSource, ServeLoop, live_worker_ids, remove_beacons
from repro.nn import _threads
from repro.runtime.executors import GroupOutput
from repro.runtime.spec import EvalJob, SweepContext
from repro.runtime.store import ResultStore

__all__ = ["ClusterExecutor", "spawn_local_worker"]


def spawn_local_worker(
    run_dir: str,
    worker_id: str,
    poll_interval: float = 0.05,
    workers: int = 1,
) -> BaseProcess:
    """Fork one local worker daemon serving ``run_dir``; return its process.

    The return value is the started fork-context
    :class:`multiprocessing.Process`, named ``worker_id``.  The child is a
    copy of this process, so it starts without a new interpreter or a single
    import.  It first sheds what a freshly started worker would not have:
    its stdout and stderr go to ``<run_dir>/workers/<worker_id>.log``,
    SIGINT gets its default handler (the installed fault plan and telemetry
    recorder are dropped at every fork), and BLAS gets the thread count of
    :func:`repro.nn._threads.set_worker_threads` for one of ``workers``
    processes serving the run.  SIGTERM, which the coordinator sends once
    the run's last cells merge, raises ``SystemExit`` wherever the daemon
    is (mid back-off sleep, usually), so the worker loop still records its
    ``worker.exit`` and closes its telemetry sink.  It then runs ``python
    -m repro.cluster worker <run_dir> --id <worker_id> --poll
    <poll_interval>`` and exits with its code (143 when terminated).
    ``OSError`` means the host refused the fork.
    """
    os.makedirs(os.path.join(run_dir, WORKERS_DIRNAME), exist_ok=True)
    # A daemonic process is terminated, not waited for, if this interpreter
    # exits before the coordinator has reaped it.
    process = multiprocessing.get_context("fork").Process(
        target=_serve_forked,
        args=(run_dir, worker_id, poll_interval, workers),
        name=worker_id,
        daemon=True,
    )
    process.start()
    return process


def _serve_forked(run_dir: str, worker_id: str, poll_interval: float, workers: int):
    """A forked daemon: start clean, run the worker command, exit."""
    log = os.open(
        os.path.join(run_dir, WORKERS_DIRNAME, f"{worker_id}.log"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o666,
    )
    os.dup2(log, 1)
    os.dup2(log, 2)
    os.close(log)
    # The interpreter's own streams write to descriptors 1 and 2; the ones
    # installed now may be a caller's (a test runner's capture).
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _threads.set_worker_threads(workers)
    try:
        code = cli.main(["worker", run_dir, "--id", worker_id, "--poll", str(poll_interval)])
    except SystemExit as stop:  # terminated: the loop's finally has run
        code = stop.code
    sys.stdout.flush()
    os._exit(code)


def _exit_on_sigterm(signum, frame):
    """Unwind a forked daemon as an exception would, not a bare exit.

    Raising (rather than setting a flag) also cuts short a back-off sleep
    of up to ``max_poll``, so the coordinator's reap does not wait on it.
    """
    raise SystemExit(128 + signum)


class ClusterExecutor:
    """Execute job groups on this process and forked daemons sharing a filesystem.

    Parameters
    ----------
    run_dir:
        Shared run directory.  ``None`` (the default) uses a fresh temporary
        directory that is removed after the run; pass a path to get a
        resumable run that external workers (other processes or hosts
        mounting the same filesystem) can join with
        ``python -m repro.cluster worker <run_dir>``.
    max_workers:
        Processes on this host that serve the run (default: the host's CPU
        count): the coordinator and ``max_workers - 1`` forked daemons, never
        more than there are work items.  ``1`` forks no daemon.  No daemon
        is forked while other workers are attached to the directory.
    lease_timeout:
        Seconds without a heartbeat before a claimed item is considered
        abandoned and retried elsewhere.
    poll_interval:
        Coordinator poll cadence (shard merging, liveness), and about how
        long the coordinator waits when it finds nothing to claim.
    retry:
        The run's :class:`~repro.cluster.queue.RetryPolicy` (attempt budget
        and backoff); recorded in the manifest so spawned and external
        workers enforce the same budget.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` chaos schedule, propagated
        to every worker through the manifest (the chaos tests' hook).  The
        coordinator serves under the same precedence as any worker: a plan
        installed in this process, then ``REPRO_FAULT_SCHEDULE``, then the
        manifest's, so a ``sigkill`` rule can fire in this process.

    Every shard and canonical-store line carries a per-line checksum footer
    (see :mod:`repro.utils.serialization`).

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
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[faults_module.FaultPlan] = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.run_dir = run_dir
        self.max_workers = int(max_workers or (os.cpu_count() or 1))
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.retry = retry
        self.fault_plan = fault_plan
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
        procs: List[BaseProcess] = []
        loop: Optional[ServeLoop] = None
        coordinator_id = f"coordinator-{os.getpid()}"
        served_by = {coordinator_id}  # the worker ids of this process's workers
        self.failure_report = None
        report = FailureReport()
        # Manual enter/exit rather than `with`: _run is a generator, and the
        # span must close in the same finally that reaps the daemons so it
        # records even when the consuming iterator is abandoned mid-run.
        span = rec.span("cluster.run", run_dir=run_dir, groups=len(groups))
        span.__enter__()
        try:
            store = ResultStore(run_dir, checksum=True)
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
                lease_timeout=self.lease_timeout,
                retry=self.retry,
                fault_plan=self.fault_plan,
            )
            queue = JobQueue(run_dir, lease_timeout=self.lease_timeout, retry=self.retry)
            guard = MergeGuard(run_dir, queue=queue)
            procs = self._maybe_spawn(run_dir, len(outstanding))
            served_by.update(proc.name for proc in procs)
            if procs:
                rec.event("cluster.spawn", workers=len(procs), run_dir=run_dir)
            # The coordinator's own claim loop, kept for the whole run: it
            # loads the context from the run dir once, as every daemon does,
            # and records one worker.start and one worker.exit.
            loop = ServeLoop(
                RunSource(run_dir, lease_timeout=self.lease_timeout), coordinator_id,
                poll_interval=self.poll_interval, max_poll=self.poll_interval,
            )
            loop.start()
            tails: Dict[str, ShardTail] = {}
            restarts_left = self.max_workers
            while outstanding:
                # Read before the merge: a worker appends its shard before it
                # completes the item, so every item done by now has its
                # cells on disk for this merge to find.
                was_drained = queue.is_drained()
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
                served_by.update(proc.name for proc in procs)
                if was_drained:
                    # Done before the merge, yet not stored: the item's shard
                    # lines were lost (rewritten or deleted unmerged).  Run it
                    # again; content keys dedupe whatever does turn up.
                    for item_id in outstanding:
                        queue.requeue_done(item_id)
                self._serve(loop, workers=len(procs) + 1)
        finally:
            if report:
                self.failure_report = report
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=10)
                if proc.exitcode is None:  # pragma: no cover - stuck child
                    proc.kill()
                    proc.join()
                proc.close()
            # Reaped: no beacon of this run may look live to `repair` or to
            # the next run into this directory.  The logs stay.
            remove_beacons(run_dir, served_by)
            try:
                # Telemetry last: a write that fails (a full disk) must not
                # skip the reap above.
                if report:
                    span.note(failed_items=len(report.items), failed_cells=len(report.keys))
                    rec.event(
                        "cluster.failure_report", level="warning",
                        items=len(report.items), cells=len(report.keys),
                    )
                if loop is not None:
                    loop.stop()
            finally:
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

    def _maybe_spawn(self, run_dir: str, num_items: int) -> List[BaseProcess]:
        """Fork the daemons that serve beside the coordinator."""
        if live_worker_ids(run_dir, ttl=self.lease_timeout):
            return []  # external workers already attached: don't double up
        workers = min(self.max_workers, num_items)
        procs = []
        for index in range(workers - 1):
            try:
                procs.append(
                    spawn_local_worker(
                        run_dir,
                        worker_id=f"local-{os.getpid()}-{index}",
                        poll_interval=self.poll_interval,
                        workers=workers,
                    )
                )
            # repro: ignore[REP008] fork refusal *is* the degradation signal
            # — the coordinator serves what no daemon takes.
            except OSError:
                break
        return procs

    def _babysit(
        self,
        run_dir: str,
        procs: List[BaseProcess],
        restarts_left: int,
        queue: JobQueue,
    ):
        """Replace dead local daemons while work remains (within budget)."""
        alive = [proc for proc in procs if proc.is_alive()]
        dead = len(procs) - len(alive)
        if dead and not queue.is_drained():
            telemetry.get_recorder().event(
                "cluster.restart", level="warning",
                dead=dead, restarts_left=restarts_left,
            )
            # As at the start: one process per item left, the coordinator
            # being one of them.
            workers = min(
                self.max_workers, len(queue.pending_ids()) + len(queue.leased_ids())
            )
            while restarts_left > 0 and len(alive) < workers - 1:
                restarts_left -= 1
                try:
                    alive.append(
                        spawn_local_worker(
                            run_dir,
                            worker_id=f"local-{os.getpid()}-r{restarts_left}",
                            poll_interval=self.poll_interval,
                            workers=workers,
                        )
                    )
                except OSError:
                    restarts_left = 0
                    break
        return alive, restarts_left

    @staticmethod
    def _serve(loop: ServeLoop, workers: int) -> None:
        """One round of the loop, at one of ``workers`` processes' BLAS share.

        It serves at most one item.  Nothing to claim (every item leased,
        backing off or lost) costs a wait of about one poll, never a spin.
        """
        threads = _threads.blas_threads()
        _threads.set_worker_threads(workers)
        try:
            loop.round()
        finally:
            _threads.set_blas_threads(threads)

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
