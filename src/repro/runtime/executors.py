"""Sweep executors: serial reference semantics and multiprocessing sharding.

The unit of execution is a **job group** (see
:attr:`repro.runtime.spec.EvalJob.group_key`), sized to the work jobs can
share:

* a ``field`` group is one whole spec cell — it injects *all* of its chips'
  XOR masks through the backend seam in one scatter pass
  (:func:`repro.biterror.random_errors.apply_fields_batch`) before running
  the perturbed forward passes;
* ``chip`` jobs share nothing across memory offsets, so each offset is its
  own group and parallel sharding reaches individual placements.

:class:`SerialExecutor` runs groups in-process, in order — these are the
reference semantics, bit-identical to the pre-engine ad-hoc loops.
:class:`ParallelExecutor` shards groups across a ``multiprocessing`` pool:
the heavy :class:`~repro.runtime.spec.SweepContext` (models, quantized
weights, dataset, fields) is shipped **once per worker** via the pool
initializer, and each task payload is only a list of small
:class:`~repro.runtime.spec.EvalJob` records.  Every evaluation is a pure
function of the shipped context, so parallel results equal serial results
cell for cell; the executor degrades to the serial path when only one worker
is requested, when there is nothing to shard, or when the host cannot
provide a pool (e.g. missing ``/dev/shm`` semaphores on minimal containers).
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.biterror.random_errors import iter_apply_fields_batch
from repro.nn import _threads
from repro.runtime.spec import CellResult, EvalJob, SweepContext
from repro.utils.markers import hot_path
from repro.utils.rng import new_rng

__all__ = [
    "SerialExecutor",
    "ParallelExecutor",
    "execute_group",
    "group_jobs",
    "subsample_plan",
    "resolve_executor",
]

GroupOutput = List[Tuple[str, CellResult]]


def group_jobs(jobs: Sequence[EvalJob]) -> List[List[EvalJob]]:
    """Partition jobs into executor groups (one per spec cell, input order).

    Jobs with duplicate content keys (aliased cells) are dropped so each
    distinct cell is evaluated exactly once; callers resolve duplicates
    through the result mapping.
    """
    seen_keys = set()
    grouped: dict = {}
    order: List[Tuple[str, str, str, float]] = []
    for job in jobs:
        if job.content_key in seen_keys:
            continue
        seen_keys.add(job.content_key)
        key = job.group_key
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(job)
    return [grouped[key] for key in order]


def _evaluate(context: SweepContext, model, weights, plan=None) -> Tuple[float, float]:
    # Looked up through the module (not imported at module load) so the
    # once-per-sweep spy tests — and any instrumentation — that patch
    # ``repro.eval.robust_error.model_error_and_confidence`` observe every
    # engine evaluation, and so importing repro.runtime never circularly
    # imports repro.eval.
    from repro.eval import robust_error

    return robust_error.model_error_and_confidence(
        model,
        weights,
        context.dataset if plan is None else plan,
        context.batch_size,
    )


def subsample_plan(context: SweepContext, job: EvalJob):
    """The per-job evaluation :class:`~repro.eval.fast_eval.BatchPlan`.

    With ``context.subsample`` unset this is the process-wide memoized
    full-dataset plan.  With ``subsample=n`` set, every job evaluates its
    own reproducible ``n``-example subset: the indices are drawn without
    replacement from ``repro.utils.rng.new_rng(job.derived_seed)`` and kept in
    sorted (dataset) order.  The derived seed is a function of the content
    key — which folds in the subsample size — so re-runs draw identical
    subsets, distinct cells draw independent ones, and cached results can
    never be served across different subset sizes.  A subsample at least as
    large as the dataset degrades to the full plan (natural order).
    """
    if context.subsample is None:
        return context.batch_plan()
    n = len(context.dataset)
    if context.subsample >= n:
        return context.batch_plan()
    from repro.eval.fast_eval import BatchPlan

    rng = new_rng(job.derived_seed)
    indices = np.sort(rng.choice(n, size=context.subsample, replace=False))
    return BatchPlan(context.dataset.subset(indices), context.batch_size)


def execute_group(
    context: SweepContext,
    group: Sequence[EvalJob],
    chunk_size: Optional[int] = None,
) -> GroupOutput:
    """Execute one job group against the shipped context.

    Pure function of ``(context, group, chunk_size)``; both executors, every
    multiprocessing worker and every cluster worker daemon funnel through
    here, which is what guarantees serial/parallel/distributed equivalence.
    The evaluation runs the fused hot path — mini-batches cut once per
    process (:meth:`~repro.runtime.spec.SweepContext.batch_plan`), the
    model's clean de-quantization decoded and its delta patcher built once
    per process (:meth:`~repro.runtime.spec.ModelEntry.clean_weights` /
    :meth:`~repro.runtime.spec.ModelEntry.patcher`) and per-draw delta
    patching of only the touched weights (profiled chips included, via
    :meth:`~repro.biterror.patterns.ChipProfile.delta_apply`) — which is
    bit-identical to the historical full-de-quantization flow (enforced by
    the legacy-parity tests).  ``chunk_size`` bounds how many chips'
    corrupted codes a ``field`` group materializes at once (``None``: the
    whole cell, the historical peak); results are identical for every value.
    With ``context.subsample`` set, each job evaluates its own derived-seed
    subset instead of the shared full-dataset plan (see
    :func:`subsample_plan`).

    When telemetry is enabled the group records one ``engine.group`` span
    (kind, model, job and cell counts — cells/sec falls out of the span's
    wall time); with the default null recorder this guard costs one
    attribute check and the hot body runs unwrapped.
    """
    group = list(group)
    rec = telemetry.get_recorder()
    if not rec.enabled:
        return _execute_group_hot(context, group, chunk_size)
    first = group[0]
    with rec.span(
        "engine.group", kind=first.kind, model=first.model_key, jobs=len(group)
    ) as span:
        out = _execute_group_hot(context, group, chunk_size)
        span.note(cells=len(out))
    rec.count("engine.groups")
    rec.count("engine.cells", len(out))
    return out


@hot_path
def _execute_group_hot(
    context: SweepContext,
    group: List[EvalJob],
    chunk_size: Optional[int],
) -> GroupOutput:
    first = group[0]
    entry = context.models[first.model_key]
    clean = entry.clean_weights()
    if first.kind == "clean":
        out = []
        for job in group:
            error, confidence = _evaluate(
                context, entry.model, clean, subsample_plan(context, job)
            )
            out.append((job.content_key, CellResult(error, confidence)))
        return out
    patcher = entry.patcher()
    out = []
    if first.kind == "field":
        fields = context.field_sets[first.source_key]
        selected = [fields[job.index] for job in group]
        stream = iter_apply_fields_batch(
            selected,
            entry.quantized,
            first.rate,
            chunk_size=chunk_size,
            return_positions=True,
        )
        for job, (corrupted, touched) in zip(group, stream):
            with patcher.patched_quantized(corrupted, touched) as weights:
                error, confidence = _evaluate(
                    context, entry.model, weights, subsample_plan(context, job)
                )
            out.append((job.content_key, CellResult(error, confidence)))
        return out
    if first.kind == "chip":
        chip = context.chips[first.source_key]
        for job in group:
            touched, values = chip.delta_apply(
                entry.quantized, job.rate, offset=job.offset
            )
            with patcher.patched(touched, values) as weights:
                error, confidence = _evaluate(
                    context, entry.model, weights, subsample_plan(context, job)
                )
            out.append((job.content_key, CellResult(error, confidence)))
        return out
    raise ValueError(f"unknown job kind {first.kind!r}")


class SerialExecutor:
    """In-process reference executor (the engine's default).

    ``run`` yields each group's results as soon as the group finishes, so
    the engine can persist completed cells incrementally — an interrupted
    sweep keeps everything executed so far.  ``chunk_size`` bounds how many
    chips' corrupted codes a field group materializes at once (see
    :func:`execute_group`); results are identical for every value.
    """

    max_workers = 1
    #: Class-level default so subclasses overriding ``__init__`` without
    #: chaining up keep the historical (unchunked) behaviour.
    chunk_size: Optional[int] = None

    def __init__(self, chunk_size: Optional[int] = None):
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self.chunk_size = chunk_size

    def run(
        self, context: SweepContext, groups: Sequence[Sequence[EvalJob]]
    ) -> Iterator[GroupOutput]:
        for group in groups:
            yield execute_group(context, group, chunk_size=self.chunk_size)


# Per-worker context (and injection chunk size) installed by the pool
# initializer; module-global so the heavy payload is shipped once per worker
# process, not once per task.
_WORKER_CONTEXT: Optional[SweepContext] = None
_WORKER_CHUNK_SIZE: Optional[int] = None


def _init_worker(
    context: SweepContext,
    chunk_size: Optional[int] = None,
    telemetry_config: Optional[telemetry.TelemetryConfig] = None,
    workers: Optional[int] = None,
) -> None:
    global _WORKER_CONTEXT, _WORKER_CHUNK_SIZE
    _WORKER_CONTEXT = context
    _WORKER_CHUNK_SIZE = chunk_size
    if workers is not None:
        # The pool's workers share the host's CPUs.  A forked child's BLAS
        # is already initialized, so its thread count is set directly.
        _threads.set_worker_threads(workers)
    if telemetry_config is not None:
        # Each pool worker records into its own per-pid sink (a forked
        # child starts with the no-op recorder, never the parent's).
        telemetry.configure(
            telemetry_config.run_dir,
            level=telemetry_config.level,
            echo=telemetry_config.echo,
        )
    # Pool workers honor an env-propagated chaos schedule (repro.faults),
    # so fault-injection tests can kill or poison a worker deterministically.
    from repro import faults

    faults.install_from_env()


def _run_group_in_worker(group: Sequence[EvalJob]) -> GroupOutput:
    if _WORKER_CONTEXT is None:  # pragma: no cover - misconfigured pool
        raise RuntimeError("worker context was not initialized")
    from repro import faults

    faults.fire("execute", group[0].content_key if group else "")
    out = execute_group(_WORKER_CONTEXT, group, chunk_size=_WORKER_CHUNK_SIZE)
    # A pool worker ends through os._exit, which closes no recorder: its
    # counters reach its sink as a snapshot after every group, the way a
    # cluster worker snapshots after every item.
    telemetry.get_recorder().flush_metrics()
    return out


class ParallelExecutor:
    """Shard job groups across ``multiprocessing`` workers.

    Parameters
    ----------
    max_workers:
        Worker processes to use; defaults to the host CPU count.  A value of
        1 (or a single-group workload) short-circuits to the serial path
        without creating a pool.  Each worker's BLAS gets an equal share of
        the host's CPUs, unless the user set one of
        ``OPENBLAS/OMP/MKL_NUM_THREADS``.
    start_method:
        Optional ``multiprocessing`` start method (``"fork"``/``"spawn"``);
        ``None`` uses the platform default.  Unknown names raise here, at
        construction — a typo is a caller bug, not a host limitation.
    chunk_size:
        Per-worker bound on how many chips' corrupted codes a field group
        materializes at once (see :func:`execute_group`); shipped to the
        workers alongside the context.  Results are identical for every
        value.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if start_method is not None:
            import multiprocessing

            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise ValueError(
                    f"unknown start_method {start_method!r}; "
                    f"choose from {available}"
                )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self.max_workers = int(max_workers or (os.cpu_count() or 1))
        self.start_method = start_method
        self.chunk_size = chunk_size

    def run(
        self, context: SweepContext, groups: Sequence[Sequence[EvalJob]]
    ) -> Iterator[GroupOutput]:
        """Yield each group's results as it completes (submission order).

        Streaming — not a barrier: the engine persists every yielded group
        immediately, so killing a sweep mid-run loses at most the groups
        still in flight.
        """
        groups = [list(group) for group in groups]
        workers = min(self.max_workers, len(groups))
        if workers <= 1:
            return SerialExecutor(chunk_size=self.chunk_size).run(context, groups)
        recorder = telemetry.get_recorder()
        telemetry_config = recorder.config() if recorder.enabled else None
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            mp_context = multiprocessing.get_context(self.start_method)
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(context, self.chunk_size, telemetry_config, workers),
            )
        except (ImportError, OSError, PermissionError):
            # No usable pool on this host (single-CPU CI runners, containers
            # without POSIX semaphores, restricted sandboxes): degrade to the
            # bit-identical serial path rather than failing the sweep.
            recorder.event(
                "parallel.degraded", level="warning", workers=workers,
                reason="no usable multiprocessing pool",
            )
            return SerialExecutor(chunk_size=self.chunk_size).run(context, groups)
        recorder.event(
            "parallel.pool", workers=workers, groups=len(groups),
            start_method=self.start_method or "default",
        )
        return self._stream(pool, context, groups)

    def _stream(
        self, pool, context: SweepContext, groups: List[List[EvalJob]]
    ) -> Iterator[GroupOutput]:
        """Yield group results in submission order, surviving pool breakage.

        A worker process that dies *mid-job* (OOM-killed, segfaulted,
        SIGKILLed by a fault schedule) breaks the whole
        :class:`~concurrent.futures.ProcessPoolExecutor` — every unfinished
        future raises ``BrokenProcessPool``.  Each such group is retried
        serially in this process, **once**: results that completed before
        the breakage are kept as-is, and since every evaluation is a pure
        function of the shipped context, the serial rerun is bit-identical
        to what the dead worker would have produced.  A group that fails
        again serially raises for real — a deterministic job error is not a
        pool problem.
        """
        from concurrent.futures.process import BrokenProcessPool

        recorder = telemetry.get_recorder()
        try:
            futures = []
            broken = False
            for group in groups:
                try:
                    futures.append(pool.submit(_run_group_in_worker, group))
                except BrokenProcessPool:
                    # Pool died mid-submission; everything unsubmitted
                    # retries serially below.
                    broken = True
                    self._note_broken(recorder, len(groups) - len(futures))
                    break
            for index, group in enumerate(groups):
                future = futures[index] if index < len(futures) else None
                if future is not None and not broken:
                    try:
                        yield future.result()
                        continue
                    except BrokenProcessPool:
                        broken = True
                        self._note_broken(recorder, len(groups) - index)
                # Post-breakage: keep results that finished clean, retry the
                # rest (and anything never submitted) serially.
                if (
                    future is not None
                    and future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    yield future.result()
                else:
                    recorder.count("parallel.serial_retries")
                    yield execute_group(context, group, chunk_size=self.chunk_size)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _note_broken(recorder, groups_left: int) -> None:
        recorder.count("parallel.broken_pools")
        recorder.event(
            "parallel.broken_pool", level="warning", groups_left=groups_left,
        )


def resolve_executor(executor: Union[None, str, object]):
    """Resolve ``executor`` to an executor instance.

    ``None`` yields the default :class:`SerialExecutor` (reference
    semantics); ``"serial"``, ``"parallel"`` and ``"cluster"`` build that
    executor with its defaults; anything else is assumed to already be an
    executor and passed through.
    """
    if executor is None:
        return SerialExecutor()
    if not isinstance(executor, str):
        return executor
    if executor == "serial":
        return SerialExecutor()
    if executor == "parallel":
        return ParallelExecutor()
    if executor == "cluster":
        # Imported on use, so importing repro.runtime never pulls in the
        # distributed subsystem.
        from repro.cluster.coordinator import ClusterExecutor

        return ClusterExecutor()
    raise ValueError(
        f"unknown executor {executor!r}; choose from 'serial', 'parallel', 'cluster'"
    )
