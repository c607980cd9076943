"""Sweep executors: the serial reference and the shared group primitive.

The unit of execution is a **job group** (see
:attr:`repro.runtime.spec.EvalJob.group_key`), sized to the work jobs can
share:

* a ``field`` group is one whole spec cell — it corrupts its chips one at
  a time (:func:`repro.biterror.random_errors.iter_apply_fields_batch`),
  each just before that chip's perturbed forward passes;
* ``chip`` jobs share nothing across memory offsets, so each offset is its
  own group and parallel sharding reaches individual placements.

:class:`SerialExecutor` runs groups in-process, in order — these are the
reference semantics, bit-identical to the pre-engine ad-hoc loops.
Parallel sweeps run on :class:`repro.cluster.ClusterExecutor`, whose
workers (the coordinator and its daemons) execute the same groups through
:func:`execute_group`; every evaluation is a pure function of the shipped
:class:`~repro.runtime.spec.SweepContext`, so their results equal serial
results cell for cell.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union

from repro import telemetry
from repro.biterror.random_errors import iter_apply_fields_batch
from repro.runtime.spec import CellResult, EvalJob, SweepContext
from repro.utils.markers import hot_path

__all__ = [
    "SerialExecutor",
    "execute_group",
    "group_jobs",
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


def _evaluate(context: SweepContext, model, weights, plan) -> Tuple[float, float]:
    # Looked up through the module (not imported at module load) so the
    # once-per-sweep spy tests — and any instrumentation — that patch
    # ``repro.eval.robust_error.model_error_and_confidence`` observe every
    # engine evaluation, and so importing repro.runtime never circularly
    # imports repro.eval.
    from repro.eval import robust_error

    return robust_error.model_error_and_confidence(
        model, weights, plan, context.batch_size
    )


def execute_group(context: SweepContext, group: Sequence[EvalJob]) -> GroupOutput:
    """Execute one job group against the shipped context.

    Pure function of ``(context, group)``; the serial executor and every
    cluster worker (forked daemon, external host or the coordinator itself)
    funnel through here, which is what guarantees serial/distributed
    equivalence.
    The evaluation runs the fused hot path — mini-batches cut once per
    process (:meth:`~repro.runtime.spec.SweepContext.batch_plan`), the
    model's clean de-quantization decoded and its delta patcher built once
    per process (:meth:`~repro.runtime.spec.ModelEntry.clean_weights` /
    :meth:`~repro.runtime.spec.ModelEntry.patcher`) and per-draw delta
    patching of only the touched weights (profiled chips included, via
    :meth:`~repro.biterror.patterns.ChipProfile.delta_apply`) — which is
    bit-identical to the historical full-de-quantization flow (enforced by
    the legacy-parity tests).

    When telemetry is enabled the group records one ``engine.group`` span
    (kind, model, job and cell counts — cells/sec falls out of the span's
    wall time); with the default null recorder this guard costs one
    attribute check and the hot body runs unwrapped.
    """
    group = list(group)
    rec = telemetry.get_recorder()
    if not rec.enabled:
        return _execute_group_hot(context, group)
    first = group[0]
    with rec.span(
        "engine.group", kind=first.kind, model=first.model_key, jobs=len(group)
    ) as span:
        out = _execute_group_hot(context, group)
        span.note(cells=len(out))
    rec.count("engine.groups")
    rec.count("engine.cells", len(out))
    return out


@hot_path
def _execute_group_hot(context: SweepContext, group: List[EvalJob]) -> GroupOutput:
    first = group[0]
    entry = context.models[first.model_key]
    clean = entry.clean_weights()
    plan = context.batch_plan()
    if first.kind == "clean":
        out = []
        for job in group:
            error, confidence = _evaluate(context, entry.model, clean, plan)
            out.append((job.content_key, CellResult(error, confidence)))
        return out
    patcher = entry.patcher()
    out = []
    if first.kind == "field":
        fields = context.field_sets[first.source_key]
        selected = [fields[job.index] for job in group]
        stream = iter_apply_fields_batch(selected, entry.quantized, first.rate)
        for job, (corrupted, touched) in zip(group, stream):
            with patcher.patched_quantized(corrupted, touched) as weights:
                error, confidence = _evaluate(context, entry.model, weights, plan)
            out.append((job.content_key, CellResult(error, confidence)))
        return out
    if first.kind == "chip":
        chip = context.chips[first.source_key]
        for job in group:
            touched, values = chip.delta_apply(
                entry.quantized, job.rate, offset=job.offset
            )
            with patcher.patched(touched, values) as weights:
                error, confidence = _evaluate(context, entry.model, weights, plan)
            out.append((job.content_key, CellResult(error, confidence)))
        return out
    raise ValueError(f"unknown job kind {first.kind!r}")


class SerialExecutor:
    """In-process reference executor (the engine's default).

    ``run`` yields each group's results as soon as the group finishes, so
    the engine can persist completed cells incrementally — an interrupted
    sweep keeps everything executed so far.
    """

    max_workers = 1

    def run(
        self, context: SweepContext, groups: Sequence[Sequence[EvalJob]]
    ) -> Iterator[GroupOutput]:
        for group in groups:
            yield execute_group(context, group)


def resolve_executor(executor: Union[None, str, object]):
    """Resolve ``executor`` to an executor instance.

    ``None`` yields the default :class:`SerialExecutor` (reference
    semantics); ``"serial"`` and ``"cluster"`` build that executor with its
    defaults; anything else is assumed to already be an executor and passed
    through.
    """
    if executor is None:
        return SerialExecutor()
    if not isinstance(executor, str):
        return executor
    if executor == "serial":
        return SerialExecutor()
    if executor == "cluster":
        # Imported on use, so importing repro.runtime never pulls in the
        # distributed subsystem.
        from repro.cluster.coordinator import ClusterExecutor

        return ClusterExecutor()
    raise ValueError(
        f"unknown executor {executor!r}; choose None, 'serial', 'cluster' "
        "or an executor instance"
    )
