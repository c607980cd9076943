"""The sweep engine: cache lookup, group execution, result assembly.

:func:`run_sweep` is the single entry point every sweep driver routes
through (:func:`repro.eval.sweeps.rerr_sweep`,
:func:`~repro.eval.sweeps.profiled_sweep`).  It

1. resolves every job of a :class:`~repro.runtime.spec.SweepSpec` against an
   optional :class:`~repro.runtime.store.ResultStore` (warm cells execute
   zero jobs),
2. groups the remaining jobs by cell and hands them to an executor
   (:class:`~repro.runtime.executors.SerialExecutor` by default — the
   reference semantics; :class:`~repro.cluster.ClusterExecutor` for worker
   processes),
3. persists fresh results and returns a ``{content_key: CellResult}``
   mapping.

:func:`assemble_robust_result` folds the per-cell results of one (model,
source, rate) cell back into the
:class:`~repro.eval.robust_error.RobustErrorResult` shape the rest of the
repository consumes, reproducing the pre-engine semantics exactly
(zero-rate random-error cells alias the clean evaluation; zero-rate chip
cells are executed; per-draw error lists keep field/offset order).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro import telemetry
from repro.runtime.executors import group_jobs, resolve_executor
from repro.runtime.spec import CellResult, SweepSpec
from repro.runtime.store import ResultStore

__all__ = ["run_sweep", "assemble_robust_result", "clean_stats_for"]


def run_sweep(
    spec: SweepSpec,
    executor=None,
    store: Optional[Union[ResultStore, str]] = None,
) -> Dict[str, CellResult]:
    """Execute (or recall) every cell of ``spec``.

    Parameters
    ----------
    executor:
        Anything with ``run(context, groups) -> [[(key, CellResult)]]``, or
        an executor name (``"serial"`` or ``"cluster"`` — see
        :func:`repro.runtime.executors.resolve_executor`); defaults to the
        in-process :class:`~repro.runtime.executors.SerialExecutor`.
    store:
        Optional :class:`ResultStore` (or a run-directory path, which is
        opened as one).  Cells whose content keys are already stored are
        returned without executing any job; fresh results are appended so an
        interrupted sweep resumes where it stopped.
    """
    rec = telemetry.get_recorder()
    executor = resolve_executor(executor)
    if isinstance(store, str):
        store = ResultStore(store)
    # An executor that persists to the very same canonical log (the cluster
    # coordinator with run_dir == the store's directory) already writes every
    # fresh cell; appending here too would duplicate each record.
    persist = store is not None and store.path != getattr(
        executor, "results_path", None
    )
    results: Dict[str, CellResult] = {}
    missing = []
    with rec.span("engine.plan", jobs=len(spec.jobs)) as plan:
        for job in spec.jobs:
            if store is not None:
                cached = store.get(job.content_key)
                if cached is not None:
                    results[job.content_key] = cached
                    continue
            if job.content_key not in results:
                missing.append(job)
        groups = group_jobs(missing)
        plan.note(resume_hits=len(results), groups=len(groups))
    if results:
        rec.count("store.resume_hits", len(results))
    if groups:
        jobs_by_key = {job.content_key: job for job in missing}
        with rec.span(
            "engine.run",
            executor=type(executor).__name__,
            groups=len(groups),
        ) as run_span:
            for group_output in executor.run(spec.context(), groups):
                for key, cell in group_output:
                    results[key] = cell
                    if persist:
                        store.put(key, cell, job=jobs_by_key.get(key))
            run_span.note(cells=len(results))
    return results


def clean_stats_for(
    spec: SweepSpec, results: Dict[str, CellResult], model_key: str
):
    """``(clean_error, clean_confidence)`` of a registered model."""
    entry = spec.models[model_key]
    if entry.clean_stats is not None:
        return entry.clean_stats
    job = spec.clean_job(model_key)
    if job is None:  # pragma: no cover - add_model guarantees one of the two
        raise KeyError(f"model {model_key!r} has neither clean job nor clean_stats")
    cell = results[job.content_key]
    return (cell.error, cell.confidence)


def assemble_robust_result(
    spec: SweepSpec,
    results: Dict[str, CellResult],
    model_key: str,
    source_key: str,
    rate: float,
    kind: str = "field",
):
    """Fold one cell's results into a ``RobustErrorResult``.

    Matches the reference loops bit for bit: errors keep field/offset order,
    the perturbed confidence is the mean over draws, and a non-positive rate
    on random-error cells reports the clean evaluation for every field of
    the cell's field set.
    """
    from repro.eval.robust_error import RobustErrorResult

    clean_error, clean_confidence = clean_stats_for(spec, results, model_key)
    result = RobustErrorResult(
        bit_error_rate=float(rate),
        clean_error=clean_error,
        confidence_clean=clean_confidence,
    )
    if kind == "field" and rate <= 0.0:
        result.errors = [clean_error] * len(spec.field_sets[source_key])
        result.confidence_perturbed = clean_confidence
        return result
    jobs = spec.cell_jobs(model_key, kind, source_key, rate)
    if not jobs:
        raise KeyError(
            f"no {kind!r} jobs for model={model_key!r} source={source_key!r} "
            f"rate={rate!r}; was the cell added to the spec?"
        )
    confidences = []
    for job in sorted(jobs, key=lambda j: j.index):
        cell = results[job.content_key]
        result.errors.append(cell.error)
        confidences.append(cell.confidence)
    result.confidence_perturbed = float(np.mean(confidences))
    return result
