"""``repro.runtime`` — the sharded, cached sweep-execution engine.

Every RErr/chip/voltage study in this repository is a grid of independent
evaluations.  This subsystem turns such a grid into an explicit job graph
and executes it fast:

* :mod:`repro.runtime.spec` — :class:`SweepSpec` / :class:`EvalJob`:
  enumerate (model, quantizer, rate-or-chip, field/offset) cells with
  content-addressed cache keys;
* :mod:`repro.runtime.executors` — :class:`SerialExecutor` (in-process
  reference semantics, bit-identical to the pre-engine loops) and
  :func:`execute_group`, the one group primitive every executor runs (it
  streams a cell's chips through the model one at a time); parallel sweeps
  run on :class:`repro.cluster.ClusterExecutor`;
* :mod:`repro.runtime.store` — :class:`ResultStore`: JSONL + content-hash
  cache under a run directory, giving resumable, shareable sweeps;
* :mod:`repro.runtime.engine` — :func:`run_sweep` orchestration plus result
  assembly back into :class:`~repro.eval.robust_error.RobustErrorResult`.

The sweep drivers in :mod:`repro.eval.sweeps` route through this engine;
later scaling work (memmapped fields, distributed backends, >100M-weight
models) plugs into the executor seam.
"""

from repro.runtime.engine import assemble_robust_result, clean_stats_for, run_sweep
from repro.runtime.executors import (
    SerialExecutor,
    execute_group,
    group_jobs,
    resolve_executor,
)
from repro.runtime.spec import (
    CellResult,
    EvalJob,
    ModelEntry,
    SweepContext,
    SweepSpec,
    chip_digest,
    field_digest,
    model_digest,
)
from repro.runtime.store import ResultStore

__all__ = [
    "run_sweep",
    "assemble_robust_result",
    "clean_stats_for",
    "SerialExecutor",
    "execute_group",
    "group_jobs",
    "resolve_executor",
    "SweepSpec",
    "EvalJob",
    "CellResult",
    "ModelEntry",
    "SweepContext",
    "ResultStore",
    "field_digest",
    "chip_digest",
    "model_digest",
]
