"""Sweep specifications: evaluation grids as explicit, content-addressed jobs.

Every RErr/chip/voltage study in this repository is a grid of *independent*
evaluations — (model, quantizer, rate-or-chip, error field or memory offset).
A :class:`SweepSpec` makes that grid explicit: heavy resources (models,
quantized weights, field sets, chip profiles, the dataset) are registered
once, and every grid cell becomes a small :class:`EvalJob` that references
them by key.

Each job carries a **content key**: a SHA-256 digest over everything the
cell's result is a pure function of — the quantized codes and scheme, the
model architecture and buffers, the dataset, the batch size, the specific
error field or chip (hashed by *state*, not by name) and the rate/offset.
Content keys serve two purposes:

* they are the cache keys of :class:`repro.runtime.store.ResultStore`, so a
  re-run only executes cells the store has not seen;
* identical cells inside one spec (duplicate rates, aliased models) are
  deduplicated before execution.

Specs are pure data; execution lives in :mod:`repro.runtime.executors` and
orchestration in :mod:`repro.runtime.engine`.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.biterror.backends import DenseFieldBackend, SparseFieldBackend
from repro.biterror.patterns import ChipProfile
from repro.biterror.random_errors import BitErrorField
from repro.utils.serialization import array_digest

__all__ = [
    "EvalJob",
    "ModelEntry",
    "SweepContext",
    "SweepSpec",
    "CellResult",
    "field_digest",
    "chip_digest",
    "model_digest",
]

#: Job kinds understood by the executors.
KINDS = ("clean", "field", "chip")

#: Folded into every content key.  Bump whenever the *semantics* of an
#: evaluation cell change (injection math, corruption paths, the evaluation
#: primitive, digest composition) so warm result stores miss cleanly instead
#: of serving numbers computed by older code.
ENGINE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CellResult:
    """Result of one evaluation cell: test error and mean confidence."""

    error: float
    confidence: float

    def as_tuple(self) -> Tuple[float, float]:
        return (self.error, self.confidence)


@dataclass(frozen=True)
class EvalJob:
    """One cell of a sweep grid.

    Jobs are tiny (strings, two numbers) so they can be shipped to worker
    processes per task while the referenced resources travel once per worker
    inside the :class:`SweepContext`.
    """

    kind: str  # "clean" | "field" | "chip"
    model_key: str
    source_key: str  # field-set / chip key ("" for clean)
    rate: float  # 0.0 for clean
    index: int  # field index or offset position in the offsets list
    offset: int  # chip cell offset (kind == "chip" only)
    content_key: str

    def to_record(self) -> Dict[str, object]:
        """JSON-safe dict round-trippable through :meth:`from_record`.

        The serialization the cluster queue ships job groups with: plain
        scalars only, so a work item is a small human-inspectable JSON file
        and any host that shares the run directory can reconstruct the job
        exactly.
        """
        return {
            "kind": self.kind,
            "model_key": self.model_key,
            "source_key": self.source_key,
            "rate": self.rate,
            "index": self.index,
            "offset": self.offset,
            "content_key": self.content_key,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "EvalJob":
        """Reconstruct a job from a :meth:`to_record` dict."""
        return cls(
            kind=str(record["kind"]),
            model_key=str(record["model_key"]),
            source_key=str(record["source_key"]),
            rate=float(record["rate"]),
            index=int(record["index"]),
            offset=int(record["offset"]),
            content_key=str(record["content_key"]),
        )

    @property
    def cell_key(self) -> Tuple[str, str, str, float]:
        """Spec bookkeeping key: all jobs of one (model, kind, source, rate)."""
        return (self.model_key, self.kind, self.source_key, self.rate)

    @property
    def group_key(self) -> Tuple:
        """Execution-granularity key: jobs sharing it form one executor task.

        ``field`` jobs group per cell: one task streams the cell's chips
        through one model at one rate, one chip at a time.  ``chip`` jobs
        group per offset, so a ``ClusterExecutor`` shards memory placements
        too.
        """
        if self.kind == "chip":
            return (self.model_key, self.kind, self.source_key, self.rate, self.index)
        return self.cell_key


@dataclass
class ModelEntry:
    """A model registered with a spec: architecture + quantized weights."""

    model: object
    quantizer: object
    quantized: object
    digest: str
    clean_stats: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        # Lazily memoized clean de-quantization of ``quantized`` — decoded
        # once per process (worker) and shared by every group that evaluates
        # this model, instead of once per cell.  Not part of the dataclass
        # identity and never pickled (each worker decodes its own copy;
        # shipping ~W float64s per model would bloat the context payload).
        self._clean_weights_cache = None
        self._patcher_cache = None

    def clean_weights(self):
        """The clean de-quantized weights, decoded once and memoized.

        ``quantized`` is treated as immutable once registered (specs are
        pure data); mutating its codes after the first call would go
        unnoticed here.
        """
        if self._clean_weights_cache is None:
            # One counter per actual decode: under telemetry the ratio of
            # engine.clean_decodes to engine.groups is the memoization-hit
            # evidence (decodes ≪ groups on a healthy sweep).
            from repro import telemetry

            telemetry.get_recorder().count("engine.clean_decodes")
            self._clean_weights_cache = self.quantizer.dequantize(self.quantized)
        return self._clean_weights_cache

    def patcher(self):
        """One :class:`~repro.eval.fast_eval.DeltaWeightPatcher` per process.

        Built over the memoized :meth:`clean_weights` and shared by every
        engine group that evaluates this model, instead of rebuilt per
        group.  Groups run sequentially within a process (executor workers
        are single-threaded), so reusing the in-place patch/restore buffers
        is safe; like the clean weights, the patcher is never pickled.
        """
        if self._patcher_cache is None:
            # Imported here so repro.runtime never circularly imports
            # repro.eval at module load (see executors._evaluate).
            from repro import telemetry
            from repro.eval.fast_eval import DeltaWeightPatcher

            telemetry.get_recorder().count("engine.patchers_built")

            self._patcher_cache = DeltaWeightPatcher(
                self.quantized, self.clean_weights()
            )
        return self._patcher_cache

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_clean_weights_cache"] = None
        state["_patcher_cache"] = None
        return state


@dataclass
class SweepContext:
    """The heavy, picklable payload shipped once per executor worker."""

    dataset: object
    batch_size: int
    models: Dict[str, ModelEntry]
    field_sets: Dict[str, List[BitErrorField]]
    chips: Dict[str, ChipProfile]

    def batch_plan(self):
        """The full-dataset :class:`~repro.eval.fast_eval.BatchPlan`, memoized.

        Hoisted once per process and shared by every engine group (the
        batches are read-only slice views), instead of re-cut per group.
        Never pickled — each worker cuts its own views over its own copy of
        the dataset.
        """
        plan = self.__dict__.get("_plan_cache")
        if plan is None:
            from repro.eval.fast_eval import BatchPlan

            plan = BatchPlan(self.dataset, self.batch_size)
            self.__dict__["_plan_cache"] = plan
        return plan

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_plan_cache", None)
        return state


def _sha(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _pickle_digest(obj: object) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


def field_digest(fld: BitErrorField) -> str:
    """Digest of one error field's *state* (its thresholds, not its name)."""
    backend = fld.backend
    meta = {
        "type": type(backend).__name__,
        "num_weights": backend.num_weights,
        "precision": backend.precision,
    }
    if isinstance(backend, DenseFieldBackend):
        meta["arrays"] = array_digest(backend._thresholds)
    elif isinstance(backend, SparseFieldBackend):
        meta["arrays"] = array_digest(backend._positions, backend._sorted_thresholds)
        meta["max_rate"] = backend.max_rate
    else:  # unknown backend: fall back to its pickled state
        meta["arrays"] = _pickle_digest(backend)
    return _sha(meta)


def chip_digest(chip: ChipProfile) -> str:
    """Digest of a chip profile's fault structure."""
    meta = {
        "type": type(chip).__name__,
        "rows": chip.rows,
        "columns": chip.columns,
        "backend": getattr(chip, "backend", "dense"),
    }
    if getattr(chip, "backend", "dense") == "sparse":
        meta["arrays"] = array_digest(
            chip._fault_positions, chip._fault_ranks, chip._fault_stuck
        )
        meta["max_rate"] = chip.max_rate
    elif hasattr(chip, "_ranks"):
        meta["arrays"] = array_digest(chip._ranks, chip._stuck_at_one)
    else:  # duck-typed chip: pickled state
        meta["arrays"] = _pickle_digest(chip)
    return _sha(meta)


def _module_config(module: object) -> Dict[str, object]:
    """Forward-affecting scalar hyperparameters of one module.

    Captures plain attributes like conv stride/padding, pooling kernel
    sizes, normalization ``eps``/``momentum`` or activation slopes — anything
    scalar (or a scalar sequence) that changes the forward pass without
    changing parameter shapes.  Private attributes and the ``training`` flag
    (evaluation always forces eval mode) are excluded.
    """
    config: Dict[str, object] = {}
    for attr in sorted(vars(module)):
        if attr.startswith("_") or attr == "training":
            continue
        value = vars(module)[attr]
        if isinstance(value, (bool, int, float, str)) or value is None:
            config[attr] = value
        elif isinstance(value, (tuple, list)) and all(
            isinstance(item, (bool, int, float, str)) for item in value
        ):
            config[attr] = list(value)
    return config


def model_digest(model: object, quantized: object) -> str:
    """Digest of (architecture, buffers, quantized weights, scheme).

    The evaluation of a cell depends on the model's *forward structure* and
    non-parameter buffers (e.g. BN running statistics) plus the quantized
    codes the errors are injected into — the float parameters only matter
    through their quantization.  Hashing ``state_dict`` covers parameters and
    buffers; the module walk covers the architecture, including scalar
    hyperparameters (stride, padding, eps, ...) that change the forward pass
    without changing any array.
    """
    structure: List[Tuple[str, str, Dict[str, object]]] = []
    named_modules = getattr(model, "named_modules", None)
    if callable(named_modules):
        structure = [
            (name, type(mod).__name__, _module_config(mod))
            for name, mod in named_modules()
        ]
    state = model.state_dict() if hasattr(model, "state_dict") else {}
    scheme = quantized.scheme
    meta = {
        "class": type(model).__qualname__,
        "structure": structure,
        "state": array_digest(*state.values()) if state else "",
        "state_names": sorted(state),
        "codes": array_digest(*quantized.codes),
        "ranges": [[float(lo), float(hi)] for lo, hi in quantized.ranges],
        "scheme": {
            "precision": scheme.precision,
            "per_layer": scheme.per_layer,
            "asymmetric": scheme.asymmetric,
            "unsigned": scheme.unsigned,
            "rounding": scheme.rounding,
        },
    }
    return _sha(meta)


class SweepSpec:
    """An explicit job graph over registered models, field sets and chips.

    Typical construction (what :func:`repro.eval.sweeps.rerr_sweep` does)::

        spec = SweepSpec(dataset, batch_size=64)
        spec.add_model("m", model, quantizer, quantized)
        spec.add_field_set("fields", error_fields)
        for rate in rates:
            spec.add_field_jobs("m", "fields", rate)
        results = run_sweep(spec)                 # repro.runtime.engine

    Registering a model automatically adds its one ``clean`` job (skipped
    when precomputed ``clean_stats`` are supplied), so quantization and clean
    evaluation are hoisted out of every rate/offset loop by construction.
    """

    def __init__(self, dataset, batch_size: int = 64):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.models: Dict[str, ModelEntry] = {}
        self.field_sets: Dict[str, List[BitErrorField]] = {}
        self.chips: Dict[str, ChipProfile] = {}
        self.jobs: List[EvalJob] = []
        self._field_digests: Dict[str, List[str]] = {}
        self._chip_digests: Dict[str, str] = {}
        self._jobs_by_cell: Dict[Tuple[str, str, str, float], List[EvalJob]] = {}
        self._dataset_digest = array_digest(dataset.inputs, dataset.labels)

    # -- resource registration ----------------------------------------------

    def add_model(
        self,
        key: str,
        model,
        quantizer,
        quantized,
        clean_stats: Optional[Tuple[float, float]] = None,
    ) -> str:
        """Register a model (with pre-quantized weights) under ``key``.

        Unless ``clean_stats`` (a precomputed ``(clean_error,
        clean_confidence)`` pair) is given, one ``clean`` job is added for
        the model.
        """
        if key in self.models:
            raise ValueError(f"duplicate model key {key!r}")
        digest = model_digest(model, quantized)
        self.models[key] = ModelEntry(
            model=model,
            quantizer=quantizer,
            quantized=quantized,
            digest=digest,
            clean_stats=tuple(clean_stats) if clean_stats is not None else None,
        )
        if clean_stats is None:
            job = EvalJob(
                kind="clean",
                model_key=key,
                source_key="",
                rate=0.0,
                index=0,
                offset=0,
                content_key=self._content_key("clean", digest, {}),
            )
            self._register(job)
        return key

    def add_field_set(self, key: str, fields: Sequence[BitErrorField]) -> str:
        """Register a set of pre-determined error fields ("chips") under ``key``."""
        if key in self.field_sets:
            raise ValueError(f"duplicate field-set key {key!r}")
        fields = list(fields)
        if not fields:
            raise ValueError("a field set requires at least one field")
        self.field_sets[key] = fields
        self._field_digests[key] = [field_digest(f) for f in fields]
        return key

    def add_chip(self, key: str, chip: ChipProfile) -> str:
        """Register a profiled chip under ``key``."""
        if key in self.chips:
            raise ValueError(f"duplicate chip key {key!r}")
        self.chips[key] = chip
        self._chip_digests[key] = chip_digest(chip)
        return key

    # -- job enumeration -----------------------------------------------------

    def add_field_jobs(
        self, model_key: str, field_set_key: str, rate: float
    ) -> List[EvalJob]:
        """Add one job per field of ``field_set_key`` at ``rate``.

        A non-positive rate adds no jobs — its result is the clean cell
        (random bit errors at rate 0 are an exact no-op).  Re-adding an
        existing (model, field set, rate) cell is idempotent and returns the
        previously created jobs.
        """
        entry = self.models[model_key]
        cell = (model_key, "field", field_set_key, float(rate))
        if cell in self._jobs_by_cell:
            return self._jobs_by_cell[cell]
        if rate <= 0.0:
            return []
        jobs = []
        for index, digest in enumerate(self._field_digests[field_set_key]):
            job = EvalJob(
                kind="field",
                model_key=model_key,
                source_key=field_set_key,
                rate=float(rate),
                index=index,
                offset=0,
                content_key=self._content_key(
                    "field", entry.digest, {"field": digest, "rate": float(rate)}
                ),
            )
            jobs.append(job)
            self._register(job)
        return jobs

    def add_chip_jobs(
        self,
        model_key: str,
        chip_key: str,
        rate: float,
        offsets: Sequence[int] = (0,),
    ) -> List[EvalJob]:
        """Add one job per memory ``offset`` for ``chip_key`` at ``rate``.

        Zero-rate chip jobs are executed (a fault-free chip still reads back
        the clean payload), matching the reference per-offset loop
        exactly.  Idempotent per (model, chip, rate) cell — but
        only for the *same* placements: re-adding the cell with different
        ``offsets`` raises instead of silently answering for the old ones.
        """
        entry = self.models[model_key]
        offsets = [int(offset) for offset in offsets]
        if not offsets:
            raise ValueError("at least one offset is required")
        cell = (model_key, "chip", chip_key, float(rate))
        if cell in self._jobs_by_cell:
            existing = [job.offset for job in self._jobs_by_cell[cell]]
            if existing != offsets:
                raise ValueError(
                    f"cell (model={model_key!r}, chip={chip_key!r}, "
                    f"rate={rate!r}) was already added with offsets "
                    f"{existing}; re-adding it with {offsets} would "
                    "silently answer for the old placements"
                )
            return self._jobs_by_cell[cell]
        digest = self._chip_digests[chip_key]
        jobs = []
        for index, offset in enumerate(offsets):
            job = EvalJob(
                kind="chip",
                model_key=model_key,
                source_key=chip_key,
                rate=float(rate),
                index=index,
                offset=int(offset),
                content_key=self._content_key(
                    "chip",
                    entry.digest,
                    {"chip": digest, "rate": float(rate), "offset": int(offset)},
                ),
            )
            jobs.append(job)
            self._register(job)
        return jobs

    # -- lookups -------------------------------------------------------------

    def clean_job(self, model_key: str) -> Optional[EvalJob]:
        """The clean-evaluation job of ``model_key`` (None if precomputed)."""
        cell = (model_key, "clean", "", 0.0)
        jobs = self._jobs_by_cell.get(cell, [])
        return jobs[0] if jobs else None

    def cell_jobs(
        self, model_key: str, kind: str, source_key: str, rate: float
    ) -> List[EvalJob]:
        """All jobs of one (model, kind, source, rate) cell, in index order."""
        return list(self._jobs_by_cell.get((model_key, kind, source_key, float(rate)), []))

    def context(self) -> SweepContext:
        """The resource payload executors ship once per worker.

        Raises ``ValueError`` for a spec unpickled from an older version that
        evaluated every cell on a per-cell example subset: its content keys
        fold the subset size in, and serving them on the full dataset would
        store wrong numbers under them.
        """
        size = self.__dict__.get("subsample")  # set only by such old specs
        if size is not None:
            raise ValueError(
                f"this sweep spec was built with subsample={size}; per-cell "
                "example subsets are no longer supported, so rebuild the spec "
                "on the full dataset"
            )
        return SweepContext(
            dataset=self.dataset,
            batch_size=self.batch_size,
            models=self.models,
            field_sets=self.field_sets,
            chips=self.chips,
        )

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    # -- internals -----------------------------------------------------------

    def _register(self, job: EvalJob) -> None:
        self.jobs.append(job)
        self._jobs_by_cell.setdefault(job.cell_key, []).append(job)

    def _content_key(self, kind: str, model_digest_: str, extra: dict) -> str:
        payload = {
            "schema": ENGINE_SCHEMA_VERSION,
            "kind": kind,
            "model": model_digest_,
            "dataset": self._dataset_digest,
            "batch_size": self.batch_size,
        }
        payload.update(extra)
        return _sha(payload)
