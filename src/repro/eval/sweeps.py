"""Reusable experiment sweeps, routed through the sweep-execution engine.

Convenience wrappers used by the examples and benchmark harnesses: evaluate
one model's RErr across a range of bit error rates (a "curve" of Fig. 7),
compare several models on the same pre-determined error fields, or sweep a
profiled chip across cell fault rates and memory placements (Table 5).

Every driver builds an explicit :class:`~repro.runtime.spec.SweepSpec` — one
job per (model, rate, field-or-offset) cell — and executes it through
:func:`repro.runtime.engine.run_sweep`.  That buys three things on top of
the hoisting (quantize once, clean-evaluate once per sweep):

* **sharding** — pass ``executor=ClusterExecutor(max_workers=...)`` (or the
  name ``"cluster"``) to spread the cells over worker processes, on this
  host or on several (:class:`~repro.cluster.ClusterExecutor`; the default
  :class:`SerialExecutor` reproduces the pre-engine results bit for bit);
* **caching / resumability** — pass ``store=<run_dir or ResultStore>`` and
  re-running a sweep only executes cells missing from the run directory;
* **subsampled evaluation** — pass ``subsample=n`` and every cell evaluates
  a reproducible ``n``-example subset drawn from its derived per-job seed
  (collision-free across the grid; cache keys include the subsample size).

Fields are created through the pluggable injection backend seam
(:mod:`repro.biterror.backends`) — pass ``backend="sparse"`` to evaluate
long sweeps at small rates in ``O(p * W * m)`` per injection instead of
``O(W * m)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.biterror.patterns import ChipProfile
from repro.biterror.random_errors import BitErrorField, make_error_fields
from repro.data.datasets import ArrayDataset
from repro.eval.robust_error import RobustErrorResult
from repro.nn.module import Module
from repro.quant.fixed_point import FixedPointQuantizer, QuantizedWeights
from repro.quant.qat import quantize_model
from repro.runtime.engine import assemble_robust_result, run_sweep
from repro.runtime.spec import SweepSpec

__all__ = [
    "RErrCurve",
    "ProfiledCurve",
    "rerr_sweep",
    "compare_models",
    "profiled_sweep",
]


def _sweep_max_rate(backend: str, rates: Sequence[float]) -> Optional[float]:
    """``max_rate`` for auto-created sparse sweep fields.

    ``None`` (the backend's seed-only default of 0.05) whenever the rate grid
    fits in it, so sweeps with the same seed see the same chips regardless of
    the grid; only grids exceeding 0.05 widen the field — which makes the
    patterns a function of the grid, so cross-sweep comparability above 0.05
    requires passing explicit ``error_fields``.
    """
    if backend != "sparse":
        return None
    top = max((r for r in rates if r > 0), default=0.0)
    return top if top > 0.05 else None


@dataclass
class RErrCurve:
    """RErr evaluated across a sweep of bit error rates for one model."""

    name: str
    rates: List[float]
    results: List[RobustErrorResult] = field(default_factory=list)

    @property
    def clean_error(self) -> float:
        """Clean error of the underlying quantized model."""
        return self.results[0].clean_error if self.results else float("nan")

    def mean_errors(self) -> List[float]:
        """Average RErr per rate (fractions)."""
        return [result.mean_error for result in self.results]

    def as_rows(self) -> List[Dict[str, float]]:
        """One dictionary per rate, convenient for tables and Pareto analysis."""
        return [
            {
                "model": self.name,
                "bit_error_rate": rate,
                "robust_error": result.mean_error,
                "robust_error_std": result.std_error,
                "clean_error": result.clean_error,
            }
            for rate, result in zip(self.rates, self.results)
        ]


@dataclass
class ProfiledCurve:
    """RErr of one model on one profiled chip across cell fault rates.

    Each result averages over the sweep's memory placements (offsets), as in
    App. C.1 / Table 5.
    """

    name: str
    chip: str
    rates: List[float]
    offsets: List[int]
    results: List[RobustErrorResult] = field(default_factory=list)

    @property
    def clean_error(self) -> float:
        return self.results[0].clean_error if self.results else float("nan")

    def mean_errors(self) -> List[float]:
        """Average RErr per rate (fractions), over all placements."""
        return [result.mean_error for result in self.results]

    def as_rows(self) -> List[Dict[str, float]]:
        return [
            {
                "model": self.name,
                "chip": self.chip,
                "cell_fault_rate": rate,
                "robust_error": result.mean_error,
                "robust_error_std": result.std_error,
                "clean_error": result.clean_error,
            }
            for rate, result in zip(self.rates, self.results)
        ]


def rerr_sweep(
    model: Module,
    quantizer: FixedPointQuantizer,
    dataset: ArrayDataset,
    rates: Sequence[float],
    error_fields: Optional[Sequence[BitErrorField]] = None,
    num_fields: int = 5,
    seed: int = 0,
    name: str = "model",
    batch_size: int = 64,
    backend: str = "dense",
    quantized: Optional[QuantizedWeights] = None,
    clean_stats=None,
    executor=None,
    store=None,
    subsample: Optional[int] = None,
) -> RErrCurve:
    """Evaluate RErr at every rate in ``rates`` using shared error fields.

    The model is quantized and its clean error evaluated exactly once for the
    whole sweep (pass precomputed ``quantized`` weights and/or ``clean_stats``
    — a ``(clean_error, clean_confidence)`` pair — to hoist even that across
    several sweeps of the same model); per-rate
    work is limited to injection and perturbed evaluation.  ``backend`` only
    applies when the fields are auto-created — explicit ``error_fields``
    carry their own backends and take precedence.  For auto-created sparse
    fields, ``max_rate`` stays at the seed-only default (0.05) whenever the
    grid fits in it, and widens to the largest swept rate otherwise (see
    :func:`_sweep_max_rate`).

    ``executor`` and ``store`` are forwarded to
    :func:`repro.runtime.engine.run_sweep`: the default serial executor
    reproduces the reference results bit for bit, a
    :class:`~repro.cluster.ClusterExecutor` (or ``executor="cluster"``)
    shards the grid over worker processes, and a store (run directory path
    or :class:`~repro.runtime.store.ResultStore`) makes the sweep resumable.
    ``subsample=n`` evaluates every cell on a reproducible ``n``-example
    subset drawn from its derived per-job seed (see
    :func:`repro.runtime.executors.subsample_plan`).
    """
    rates = list(rates)
    if quantized is None:
        quantized = quantize_model(model, quantizer)
    if error_fields is None:
        error_fields = make_error_fields(
            quantized.num_weights,
            quantizer.precision,
            num_fields,
            seed=seed,
            backend=backend,
            max_rate=_sweep_max_rate(backend, rates),
        )
    spec = SweepSpec(dataset, batch_size=batch_size, subsample=subsample)
    spec.add_model("model", model, quantizer, quantized, clean_stats=clean_stats)
    spec.add_field_set("fields", error_fields)
    for rate in rates:
        spec.add_field_jobs("model", "fields", rate)
    results = run_sweep(spec, executor=executor, store=store)
    curve = RErrCurve(name=name, rates=rates)
    for rate in rates:
        curve.results.append(
            assemble_robust_result(spec, results, "model", "fields", rate)
        )
    return curve


def compare_models(
    models: Dict[str, tuple],
    dataset: ArrayDataset,
    rates: Sequence[float],
    num_fields: int = 5,
    seed: int = 0,
    backend: str = "dense",
    batch_size: int = 64,
    executor=None,
    store=None,
    subsample: Optional[int] = None,
) -> Dict[str, RErrCurve]:
    """Sweep several ``{name: (model, quantizer)}`` pairs over the same rates.

    Models sharing a precision share the same pre-determined error fields so
    their curves are directly comparable (the paper's protocol).  All models'
    cells live in **one** :class:`~repro.runtime.spec.SweepSpec`, so a
    parallel executor shards the whole comparison — every (model, rate) cell
    — across workers at once.
    """
    rates = list(rates)
    spec = SweepSpec(dataset, batch_size=batch_size, subsample=subsample)
    field_set_by_precision: Dict[int, str] = {}
    for name, (model, quantizer) in models.items():
        precision = quantizer.precision
        quantized = quantize_model(model, quantizer)
        if precision not in field_set_by_precision:
            key = f"precision{precision}"
            spec.add_field_set(
                key,
                make_error_fields(
                    quantized.num_weights,
                    precision,
                    num_fields,
                    seed=seed + precision,
                    backend=backend,
                    max_rate=_sweep_max_rate(backend, rates),
                ),
            )
            field_set_by_precision[precision] = key
        spec.add_model(name, model, quantizer, quantized)
        for rate in rates:
            spec.add_field_jobs(name, field_set_by_precision[precision], rate)
    results = run_sweep(spec, executor=executor, store=store)
    curves: Dict[str, RErrCurve] = {}
    for name, (model, quantizer) in models.items():
        source = field_set_by_precision[quantizer.precision]
        curve = RErrCurve(name=name, rates=rates)
        for rate in rates:
            curve.results.append(
                assemble_robust_result(spec, results, name, source, rate)
            )
        curves[name] = curve
    return curves


def profiled_sweep(
    model: Module,
    quantizer: FixedPointQuantizer,
    dataset: ArrayDataset,
    chip: ChipProfile,
    rates: Sequence[float],
    offsets: Sequence[int] = (0,),
    batch_size: int = 64,
    name: str = "model",
    quantized: Optional[QuantizedWeights] = None,
    clean_stats=None,
    executor=None,
    store=None,
    subsample: Optional[int] = None,
) -> ProfiledCurve:
    """RErr of ``model`` on a profiled ``chip`` across cell fault rates.

    The profiled analogue of :func:`rerr_sweep`: quantization and the clean
    evaluation are hoisted out of the rate/offset loops (done once per
    sweep; pass precomputed ``quantized`` / ``clean_stats`` to hoist them
    across several chips' sweeps of the same model), each (rate, offset)
    pair becomes one engine cell, and the result at every rate averages over
    the memory placements, exactly like repeated
    :func:`repro.eval.robust_error.evaluate_profiled_error` calls — but
    without re-quantizing per rate, and shardable/cachable via ``executor`` /
    ``store``.
    """
    rates = list(rates)
    if quantized is None:
        quantized = quantize_model(model, quantizer)
    spec = SweepSpec(dataset, batch_size=batch_size, subsample=subsample)
    spec.add_model("model", model, quantizer, quantized, clean_stats=clean_stats)
    spec.add_chip("chip", chip)
    for rate in rates:
        spec.add_chip_jobs("model", "chip", rate, offsets)
    results = run_sweep(spec, executor=executor, store=store)
    curve = ProfiledCurve(
        name=name,
        chip=getattr(chip, "name", "chip"),
        rates=rates,
        offsets=[int(o) for o in offsets],
    )
    for rate in rates:
        curve.results.append(
            assemble_robust_result(spec, results, "model", "chip", rate, kind="chip")
        )
    return curve
