"""Reusable experiment sweeps, routed through the sweep-execution engine.

Convenience wrappers used by the examples and benchmark harnesses: evaluate
one model's RErr across a range of bit error rates on the chips it is given
(a "curve" of Fig. 7), or sweep a profiled chip across cell fault rates and
memory placements (Table 5).  A comparison of several models on the same
chips is one :class:`~repro.runtime.spec.SweepSpec` with every model
registered beside one shared field set.

Every driver builds an explicit :class:`~repro.runtime.spec.SweepSpec` — one
job per (model, rate, field-or-offset) cell — and executes it through
:func:`repro.runtime.engine.run_sweep`.  That buys two things on top of
the hoisting (quantize once, clean-evaluate once per sweep):

* **sharding** — pass ``executor=ClusterExecutor(max_workers=...)`` (or the
  name ``"cluster"``) to spread the cells over worker processes, on this
  host or on several (:class:`~repro.cluster.ClusterExecutor`; the default
  :class:`SerialExecutor` reproduces the pre-engine results bit for bit);
* **caching / resumability** — pass ``store=<run_dir or ResultStore>`` and
  re-running a sweep only executes cells missing from the run directory.

The chips are drawn by the caller, once, with
:func:`repro.biterror.make_error_fields` (``backend="sparse"`` evaluates
long sweeps at small rates in ``O(p * W * m)`` per injection instead of
``O(W * m)``), so every call scores exactly the chips it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.biterror.patterns import ChipProfile
from repro.biterror.random_errors import BitErrorField
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
    "profiled_sweep",
]


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
    error_fields: Sequence[BitErrorField],
    name: str = "model",
    batch_size: int = 64,
    quantized: Optional[QuantizedWeights] = None,
    clean_stats=None,
    executor=None,
    store=None,
) -> RErrCurve:
    """Evaluate RErr at every rate in ``rates`` on the chips ``error_fields``.

    The model is quantized and its clean error evaluated exactly once for the
    whole sweep (pass precomputed ``quantized`` weights and/or ``clean_stats``
    — a ``(clean_error, clean_confidence)`` pair — to hoist even that across
    several sweeps of the same model); per-rate
    work is limited to injection and perturbed evaluation.

    ``executor`` and ``store`` are forwarded to
    :func:`repro.runtime.engine.run_sweep`: the default serial executor
    reproduces the reference results bit for bit, a
    :class:`~repro.cluster.ClusterExecutor` (or ``executor="cluster"``)
    shards the grid over worker processes, and a store (run directory path
    or :class:`~repro.runtime.store.ResultStore`) makes the sweep resumable.
    """
    rates = list(rates)
    if quantized is None:
        quantized = quantize_model(model, quantizer)
    spec = SweepSpec(dataset, batch_size=batch_size)
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
) -> ProfiledCurve:
    """RErr of ``model`` on a profiled ``chip`` across cell fault rates.

    The profiled analogue of :func:`rerr_sweep`: quantization and the clean
    evaluation are hoisted out of the rate/offset loops (done once per
    sweep; pass precomputed ``quantized`` / ``clean_stats`` to hoist them
    across several chips' sweeps of the same model), each (rate, offset)
    pair becomes one engine cell, and the result at every rate averages over
    the memory placements (App. C.1).  Cells are shardable and cachable via
    ``executor`` / ``store``; a single rate is ``profiled_sweep(...,
    [rate]).results[0]``.
    """
    rates = list(rates)
    if quantized is None:
        quantized = quantize_model(model, quantizer)
    spec = SweepSpec(dataset, batch_size=batch_size)
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
