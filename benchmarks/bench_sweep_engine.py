"""Macrobenchmark: serial vs. parallel sweep-engine throughput.

Builds a synthetic RErr grid — one MLP, ``--rates`` bit error rates x
``--fields`` pre-determined error fields — and executes the identical
:class:`~repro.runtime.spec.SweepSpec` through the serial reference executor
and through :class:`~repro.cluster.ClusterExecutor` with ``--workers``
workers (the coordinator and ``--workers - 1`` forked daemons) on a
temporary run directory.  Cell results are checked for
exact equality before any timing is reported, so the speedup is never
bought with divergence.

**Acceptance criterion: >= 2x wall-clock speedup with 4 workers** on the
full synthetic grid (the grid is embarrassingly parallel; the criterion
mostly measures that the context ships once per worker instead of once per
job).  The check is skipped when the host has fewer than 4 CPUs — a speedup
assertion there would only measure oversubscription.

Run the full benchmark (a few seconds on >= 4 cores)::

    PYTHONPATH=src python benchmarks/bench_sweep_engine.py

Fast smoke mode for CI (tiny grid, no speedup assertion)::

    PYTHONPATH=src python benchmarks/bench_sweep_engine.py --smoke
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.biterror import make_error_fields
from repro.cluster import ClusterExecutor
from repro.data import make_blob_dataset, train_test_split
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import SerialExecutor, SweepSpec, run_sweep
from repro.utils.tables import Table


def build_spec(args):
    """One synthetic sweep spec (fresh object per run, identical content)."""
    dataset = make_blob_dataset(
        num_classes=6,
        samples_per_class=args.samples,
        num_features=32,
        separation=2.5,
        rng=np.random.default_rng(0),
    )
    _, test = train_test_split(dataset, test_fraction=0.5, rng=np.random.default_rng(1))
    model = MLP(
        in_features=32, num_classes=6, hidden=(args.hidden, args.hidden),
        rng=np.random.default_rng(2),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    fields = make_error_fields(
        quantized.num_weights, 8, args.fields, seed=3, backend="sparse"
    )
    rates = np.linspace(0.002, 0.05, args.rates)
    spec = SweepSpec(test, batch_size=64)
    spec.add_model("mlp", model, quantizer, quantized)
    spec.add_field_set("fields", fields)
    for rate in rates:
        spec.add_field_jobs("mlp", "fields", float(rate))
    return spec


def time_run(args, executor) -> tuple:
    """(seconds, results) for one full sweep through ``executor``."""
    spec = build_spec(args)
    start = time.perf_counter()
    results = run_sweep(spec, executor=executor)
    return time.perf_counter() - start, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", type=int, default=12,
                        help="number of bit error rates in the grid")
    parser.add_argument("--fields", type=int, default=8,
                        help="number of error fields (chips) per rate")
    parser.add_argument("--samples", type=int, default=800,
                        help="synthetic samples per class")
    parser.add_argument("--hidden", type=int, default=128,
                        help="hidden width of the evaluated MLP")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the parallel run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fast run for CI; skips the speedup check")
    args = parser.parse_args()

    if args.smoke:
        args.rates = min(args.rates, 3)
        args.fields = min(args.fields, 2)
        args.samples = min(args.samples, 60)
        args.hidden = min(args.hidden, 24)
        args.workers = min(args.workers, 2)

    cells = args.rates * args.fields + 1  # + the hoisted clean cell
    print(f"synthetic grid: {args.rates} rates x {args.fields} fields "
          f"({cells} cells), {args.workers} workers, "
          f"host CPUs: {os.cpu_count()}")

    serial_time, serial_results = time_run(args, SerialExecutor())
    parallel_time, parallel_results = time_run(
        args, ClusterExecutor(max_workers=args.workers)
    )

    mismatched = [
        key for key, cell in serial_results.items()
        if parallel_results.get(key) != cell
    ]
    if mismatched or set(serial_results) != set(parallel_results):
        print(f"FAIL: cluster results diverge from serial on "
              f"{len(mismatched) or 'missing'} cells")
        return 1

    speedup = serial_time / max(parallel_time, 1e-12)
    table = Table(
        title="sweep-engine throughput (one full synthetic grid)",
        headers=["executor", "wall [s]", "cells/s", "speedup"],
        float_digits=3,
    )
    table.add_row("serial", serial_time, cells / serial_time, "1.0x")
    table.add_row(f"cluster ({args.workers}w)", parallel_time,
                  cells / parallel_time, f"{speedup:.1f}x")
    print("\n" + table.render() + "\n")

    if args.smoke:
        print("smoke mode: results identical; skipping speedup assertion")
        return 0
    if (os.cpu_count() or 1) < args.workers:
        print(f"only {os.cpu_count()} CPU(s): skipping the >=2x assertion "
              f"(criterion is defined at {args.workers} workers on >= "
              f"{args.workers} cores)")
        return 0
    if speedup < 2.0:
        print(f"FAIL: speedup {speedup:.2f}x below the 2x criterion "
              f"at {args.workers} workers")
        return 1
    print(f"OK: {speedup:.1f}x >= 2x speedup at {args.workers} workers, "
          "results bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
