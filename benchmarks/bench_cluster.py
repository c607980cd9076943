"""Macrobenchmark: serial vs. distributed (cluster) sweep execution.

Builds a Fig. 7-shaped synthetic RErr grid — one MLP, ``--rates`` bit error
rates x ``--fields`` pre-determined error fields — and executes the identical
:class:`~repro.runtime.spec.SweepSpec` through the serial reference executor
and through :class:`~repro.cluster.ClusterExecutor`, which shards the job
groups into an atomically-leased filesystem queue served by ``--workers``
local workers: the coordinator and ``--workers - 1`` forked daemons
(separate processes, coordinating through the run directory alone —
exactly how a multi-host fleet would).

Before any timing is reported the merged cluster results are checked for
**exact** equality with the serial run (cell for cell, plus one
duplicate-free canonical ``results.jsonl`` line per cell), so the speedup is
never bought with divergence or double counting.

**Acceptance criterion: >= 2x wall-clock speedup with 4 workers** (the
coordinator and 3 daemons) on the full synthetic grid.  The check is skipped when the host has fewer CPUs
than workers — the subsystem degrades gracefully there, but the assertion
would only measure oversubscription.

Run the full benchmark (tens of seconds on >= 4 cores)::

    PYTHONPATH=src python benchmarks/bench_cluster.py

Fast smoke mode for CI (tiny grid, 2 workers, completion + bit-parity
asserted, no speedup assertion)::

    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke

Chaos mode (``--poison``) injects a deterministic, permanently-raising fault
into one queue item and gates on graceful degradation instead of full
parity: the sweep must terminate with every *surviving* cell bit-identical
to serial and duplicate-free, the poisoned item dead-lettered after exactly
``max_attempts`` attempts with a readable traceback, and a
``failure-report.json`` artifact written into the run directory::

    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke --poison
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time

import numpy as np

from repro import telemetry
from repro.biterror import make_error_fields
from repro.cluster import (
    ClusterExecutor,
    JobQueue,
    RetryPolicy,
    group_item_id,
    load_failure_report,
)
from repro.data import make_blob_dataset, train_test_split
from repro.faults import FaultPlan, FaultRule
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import (
    ResultStore,
    SerialExecutor,
    SweepSpec,
    group_jobs,
    run_sweep,
)
from repro.telemetry.perf import add_json_argument, perf_row, write_perf_records
from repro.utils.serialization import read_jsonl
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", type=int, default=24,
                        help="number of bit error rates in the grid")
    parser.add_argument("--fields", type=int, default=8,
                        help="number of error fields (chips) per rate")
    parser.add_argument("--samples", type=int, default=2400,
                        help="synthetic samples per class")
    parser.add_argument("--hidden", type=int, default=256,
                        help="hidden width of the evaluated MLP")
    parser.add_argument("--workers", type=int, default=4,
                        help="local workers for the cluster run: the "
                             "coordinator and N-1 forked daemons")
    parser.add_argument("--run-dir", default=None,
                        help="cluster run directory (default: fresh temp dir)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fast run for CI; 2 workers, parity asserted, "
                             "no speedup assertion")
    parser.add_argument("--poison", action="store_true",
                        help="inject a permanent fault into one queue item and "
                             "gate on graceful degradation: surviving cells "
                             "bit-identical, poison dead-lettered, failure "
                             "report written")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="retry budget per item in --poison mode")
    parser.add_argument("--telemetry", action="store_true",
                        help="record telemetry into the run dir during the "
                             "cluster leg (the serial timing stays untouched)")
    add_json_argument(parser)
    args = parser.parse_args()

    if args.smoke:
        args.rates = min(args.rates, 3)
        args.fields = min(args.fields, 2)
        args.samples = min(args.samples, 60)
        args.hidden = min(args.hidden, 24)
        args.workers = min(args.workers, 2)

    cells = args.rates * args.fields + 1  # + the hoisted clean cell
    print(f"synthetic grid: {args.rates} rates x {args.fields} fields "
          f"({cells} cells), {args.workers} worker(s), "
          f"host CPUs: {os.cpu_count()}")

    serial_spec = build_spec(args)
    start = time.perf_counter()
    serial_results = run_sweep(serial_spec, executor=SerialExecutor())
    serial_time = time.perf_counter() - start

    run_dir = args.run_dir or tempfile.mkdtemp(prefix="bench-cluster-")
    try:
        if args.telemetry:
            # Enabled only now, after the serial leg timed clean: the
            # coordinator records here and the manifest flag makes every
            # forked daemon record its own sink into the same run dir.
            telemetry.configure(run_dir, name="bench-coordinator")
        retry = None
        fault_plan = None
        poison_id = None
        poison_keys: set = set()
        if args.poison:
            poison_group = group_jobs(serial_spec.jobs)[-1]
            poison_id = group_item_id(poison_group)
            poison_keys = {job.content_key for job in poison_group}
            retry = RetryPolicy(max_attempts=args.max_attempts,
                                backoff_base=0.05, backoff_max=0.2)
            fault_plan = FaultPlan([
                FaultRule(seam="execute", kind="exception", match=poison_id,
                          times=None, note="bench --poison"),
            ])
            print(f"poisoning item {poison_id[:12]} ({len(poison_keys)} "
                  f"cell(s)) with a permanent InjectedFault; retry budget "
                  f"{retry.max_attempts} attempt(s)")
        executor = ClusterExecutor(
            run_dir=run_dir,
            max_workers=args.workers,
            lease_timeout=30.0,
            poll_interval=0.02,
            retry=retry,
            fault_plan=fault_plan,
        )
        start = time.perf_counter()
        cluster_results = run_sweep(build_spec(args), executor=executor)
        cluster_time = time.perf_counter() - start
        if args.telemetry:
            telemetry.disable()

        # -- exactness gates (before any timing is reported) ------------------
        # In --poison mode the poisoned cells are *expected* casualties; the
        # gate is graceful degradation, not full parity.
        expected = {
            key: cell for key, cell in serial_results.items()
            if key not in poison_keys
        }
        mismatched = [
            key for key, cell in expected.items()
            if cluster_results.get(key) != cell
        ]
        if mismatched or set(expected) != set(cluster_results):
            print(f"FAIL: cluster results diverge from serial on "
                  f"{len(mismatched) or 'missing'} cells")
            return 1
        store = ResultStore(run_dir)
        if any(store.get(k) != cell for k, cell in expected.items()):
            print("FAIL: merged canonical store diverges from the serial run")
            return 1
        store_records = read_jsonl(os.path.join(run_dir, "results.jsonl"))
        keys = [record["key"] for record in store_records]
        if len(keys) != len(set(keys)) or set(keys) != set(expected):
            print(f"FAIL: canonical results.jsonl is not duplicate-free and "
                  f"complete ({len(keys)} lines, {len(set(keys))} distinct, "
                  f"{len(expected)} expected)")
            return 1
        if args.poison:
            queue = JobQueue(run_dir)
            if queue.failed_ids() != [poison_id]:
                print(f"FAIL: dead-letter set {queue.failed_ids()} != "
                      f"[{poison_id}]")
                return 1
            failure = queue.failure_record(poison_id).get("failure") or {}
            if (failure.get("exc_type") != "InjectedFault"
                    or failure.get("attempts") != args.max_attempts
                    or "InjectedFault" not in (failure.get("traceback") or "")):
                print(f"FAIL: malformed failure record: {failure}")
                return 1
            report = load_failure_report(run_dir, queue)
            report.write(os.path.join(run_dir, "failure-report.json"))
            print("dead-letter report (failure-report.json):\n"
                  + report.summary())
    finally:
        if args.run_dir is None:
            shutil.rmtree(run_dir, ignore_errors=True)

    speedup = serial_time / max(cluster_time, 1e-12)
    table = Table(
        title="cluster sweep throughput (one full synthetic grid)",
        headers=["executor", "wall [s]", "cells/s", "speedup"],
        float_digits=3,
    )
    table.add_row("serial", serial_time, cells / serial_time, "1.0x")
    table.add_row(f"cluster ({args.workers} workers)", cluster_time,
                  cells / cluster_time, f"{speedup:.1f}x")
    print("\n" + table.render() + "\n")

    write_perf_records(args.json_path, [
        perf_row("cluster", "cluster_speedup", speedup,
                 criterion=">= 2x at 4 workers", workers=args.workers,
                 cells=cells, smoke=args.smoke),
        perf_row("cluster", "serial_wall_s", serial_time, smoke=args.smoke),
        perf_row("cluster", "cluster_wall_s", cluster_time, smoke=args.smoke),
    ])

    if args.poison:
        print("poison mode: sweep degraded gracefully — surviving cells "
              "bit-identical, poison dead-lettered; skipping speedup "
              "assertion")
        return 0
    if args.smoke:
        print("smoke mode: sweep completed, results bit-identical to serial; "
              "skipping speedup assertion")
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
          "results bit-identical, merge duplicate-free")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
