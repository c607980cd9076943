"""Deploying one trained model across different (profiled) memory chips.

The scenario of Table 5: a DNN accelerator vendor trains *one* robust model
and ships it on many chips, each with its own fixed pattern of vulnerable bit
cells (process variation), operated at different voltages.  This example
trains a RandBET model once and evaluates it on three simulated profiled
chips — including a chip with column-aligned, 0-to-1 biased errors that looks
nothing like the uniform error model used during training — under several
weight-to-memory placements.

The evaluation grid (3 chips x 2 fault rates x 4 placements) runs through
the sweep-execution engine (:mod:`repro.runtime`):

* each (chip, rate) cell is a :func:`repro.eval.sweeps.profiled_sweep`
  routed through :func:`repro.runtime.engine.run_sweep`, with quantization
  and the clean evaluation hoisted to once per chip;
* ``--workers N`` shards the cells over ``N`` workers, this process and
  ``N - 1`` forked daemons (:class:`repro.cluster.ClusterExecutor` on a
  temporary run directory);
* ``--run-dir PATH`` persists every cell to a JSONL result store: re-running
  the command resumes an interrupted grid and re-executes only missing
  cells (delete the directory to start fresh);
* the chips use the sparse order-statistics rank storage
  (``backend="sparse"``), so fault lookup and payload corruption cost
  ``O(rate * capacity)`` — bit-identical to the dense reference.

Run with::

    python examples/profiled_chip_deployment.py
    python examples/profiled_chip_deployment.py --workers 4 --run-dir runs/deploy
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.biterror import LinearMemoryMap, make_profiled_chips
from repro.cluster import ClusterExecutor
from repro.core import train_robust_model
from repro.data import synthetic_cifar10, train_test_split
from repro.eval import profiled_sweep
from repro.eval.robust_error import model_error_and_confidence
from repro.quant.qat import quantize_model
from repro.runtime import ResultStore
from repro.utils.tables import Table

CELL_FAULT_RATES = [0.005, 0.02]
NUM_PLACEMENTS = 4


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the evaluation grid "
                             "(1 = serial reference executor)")
    parser.add_argument("--run-dir", default=None,
                        help="result-store directory; rerunning resumes "
                             "and only executes missing cells")
    args = parser.parse_args()

    dataset = synthetic_cifar10(samples_per_class=20, image_size=16)
    train, test = train_test_split(dataset, test_fraction=0.25, rng=np.random.default_rng(0))

    print("training a RandBET model (RQuant + clipping + random bit error training)...")
    result = train_robust_model(
        train, test, model_name="simplenet", widths=(12, 24), convs_per_stage=1,
        precision=8, clip_w_max=0.25, bit_error_rate=0.015, epochs=25, batch_size=16,
        start_loss_threshold=0.75, seed=5,
    )
    print(result.summary())

    executor = ClusterExecutor(max_workers=args.workers) if args.workers > 1 else None
    store = ResultStore(args.run_dir) if args.run_dir else None
    if store is not None:
        print(f"result store: {store.path} ({len(store)} cached cells)")

    # Quantize and clean-evaluate once for the whole grid; every chip sweep
    # below reuses both (the engine would otherwise add one clean cell per
    # sweep — deduplicated by content key only when a store is shared).
    quantized = quantize_model(result.model, result.quantizer)
    clean_stats = model_error_and_confidence(
        result.model, result.quantizer.dequantize(quantized), test, batch_size=64
    )
    chips = make_profiled_chips(seed=7, scale=4, backend="sparse")
    table = Table(
        title="Deployment across simulated profiled chips (average over placements)",
        headers=["chip", "error structure", "cell fault rate (%)", "clean Err (%)", "RErr (%)"],
    )
    descriptions = {
        "chip1": "uniform random",
        "chip2": "column-aligned, 0-to-1 biased",
        "chip3": "moderately column-aligned",
    }
    for name, chip in chips.items():
        placements = LinearMemoryMap.with_even_offsets(chip, NUM_PLACEMENTS)
        curve = profiled_sweep(
            result.model, result.quantizer, test, chip, CELL_FAULT_RATES,
            offsets=placements.offsets, name=name, quantized=quantized,
            clean_stats=clean_stats, executor=executor, store=store,
        )
        for rate, report in zip(curve.rates, curve.results):
            table.add_row(
                name, descriptions[name], 100 * rate,
                100 * report.clean_error, 100 * report.mean_error,
            )
    print()
    print(table.render())
    if store is not None:
        print(f"\nresult store now holds {len(store)} cells; rerun this "
              "command to reuse them (only new cells execute).")
    print(
        "\nRandBET was trained on uniform random bit errors only; the table shows "
        "how it holds up on chips whose error structure differs (generalization "
        "across chips and voltages, Table 5 of the paper)."
    )


if __name__ == "__main__":
    main()
