"""Macrobenchmark: fused vs. reference RErr evaluation hot path (chip draws/sec).

RErr — the paper's central metric — averages test error over ~50 simulated
chips per (model, rate) cell, so sweep cost is dominated by the per-draw
inner loop of ``evaluate_robust_error``.  The reference (seed-era) data flow
pays, per draw, a dense ``O(W * m)`` injection, a full-model de-quantization
and a re-batching of the test set.  The fused path replaces them with
``O(errors)`` corrupted-code deltas (``InjectionBackend.delta_apply``),
in-place patching of a clean de-quantization computed once per call
(``DeltaWeightPatcher``) and mini-batches hoisted once per call
(``BatchPlan``) — per-draw cost scales with the *perturbation*, not the
model.

This script measures chip draws/sec on a ~1.25M-weight convolutional model
at the paper's rate ``p = 0.01`` with 50 draws and checks the acceptance
criterion:

* **>= 3x chip draws/sec** for the fused path (sparse order-statistics
  fields + delta patching) vs. the reference path (dense fields + full
  de-quantization per draw, :func:`unfused_draws` below), as the **median
  ratio over 5 interleaved rounds**: each round times the reference, then
  the fused path, so a slow spell on a shared host lands on both sides of
  one ratio instead of deciding the gate;
* the fused path is **bit-identical** to the reference on shared fields
  (asserted on every timed reference draw of every round, in smoke mode
  too).

It also reports the fused single-pass encode speedup (the shared cost of
QAT and every sweep's hoisted quantization) and the peak memory of the
sweep engine's per-chip stream (``iter_apply_fields_batch``) against every
chip's corrupted codes held at once; in full mode the streamed peak must be
the lower one.

Run the full benchmark (a minute or so; the dense reference fields take
``--ref-draws * W * m * 8`` bytes, ~80 MB each at the default scale)::

    PYTHONPATH=src python benchmarks/bench_eval_throughput.py

Fast smoke mode for CI (tiny model, 2 rounds, parity asserted, no speedup
checks)::

    PYTHONPATH=src python benchmarks/bench_eval_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from repro.biterror import make_error_fields
from repro.biterror.random_errors import iter_apply_fields_batch
from repro.data import ArrayDataset
from repro.eval.robust_error import evaluate_robust_error, model_error_and_confidence
from repro.nn import Conv2d, Flatten, GlobalAvgPool2d, Linear, ReLU, Sequential
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.fixed_point import QuantizationScheme, encode_array
from repro.quant.qat import model_weight_arrays, quantize_model
from repro.telemetry.perf import add_json_argument, perf_row, write_perf_records
from repro.utils.tables import Table

EVAL_RATE = 0.01
PRECISION = 8
#: Interleaved reference/fused timing rounds; the gate takes their median ratio.
ROUNDS = 5


def make_conv_model(widths, in_channels, num_classes, seed=0):
    """A 3x3 conv stack + global average pool classifier at given widths."""
    rng = np.random.default_rng(seed)
    layers = []
    channels = in_channels
    for width in widths:
        layers.append(Conv2d(channels, width, kernel_size=3, padding=1, rng=rng))
        layers.append(ReLU())
        channels = width
    layers.extend(
        [GlobalAvgPool2d(), Flatten(), Linear(channels, num_classes, rng=rng)]
    )
    return Sequential(*layers)


def make_dataset(examples, in_channels, image_size, num_classes, seed=1):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(0.0, 1.0, size=(examples, in_channels, image_size, image_size))
    labels = rng.integers(0, num_classes, size=examples)
    return ArrayDataset(inputs, labels, num_classes=num_classes)


def reference_encode(weights, q_min, q_max, scheme):
    """The seed-era elementwise-temporary encode chain (ground truth)."""
    weights = np.asarray(weights, dtype=np.float64)
    levels = scheme.levels
    if scheme.asymmetric:
        values = (weights - q_min) / (q_max - q_min) * 2.0 - 1.0
    else:
        values = weights / max(abs(q_min), abs(q_max))
    values = np.clip(values, -1.0, 1.0)
    scaled = values * levels
    integers = np.rint(scaled) if scheme.rounding else np.trunc(scaled)
    integers = np.clip(integers, -levels, levels).astype(np.int64)
    codes = integers + levels if scheme.unsigned else np.mod(integers, scheme.num_codes)
    return codes.astype(np.uint8 if scheme.precision <= 8 else np.uint16)


def unfused_draws(model, quantizer, dataset, fields, batch, quantized):
    """Per-draw errors and mean confidence of the unfused chain (ground truth).

    Every draw corrupts the codes, de-quantizes the whole model and batches
    the dataset afresh: ``apply_to_quantized`` -> ``dequantize`` ->
    ``model_error_and_confidence``, the seed-era per-draw data flow.
    """
    errors, confidences = [], []
    for fld in fields:
        weights = quantizer.dequantize(fld.apply_to_quantized(quantized, EVAL_RATE))
        error, confidence = model_error_and_confidence(model, weights, dataset, batch)
        errors.append(error)
        confidences.append(confidence)
    return errors, float(np.mean(confidences))


def timed_call(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def evaluate_fused(model, quantizer, dataset, fields, batch, hoisted):
    quantized, clean_stats = hoisted
    return evaluate_robust_error(
        model,
        quantizer,
        dataset,
        EVAL_RATE,
        error_fields=fields,
        batch_size=batch,
        quantized=quantized,
        clean_stats=clean_stats,
    )


def bench_encode(model, reps):
    """Fused vs. reference single-pass encode over the model's weight arrays."""
    scheme = QuantizationScheme(precision=PRECISION)
    arrays = model_weight_arrays(model)
    ranges = [(float(a.min()), float(a.max() + 1e-6)) for a in arrays]
    for array, (lo, hi) in zip(arrays, ranges):
        np.testing.assert_array_equal(
            encode_array(array, lo, hi, scheme), reference_encode(array, lo, hi, scheme)
        )
    samples = {"reference": [], "fused": []}
    for _ in range(reps):
        start = time.perf_counter()
        for array, (lo, hi) in zip(arrays, ranges):
            reference_encode(array, lo, hi, scheme)
        samples["reference"].append(time.perf_counter() - start)
        start = time.perf_counter()
        for array, (lo, hi) in zip(arrays, ranges):
            encode_array(array, lo, hi, scheme)
        samples["fused"].append(time.perf_counter() - start)
    return {name: float(np.median(times)) for name, times in samples.items()}


def bench_stream_memory(fields, quantized):
    """Peak traced memory: every chip held at once vs. the per-chip stream."""
    peaks = {}
    checksums = {}
    tracemalloc.start()
    chips = [fld.apply_to_quantized(quantized, EVAL_RATE) for fld in fields]
    checksums["materialized"] = sum(int(q.flat_codes().sum()) for q in chips)
    _, peaks["materialized"] = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del chips
    tracemalloc.start()
    total = 0
    for corrupted, _ in iter_apply_fields_batch(fields, quantized, EVAL_RATE):
        total += int(corrupted.flat_codes().sum())
    checksums["streamed"] = total
    _, peaks["streamed"] = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert checksums["materialized"] == checksums["streamed"]
    return peaks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", type=int, nargs="+", default=[96, 256, 448],
                        help="conv stage widths (default reaches ~1.25M weights)")
    parser.add_argument("--channels", type=int, default=8)
    parser.add_argument("--image-size", type=int, default=4)
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--examples", type=int, default=2,
                        help="evaluation examples (a tiny calibration set)")
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--draws", type=int, default=50,
                        help="simulated chips for the fused (sparse) timing")
    parser.add_argument("--ref-draws", type=int, default=8,
                        help="dense chips for the reference timing (each "
                             "holds a W x m float64 threshold field)")
    parser.add_argument("--encode-reps", type=int, default=9)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fast run for CI; keeps the bit-parity "
                             "assertion, skips the speedup checks")
    add_json_argument(parser)
    args = parser.parse_args()

    rounds = ROUNDS
    if args.smoke:
        args.widths = [16, 24]
        args.draws = 4
        args.ref_draws = 2
        args.encode_reps = 3
        rounds = 2

    model = make_conv_model(args.widths, args.channels, args.classes, seed=0)
    num_weights = sum(p.data.size for p in model.parameters())
    quantizer = FixedPointQuantizer(rquant(PRECISION))
    dataset = make_dataset(args.examples, args.channels, args.image_size, args.classes)
    print(f"model: conv widths {args.widths}, W = {num_weights:,} weights x "
          f"m = {PRECISION} bits, p = {EVAL_RATE}, {args.examples} examples @ "
          f"batch {args.batch}, {args.draws} fused draws / "
          f"{args.ref_draws} reference draws")

    # Hoisted once, exactly like the sweep drivers do: the timing below is
    # pure per-draw work (plus, for the fused path, its one clean decode).
    quantized = quantize_model(model, quantizer)
    clean_weights = quantizer.dequantize(quantized)
    clean_stats = model_error_and_confidence(
        model, clean_weights, dataset, args.batch
    )
    hoisted = (quantized, clean_stats)

    dense_fields = make_error_fields(
        num_weights, PRECISION, args.ref_draws, seed=7, backend="dense"
    )
    sparse_fields = make_error_fields(
        num_weights, PRECISION, args.draws, seed=7, backend="sparse"
    )

    # Warmup (BLAS initialisation, decode-table caches).
    unfused_draws(model, quantizer, dataset, dense_fields[:1], args.batch, quantized)
    evaluate_fused(model, quantizer, dataset, dense_fields[:1], args.batch, hoisted)

    seconds = {"reference": [], "fused_dense": [], "fused_sparse": []}
    ratios = []
    for _ in range(rounds):
        (reference_errors, reference_confidence), reference_s = timed_call(
            unfused_draws, model, quantizer, dataset, dense_fields, args.batch, quantized,
        )
        fused_dense, fused_dense_s = timed_call(
            evaluate_fused, model, quantizer, dataset, dense_fields, args.batch, hoisted,
        )
        _, fused_sparse_s = timed_call(
            evaluate_fused, model, quantizer, dataset, sparse_fields, args.batch, hoisted,
        )
        # Bit-parity on the shared dense fields — the fused path must be an
        # optimization, not a semantic change (checked in smoke mode too).
        assert fused_dense.errors == reference_errors, "fused errors diverged"
        assert fused_dense.confidence_perturbed == reference_confidence, (
            "fused confidences diverged"
        )
        seconds["reference"].append(reference_s / args.ref_draws)
        seconds["fused_dense"].append(fused_dense_s / args.ref_draws)
        seconds["fused_sparse"].append(fused_sparse_s / args.draws)
        ratios.append(seconds["reference"][-1] / seconds["fused_sparse"][-1])

    per_draw = {name: float(np.median(values)) for name, values in seconds.items()}
    speedup = float(np.median(ratios))
    low, high = np.percentile(ratios, [25, 75])

    table = Table(
        title=f"RErr evaluation throughput (chip draws/sec, median of {rounds} rounds)",
        headers=["configuration", "ms/draw", "draws/sec", "vs. reference"],
        float_digits=2,
    )
    rows = [
        ("reference (dense fields, full dequantize per draw)", "reference"),
        ("fused (same dense fields, delta patching)", "fused_dense"),
        ("fused (sparse fields + delta patching)", "fused_sparse"),
    ]
    for name, key in rows:
        table.add_row(name, per_draw[key] * 1e3, 1.0 / per_draw[key],
                      f"{per_draw['reference'] / per_draw[key]:.2f}x")
    print("\n" + table.render())
    print(f"\nfused (sparse) / reference per round: "
          f"{', '.join(f'{ratio:.2f}x' for ratio in ratios)}; median {speedup:.2f}x "
          f"(quartiles {low:.2f}-{high:.2f}x)")

    encode = bench_encode(model, args.encode_reps)
    encode_speedup = encode["reference"] / max(encode["fused"], 1e-12)
    print(f"\nfused single-pass encode: {encode['fused'] * 1e3:.2f} ms vs. "
          f"reference {encode['reference'] * 1e3:.2f} ms per full-model "
          f"quantize ({encode_speedup:.2f}x, bit-identical)")

    peaks = bench_stream_memory(sparse_fields, quantized)
    print(f"per-chip injection peak memory ({args.draws} chips): "
          f"{peaks['streamed'] / 1e6:.1f} MB streamed vs. "
          f"{peaks['materialized'] / 1e6:.1f} MB materialized "
          f"({peaks['materialized'] / max(peaks['streamed'], 1):.1f}x smaller peak)")

    write_perf_records(args.json_path, [
        perf_row("eval_throughput", "fused_eval_speedup", speedup,
                 criterion=">= 3x median ratio", rounds=rounds,
                 weights=num_weights, smoke=args.smoke),
        perf_row("eval_throughput", "encode_speedup", encode_speedup,
                 smoke=args.smoke),
        perf_row("eval_throughput", "streamed_peak_ratio",
                 peaks["materialized"] / max(peaks["streamed"], 1),
                 criterion="> 1x", smoke=args.smoke),
    ])

    if args.smoke:
        print("\nsmoke mode: bit-parity asserted, skipping speedup assertions")
        return 0
    failures = []
    if speedup < 3.0:
        failures.append(
            f"fused eval speedup: median {speedup:.2f}x over {rounds} rounds "
            "below the 3x criterion (not met)"
        )
    if peaks["streamed"] >= peaks["materialized"]:
        failures.append(
            "streamed injection peak memory is not below the materialized peak"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"\nOK: fused eval median {speedup:.2f}x (>= 3x), bit-identical on shared "
          f"fields; encode {encode_speedup:.2f}x; streamed peak "
          f"{peaks['materialized'] / max(peaks['streamed'], 1):.1f}x smaller")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
