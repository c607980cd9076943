"""Macrobenchmark: fused vs. seed training hot path (Alg. 1 throughput).

Every training benchmark of the paper (Tab. 3/4/13/14) is bottlenecked by
the per-step cost of Alg. 1.  The seed path pays, per step, a dense
``(W, m)`` uniform draw for the bit-error injection, two full-model
de-quantizations, and conv contractions in ``np.einsum`` (the bench-local
:class:`EinsumConv2d`).  The fused path replaces them with a binomial +
distinct-positions sparse draw (``error_draw="sparse"``, ``O(p * W * m)``),
delta de-quantization (only the touched weights are re-decoded), and the
library's ``Conv2d``, whose reshaped ``np.matmul`` contractions dispatch to
BLAS.

This script measures steps/sec on a ~1M-weight convolutional model at the
paper's training rate ``p = 0.01`` and checks two acceptance criteria:

* **>= 3x RandBET step throughput** with ``error_draw="sparse"`` + delta
  de-quantization + matmul conv vs. the seed path (dense draw + full
  de-quantization + einsum conv);
* the conv matmul path alone is a **measurable win (>= 1.2x)** on the plain
  QAT baseline, where injection plays no role.

Run the full benchmark (~1M weights, a minute or two)::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py

Fast smoke mode for CI (tiny model, no speedup assertions)::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import RandBETConfig, RandBETTrainer
from repro.core.trainer import Trainer, TrainerConfig
from repro.nn import Conv2d, Flatten, GlobalAvgPool2d, Linear, ReLU, Sequential
from repro.nn.conv import col2im, im2col
from repro.quant import FixedPointQuantizer, rquant
from repro.telemetry.perf import add_json_argument, perf_row, write_perf_records
from repro.utils.tables import Table

TRAINING_RATE = 0.01
PRECISION = 8


class EinsumConv2d(Conv2d):
    """The seed-era conv engine: ``np.einsum`` contractions over the whole batch.

    Same im2col/col2im column layout and parameters as :class:`Conv2d`, but
    every contraction runs in einsum's own loops instead of a BLAS GEMM, and
    the batch is one tile.  The results agree with :class:`Conv2d` up to
    summation order.
    """

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        k = self.kernel_size
        cols, out_h, out_w = im2col(x, k, k, self.stride, self.padding)
        n, p = x.shape[0], out_h * out_w
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        product = np.einsum("ok,kq->oq", weight_mat, cols)
        out = np.ascontiguousarray(product.reshape(self.out_channels, n, p).transpose(1, 0, 2))
        if self.has_bias:
            out += self.bias.data[None, :, None]
        self._cache = (x, x.shape)
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_output):
        x, input_shape = self._cache
        n, _, out_h, out_w = grad_output.shape
        k = self.kernel_size
        cols, _, _ = im2col(x, k, k, self.stride, self.padding)
        grads = np.asarray(grad_output, dtype=np.float64).reshape(n, self.out_channels, -1)
        per_sample = np.einsum("nop,knp->nok", grads, cols.reshape(-1, n, out_h * out_w))
        self.weight.grad += per_sample.sum(axis=0).reshape(self.weight.data.shape)
        if self.has_bias:
            self.bias.grad += grads.sum(axis=(0, 2))
        grad_mat = grads.transpose(1, 0, 2).reshape(self.out_channels, -1)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = np.einsum("ok,oq->kq", weight_mat, grad_mat)
        return col2im(grad_cols, input_shape, k, k, self.stride, self.padding)


def check_einsum_conv():
    """The einsum baseline computes what :class:`Conv2d` computes."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4, 6, 6))
    grad = rng.normal(size=(3, 5, 6, 6))
    results = []
    for conv in (Conv2d, EinsumConv2d):
        layer = conv(4, 5, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        results.append((layer(x), layer.backward(grad), layer.weight.grad, layer.bias.grad))
    for ours, baseline in zip(*results):
        np.testing.assert_allclose(baseline, ours, rtol=1e-12, atol=1e-12)


def make_conv_model(widths, in_channels, num_classes, seed=0, conv=Conv2d):
    """A 3x3 conv stack + global average pool classifier at given widths."""
    rng = np.random.default_rng(seed)
    layers = []
    channels = in_channels
    for width in widths:
        layers.append(conv(channels, width, kernel_size=3, padding=1, rng=rng))
        layers.append(ReLU())
        channels = width
    layers.extend(
        [GlobalAvgPool2d(), Flatten(), Linear(channels, num_classes, rng=rng)]
    )
    return Sequential(*layers)


def make_batch(batch_size, in_channels, image_size, num_classes, seed=1):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(0.0, 1.0, size=(batch_size, in_channels, image_size, image_size))
    labels = rng.integers(0, num_classes, size=batch_size)
    return inputs, labels


def make_qat_trainer(args, conv=Conv2d):
    model = make_conv_model(args.widths, args.channels, args.classes, seed=0, conv=conv)
    config = TrainerConfig(
        epochs=1,
        batch_size=args.batch,
        learning_rate=0.01,
        seed=3,
    )
    return Trainer(model, FixedPointQuantizer(rquant(PRECISION)), config)


def make_randbet_trainer(args, error_draw, conv=Conv2d):
    model = make_conv_model(args.widths, args.channels, args.classes, seed=0, conv=conv)
    config = RandBETConfig(
        epochs=1,
        batch_size=args.batch,
        learning_rate=0.01,
        seed=3,
        bit_error_rate=TRAINING_RATE,
        start_loss_threshold=float("inf"),
        error_draw=error_draw,
    )
    return RandBETTrainer(model, FixedPointQuantizer(rquant(PRECISION)), config)


def time_interleaved(configs, inputs, labels, steps, warmup=2):
    """Median seconds/step per named configuration.

    The configurations are stepped in interleaved rounds — one step of every
    configuration per round — so machine-load drift over the run biases all
    of them equally instead of whichever happened to be timed last.
    """
    for _, trainer in configs:
        for _ in range(warmup):
            trainer.train_step(inputs, labels)
    samples = {name: [] for name, _ in configs}
    for _ in range(steps):
        for name, trainer in configs:
            start = time.perf_counter()
            trainer.train_step(inputs, labels)
            samples[name].append(time.perf_counter() - start)
    return {name: float(np.median(times)) for name, times in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", type=int, nargs="+", default=[96, 256, 448],
                        help="conv stage widths (default reaches ~1.25M weights)")
    parser.add_argument("--channels", type=int, default=8,
                        help="input channels (default 8)")
    parser.add_argument("--image-size", type=int, default=4,
                        help="square input resolution (default 4)")
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--steps", type=int, default=7,
                        help="timed steps per configuration")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fast run for CI; skips the speedup checks")
    add_json_argument(parser)
    args = parser.parse_args()

    if args.smoke:
        args.widths = [16, 24]
        args.steps = 2

    probe = make_conv_model(args.widths, args.channels, args.classes, seed=0)
    num_weights = sum(p.data.size for p in probe.parameters())
    print(f"model: conv widths {args.widths}, W = {num_weights:,} weights x "
          f"m = {PRECISION} bits, batch {args.batch} @ "
          f"{args.image_size}x{args.image_size}, p = {TRAINING_RATE}, "
          f"{args.steps} timed step(s)")

    check_einsum_conv()
    configs = [
        ("qat_einsum", make_qat_trainer(args, EinsumConv2d)),
        ("qat_matmul", make_qat_trainer(args)),
        ("seed", make_randbet_trainer(args, "dense", EinsumConv2d)),
        ("dense_matmul", make_randbet_trainer(args, "dense")),
        ("fused", make_randbet_trainer(args, "sparse")),
    ]
    inputs, labels = make_batch(args.batch, args.channels, args.image_size, args.classes)
    seconds = time_interleaved(configs, inputs, labels, args.steps)
    for name, trainer in configs:
        if isinstance(trainer, RandBETTrainer):
            assert trainer.bit_errors_active, (
                f"{name}: injection never activated; timing is vacuous"
            )
    qat_einsum = seconds["qat_einsum"]
    qat_matmul = seconds["qat_matmul"]
    seed_path = seconds["seed"]
    dense_matmul = seconds["dense_matmul"]
    fused = seconds["fused"]

    qat_speedup = qat_einsum / max(qat_matmul, 1e-12)
    fused_speedup = seed_path / max(fused, 1e-12)
    table = Table(
        title="training throughput (median per step)",
        headers=["configuration", "ms/step", "steps/sec", "vs. seed"],
        float_digits=2,
    )
    rows = [
        ("QAT (einsum conv)", qat_einsum, ""),
        ("QAT (matmul conv)", qat_matmul, f"{qat_speedup:.2f}x"),
        ("RandBET seed (dense draw, einsum conv)", seed_path, "1.00x"),
        ("RandBET dense draw, matmul conv", dense_matmul,
         f"{seed_path / max(dense_matmul, 1e-12):.2f}x"),
        ("RandBET fused (sparse draw + delta dequant, matmul conv)", fused,
         f"{fused_speedup:.2f}x"),
    ]
    for name, per_step, speedup in rows:
        table.add_row(name, per_step * 1e3, 1.0 / max(per_step, 1e-12), speedup)
    print("\n" + table.render() + "\n")

    write_perf_records(args.json_path, [
        perf_row("training_throughput", "randbet_fused_speedup", fused_speedup,
                 criterion=">= 3x", smoke=args.smoke),
        perf_row("training_throughput", "qat_matmul_speedup", qat_speedup,
                 criterion=">= 1.2x", smoke=args.smoke),
    ])

    if args.smoke:
        print("smoke mode: skipping speedup assertions")
        return 0
    failures = []
    if fused_speedup < 3.0:
        failures.append(
            f"RandBET fused speedup {fused_speedup:.2f}x below the 3x criterion"
        )
    if qat_speedup < 1.2:
        failures.append(
            f"QAT matmul conv speedup {qat_speedup:.2f}x below the 1.2x criterion"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: RandBET fused {fused_speedup:.2f}x (>= 3x), "
          f"QAT matmul conv {qat_speedup:.2f}x (>= 1.2x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
