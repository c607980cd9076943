"""Fig. 2 / Fig. 7 — the paper's headline result: RErr vs. bit error rate.

Evaluates the full RErr-vs-p curve for Normal, RQuant, Clipping and RandBET
(8 bit) plus the best 4-bit model.  The paper's shape: the curves are
ordered Normal >= RQuant >= Clipping >= RandBET at high bit error rates,
RErr increases monotonically with p, and the 4-bit curve tracks the 8-bit
curve with a small offset.

Each model's curve is one :func:`repro.eval.sweeps.rerr_sweep` through the
sweep-execution engine (:mod:`repro.runtime`): the model is quantized and
clean-evaluated once per curve and every (rate, field) cell is an engine
job, so the whole figure can be sharded with a ``ClusterExecutor`` or
resumed from a ``ResultStore`` without touching this file.
"""

import numpy as np

from conftest import EVAL_RATES, print_table
from repro.eval import rerr_sweep
from repro.utils.tables import Table


def evaluate_curves(model_suite, test, fields8, fields4):
    curves = {}
    for key, fields in (
        ("normal", fields8),
        ("rquant", fields8),
        ("clipping", fields8),
        ("randbet", fields8),
        ("randbet_4bit", fields4),
    ):
        trained = model_suite[key]
        curve = rerr_sweep(
            trained.model, trained.quantizer, test, EVAL_RATES,
            error_fields=fields, name=trained.name,
        )
        curves[trained.name] = [100.0 * mean for mean in curve.mean_errors()]
    return curves


def test_fig7_rerr_vs_bit_error_rate(
    benchmark, model_suite, cifar_task, error_fields_8bit, error_fields_4bit
):
    _, test = cifar_task
    curves = benchmark.pedantic(
        lambda: evaluate_curves(model_suite, test, error_fields_8bit, error_fields_4bit),
        rounds=1,
        iterations=1,
    )

    table = Table(
        title="Fig. 2 / Fig. 7: robust test error (%) vs. bit error rate",
        headers=["model"] + [f"p={100 * r:g}%" for r in EVAL_RATES],
    )
    for name, series in curves.items():
        table.add_row(name, *series)
    print_table(table)

    names = list(curves)
    normal, rquant, clipping, randbet = (curves[n] for n in names[:4])
    highest = -1  # index of the largest evaluated rate
    # Ordering at the highest bit error rate (with small slack for noise).
    assert clipping[highest] <= rquant[highest] + 2.0
    assert randbet[highest] <= clipping[highest] + 2.0
    assert randbet[highest] < normal[highest] + 2.0
    # RErr grows (weakly) monotonically with p for the robust model.
    randbet_series = np.array(randbet)
    assert np.all(np.diff(randbet_series) >= -2.0)
    # At p = 0 every model achieves its clean error (finite, below chance).
    assert all(series[0] < 90.0 for series in curves.values())
