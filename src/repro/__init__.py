"""repro — reproduction of "Bit Error Robustness for Energy-Efficient DNN
Accelerators" (Stutz et al., MLSys 2021).

The library implements, from scratch and in pure NumPy, everything the paper
builds on and contributes:

* a neural-network training substrate (:mod:`repro.nn`, :mod:`repro.optim`,
  :mod:`repro.models`, :mod:`repro.data`),
* fixed-point quantization schemes including the robust RQuant scheme
  (:mod:`repro.quant`),
* low-voltage bit error models — uniform random errors, simulated profiled
  chips and the voltage/energy curve (:mod:`repro.biterror`),
* the paper's training recipes — weight clipping, RandBET and the PattBET
  baseline (:mod:`repro.core`),
* evaluation of robust test error, confidences, redundancy, guarantees and
  energy savings (:mod:`repro.eval`).

Quick start::

    from repro.biterror import make_error_fields
    from repro.data import synthetic_cifar10, train_test_split
    from repro.core import train_robust_model
    from repro.eval import evaluate_robust_error

    data = synthetic_cifar10(samples_per_class=32)
    train, test = train_test_split(data, test_fraction=0.25)
    result = train_robust_model(train, test, model_name="simplenet",
                                clip_w_max=0.1, bit_error_rate=0.01, epochs=10)
    chips = make_error_fields(result.quantized_weights.num_weights,
                              result.quantizer.precision, 10, seed=0)
    report = evaluate_robust_error(result.model, result.quantizer, test,
                                   bit_error_rate=0.01, error_fields=chips)
    print(result.summary(), report.mean_error)
"""

from repro import biterror, core, data, eval, models, nn, optim, quant, utils

__version__ = "1.0.0"

__all__ = [
    "nn",
    "optim",
    "models",
    "data",
    "quant",
    "biterror",
    "core",
    "eval",
    "utils",
    "__version__",
]
