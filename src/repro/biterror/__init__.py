"""Low-voltage bit error models.

Implements the paper's random bit error model (Sec. 3) — every bit of every
quantized weight flips independently with probability ``p``, with the
"inherited" subset property across voltages — as well as simulated *profiled*
chips (App. C.1) with fixed spatial fault maps, column alignment and
flip-direction bias, and the voltage/energy model behind Fig. 1.

Error injection is served by pluggable backends
(:mod:`repro.biterror.backends`): a dense ``O(W * m)`` reference field and a
sparse ``O(p * W * m)`` order-statistics field with identical statistics and
an exactly preserved subset property.
"""

from repro.biterror.backends import (
    DenseFieldBackend,
    InjectionBackend,
    SparseFieldBackend,
    make_backend,
)
from repro.biterror.ecc import (
    SECDEDConfig,
    apply_secded_to_codes,
    ecc_energy_overhead,
    probability_multi_bit_error,
    residual_bit_error_rate,
)
from repro.biterror.mapping import LinearMemoryMap
from repro.biterror.patterns import ChipProfile, FaultMap, make_profiled_chips
from repro.biterror.random_errors import (
    DRAW_METHODS,
    BitErrorField,
    expected_bit_errors,
    flip_probability_from_counts,
    inject_into_quantized,
    inject_random_bit_errors,
    make_error_fields,
)
from repro.biterror.voltage import VoltageModel

__all__ = [
    "InjectionBackend",
    "DenseFieldBackend",
    "SparseFieldBackend",
    "make_backend",
    "inject_random_bit_errors",
    "inject_into_quantized",
    "DRAW_METHODS",
    "BitErrorField",
    "make_error_fields",
    "expected_bit_errors",
    "flip_probability_from_counts",
    "ChipProfile",
    "FaultMap",
    "make_profiled_chips",
    "VoltageModel",
    "LinearMemoryMap",
    "SECDEDConfig",
    "probability_multi_bit_error",
    "residual_bit_error_rate",
    "apply_secded_to_codes",
    "ecc_energy_overhead",
]
