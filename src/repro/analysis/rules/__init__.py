"""Rule registry: the repository contracts the linter enforces.

==========  ==============================================================
Rule        Contract
==========  ==============================================================
``REP000``  Waiver hygiene: waivers parse, carry a reason, suppress
            something (emitted by the engine, not a rule class).
``REP001``  RNG discipline: no global RNG outside :mod:`repro.utils.rng`,
            and infrastructure code derives generators through its
            wrappers, not raw ``default_rng``.
``REP002``  No allocation-heavy numpy idioms inside ``@hot_path``.
``REP003``  Run-dir writes in cluster/store modules are atomic.
``REP004``  Every fused/backend twin seam has a flag-spelled-out test.
``REP005``  Spec fields are folded into the content-key hash.
``REP006``  No-pickle payloads are cleared in ``__getstate__``.
``REP007``  Library modules don't print; they emit telemetry events.
``REP008``  Except blocks never swallow silently: handle, re-raise,
            record telemetry — or carry a reasoned waiver.
==========  ==============================================================
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.analysis.rules.rep001_rng_discipline import RngDisciplineRule
from repro.analysis.rules.rep002_hot_alloc import HotPathAllocRule
from repro.analysis.rules.rep003_atomic_write import AtomicWriteRule
from repro.analysis.rules.rep004_parity_seams import ParitySeamRule
from repro.analysis.rules.rep005_content_key import ContentKeyRule
from repro.analysis.rules.rep006_pickle_boundary import PickleBoundaryRule
from repro.analysis.rules.rep007_no_print import NoPrintRule
from repro.analysis.rules.rep008_swallowed_exceptions import SwallowedExceptionRule
from repro.analysis.visitor import Rule

__all__ = ["ALL_RULES", "default_rules", "rule_registry"]

ALL_RULES: List[Type[Rule]] = [
    RngDisciplineRule,
    HotPathAllocRule,
    AtomicWriteRule,
    ParitySeamRule,
    ContentKeyRule,
    PickleBoundaryRule,
    NoPrintRule,
    SwallowedExceptionRule,
]


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [rule() for rule in ALL_RULES]


def rule_registry() -> Dict[str, Type[Rule]]:
    return {rule.rule_id: rule for rule in ALL_RULES}
