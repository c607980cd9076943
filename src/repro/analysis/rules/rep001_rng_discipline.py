"""REP001 — RNG discipline: every generator is explicit, and infrastructure
derives its generators through :mod:`repro.utils.rng`.

Every stochastic component of this library threads an explicit
``numpy.random.Generator`` derived from an experiment seed; that is what
makes the paper's 50 pre-determined "chips", the engine's per-job derived
seeds and the golden-trajectory tests possible.  The rule has two halves.

*Global state, everywhere.*  A single call into the global RNG
(``np.random.seed``, the legacy ``np.random.rand``-style samplers,
``random.seed`` / ``random.random``, a shared ``RandomState``) reintroduces
cross-component stream coupling and makes results depend on call order —
silent nondeterminism.  Explicit-generator constructors
(``np.random.default_rng``, ``np.random.Generator``, ``SeedSequence``, bit
generators, stdlib ``random.Random``) create threaded state rather than
mutating shared state, so they are allowed.

*Raw constructors, in the infrastructure packages.*  In
``src/repro/runtime``, ``src/repro/cluster`` and ``src/repro/faults`` a raw
``np.random.default_rng(...)`` is a finding too.  It is semantically fine
(it is what :func:`repro.utils.rng.new_rng` wraps), but every generator
there must replay identically across hosts, so it is created through one
audited seam (``new_rng`` / ``as_rng`` / ``spawn_rngs`` fed by
``derived_seed``) and "where does this randomness come from?" has a one-hop
answer.  The science-side modules take generators as arguments and may
build their own.

:mod:`repro.utils.rng` itself is the one module exempt from both halves.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.visitor import Rule, SourceFile, call_name

NUMPY_RANDOM = "numpy.random"
STDLIB_RANDOM = "random"
MODULE_ALIASES = {"np.random": NUMPY_RANDOM, "numpy.random": NUMPY_RANDOM, "random": STDLIB_RANDOM}


class RngDisciplineRule(Rule):
    rule_id = "REP001"
    title = "no global RNG; infrastructure derives generators via utils/rng"

    def check_file(self, source: SourceFile, context) -> Iterable[Finding]:
        config = context.config.rep001
        if source.relpath in config.allowed_files:
            return ()
        scoped = any(
            source.relpath == path or source.relpath.startswith(path.rstrip("/") + "/")
            for path in config.wrapped_paths
        )
        # Names imported straight out of the RNG modules, e.g.
        # ``from numpy.random import seed`` / ``from random import randint``.
        imported: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (NUMPY_RANDOM, STDLIB_RANDOM):
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module, alias.name)

        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            head, _, attr = name.rpartition(".")
            if head in MODULE_ALIASES:
                module = MODULE_ALIASES[head]
            elif not head and name in imported:
                module, attr = imported[name]
            else:
                continue
            message = self._message(name, module, attr, scoped, config)
            if message is not None:
                findings.append(source.finding(self.rule_id, node, message))
        return findings

    @staticmethod
    def _message(name: str, module: str, attr: str, scoped: bool, config) -> Optional[str]:
        allowed = (
            config.allowed_numpy_attrs if module == NUMPY_RANDOM else config.allowed_stdlib_attrs
        )
        if attr not in allowed:
            return (
                f"global RNG call `{name}` ({module}) — thread an explicit "
                "Generator derived via repro.utils.rng"
            )
        if scoped and module == NUMPY_RANDOM and attr in config.wrapped_constructors:
            return (
                f"raw generator construction `{name}` in infrastructure code — "
                "derive it through the repro.utils.rng wrappers (new_rng/as_rng/"
                "spawn_rngs, seeded via derived_seed)"
            )
        return None
