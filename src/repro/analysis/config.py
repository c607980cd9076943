"""Per-rule configuration of the invariant linter.

The defaults below encode this repository's actual contracts — which files
may own global RNG state and which packages must derive their generators
through it, which numpy idioms are banned on hot paths, where
run-dir writes must be atomic, which keyword flags denote fused/backend twin
seams, how every :class:`~repro.runtime.spec.EvalJob` field maps onto the
content-key payload, and which attributes cache no-pickle objects.  Tests
(and any future out-of-tree use) construct an :func:`default_config` and
override fields; there is deliberately no implicit config-file discovery —
the configuration *is* part of the contract and lives in code review like
everything else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.baseline import DEFAULT_BASELINE_NAME


@dataclass
class Rep001Config:
    """REP001 — RNG discipline: no global RNG state anywhere, and raw
    generator constructors only outside the infrastructure packages."""

    #: The seed-derivation module, exempt from the whole rule.
    allowed_files: Tuple[str, ...] = ("src/repro/utils/rng.py",)
    #: ``np.random`` attributes that construct explicit generators/seeds and
    #: are therefore not global state (everything else on the module is
    #: global state or a legacy global-stream sampler).
    allowed_numpy_attrs: Tuple[str, ...] = (
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "default_rng",
    )
    #: stdlib ``random`` attributes that are explicit-instance constructors.
    allowed_stdlib_attrs: Tuple[str, ...] = ("Random", "SystemRandom")
    #: Packages whose randomness must replay across hosts, so every
    #: generator they build flows through the repro.utils.rng wrappers.
    wrapped_paths: Tuple[str, ...] = (
        "src/repro/runtime",
        "src/repro/cluster",
        "src/repro/faults",
    )
    #: ``numpy.random`` constructors those packages reach via the wrappers.
    wrapped_constructors: Tuple[str, ...] = ("default_rng",)


@dataclass
class Rep002Config:
    """REP002 — allocation-heavy numpy idioms banned on ``@hot_path``."""

    marker: str = "hot_path"
    #: Dotted suffixes (matched against the trailing attribute chain) of
    #: banned calls; ``np.unique`` was the measured PR-3 bottleneck.
    banned_calls: Tuple[str, ...] = ("unique", "union1d", "append")
    banned_modules: Tuple[str, ...] = ("np", "numpy")
    #: Banned zero-argument methods on arbitrary objects.
    banned_methods: Tuple[str, ...] = ("tolist",)


@dataclass
class Rep003Config:
    """REP003 — run-dir writes inside the scoped modules must be atomic."""

    #: Directories / files whose writes are shared-state publications.
    scoped_paths: Tuple[str, ...] = (
        "src/repro/cluster",
        "src/repro/runtime/store.py",
    )
    #: The module providing the atomic helpers (exempt from the rule).
    allowed_files: Tuple[str, ...] = ("src/repro/utils/serialization.py",)
    #: ``open`` modes that are not atomicity hazards: reads, and appends
    #: (the single-writer JSONL shard/store protocol).
    allowed_modes: Tuple[str, ...] = ("r", "rb", "a", "ab", "a+", "ab+", "r+")


@dataclass
class Rep004Config:
    """REP004 — every twin-flag seam needs a test that exercises the flag."""

    #: Keyword parameters (with defaults) that denote a fused/backend twin
    #: path whose parity must be pinned by tests.
    flags: Tuple[str, ...] = ("fused", "backend", "error_draw")


@dataclass
class Rep005Config:
    """REP005 — spec fields must be folded into the content-key hash."""

    spec_path: str = "src/repro/runtime/spec.py"
    job_class: str = "EvalJob"
    spec_class: str = "SweepSpec"
    key_method: str = "_content_key"
    #: field -> payload keys that cover it (any one present suffices).
    #: A field that *is* a payload key needs no mapping.
    coverage: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "model_key": ("model",),  # hashed via the model digest
            "source_key": ("field", "chip"),  # hashed via per-source digests
            "index": ("field", "chip"),  # the indexed field/chip digest
        }
    )
    #: field -> reason it is deliberately outside the hash.
    exempt: Dict[str, str] = field(
        default_factory=lambda: {
            "content_key": "is the hash itself",
            "models": "registry; folded per-job via the model digest",
            "field_sets": "registry; folded per-job via field digests",
            "chips": "registry; folded per-job via chip digests",
            "jobs": "bookkeeping list of the already-keyed jobs",
        }
    )


@dataclass
class Rep006Config:
    """REP006 — no-pickle types must be cleared before crossing boundaries."""

    marker: str = "no_pickle"
    #: Attribute names that cache no-pickle payloads regardless of the
    #: statically-visible constructor (e.g. memoized clean decodes).
    extra_attrs: Tuple[str, ...] = ("_clean_weights_cache",)


@dataclass
class Rep007Config:
    """REP007 — library modules must not print; route through telemetry."""

    #: Directories whose modules are library code (stdout is not theirs).
    scoped_paths: Tuple[str, ...] = ("src/repro",)
    #: Modules whose interface *is* stdout/stderr text.
    exempt_files: Tuple[str, ...] = (
        "src/repro/analysis/cli.py",  # linter front-end: reports to stdout
        "src/repro/cluster/cli.py",  # operator CLI: status text is the API
        "src/repro/service/cli.py",  # service operator CLI: stdout is the API
        "src/repro/telemetry/report.py",  # the telemetry renderer itself
        "src/repro/telemetry/record.py",  # the recorder's stderr echo
    )
    #: Basenames exempt anywhere (entry-point shims).
    exempt_basenames: Tuple[str, ...] = ("__main__.py",)


@dataclass
class Rep008Config:
    """REP008 — except blocks must not swallow exceptions silently."""

    #: Directories whose handlers are held to the no-silent-swallow policy.
    scoped_paths: Tuple[str, ...] = ("src/repro",)


@dataclass
class AnalysisConfig:
    """Everything one :func:`repro.analysis.engine.run_analysis` call needs."""

    root: str
    src_paths: Tuple[str, ...] = ("src",)
    test_paths: Tuple[str, ...] = ("tests",)
    baseline_path: str = ""
    exclude_parts: Tuple[str, ...] = ("__pycache__",)
    rep001: Rep001Config = field(default_factory=Rep001Config)
    rep002: Rep002Config = field(default_factory=Rep002Config)
    rep003: Rep003Config = field(default_factory=Rep003Config)
    rep004: Rep004Config = field(default_factory=Rep004Config)
    rep005: Rep005Config = field(default_factory=Rep005Config)
    rep006: Rep006Config = field(default_factory=Rep006Config)
    rep007: Rep007Config = field(default_factory=Rep007Config)
    rep008: Rep008Config = field(default_factory=Rep008Config)

    def __post_init__(self) -> None:
        self.root = os.path.abspath(self.root)
        if not self.baseline_path:
            self.baseline_path = os.path.join(self.root, DEFAULT_BASELINE_NAME)


def default_config(
    root: str,
    src_paths: Optional[List[str]] = None,
    test_paths: Optional[List[str]] = None,
    baseline_path: str = "",
) -> AnalysisConfig:
    """The repository-contract configuration rooted at ``root``."""
    config = AnalysisConfig(root=root, baseline_path=baseline_path)
    if src_paths is not None:
        config.src_paths = tuple(src_paths)
    if test_paths is not None:
        config.test_paths = tuple(test_paths)
    return config
