"""REP004 — every fused/backend twin seam must be exercised by a test.

Where the repository keeps an optimized hot path next to a reference
implementation behind a keyword flag — ``backend=`` on the injection
constructors (``make_error_fields``, ``make_profiled_chips``, ...),
``error_draw=`` on the training configs — parity tests pin the two sides
bit-identical.  Those tests are the *only* thing holding the twins
together: delete one and the optimized path can drift from the reference
silently.  The flag vocabulary
(:class:`~repro.analysis.config.Rep004Config`) also names ``fused``, which
no source defines today, so a twin added behind it needs a parity test too.

This is a cross-module check.  Seams are collected from the source tree —
any function, method or dataclass field whose name (or whose defaulted
keyword parameter) is a twin flag; for an ``__init__`` parameter or a
dataclass field the seam is addressed by the *class* name.  Each seam must
then be referenced by at least one call in the test tree that passes the
flag explicitly (``make_error_fields(..., backend="sparse")``,
``RandBETConfig(error_draw="sparse")``, ...).  A seam nobody tests with the
flag spelled out is an unpinned twin — a finding at the definition site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.visitor import (
    Rule,
    SourceFile,
    callee_basename,
    has_decorator,
)

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Seam:
    """One (callable, flag) twin seam found in the source tree."""

    callable_name: str  # the name tests would call (function or class)
    flag: str
    source: SourceFile
    node: ast.AST
    symbol: str


def _defaulted_params(node) -> Set[str]:
    """Parameter names of ``node`` that carry a default value."""
    args = node.args
    named: Set[str] = set()
    positional = args.posonlyargs + args.args
    for arg, default in zip(positional[len(positional) - len(args.defaults):],
                            args.defaults):
        if default is not None:
            named.add(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            named.add(arg.arg)
    return named


def collect_seams(sources: Iterable[SourceFile], flags: Tuple[str, ...]) -> List[Seam]:
    seams: List[Seam] = []
    flag_set = set(flags)
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, FUNCTION_NODES):
                hits = _defaulted_params(node) & flag_set
                if not hits:
                    continue
                enclosing = source.enclosing_class(node)
                if node.name == "__init__" and enclosing is not None:
                    callable_name = enclosing.name
                elif node.name.startswith("_"):
                    continue  # private helpers are reached via their public seam
                else:
                    callable_name = node.name
                for flag in sorted(hits):
                    seams.append(
                        Seam(callable_name, flag, source, node, source.qualname(node))
                    )
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                # Dataclass field, e.g. ``error_draw: str = "dense"``.
                if node.target.id not in flag_set or node.value is None:
                    continue
                enclosing = source.enclosing_class(node)
                if enclosing is None or not has_decorator(enclosing, "dataclass"):
                    continue
                seams.append(
                    Seam(
                        enclosing.name,
                        node.target.id,
                        source,
                        node,
                        f"{enclosing.name}.{node.target.id}",
                    )
                )
    return seams


def collect_flagged_calls(
    sources: Iterable[SourceFile], flags: Tuple[str, ...]
) -> Set[Tuple[str, str]]:
    """Every ``(callee name, flag)`` passed as an explicit keyword in tests."""
    flag_set = set(flags)
    references: Set[Tuple[str, str]] = set()
    for source in sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = callee_basename(node)
            if callee is None:
                continue
            for keyword in node.keywords:
                if keyword.arg in flag_set:
                    references.add((callee, keyword.arg))
    return references


class ParitySeamRule(Rule):
    rule_id = "REP004"
    title = "every twin-flag seam is exercised by a test"

    def check_project(self, context) -> Iterable[Finding]:
        config = context.config.rep004
        seams = collect_seams(context.src_files, config.flags)
        references = collect_flagged_calls(context.test_files, config.flags)
        findings: List[Finding] = []
        seen: Set[Tuple[str, str]] = set()
        for seam in seams:
            key = (seam.callable_name, seam.flag)
            if key in seen:
                continue  # one finding per seam, not per overload
            seen.add(key)
            if key not in references:
                findings.append(
                    seam.source.finding(
                        self.rule_id,
                        seam.node,
                        f"twin seam `{seam.callable_name}({seam.flag}=...)` is "
                        "never exercised with the flag spelled out by any "
                        "test — add a parity test or the twins can drift "
                        "silently",
                        symbol=seam.symbol,
                    )
                )
        return findings
