"""REP003 — run-dir writes in the cluster/store modules must be atomic.

A cluster run directory is shared mutable state across hosts: every file it
publishes (queue items, the context, the manifest, beacons, repaired
shard and result logs) may be read mid-write by a concurrent worker.  The repository's
protocol is *atomic publication* — write a temporary sibling, ``os.replace``
into place (:mod:`repro.utils.serialization`) — so readers observe either
nothing or a complete file.  A raw ``open(path, "w")`` in these modules
breaks that protocol; this rule flags every truncate-mode ``open`` (and
``Path.write_text`` / ``write_bytes``) inside the scoped paths.

Append modes are allowed: the JSONL shard/store files are single-writer
append-only by design, and :func:`repro.utils.serialization.read_jsonl`
tolerates a truncated trailing line.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.visitor import Rule, SourceFile, call_name

_PATHLIB_WRITERS = ("write_text", "write_bytes")


def _open_mode(call: ast.Call) -> Optional[str]:
    """The constant mode of an ``open``/``os.fdopen`` call, if statically known."""
    mode_node: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if mode_node is None:
        return "r"  # open() defaults to read
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None  # dynamic mode: treat as suspect


class AtomicWriteRule(Rule):
    rule_id = "REP003"
    title = "run-dir writes must use the atomic helpers"

    def _in_scope(self, relpath: str, config) -> bool:
        if relpath in config.allowed_files:
            return False
        for scoped in config.scoped_paths:
            if relpath == scoped or relpath.startswith(scoped.rstrip("/") + "/"):
                return True
        return False

    def check_file(self, source: SourceFile, context) -> Iterable[Finding]:
        config = context.config.rep003
        if not self._in_scope(source.relpath, config):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in ("open", "os.fdopen"):
                mode = _open_mode(node)
                if mode is not None and mode in config.allowed_modes:
                    continue
                shown = f'"{mode}"' if mode is not None else "a dynamic mode"
                findings.append(
                    source.finding(
                        self.rule_id,
                        node,
                        f"`{name}` with {shown} publishes a partial file to "
                        "concurrent readers — route through "
                        "repro.utils.serialization atomic_write_* helpers",
                    )
                )
            elif isinstance(node.func, ast.Attribute) and (
                node.func.attr in _PATHLIB_WRITERS
            ):
                findings.append(
                    source.finding(
                        self.rule_id,
                        node,
                        f"`.{node.func.attr}()` is a non-atomic write — route "
                        "through repro.utils.serialization atomic_write_* "
                        "helpers",
                    )
                )
        return findings
