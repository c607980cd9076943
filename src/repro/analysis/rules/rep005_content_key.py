"""REP005 — every spec field must be folded into the content-key hash.

A cell's content key is the cache identity of its result: the store serves
a hit whenever keys match, across processes, hosts and re-runs.  Any field
of :class:`~repro.runtime.spec.EvalJob` or :class:`SweepSpec` that affects
a result but is *not* hashed therefore produces silent cache corruption —
two different evaluations sharing one key.

The rule reads the spec module's AST and cross-checks three sets:

* **fields** — ``EvalJob`` dataclass fields plus ``SweepSpec.__init__``'s
  public ``self.*`` data attributes;
* **payload keys** — string keys written into the ``_content_key`` payload
  (its dict literal, ``payload[...] = ...`` assignments, and the ``extra``
  dict literals at every ``_content_key`` call site);
* **coverage** — the configured mapping for fields hashed indirectly
  (``model_key`` through the model digest, ``index`` through the per-index
  field/chip digest), and the configured exemptions with reasons.

A field in none of the three is a finding, as is a configured coverage key
that no longer exists in the payload (the mapping rotted).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.visitor import Rule, SourceFile, has_decorator


def _class_def(tree: ast.AST, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _dataclass_fields(node: ast.ClassDef) -> List[ast.AnnAssign]:
    return [
        stmt
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _init_self_attrs(node: ast.ClassDef) -> List[ast.Assign]:
    """Public ``self.X = ...`` statements of the class ``__init__``."""
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            assigns = []
            for child in ast.walk(stmt):
                if not isinstance(child, ast.Assign):
                    continue
                for target in child.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and not target.attr.startswith("_")
                    ):
                        assigns.append(child)
            return assigns
    return []


def _payload_keys(source: SourceFile, key_method: str) -> Set[str]:
    """String keys folded into the content-key payload."""
    keys: Set[str] = set()
    method: Optional[ast.FunctionDef] = None
    for node in ast.walk(source.tree):
        if isinstance(node, ast.FunctionDef) and node.name == key_method:
            method = node
            break
    if method is not None:
        for node in ast.walk(method):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
    # ``extra`` dict literals at call sites of the key method.
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != key_method:
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Dict):
                for key in arg.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
    return keys


class ContentKeyRule(Rule):
    rule_id = "REP005"
    title = "spec fields are folded into the content-key hash"

    def check_project(self, context) -> Iterable[Finding]:
        config = context.config.rep005
        source = context.file_by_relpath(config.spec_path)
        if source is None:
            return ()  # spec module absent from the scanned tree
        findings: List[Finding] = []
        payload_keys = _payload_keys(source, config.key_method)
        if not payload_keys:
            findings.append(
                source.finding(
                    self.rule_id,
                    source.tree,
                    f"no content-key payload found (expected `{config.key_method}`)",
                    symbol=config.key_method,
                )
            )
            return findings

        def check_field(name: str, node: ast.AST, owner: str) -> None:
            if name in config.exempt:
                return
            if name in payload_keys:
                return
            mapped = config.coverage.get(name)
            if mapped is None:
                findings.append(
                    source.finding(
                        self.rule_id,
                        node,
                        f"`{owner}.{name}` is not folded into the content-key "
                        "hash and has no coverage mapping or exemption — two "
                        "cells differing only in it would share a cache key",
                        symbol=f"{owner}.{name}",
                    )
                )
            else:
                missing = [key for key in mapped if key not in payload_keys]
                if len(missing) == len(mapped):
                    findings.append(
                        source.finding(
                            self.rule_id,
                            node,
                            f"`{owner}.{name}` is mapped to payload keys "
                            f"{list(mapped)} but none of them exist in the "
                            "content-key payload — the coverage mapping "
                            "rotted",
                            symbol=f"{owner}.{name}",
                        )
                    )

        job_class = _class_def(source.tree, config.job_class)
        if job_class is not None and has_decorator(job_class, "dataclass"):
            for field_node in _dataclass_fields(job_class):
                check_field(field_node.target.id, field_node, config.job_class)
        else:
            findings.append(
                source.finding(
                    self.rule_id,
                    source.tree,
                    f"expected dataclass `{config.job_class}` in {config.spec_path}",
                    symbol=config.job_class,
                )
            )
        spec_class = _class_def(source.tree, config.spec_class)
        if spec_class is not None:
            seen: Set[str] = set()
            for assign in _init_self_attrs(spec_class):
                for target in assign.targets:
                    if isinstance(target, ast.Attribute) and target.attr not in seen:
                        seen.add(target.attr)
                        check_field(target.attr, assign, config.spec_class)
        return findings
