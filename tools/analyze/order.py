"""Deadlock-hierarchy checks (LH2xx).

* **LH201** -- lexically nested ``with`` blocks on declared locks must
  acquire in strictly increasing :data:`hierarchy.LOCK_RANK` order.
  Same-name nesting is also flagged unless the lock is an rlock (a
  non-reentrant lock nested in itself is a guaranteed self-deadlock).
* **LH202** -- the runtime hierarchy tuple in ``repro/core/witness.py``
  must be byte-for-byte the analyzer's :data:`hierarchy.LOCK_ORDER`,
  and every declared lock name must appear in it exactly once.

LH201 is deliberately *lexical*: it catches orderings visible in a
single function body.  Cross-function orderings are the runtime
witness's job (``TAGDM_LOCK_WITNESS=1``) -- the two together are the
check; neither alone is.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from tools.analyze.core import Finding, Project
from tools.analyze.hierarchy import (
    LOCK_DECLS,
    LOCK_ORDER,
    LOCK_RANK,
    WITNESS_MODULE,
    LockDecl,
)
from tools.analyze.locks import SCAN_DIRS, SCAN_EXCLUDE, _base_attr

__all__ = ["check_file", "check_witness_module", "run"]


def _resolve(
    rel_path: str,
    cls: str,
    node: ast.expr,
    decls: Sequence[LockDecl],
) -> Optional[LockDecl]:
    base = _base_attr(node)
    if base is None:
        return None
    receiver, attr = base
    if receiver == "self":
        for decl in decls:
            if (decl.module, decl.cls, decl.attr) == (rel_path, cls, attr):
                return decl
    candidates = [
        decl for decl in decls if decl.module == rel_path and decl.attr == attr
    ]
    if len(candidates) == 1:
        return candidates[0]
    return None


class _NestingScan(ast.NodeVisitor):
    def __init__(self, rel_path: str, decls: Sequence[LockDecl]) -> None:
        self.rel_path = rel_path
        self.decls = decls
        self.findings: List[Finding] = []
        self._class_stack: List[str] = []
        self._held: List[Tuple[str, int]] = []  # (lock name, line acquired)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested def runs later, on a fresh stack -- locks held at the
        # definition site are not held at call time.
        saved, self._held = self._held, []
        self.generic_visit(node)
        self._held = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        cls = self._class_stack[-1] if self._class_stack else ""
        acquired: List[str] = []
        for item in node.items:
            decl = _resolve(self.rel_path, cls, item.context_expr, self.decls)
            if decl is None:
                continue
            self._note(decl, item.context_expr, node.lineno)
            self._held.append((decl.name, node.lineno))
            acquired.append(decl.name)
        self.generic_visit(node)
        for _ in acquired:
            self._held.pop()

    def _note(self, decl: LockDecl, expr: ast.expr, line: int) -> None:
        for held_name, held_line in self._held:
            if held_name == decl.name:
                if decl.kind == "rlock":
                    continue  # reentrant by construction
                self.findings.append(
                    Finding(
                        "LH201",
                        self.rel_path,
                        line,
                        f"lock {decl.name!r} ({decl.kind}) acquired while "
                        f"already held (outer acquire at line {held_line}) "
                        "-- self-deadlock",
                        key=f"self-nest:{decl.name}",
                    )
                )
                continue
            if LOCK_RANK.get(held_name, -1) >= LOCK_RANK.get(decl.name, -1):
                self.findings.append(
                    Finding(
                        "LH201",
                        self.rel_path,
                        line,
                        f"lock {decl.name!r} acquired while holding "
                        f"{held_name!r} (outer acquire at line {held_line}), "
                        "inverting the canonical order in "
                        "tools/analyze/hierarchy.py",
                        key=f"inversion:{held_name}->{decl.name}",
                    )
                )


def check_file(
    rel_path: str,
    source: str,
    decls: Sequence[LockDecl] = LOCK_DECLS,
    tree: Optional[ast.Module] = None,
) -> List[Finding]:
    """LH201 over one module's source."""
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    scan = _NestingScan(rel_path, decls)
    scan.visit(tree)
    return scan.findings


def check_witness_module(
    source: str,
    expected_order: Sequence[str] = LOCK_ORDER,
    rel_path: str = WITNESS_MODULE,
    tree: Optional[ast.Module] = None,
) -> List[Finding]:
    """LH202: parse the runtime module and diff its LOCK_HIERARCHY."""
    findings: List[Finding] = []
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    runtime: Optional[Tuple[str, ...]] = None
    line = 1
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "LOCK_HIERARCHY" for t in targets
        ):
            continue
        line = node.lineno
        if isinstance(value, (ast.Tuple, ast.List)) and all(
            isinstance(elt, ast.Constant) for elt in value.elts
        ):
            runtime = tuple(elt.value for elt in value.elts)
        break
    if runtime is None:
        findings.append(
            Finding(
                "LH202",
                rel_path,
                1,
                "no literal LOCK_HIERARCHY tuple found in the witness module",
                key="missing-hierarchy",
            )
        )
        return findings
    if tuple(runtime) != tuple(expected_order):
        missing = [n for n in expected_order if n not in runtime]
        extra = [n for n in runtime if n not in expected_order]
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"extra {extra}")
        if not detail:
            detail.append("same names, different order")
        findings.append(
            Finding(
                "LH202",
                rel_path,
                line,
                "runtime LOCK_HIERARCHY drifted from "
                f"tools/analyze/hierarchy.LOCK_ORDER ({'; '.join(detail)})",
                key="hierarchy-drift",
            )
        )
    return findings


def run(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for rel_path in project.python_files(*SCAN_DIRS):
        if rel_path in SCAN_EXCLUDE:
            continue
        findings.extend(
            check_file(
                rel_path, project.source(rel_path), tree=project.tree(rel_path)
            )
        )
    findings.extend(
        check_witness_module(
            project.source(WITNESS_MODULE), tree=project.tree(WITNESS_MODULE)
        )
    )
    # Every declared name must rank somewhere; every rank must be used.
    declared = {decl.name for decl in LOCK_DECLS}
    for name in sorted(declared - set(LOCK_ORDER)):
        findings.append(
            Finding(
                "LH202",
                "tools/analyze/hierarchy.py",
                1,
                f"declared lock {name!r} has no rank in LOCK_ORDER",
                key=f"unranked:{name}",
            )
        )
    for name in sorted(set(LOCK_ORDER) - declared):
        findings.append(
            Finding(
                "LH202",
                "tools/analyze/hierarchy.py",
                1,
                f"ranked name {name!r} has no LockDecl",
                key=f"undeclared-rank:{name}",
            )
        )
    return findings
