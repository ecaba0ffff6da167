"""Concurrency-API hygiene checks (WR4xx).

The mutating surface of the two stateful cores is small and must stay
explicitly annotated:

* ``IncrementalTagDM`` mutators are **single-writer confined**: they
  take no lock, and one thread at a time may call them (in serving, the
  shard's writer thread).  Each must exist (WR401), and every call site
  in src must sit under an ``# analyze: writer-context`` comment stating
  why its thread is the session's only writer (WR402).  The attributes
  they write are ``confined:writer`` in ``tools/analyze/ownership.py``.
* ``SqliteTaggingStore`` mutators are **self-guarded monitors**: each
  carries ``@locked_by("store.lock")`` (WR401) and its body must
  actually take ``with self._lock:`` (WR403).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.analyze.core import Finding, Project
from tools.analyze.locks import SCAN_DIRS, SCAN_EXCLUDE, _base_attr, _receiver_text

__all__ = [
    "SESSION_MUTATORS",
    "STORE_MUTATORS",
    "WRITER_MARKER",
    "check_call_sites",
    "check_mutator_defs",
    "run",
]

#: Single-writer-confined mutators of the session class.
SESSION_MUTATORS: Tuple[str, ...] = (
    "add_action",
    "add_actions",
    "refresh_topic_model",
)
SESSION_CLASS = ("src/repro/core/incremental.py", "IncrementalTagDM")

#: Self-guarded monitor mutators: every body takes the store lock.
STORE_MUTATORS: Tuple[str, ...] = (
    "register_user",
    "register_item",
    "add_action",
    "append_action",
    "record_request",
    "ingest",
    "sync_action_attrs",
)
STORE_CLASS = ("src/repro/dataset/sqlite_store.py", "SqliteTaggingStore")
STORE_LOCK = "store.lock"

#: The annotation that marks a call site as a declared single-writer
#: context.  Must appear in the enclosing function, before the call.
WRITER_MARKER = "# analyze: writer-context"

#: Session-mutator call sites are only flagged when the receiver looks
#: like a session (``TaggingDataset.add_action`` and the store's
#: ``add_action`` share names with the session mutators).
_SESSION_RECEIVER_HINT = "session"


def _locked_by_names(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for decorator in func.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "locked_by"
        ):
            for arg in decorator.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    names.add(arg.value)
    return names


def _class_methods(
    tree: ast.Module, cls_name: str
) -> Dict[str, ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls_name:
            return {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
    return {}


def check_mutator_defs(
    session_source: str,
    store_source: str,
    session_path: str = SESSION_CLASS[0],
    store_path: str = STORE_CLASS[0],
    session_tree: Optional[ast.Module] = None,
    store_tree: Optional[ast.Module] = None,
) -> List[Finding]:
    """WR401 over both mutator surfaces, WR403 over the store."""
    findings: List[Finding] = []

    if session_tree is None:
        session_tree = ast.parse(session_source, filename=session_path)
    if store_tree is None:
        store_tree = ast.parse(store_source, filename=store_path)
    methods = _class_methods(session_tree, SESSION_CLASS[1])
    for name in SESSION_MUTATORS:
        if name not in methods:
            findings.append(
                Finding(
                    "WR401", session_path, 1,
                    f"declared mutator {SESSION_CLASS[1]}.{name} not found",
                    key=f"missing-mutator:{name}",
                )
            )

    methods = _class_methods(store_tree, STORE_CLASS[1])
    for name in STORE_MUTATORS:
        func = methods.get(name)
        if func is None:
            findings.append(
                Finding(
                    "WR401", store_path, 1,
                    f"declared mutator {STORE_CLASS[1]}.{name} not found",
                    key=f"missing-mutator:{name}",
                )
            )
            continue
        if STORE_LOCK not in _locked_by_names(func):
            findings.append(
                Finding(
                    "WR401", store_path, func.lineno,
                    f"{STORE_CLASS[1]}.{name} mutates store state but is "
                    f"not annotated @locked_by({STORE_LOCK!r})",
                    key=f"unannotated:{STORE_CLASS[1]}.{name}",
                )
            )
            continue
        if not _takes_own_lock(func):
            findings.append(
                Finding(
                    "WR403", store_path, func.lineno,
                    f"{STORE_CLASS[1]}.{name} is a self-guarded monitor "
                    "method but its body never takes `with self._lock:`",
                    key=f"unguarded-body:{name}",
                )
            )
    return findings


def _takes_own_lock(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.With):
            for item in node.items:
                base = _base_attr(item.context_expr)
                if base == ("self", "_lock"):
                    return True
    return False


class _CallSiteScan(ast.NodeVisitor):
    """WR402: session-mutator calls outside a declared writer context."""

    def __init__(self, rel_path: str, source: str) -> None:
        self.rel_path = rel_path
        self.lines = source.splitlines()
        self.findings: List[Finding] = []
        self._func_stack: List[ast.FunctionDef] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        if not isinstance(node.func, ast.Attribute):
            return
        name = node.func.attr
        if name not in SESSION_MUTATORS:
            return
        receiver = _receiver_text(node.func.value)
        if _SESSION_RECEIVER_HINT not in receiver.lower():
            return
        enclosing = self._func_stack[-1] if self._func_stack else None
        if enclosing is not None and self._marker_before(enclosing, node.lineno):
            return
        self.findings.append(
            Finding(
                "WR402", self.rel_path, node.lineno,
                f"{receiver}.{name}() mutates the session outside a declared "
                "writer context: session mutators take no lock, so only the "
                "one thread that owns the session may call them -- add an "
                f"'{WRITER_MARKER}' comment stating why this thread is it",
                key=f"unsynchronized:{name}",
            )
        )

    def _marker_before(self, func: ast.FunctionDef, line: int) -> bool:
        start = func.lineno
        for number in range(start, min(line, len(self.lines) + 1)):
            if WRITER_MARKER in self.lines[number - 1]:
                return True
        return False


def check_call_sites(
    rel_path: str, source: str, tree: Optional[ast.Module] = None
) -> List[Finding]:
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    scan = _CallSiteScan(rel_path, source)
    scan.visit(tree)
    return scan.findings


def run(project: Project) -> List[Finding]:
    findings = check_mutator_defs(
        project.source(SESSION_CLASS[0]),
        project.source(STORE_CLASS[0]),
        session_tree=project.tree(SESSION_CLASS[0]),
        store_tree=project.tree(STORE_CLASS[0]),
    )
    for rel_path in project.python_files(*SCAN_DIRS):
        if rel_path in SCAN_EXCLUDE or rel_path == SESSION_CLASS[0]:
            continue
        findings.extend(
            check_call_sites(
                rel_path, project.source(rel_path), tree=project.tree(rel_path)
            )
        )
    return findings
