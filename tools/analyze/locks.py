"""Lock-discipline checks (LD1xx) over the AST.

* **LD101** -- every ``.acquire()`` must be paired with a ``try/finally``
  release or be a non-blocking probe used as a condition.
* **LD102** -- no blocking call (sqlite, sockets, queue waits, sleeps,
  snapshot/file writes; see ``hierarchy.BLOCKING_CALLS``) lexically
  inside a ``with`` block on a declared *fast-path* lock.
* **LD103** -- every lock assigned to an instance attribute in the
  scanned modules must be declared in ``hierarchy.LOCK_DECLS``, be
  constructed through the witness factories with the declared name, and
  every declaration must correspond to a real construction.

Checkers operate on ``(rel_path, source)`` pairs so the test fixture
corpus can feed them synthetic modules.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from tools.analyze.core import Finding, Project
from tools.analyze.hierarchy import BLOCKING_CALLS, LOCK_DECLS, LockDecl

__all__ = ["SCAN_DIRS", "SCAN_EXCLUDE", "check_file", "run"]

#: Directories whose python files the lock checks scan.
SCAN_DIRS = ("src/repro",)

#: The witness module implements the instrumentation itself (it wraps
#: raw locks and delegates ``acquire``); scanning it would flag its own
#: machinery.
SCAN_EXCLUDE = ("src/repro/core/witness.py",)

_FACTORY_KINDS = {
    "named_lock": "lock",
    "named_rlock": "rlock",
}

#: Queue-style waits are blocking only on queue-ish receivers and only
#: without a timeout.
_RECEIVER_GATED = {
    "put": ("queue",),
    "get": ("queue",),
    "join": ("queue", "thread", "writer", "process", "proc"),
}


def _receiver_text(node: ast.expr) -> str:
    """A dotted rendering of a call receiver (``self._queue`` etc.)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append(_receiver_text(node.func) + "()")
    return ".".join(reversed(parts))


def _base_attr(node: ast.expr) -> Optional[Tuple[str, str]]:
    """Resolve ``self.X`` / ``self.X.method()`` / ``name.X`` to
    ``(receiver, attr)`` where receiver is the base variable name."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        value = node.value
        if isinstance(value, ast.Name):
            return value.id, node.attr
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            # self._lock.acquire -> base attr is _lock
            return value.value.id, value.attr
    return None


class _ModuleScan(ast.NodeVisitor):
    """One pass collecting class/function context for every lock use."""

    def __init__(
        self,
        rel_path: str,
        tree: ast.Module,
        decls: Sequence[LockDecl],
        blocking: Dict[str, str],
    ) -> None:
        self.rel_path = rel_path
        self.tree = tree
        self.blocking = blocking
        self.findings: List[Finding] = []
        self.constructed: List[Tuple[str, str, str]] = []
        self._by_key = {
            (d.module, d.cls, d.attr): d for d in decls if d.module == rel_path
        }
        self._by_attr: Dict[str, List[LockDecl]] = {}
        for decl in decls:
            if decl.module == rel_path:
                self._by_attr.setdefault(decl.attr, []).append(decl)
        self._class_stack: List[str] = []

    # -- context tracking ----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _enclosing_class(self) -> str:
        return self._class_stack[-1] if self._class_stack else ""

    def resolve(self, node: ast.expr) -> Optional[LockDecl]:
        """The declared lock a ``with`` item / receiver refers to."""
        base = _base_attr(node)
        if base is None:
            return None
        receiver, attr = base
        if receiver == "self":
            decl = self._by_key.get((self.rel_path, self._enclosing_class(), attr))
            if decl is not None:
                return decl
        candidates = self._by_attr.get(attr, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- LD103: lock constructions -------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_construction(node)
        self.generic_visit(node)

    def _check_construction(self, node: ast.Assign) -> None:
        value = node.value
        if not isinstance(value, ast.Call):
            return
        func = value.func
        factory = None
        raw = None
        if isinstance(func, ast.Name) and func.id in _FACTORY_KINDS:
            factory = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
            and func.attr in ("Lock", "RLock")
        ):
            raw = func.attr
        else:
            return
        targets = [
            t
            for t in node.targets
            if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        ]
        if not targets:
            return  # locals and module-level locks are out of scope
        attr = targets[0].attr
        key = (self.rel_path, self._enclosing_class(), attr)
        decl = self._by_key.get(key)
        if decl is None:
            self.findings.append(
                Finding(
                    "LD103",
                    self.rel_path,
                    node.lineno,
                    f"lock attribute {self._enclosing_class()}.{attr} is not "
                    "declared in tools/analyze/hierarchy.py (add a LockDecl "
                    "with a rank, or stop constructing a lock here)",
                    key=f"undeclared:{self._enclosing_class()}.{attr}",
                )
            )
            return
        self.constructed.append(key)
        if raw is not None:
            self.findings.append(
                Finding(
                    "LD103",
                    self.rel_path,
                    node.lineno,
                    f"lock {decl.name!r} is constructed as threading.{raw}() "
                    "directly; use the witness factory "
                    f"named_{'r' if raw == 'RLock' else ''}lock({decl.name!r}) "
                    "so the runtime lock-order witness can see it",
                    key=f"raw-construction:{decl.name}",
                )
            )
            return
        # Factory-constructed: the literal name must match the decl and
        # the factory kind must match the declared kind.
        literal = None
        if value.args and isinstance(value.args[0], ast.Constant):
            literal = value.args[0].value
        for keyword in value.keywords:
            if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
                literal = keyword.value.value
        if literal != decl.name:
            self.findings.append(
                Finding(
                    "LD103",
                    self.rel_path,
                    node.lineno,
                    f"lock attribute {decl.cls}.{decl.attr} is named "
                    f"{literal!r} at construction but declared as "
                    f"{decl.name!r} in the hierarchy",
                    key=f"name-mismatch:{decl.name}",
                )
            )
        if _FACTORY_KINDS[factory] != decl.kind:
            self.findings.append(
                Finding(
                    "LD103",
                    self.rel_path,
                    node.lineno,
                    f"lock {decl.name!r} is declared {decl.kind!r} but "
                    f"constructed via {factory}()",
                    key=f"kind-mismatch:{decl.name}",
                )
            )

    # -- LD101: bare acquires ------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_acquires(node)
        self._check_fast_path_blocks(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_acquires(self, func: ast.FunctionDef) -> None:
        for statements in _statement_lists(func):
            for index, stmt in enumerate(statements):
                call = _acquire_call(stmt)
                if call is None:
                    continue
                receiver = ast.dump(call.func.value)  # type: ignore[union-attr]
                if _is_probe(stmt):
                    continue
                if _released_in_finally(stmt, statements, index, receiver):
                    continue
                self.findings.append(
                    Finding(
                        "LD101",
                        self.rel_path,
                        stmt.lineno,
                        f"{_receiver_text(call.func.value)}.acquire() "  # type: ignore[union-attr]
                        "without a with-statement or try/finally release "
                        "-- an exception here leaks the lock",
                        key=f"bare-acquire:{_receiver_text(call.func.value)}",  # type: ignore[union-attr]
                    )
                )

    # -- LD102: blocking calls under fast-path locks --------------------
    def _check_fast_path_blocks(self, func: ast.FunctionDef) -> None:
        for node in ast.walk(func):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                decl = self.resolve(item.context_expr)
                if decl is None or not decl.fast_path:
                    continue
                for line, name, reason in self._blocking_calls(node.body):
                    self.findings.append(
                        Finding(
                            "LD102",
                            self.rel_path,
                            line,
                            f"blocking call .{name}() ({reason}) inside the "
                            f"critical section of fast-path lock "
                            f"{decl.name!r}",
                            key=f"{decl.name}:{name}",
                        )
                    )

    def _blocking_calls(
        self, body: Sequence[ast.stmt]
    ) -> List[Tuple[int, str, str]]:
        found: List[Tuple[int, str, str]] = []

        def walk_pruned(node: ast.AST):
            """ast.walk, but never descending into nested callables --
            code defined under the lock executes elsewhere."""
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                yield child
                yield from walk_pruned(child)

        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in [stmt, *walk_pruned(stmt)]:
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    if node.func.id == "open":
                        found.append((node.lineno, "open", "file open"))
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                name = node.func.attr
                receiver = _receiver_text(node.func.value).lower()
                if name == "sleep":
                    if receiver.split(".")[-1] == "time" or receiver == "time":
                        found.append((node.lineno, name, BLOCKING_CALLS[name]))
                    continue
                if name in _RECEIVER_GATED:
                    hints = _RECEIVER_GATED[name]
                    if not any(hint in receiver for hint in hints):
                        continue
                    if any(kw.arg == "timeout" for kw in node.keywords):
                        continue  # bounded wait: an explicit product decision
                    found.append((node.lineno, name, self.blocking[name]))
                    continue
                if name in self.blocking:
                    found.append((node.lineno, name, self.blocking[name]))
        return found


def _statement_lists(func: ast.FunctionDef):
    """Every statement list in ``func`` (bodies, orelse, finalbody...)."""
    for node in ast.walk(func):
        for field in ("body", "orelse", "finalbody"):
            statements = getattr(node, field, None)
            if isinstance(statements, list) and statements and isinstance(
                statements[0], ast.stmt
            ):
                yield statements


def _acquire_call(stmt: ast.stmt) -> Optional[ast.Call]:
    """The ``X.acquire(...)`` call when ``stmt`` is one (expr or assign)."""
    value = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "acquire"
    ):
        return value
    return None


def _is_probe(stmt: ast.stmt) -> bool:
    """Non-blocking probe: the acquire result is assigned (the caller
    branches on it) rather than discarded."""
    if isinstance(stmt, ast.Assign):
        call = _acquire_call(stmt)
        if call is not None:
            for keyword in call.keywords:
                if keyword.arg == "blocking" and isinstance(
                    keyword.value, ast.Constant
                ):
                    return keyword.value.value is False
            if call.args and isinstance(call.args[0], ast.Constant):
                return call.args[0].value is False
    return False


def _released_in_finally(
    stmt: ast.stmt,
    statements: Sequence[ast.stmt],
    index: int,
    receiver_dump: str,
) -> bool:
    """Accept ``X.acquire()`` immediately followed by ``try/.../finally:
    X.release()``, or an acquire living inside such a try body."""

    def releases(try_node: ast.Try) -> bool:
        for final_stmt in try_node.finalbody:
            for node in ast.walk(final_stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "release"
                    and ast.dump(node.func.value) == receiver_dump
                ):
                    return True
        return False

    for following in statements[index + 1 :]:
        if isinstance(following, ast.Try):
            return releases(following)
        return False  # any other statement between acquire and try: leak window
    return False


#: Also accepted: the acquire sits *inside* a try whose finally releases
#: -- handled naturally because `_statement_lists` yields the try body,
#: and the enclosing Try is not visible from there.  Cover it by a
#: second pass over Try nodes:


def _acquires_inside_guarded_tries(func: ast.FunctionDef) -> List[ast.Call]:
    guarded: List[ast.Call] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Try):
            continue
        for stmt in node.body:
            call = _acquire_call(stmt)
            if call is None:
                continue
            receiver = ast.dump(call.func.value)  # type: ignore[union-attr]
            for final_stmt in node.finalbody:
                for inner in ast.walk(final_stmt):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "release"
                        and ast.dump(inner.func.value) == receiver
                    ):
                        guarded.append(call)
    return guarded


def check_file(
    rel_path: str,
    source: str,
    decls: Sequence[LockDecl] = LOCK_DECLS,
    blocking: Dict[str, str] = BLOCKING_CALLS,
    tree: Optional[ast.Module] = None,
) -> Tuple[List[Finding], List[Tuple[str, str, str]]]:
    """Run LD101/LD102/LD103 over one module's source.

    Returns ``(findings, constructed_decl_keys)``.
    """
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    scan = _ModuleScan(rel_path, tree, decls, blocking)
    # Pre-compute acquires protected by an enclosing try/finally so the
    # per-statement pass can skip them.
    guarded: set = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in _acquires_inside_guarded_tries(node):
                guarded.add(id(call))
    scan.visit(tree)
    findings = [
        finding
        for finding in scan.findings
        if not (
            finding.code == "LD101"
            and _line_in_guarded(tree, finding.line, guarded)
        )
    ]
    return findings, scan.constructed


def _line_in_guarded(tree: ast.Module, line: int, guarded: set) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) in guarded:
            if node.lineno == line:
                return True
    return False


def run(project: Project) -> List[Finding]:
    """LD1xx over the project, plus the decl-coverage reverse check."""
    findings: List[Finding] = []
    constructed: set = set()
    for rel_path in project.python_files(*SCAN_DIRS):
        if rel_path in SCAN_EXCLUDE:
            continue
        file_findings, file_constructed = check_file(
            rel_path, project.source(rel_path), tree=project.tree(rel_path)
        )
        findings.extend(file_findings)
        constructed.update(file_constructed)
    for decl in LOCK_DECLS:
        if (decl.module, decl.cls, decl.attr) not in constructed:
            findings.append(
                Finding(
                    "LD103",
                    decl.module,
                    1,
                    f"declared lock {decl.name!r} "
                    f"({decl.cls}.{decl.attr}) is never constructed -- "
                    "stale declaration in tools/analyze/hierarchy.py",
                    key=f"never-constructed:{decl.name}",
                )
            )
    return findings
