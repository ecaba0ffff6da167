"""Shared-state race detection (RC5xx) over the AST.

Every instance attribute of a declared concurrency class (the
``tools/analyze/ownership.py`` table plus any class carrying an
``@owned_by(...)`` decorator) belongs to an ownership domain; this
checker flags writes that escape their domain:

* **RC501** -- a write to an attribute with *no* ownership declaration.
  Completeness is the point: the table must name every attribute, so a
  new field cannot silently join a shared class unclassified.
* **RC502** -- an attribute store / ``del`` / rebind outside the
  domain's writer context (post-init write to ``init-only`` or
  ``frozen-after-publish`` state; a ``lock:<name>`` write without the
  lock; a ``confined:<label>`` write from a non-confined method).
* **RC503** -- a *container or nested-object* mutation outside the
  domain (``self.X[...] = ...``, ``self.X.append(...)``,
  ``self.X.Y = ...``); same context rules as RC502.
* **RC504** -- mutation of state reached through a published view
  (receivers named ``view`` / ``*_view``) anywhere in the scanned tree:
  the static half of the publication sanitizer.
* **RC505** -- a stale declaration: a declared attribute the class
  never writes (or a declared class the module no longer defines).

Writer contexts reuse the lock-discipline machinery: a lexical
``with`` on the declared lock, an enclosing ``@locked_by("<name>")``
decorator, or an ``# analyze: writer-context`` comment.  A write site
may also declare its attribute inline with ``# analyze: owner=<domain>``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Tuple

from tools.analyze.core import Finding, Project
from tools.analyze.hierarchy import LOCK_DECLS, LockDecl
from tools.analyze.locks import SCAN_DIRS, SCAN_EXCLUDE, _base_attr, _receiver_text
from tools.analyze.ownership import (
    OWNERSHIP_DECLS,
    OwnershipDecl,
    VALID_DOMAIN_PREFIXES,
)
from tools.analyze.writers import WRITER_MARKER, _locked_by_names

__all__ = [
    "MUTATOR_METHODS",
    "OWNER_MARKER",
    "RACES_EXCLUDE",
    "check_file",
    "run",
]

#: The sanitizer module is the runtime enforcement machinery itself --
#: its ``seal_view`` legitimately rebinds ``view.groups`` to install the
#: raise-on-write proxy.
RACES_EXCLUDE = SCAN_EXCLUDE + ("src/repro/core/sanitizer.py",)

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "update",
        "setdefault", "popitem", "add", "discard", "sort", "reverse",
    }
)

OWNER_MARKER = "# analyze: owner="
_OWNER_RE = re.compile(r"#\s*analyze:\s*owner=([A-Za-z0-9_.:-]+)")


def _valid_domain(domain: str) -> bool:
    return domain in ("init-only", "frozen-after-publish") or any(
        domain.startswith(prefix) and len(domain) > len(prefix)
        for prefix in VALID_DOMAIN_PREFIXES
        if prefix.endswith(":")
    )


def _decorator_domains(node: ast.ClassDef) -> Dict[str, str]:
    """The attr->domain map from an ``@owned_by(...)`` class decorator."""
    domains: Dict[str, str] = {}
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "owned_by"
        ):
            for keyword in decorator.keywords:
                if keyword.arg and isinstance(keyword.value, ast.Constant):
                    domains[keyword.arg] = keyword.value.value
    return domains


def _self_root_attr(node: ast.expr) -> Optional[str]:
    """The first attribute after ``self`` in an access chain, or None.

    ``self.session.groups[0]`` -> ``session``; ``view.groups`` -> None.
    A call in the chain (``self.shard(name).insert(...)``) ends the
    walk: the receiver is a method's *return value*, not attribute
    state, and method names legitimately collide with container
    mutators (``insert``, ``update``...).
    """
    chain: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        else:
            node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


class _Write:
    __slots__ = ("attr", "line", "kind", "detail")

    def __init__(self, attr: str, line: int, kind: str, detail: str) -> None:
        self.attr = attr
        self.line = line
        self.kind = kind  # "store" (RC502 shape) or "mutate" (RC503 shape)
        self.detail = detail


class _ClassScan(ast.NodeVisitor):
    """Collect every ``self``-rooted write inside one declared class."""

    def __init__(self, lines: Sequence[str]) -> None:
        self.lines = lines
        #: (write, enclosing function name, lock labels held, enclosing
        #: function node) -- contexts reset at nested function defs,
        #: because closures may run on other threads.
        self.writes: List[Tuple[_Write, str, Tuple[str, ...], Optional[ast.FunctionDef]]] = []
        self._func_stack: List[ast.FunctionDef] = []
        self._with_labels: List[str] = []
        self._lock_by_key = {
            (d.module, d.cls, d.attr): d for d in LOCK_DECLS
        }
        self._lock_by_attr: Dict[str, List[LockDecl]] = {}
        for decl in LOCK_DECLS:
            self._lock_by_attr.setdefault(decl.attr, []).append(decl)
        self.rel_path = ""
        self.cls_name = ""

    # -- lock resolution -----------------------------------------------
    def _resolve_lock(self, node: ast.expr) -> Optional[LockDecl]:
        base = _base_attr(node)
        if base is None:
            return None
        receiver, attr = base
        if receiver == "self":
            decl = self._lock_by_key.get((self.rel_path, self.cls_name, attr))
            if decl is not None:
                return decl
        candidates = self._lock_by_attr.get(attr, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _with_label(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Call):
            return None  # context-manager calls are not lock holds
        decl = self._resolve_lock(expr)
        return decl.name if decl is not None else None

    # -- context tracking ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node)
        saved, self._with_labels = self._with_labels, []
        self.generic_visit(node)
        self._with_labels = saved
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # nested classes have their own scan

    def visit_With(self, node: ast.With) -> None:
        labels = [
            label
            for item in node.items
            if (label := self._with_label(item.context_expr)) is not None
        ]
        self._with_labels.extend(labels)
        self.generic_visit(node)
        for _ in labels:
            self._with_labels.pop()

    def _record(self, attr: str, line: int, kind: str, detail: str) -> None:
        func = self._func_stack[-1] if self._func_stack else None
        name = func.name if func is not None else "<class body>"
        self.writes.append(
            (_Write(attr, line, kind, detail), name, tuple(self._with_labels), func)
        )

    # -- write events ---------------------------------------------------
    def _record_target(self, target: ast.expr, line: int, deleting: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, line, deleting)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, line, deleting)
            return
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                verb = "del of" if deleting else "store to"
                self._record(target.attr, line, "store", f"{verb} self.{target.attr}")
                return
            attr = _self_root_attr(target.value)
            if attr is not None:
                self._record(
                    attr, line, "mutate",
                    f"nested store self.{attr}...{target.attr} =",
                )
            return
        if isinstance(target, ast.Subscript):
            attr = _self_root_attr(target.value)
            if attr is not None:
                verb = "del" if deleting else "store"
                self._record(
                    attr, line, "mutate", f"subscript {verb} on self.{attr}[...]"
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node.lineno, deleting=False)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node.lineno, deleting=False)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node.lineno, deleting=False)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target, node.lineno, deleting=True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            attr = _self_root_attr(func.value)
            if attr is not None:
                receiver = _receiver_text(func.value)
                self._record(
                    attr, node.lineno, "mutate", f"{receiver}.{func.attr}()"
                )
        self.generic_visit(node)


def _marker_before(
    lines: Sequence[str], func: Optional[ast.FunctionDef], line: int, marker: str
) -> bool:
    start = func.lineno if func is not None else line
    for number in range(start, min(line + 1, len(lines) + 1)):
        if marker in lines[number - 1]:
            return True
    return False


def _inline_owner(lines: Sequence[str], line: int) -> Optional[str]:
    for number in (line, line - 1):
        if 1 <= number <= len(lines):
            match = _OWNER_RE.search(lines[number - 1])
            if match:
                return match.group(1)
    return None


class _ViewMutationScan(ast.NodeVisitor):
    """RC504: writes reached through a published-view receiver."""

    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.findings: List[Finding] = []

    @staticmethod
    def _view_chain(node: ast.expr) -> Optional[str]:
        text = _receiver_text(node)
        if not text:
            return None
        parts = text.split(".")
        if parts[0] in ("self", "cls"):
            return None  # instance state: covered by the class-domain scan
        for part in parts:
            name = part[:-2] if part.endswith("()") else part
            if name == "view" or name.endswith("_view"):
                return text
        return None

    def _flag(self, node: ast.expr, line: int, what: str) -> None:
        chain = self._view_chain(node)
        if chain is None:
            return
        self.findings.append(
            Finding(
                "RC504", self.rel_path, line,
                f"{what} reaches state published through view {chain!r}: a "
                "frozen SessionView (and everything hanging off it) is "
                "immutable after freeze() -- mutate the live session on "
                "the shard's writer thread and publish a new epoch",
                key=f"view-mutation:{chain}:{what.split(' ')[0]}",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                self._flag(target.value, node.lineno, f"store to .{target.attr}")
            elif isinstance(target, ast.Subscript):
                self._flag(target.value, node.lineno, "subscript store")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            self._flag(node.target.value, node.lineno, f"store to .{node.target.attr}")
        elif isinstance(node.target, ast.Subscript):
            self._flag(node.target.value, node.lineno, "subscript store")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._flag(target.value, node.lineno, "del")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            self._flag(func.value, node.lineno, f"mutator .{func.attr}()")
        self.generic_visit(node)


def _check_class(
    rel_path: str,
    cls_node: ast.ClassDef,
    decl: Optional[OwnershipDecl],
    lines: Sequence[str],
) -> List[Finding]:
    findings: List[Finding] = []
    cls_name = cls_node.name
    attrs: Dict[str, str] = dict(decl.attrs) if decl is not None else {}
    attrs.update(_decorator_domains(cls_node))
    init_methods = decl.init_methods if decl is not None else ("__init__",)
    confined = dict(decl.confined_writers) if decl is not None else {}

    for attr, domain in sorted(attrs.items()):
        if not _valid_domain(domain):
            findings.append(
                Finding(
                    "RC501", rel_path, cls_node.lineno,
                    f"{cls_name}.{attr} declares unknown ownership domain "
                    f"{domain!r} (expected init-only, frozen-after-publish, "
                    "lock:<name> or confined:<label>)",
                    key=f"bad-domain:{cls_name}.{attr}",
                )
            )

    scan = _ClassScan(lines)
    scan.rel_path = rel_path
    scan.cls_name = cls_name
    for item in cls_node.body:
        scan.visit(item)

    written = {write.attr for write, _, _, _ in scan.writes}

    for write, method, held, func in scan.writes:
        domain = _inline_owner(lines, write.line) or attrs.get(write.attr)
        if domain is None:
            findings.append(
                Finding(
                    "RC501", rel_path, write.line,
                    f"{cls_name}.{write.attr} has no ownership declaration "
                    f"({write.detail} in {method}); add it to "
                    "tools/analyze/ownership.py, to the class's @owned_by "
                    f"decorator, or declare inline with '{OWNER_MARKER}...'",
                    key=f"undeclared:{cls_name}.{write.attr}",
                )
            )
            continue
        if method in init_methods:
            continue  # construction happens-before publication
        code = "RC502" if write.kind == "store" else "RC503"
        if domain == "init-only":
            findings.append(
                Finding(
                    code, rel_path, write.line,
                    f"{cls_name}.{write.attr} is init-only but {method} "
                    f"writes it after construction ({write.detail})",
                    key=f"post-init:{cls_name}.{write.attr}:{method}",
                )
            )
        elif domain == "frozen-after-publish":
            findings.append(
                Finding(
                    code, rel_path, write.line,
                    f"{cls_name}.{write.attr} is frozen after publication "
                    f"but {method} mutates it ({write.detail}); published "
                    "state is immutable -- build a replacement and publish "
                    "a new epoch",
                    key=f"post-publish:{cls_name}.{write.attr}:{method}",
                )
            )
        elif domain.startswith("lock:"):
            lock_name = domain[len("lock:"):]
            if lock_name in held:
                continue
            if func is not None and lock_name in _locked_by_names(func):
                continue
            if _marker_before(lines, func, write.line, WRITER_MARKER):
                continue
            findings.append(
                Finding(
                    code, rel_path, write.line,
                    f"{cls_name}.{write.attr} is guarded by {lock_name!r} "
                    f"but {method} writes it without the lock "
                    f"({write.detail}); wrap the write in the lock, tag the "
                    f"method @locked_by({lock_name!r}), or add an "
                    f"'{WRITER_MARKER}' comment",
                    key=f"unlocked:{cls_name}.{write.attr}:{method}",
                )
            )
        elif domain.startswith("confined:"):
            label = domain[len("confined:"):]
            allowed = confined.get(label, ())
            if method in allowed:
                continue
            if _marker_before(lines, func, write.line, WRITER_MARKER):
                continue
            findings.append(
                Finding(
                    code, rel_path, write.line,
                    f"{cls_name}.{write.attr} is confined to "
                    f"{', '.join(allowed) or 'no declared writers'} "
                    f"({domain}) but {method} writes it ({write.detail})",
                    key=f"unconfined:{cls_name}.{write.attr}:{method}",
                )
            )

    for attr in sorted(attrs):
        if attr not in written:
            findings.append(
                Finding(
                    "RC505", rel_path, cls_node.lineno,
                    f"declared attribute {cls_name}.{attr} is never written "
                    "in the class -- stale ownership declaration",
                    key=f"stale-attr:{cls_name}.{attr}",
                )
            )
    return findings


def check_file(
    rel_path: str,
    source: str,
    decls: Sequence[OwnershipDecl] = OWNERSHIP_DECLS,
    tree: Optional[ast.Module] = None,
) -> List[Finding]:
    """RC5xx over one module.  Fixture tests pass synthetic sources."""
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    lines = source.splitlines()
    findings: List[Finding] = []
    by_name = {d.cls: d for d in decls if d.module == rel_path}
    seen: set = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decl = by_name.get(node.name)
        if decl is None and not _decorator_domains(node):
            continue
        seen.add(node.name)
        findings.extend(_check_class(rel_path, node, decl, lines))
    for name, decl in sorted(by_name.items()):
        if name not in seen:
            findings.append(
                Finding(
                    "RC505", rel_path, 1,
                    f"declared class {name} not found in {rel_path} -- "
                    "stale ownership declaration",
                    key=f"stale-class:{name}",
                )
            )
    view_scan = _ViewMutationScan(rel_path)
    view_scan.visit(tree)
    findings.extend(view_scan.findings)
    return findings


def run(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for rel_path in project.python_files(*SCAN_DIRS):
        if rel_path in RACES_EXCLUDE:
            continue
        findings.extend(
            check_file(
                rel_path, project.source(rel_path), tree=project.tree(rel_path)
            )
        )
    return findings
