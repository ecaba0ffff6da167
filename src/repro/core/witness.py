"""Runtime lock-order witness: named locks, acquisition edges, inversions.

The serving stack's deadlock freedom rests on one global acquisition
order (documented in TOOLING.md and statically checked by
``tools/analyze``).  This module is the *runtime* half of that contract:
every lock in the concurrency-bearing layers is constructed through
:func:`named_lock` / :func:`named_rlock`, and when the ``TAGDM_LOCK_WITNESS``
environment variable is set the factories return thin wrapper objects
that report every acquisition to a process-wide
:class:`LockOrderWitness`.

The witness keeps a per-thread stack of held lock names and a global
edge set ``outer -> inner`` (first-observation stack traces included).
An *inversion* is either

* a **rank violation**: an observed edge ``A -> B`` where ``A`` ranks
  *below* ``B`` in :data:`LOCK_HIERARCHY`, or
* a **cycle** among observed edges (covers locks outside the declared
  hierarchy too).

With the environment variable unset (the default, and the production
configuration) the factories return plain :mod:`threading` primitives
-- zero wrappers, zero overhead, nothing monkeypatched.

``LOCK_HIERARCHY`` here is the canonical runtime copy; the static
analyzer (``tools/analyze/hierarchy.py``) carries the same order with
per-lock metadata and cross-checks the two tuples so they cannot drift.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LOCK_HIERARCHY",
    "WITNESS_ENV",
    "LockOrderViolation",
    "LockOrderWitness",
    "get_witness",
    "locked_by",
    "named_lock",
    "named_rlock",
    "reset_witness",
    "witness_enabled",
]

WITNESS_ENV = "TAGDM_LOCK_WITNESS"

#: Canonical lock acquisition order, outermost first: a thread holding
#: lock ``i`` may only acquire locks with index ``> i``.  Locks that are
#: never held together are still totally ordered here -- a total order
#: is trivially cycle-free and spares every future PR a case analysis.
LOCK_HIERARCHY: Tuple[str, ...] = (
    "fleet.lifecycle",  # FleetWorker.lifecycle_lock: spawn/stop transitions
    "fleet.registry",  # TagDMFleet._lock: worker handle state
    "server.registry",  # TagDMServer._registry_lock: corpus registry
    "shard.submit",  # CorpusShard._submit_lock: closed-check + enqueue
    "shard.stats",  # CorpusShard._stats_lock: counters, view, epoch pins
    "subs.state",  # SubscriptionEvaluator._lock: pending view + counters
    "store.lock",  # SqliteTaggingStore._lock: connection serialisation
    "view.build",  # SessionView._build_lock: lazy derived-state builds
    "placement.table",  # PlacementTable._lock: corpus -> worker map
    "router.breakers",  # TagDMRouter._breakers_lock: breaker registry
    "router.pools",  # TagDMRouter._pools_lock: per-worker pools
    "router.stats",  # TagDMRouter._stats_lock: forwarding counters
    "client.placement",  # FleetClient._lock: placement cache + clients
    "pool.lock",  # HttpConnectionPool._lock: idle connection list
    "breaker.state",  # CircuitBreaker._lock: state machine fields
    "budget.rng",  # RetryBudget._lock: jitter RNG draws
    "faultplan.state",  # FaultPlan._lock: arrival/fired counters
)

_RANK: Dict[str, int] = {name: index for index, name in enumerate(LOCK_HIERARCHY)}


def witness_enabled() -> bool:
    """Whether the lock-order witness is armed (``TAGDM_LOCK_WITNESS``)."""
    return os.environ.get(WITNESS_ENV, "").strip() not in ("", "0", "false")


class LockOrderViolation(AssertionError):
    """Raised by :meth:`LockOrderWitness.assert_clean` on any inversion."""


class _Edge:
    """First observation of one ``outer -> inner`` acquisition edge."""

    __slots__ = ("outer", "inner", "count", "thread_name", "stack")

    def __init__(self, outer: str, inner: str, thread_name: str, stack: str) -> None:
        self.outer = outer
        self.inner = inner
        self.count = 1
        self.thread_name = thread_name
        self.stack = stack


class LockOrderWitness:
    """Records lock-acquisition edges and reports order inversions.

    Thread-safe; one process-wide instance (see :func:`get_witness`)
    aggregates edges across every thread.  Reentrant holds of the same
    name (RLock semantics) are collapsed -- only the outermost hold
    contributes edges.
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()  # internal; never witnessed
        self._held = threading.local()
        self._edges: Dict[Tuple[str, str], _Edge] = {}

    # -- per-thread held stack ------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._held, "names", None)
        if stack is None:
            stack = []
            self._held.names = stack
        return stack

    def held_by_current_thread(self, name: str) -> bool:
        """Whether the calling thread currently holds lock ``name``."""
        return name in self._stack()

    # -- recording ------------------------------------------------------
    def note_acquire(self, name: str) -> None:
        """Record that the calling thread acquired lock ``name``."""
        stack = self._stack()
        if name not in stack:  # reentrant holds add no edges
            new_edges = [(outer, name) for outer in stack if (outer, name) not in self._edges]
            if new_edges:
                # strip only note_acquire's own frame: the caller (the
                # acquiring code, or the _WitnessedLock wrapper above
                # it) is exactly what a violation report needs to show.
                trace = "".join(traceback.format_stack(limit=24)[:-1])
                thread_name = threading.current_thread().name
                with self._guard:
                    for key in new_edges:
                        if key not in self._edges:
                            self._edges[key] = _Edge(key[0], key[1], thread_name, trace)
                        else:
                            self._edges[key].count += 1
            else:
                with self._guard:
                    for outer in stack:
                        edge = self._edges.get((outer, name))
                        if edge is not None:
                            edge.count += 1
        stack.append(name)

    def note_release(self, name: str) -> None:
        """Record that the calling thread released lock ``name``."""
        stack = self._stack()
        # Release the innermost hold of this name (LIFO discipline).
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    # -- reporting ------------------------------------------------------
    def edges(self) -> Dict[Tuple[str, str], _Edge]:
        """A snapshot of every observed ``outer -> inner`` edge."""
        with self._guard:
            return dict(self._edges)

    def inversions(self) -> List[str]:
        """Human-readable reports, one per rank violation or cycle.

        Each report carries the first-observation stack trace of every
        offending edge, so an A->B / B->A inversion shows *both* sides.
        """
        edges = self.edges()
        reports: List[str] = []
        for (outer, inner), edge in sorted(edges.items()):
            outer_rank = _RANK.get(outer)
            inner_rank = _RANK.get(inner)
            if outer_rank is None or inner_rank is None:
                continue  # undeclared names are covered by cycle detection
            if outer_rank > inner_rank:
                report = [
                    f"rank violation: {outer!r} (rank {outer_rank}) held while "
                    f"acquiring {inner!r} (rank {inner_rank}); the hierarchy "
                    f"orders {inner!r} outside {outer!r}",
                    f"  observed {edge.count}x, first on thread "
                    f"{edge.thread_name!r}:",
                    _indent(edge.stack),
                ]
                reverse = edges.get((inner, outer))
                if reverse is not None:
                    report.append(
                        f"  reverse edge {inner!r} -> {outer!r} observed "
                        f"{reverse.count}x, first on thread "
                        f"{reverse.thread_name!r}:"
                    )
                    report.append(_indent(reverse.stack))
                reports.append("\n".join(report))
        for cycle in self._cycles(edges):
            lines = [
                "cycle among observed acquisition edges: "
                + " -> ".join(cycle + [cycle[0]])
            ]
            for outer, inner in zip(cycle, cycle[1:] + [cycle[0]]):
                edge = edges[(outer, inner)]
                lines.append(
                    f"  edge {outer!r} -> {inner!r} ({edge.count}x, first on "
                    f"thread {edge.thread_name!r}):"
                )
                lines.append(_indent(edge.stack))
            reports.append("\n".join(lines))
        return reports

    @staticmethod
    def _cycles(edges: Dict[Tuple[str, str], _Edge]) -> List[List[str]]:
        graph: Dict[str, List[str]] = {}
        for outer, inner in edges:
            graph.setdefault(outer, []).append(inner)
        seen: set = set()
        cycles: List[List[str]] = []
        reported: set = set()

        def visit(node: str, path: List[str], on_path: set) -> None:
            seen.add(node)
            path.append(node)
            on_path.add(node)
            for neighbour in sorted(graph.get(node, [])):
                if neighbour in on_path:
                    cycle = path[path.index(neighbour):]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        cycles.append(list(cycle))
                elif neighbour not in seen:
                    visit(neighbour, path, on_path)
            path.pop()
            on_path.discard(node)

        for node in sorted(graph):
            if node not in seen:
                visit(node, [], set())
        return cycles

    def assert_clean(self) -> None:
        """Raise :class:`LockOrderViolation` if any inversion was seen."""
        reports = self.inversions()
        if reports:
            raise LockOrderViolation(
                f"{len(reports)} lock-order inversion(s) observed:\n\n"
                + "\n\n".join(reports)
            )

    def reset(self) -> None:
        """Drop every recorded edge (held stacks are left alone)."""
        with self._guard:
            self._edges.clear()


_witness: Optional[LockOrderWitness] = None
_witness_guard = threading.Lock()


def get_witness() -> LockOrderWitness:
    """The process-wide witness (created on first use)."""
    global _witness
    with _witness_guard:
        if _witness is None:
            _witness = LockOrderWitness()
        return _witness


def reset_witness() -> None:
    """Replace the process-wide witness with a fresh one (tests)."""
    global _witness
    with _witness_guard:
        _witness = LockOrderWitness()


class _WitnessedLock:
    """A named wrapper around one :mod:`threading` lock primitive.

    Not a monkeypatch: callers get this object *instead of* a raw lock,
    only when the witness is armed.  Supports the subset of the lock
    protocol the repo uses (``with``, ``acquire``/``release``,
    ``locked``).
    """

    __slots__ = ("name", "_inner", "_witness")

    def __init__(self, name: str, inner, witness: LockOrderWitness) -> None:
        self.name = name
        self._inner = inner
        self._witness = witness

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._witness.note_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._witness.note_release(self.name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<witnessed {self._inner!r} name={self.name!r}>"


def named_lock(name: str) -> "threading.Lock":
    """A mutex participating in the witness under ``name`` when armed."""
    if witness_enabled():
        return _WitnessedLock(name, threading.Lock(), get_witness())
    return threading.Lock()


def named_rlock(name: str) -> "threading.RLock":
    """A reentrant mutex participating in the witness under ``name``."""
    if witness_enabled():
        return _WitnessedLock(name, threading.RLock(), get_witness())
    return threading.RLock()


def locked_by(*names: str) -> Callable:
    """Declare the lock context a callable runs under (static metadata).

    ``@locked_by("store.lock")`` marks a method as a *writer context*:
    in the concurrent serving stack it must only run while the named
    lock is held (or from a call site annotated
    ``# analyze: writer-context``).  The decorator attaches the names as
    ``__locked_by__`` and returns the function unchanged -- no runtime
    wrapper, no overhead; ``tools/analyze`` (the ``writer-context``
    check) enforces the contract statically.
    """

    def tag(func: Callable) -> Callable:
        func.__locked_by__ = tuple(names)
        return func

    return tag


def _indent(text: str, prefix: str = "    ") -> str:
    return "\n".join(prefix + line for line in text.rstrip().splitlines())
