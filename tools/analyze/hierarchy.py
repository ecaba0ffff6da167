"""The declared lock universe: names, owners, order, and blocking calls.

This module is the static analyzer's source of truth for checks LD1xx /
LH2xx.  The same canonical order lives at runtime in
``repro.core.witness.LOCK_HIERARCHY`` (which must stay importable from
production code without pulling in ``tools/``); check LH202 parses that
module's AST and fails the build if the two tuples ever drift.

Every lock in the concurrency-bearing layers must be declared here --
an undeclared ``threading.Lock()`` assigned to an instance attribute in
a scanned module is finding LD103.  Declarations are keyed by
``(module, cls, attr)`` because several classes name their lock
``_lock``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "BLOCKING_CALLS",
    "LOCK_DECLS",
    "LOCK_ORDER",
    "LOCK_RANK",
    "LockDecl",
    "WITNESS_MODULE",
    "decl_index",
]

#: Where the runtime copy of the hierarchy lives (LH202 cross-check).
WITNESS_MODULE = "src/repro/core/witness.py"

#: Canonical acquisition order, outermost first.  A thread holding the
#: lock at index ``i`` may only acquire locks with index ``> i``.
LOCK_ORDER: Tuple[str, ...] = (
    "fleet.lifecycle",
    "fleet.registry",
    "server.registry",
    "shard.submit",
    "shard.stats",
    "subs.state",
    "store.lock",
    "view.build",
    "placement.table",
    "router.breakers",
    "router.pools",
    "router.stats",
    "client.placement",
    "pool.lock",
    "breaker.state",
    "budget.rng",
    "faultplan.state",
)

LOCK_RANK: Dict[str, int] = {name: index for index, name in enumerate(LOCK_ORDER)}


@dataclass(frozen=True)
class LockDecl:
    """One declared lock: its witness name, owner, kind and class.

    ``fast_path`` marks locks whose critical sections sit on hot serving
    paths (or are taken by them): no blocking call from
    :data:`BLOCKING_CALLS` may appear lexically inside a ``with`` block
    on a fast-path lock (check LD102).
    """

    name: str
    module: str
    cls: str
    attr: str
    kind: str  # "lock" | "rlock"
    fast_path: bool
    description: str


LOCK_DECLS: Tuple[LockDecl, ...] = (
    LockDecl(
        "fleet.lifecycle", "src/repro/serving/fleet.py", "FleetWorker",
        "lifecycle_lock", "lock", False,
        "spawn/stop transitions of one worker (supervisor vs admin calls)",
    ),
    LockDecl(
        "fleet.registry", "src/repro/serving/fleet.py", "TagDMFleet",
        "_lock", "rlock", False,
        "worker handle state (process/connection/port)",
    ),
    LockDecl(
        "server.registry", "src/repro/serving/server.py", "TagDMServer",
        "_registry_lock", "lock", True,
        "corpus registry; held over full ingest/warm-start by design",
    ),
    LockDecl(
        "shard.submit", "src/repro/serving/shards.py", "CorpusShard",
        "_submit_lock", "lock", True,
        "closed-check + enqueue atomicity on the insert path",
    ),
    LockDecl(
        "shard.stats", "src/repro/serving/shards.py", "CorpusShard",
        "_stats_lock", "lock", True,
        "serving counters, published view and epoch pins",
    ),
    LockDecl(
        "subs.state", "src/repro/serving/subscriptions.py", "SubscriptionEvaluator",
        "_lock", "lock", True,
        "pending-view queue and delivery counters of the standing-query "
        "evaluator; store writes and solves run outside it",
    ),
    LockDecl(
        "store.lock", "src/repro/dataset/sqlite_store.py", "SqliteTaggingStore",
        "_lock", "rlock", False,
        "serialises all transactions on the shared sqlite connection",
    ),
    LockDecl(
        "view.build", "src/repro/core/incremental.py", "SessionView",
        "_build_lock", "lock", False,
        "lazy one-time builds of a frozen view's derived state",
    ),
    LockDecl(
        "placement.table", "src/repro/serving/router.py", "PlacementTable",
        "_lock", "rlock", True,
        "corpus -> worker rendezvous map and pins",
    ),
    LockDecl(
        "router.breakers", "src/repro/serving/router.py", "TagDMRouter",
        "_breakers_lock", "lock", True,
        "per-worker circuit-breaker registry",
    ),
    LockDecl(
        "router.pools", "src/repro/serving/router.py", "TagDMRouter",
        "_pools_lock", "lock", True,
        "per-worker connection-pool registry",
    ),
    LockDecl(
        "router.stats", "src/repro/serving/router.py", "TagDMRouter",
        "_stats_lock", "lock", True,
        "forwarding counters",
    ),
    LockDecl(
        "client.placement", "src/repro/api/client.py", "FleetClient",
        "_lock", "lock", True,
        "client-side placement cache and per-worker client registry",
    ),
    LockDecl(
        "pool.lock", "src/repro/api/client.py", "HttpConnectionPool",
        "_lock", "lock", True,
        "idle-connection list (requests themselves run outside it)",
    ),
    LockDecl(
        "breaker.state", "src/repro/serving/reliability.py", "CircuitBreaker",
        "_lock", "lock", True,
        "breaker state machine fields",
    ),
    LockDecl(
        "budget.rng", "src/repro/serving/reliability.py", "RetryBudget",
        "_lock", "lock", True,
        "jitter RNG draws",
    ),
    LockDecl(
        "faultplan.state", "src/repro/serving/reliability.py", "FaultPlan",
        "_lock", "lock", True,
        "arrival/fired counters; fire() sits on the apply and solve paths",
    ),
)


def decl_index() -> Dict[Tuple[str, str, str], LockDecl]:
    """Declarations keyed by ``(module, cls, attr)``."""
    return {(decl.module, decl.cls, decl.attr): decl for decl in LOCK_DECLS}


#: Attribute-call names treated as blocking when they appear inside a
#: fast-path critical section, with the reason reported.  Receiver-
#: insensitive except where noted in ``locks.py`` (``put``/``get``/
#: ``join`` require a queue-ish receiver; ``sleep`` requires the
#: ``time`` module).
BLOCKING_CALLS: Dict[str, str] = {
    # sqlite / transactions
    "execute": "sqlite statement",
    "executemany": "sqlite batch statement",
    "executescript": "sqlite script",
    "commit": "sqlite commit",
    "rollback": "sqlite rollback",
    # sockets / HTTP
    "connect": "socket connect",
    "sendall": "socket send",
    "recv": "socket recv",
    "getresponse": "HTTP response wait",
    "request": "HTTP round-trip",
    "urlopen": "HTTP round-trip",
    "serve_forever": "server accept loop",
    # queues / threads (receiver-gated in locks.py)
    "put": "blocking queue put",
    "get": "blocking queue get",
    "join": "blocking join",
    # time (module-gated in locks.py)
    "sleep": "sleep",
    # filesystem
    "mkdir": "directory creation",
    "unlink": "file removal",
    "rename": "file rename",
    "replace": "file replace",
    "write_bytes": "file write",
    "write_text": "file write",
    # repo-native heavyweight operations
    "rotate": "snapshot write",
    "save_session": "snapshot write",
    "read_snapshot": "snapshot read",
    "from_dataset": "full sqlite ingest",
    "to_dataset": "full sqlite read",
    "ingest": "full sqlite ingest",
    "tail_actions": "sqlite tail read",
    "prepare": "full session prepare",
    "close": "drain/close",
    "_claim_latch": "cross-process latch file creation",
}
