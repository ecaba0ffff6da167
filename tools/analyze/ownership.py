"""Attribute-ownership declarations for the shared-state race detector.

Every instance attribute of the serving/core concurrency classes is
assigned to exactly one **ownership domain** naming the context allowed
to write it after construction:

``init-only``
    Written during construction only (the declared ``init_methods``).
    Construction happens-before the object is published to any other
    thread, so these writes need no lock.
``lock:<name>``
    Guarded by the lock declaration ``<name>`` (see
    ``tools/analyze/hierarchy.py``).  Every post-init write must be
    inside ``with`` on that lock, inside a method tagged
    ``@locked_by("<name>")``, or under an ``# analyze: writer-context``
    comment arguing single-writer-ness.
``confined:<label>``
    Single-writer confined: only the methods listed under ``<label>``
    in ``confined_writers`` may write (e.g. lifecycle ``start``/``stop``
    called from the owning thread, a dedicated worker loop, or the
    session mutators only the shard's writer thread calls).
``frozen-after-publish``
    Immutable once ``__init__`` returns -- the static half of the
    publication contract the runtime sanitizer
    (``repro.core.sanitizer``) enforces under ``TAGDM_STATE_SANITIZER``.

Declarations live here for the serving tree; classes may instead (or
additionally) carry an ``@owned_by(attr="domain", ...)`` decorator
(``SessionView`` does, exercising that path), and a single write site
can declare its attribute inline with ``# analyze: owner=<domain>``.

The detector (``tools/analyze/races.py``) errors on *undeclared*
attributes of a declared class, not just on bad writes: the table below
must stay complete as classes grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

__all__ = ["OWNERSHIP_DECLS", "OwnershipDecl", "VALID_DOMAIN_PREFIXES"]

VALID_DOMAIN_PREFIXES = ("init-only", "frozen-after-publish", "lock:", "confined:")


@dataclass(frozen=True)
class OwnershipDecl:
    """Complete attribute->domain map for one concurrency class."""

    module: str  # repo-relative path
    cls: str
    attrs: Mapping[str, str]  # attr name -> ownership domain
    #: Methods whose writes are construction (always allowed): the
    #: object is not yet published while these run.
    init_methods: Tuple[str, ...] = ("__init__",)
    #: ``confined:<label>`` domains -> the methods allowed to write.
    confined_writers: Mapping[str, Tuple[str, ...]] = field(
        default_factory=dict
    )


OWNERSHIP_DECLS: Tuple[OwnershipDecl, ...] = (
    OwnershipDecl(
        module="src/repro/serving/shards.py",
        cls="CorpusShard",
        attrs={
            # Configuration, locks and worker threads: wired once in
            # __init__, read-only afterwards.
            "name": "init-only",
            "session": "init-only",
            "rotator": "init-only",
            "evaluator": "init-only",
            "admission": "init-only",
            "merge_policy": "init-only",
            "fault_plan": "init-only",
            "start_mode": "init-only",
            "replayed_actions": "init-only",
            "_queue": "init-only",
            "_closed": "init-only",
            "_submit_lock": "init-only",
            "_stats_lock": "init-only",
            "_writer": "init-only",
            # Counters, error strings and the published-view pointer:
            # every post-init touch holds the stats lock.
            "_inserts_served": "lock:shard.stats",
            "_solves_served": "lock:shard.stats",
            "_inflight_solves": "lock:shard.stats",
            "_inserts_shed": "lock:shard.stats",
            "_solves_shed": "lock:shard.stats",
            "_dedup_hits": "lock:shard.stats",
            "_merge_count": "lock:shard.stats",
            "_merge_failures": "lock:shard.stats",
            "_first_delta_at": "lock:shard.stats",
            "_last_rotation_error": "lock:shard.stats",
            "_last_merge_error": "lock:shard.stats",
            "_view": "lock:shard.stats",
            "_next_epoch": "lock:shard.stats",
            "_pins": "lock:shard.stats",
        },
    ),
    OwnershipDecl(
        module="src/repro/serving/server.py",
        cls="TagDMServer",
        attrs={
            "root": "init-only",
            "policy": "init-only",
            "enumeration": "init-only",
            "signature_backend": "init-only",
            "signature_dimensions": "init-only",
            "seed": "init-only",
            "admission": "init-only",
            "merge_policy": "init-only",
            "fault_plan": "init-only",
            "_registry_lock": "init-only",
            "_shards": "lock:server.registry",
            "_stores": "lock:server.registry",
            "_evaluators": "lock:server.registry",
            "_closed": "lock:server.registry",
        },
    ),
    OwnershipDecl(
        module="src/repro/serving/subscriptions.py",
        cls="SubscriptionEvaluator",
        attrs={
            "corpus": "init-only",
            "store": "init-only",
            "fault_plan": "init-only",
            "retry_interval": "init-only",
            "_lock": "init-only",
            "_stop": "init-only",
            "_thread": "init-only",
            # The wakeup event is set from anywhere (Events are
            # thread-safe) but only the evaluator loop clears it.
            "_wakeup": "confined:loop",
            # Pending-view queue and delivery counters: every post-init
            # touch holds the evaluator's state lock.
            "_pending_view": "lock:subs.state",
            "_evaluating": "lock:subs.state",
            "_active": "lock:subs.state",
            "_evaluations": "lock:subs.state",
            "_notifications": "lock:subs.state",
            "_suppressed": "lock:subs.state",
            "_last_error": "lock:subs.state",
            "_notified_watermark": "lock:subs.state",
            "_completed_watermark": "lock:subs.state",
        },
        confined_writers={"loop": ("_loop",)},
    ),
    OwnershipDecl(
        module="src/repro/serving/router.py",
        cls="PlacementTable",
        attrs={
            "_lock": "init-only",
            "_workers": "lock:placement.table",
            "_corpora": "lock:placement.table",
            "_pins": "lock:placement.table",
        },
    ),
    OwnershipDecl(
        module="src/repro/serving/router.py",
        cls="TagDMRouter",
        attrs={
            "placement": "init-only",
            "_resolve": "init-only",
            "retry_deadline": "init-only",
            "retry_interval": "init-only",
            "request_timeout": "init-only",
            "retry_budget": "init-only",
            "breaker_failure_threshold": "init-only",
            "breaker_reset_timeout": "init-only",
            "heartbeat_interval": "init-only",
            "_breakers_lock": "init-only",
            "_pools_lock": "init-only",
            "_stats_lock": "init-only",
            "_httpd": "init-only",
            "_breakers": "lock:router.breakers",
            "_pools": "lock:router.pools",
            "_forwarded": "lock:router.stats",
            "_retries": "lock:router.stats",
            "_unavailable": "lock:router.stats",
            "_budget_exhausted": "lock:router.stats",
            "_heartbeat_probes": "lock:router.stats",
            # Thread handles and the stop event belong to the lifecycle
            # methods, which the owner calls from one thread.
            "_thread": "confined:lifecycle",
            "_heartbeat_thread": "confined:lifecycle",
            "_heartbeat_stop": "confined:lifecycle",
        },
        confined_writers={"lifecycle": ("start", "stop")},
    ),
    OwnershipDecl(
        module="src/repro/core/incremental.py",
        cls="IncrementalTagDM",
        attrs={
            "store": "init-only",
            # The live session and the delta-tracking maps: confined to
            # one writer thread (the shard's writer; the WR402 contract
            # on the mutator call sites), written only by the mutators.
            "session": "confined:writer",
            "_pending": "confined:writer",
            "_group_index": "confined:writer",
            # Per-group tag-count vectors behind the O(delta) signature
            # update: read and advanced only on the insert path.
            "_tag_counts": "confined:writer",
            # Listener registration is construction-time wiring (the
            # shard registers its WAL hook before any writer starts).
            "_mutation_listeners": "confined:wiring",
        },
        init_methods=("__init__", "prepare", "_seed_pending_from_dataset"),
        confined_writers={
            "writer": (
                "_touch_group",
                "_extend_group",
                "_invalidate_derived_state",
                "_insert_one",
                "add_action",
                "add_actions",
                "refresh_topic_model",
            ),
            "wiring": ("add_mutation_listener",),
        },
    ),
    OwnershipDecl(
        module="src/repro/dataset/sqlite_store.py",
        cls="SqliteTaggingStore",
        attrs={
            "path": "init-only",
            "_lock": "init-only",
            "_defer_depth": "lock:store.lock",
            "_connection": "lock:store.lock",
        },
    ),
    OwnershipDecl(
        module="src/repro/serving/reliability.py",
        cls="CircuitBreaker",
        attrs={
            "failure_threshold": "init-only",
            "reset_timeout": "init-only",
            "_clock": "init-only",
            "_lock": "init-only",
            "_state": "lock:breaker.state",
            "_consecutive_failures": "lock:breaker.state",
            "_opened_at": "lock:breaker.state",
            "_last_probe_at": "lock:breaker.state",
            "times_opened": "lock:breaker.state",
        },
    ),
    OwnershipDecl(
        module="src/repro/serving/reliability.py",
        cls="RetryBudget",
        attrs={
            "max_attempts": "init-only",
            "backoff_base": "init-only",
            "backoff_cap": "init-only",
            "jitter": "init-only",
            "_rng": "init-only",
            "_lock": "init-only",
        },
    ),
    OwnershipDecl(
        module="src/repro/serving/reliability.py",
        cls="FaultPlan",
        attrs={
            "rules": "init-only",
            "seed": "init-only",
            "state_dir": "init-only",
            "_lock": "init-only",
            "_rng": "init-only",
            "_arrivals": "lock:faultplan.state",
            "_fired_counts": "lock:faultplan.state",
            "fired": "lock:faultplan.state",
        },
        # __setstate__ re-runs construction on unpickle; _init_runtime is
        # the shared tail both entry points call.
        init_methods=("__init__", "_init_runtime", "__setstate__"),
    ),
)


def decl_index() -> Dict[Tuple[str, str], OwnershipDecl]:
    """Declarations keyed by ``(module, cls)``."""
    return {(d.module, d.cls): d for d in OWNERSHIP_DECLS}
