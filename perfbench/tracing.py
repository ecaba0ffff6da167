"""In-memory span recorder installed around the server's layer boundaries.

Runs inside the server child only.  :func:`install` wraps public
callables of each layer (class attributes, so every instance sees the
wrapper) without editing the package.  A span records its name, start
and end (``perf_counter_ns``: CLOCK_MONOTONIC, comparable across
processes), the enclosing span on the same thread, the thread name and a
few attributes that link it to requests: the insert idempotency key on
the write path and the insert watermark on the fold and evaluator paths.

Recording is off until :meth:`Tracer.enable`; spans stay in memory and
are written out once, when the child exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from pathlib import Path
from typing import Callable, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def enable(self, on: bool) -> None:
        self.enabled = on

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        when: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        return attribute dicts; ``when(*args, **kwargs)`` false skips the
        span (used to record only the first, building call of a lazy
        property).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or (when is not None and not when(*args, **kwargs)):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            attrs = before(*args, **kwargs) if before is not None else {}
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if after is not None:
                    attrs.update(after(result, *args, **kwargs))
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent,
                     threading.current_thread().name, attrs)
                )

        return traced

    def patch(self, owner, attribute: str, name: str, **hooks) -> None:
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), **hooks))

    def dump(self, path: Path) -> int:
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle)
        return len(spans)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.algorithms import dv_fdp
    from repro.algorithms.base import MiningAlgorithm
    from repro.algorithms.scoring import BatchCandidateScorer, PairwiseMatrixCache
    from repro.api.spec import ProblemSpec
    from repro.core.incremental import IncrementalTagDM, SessionView
    from repro.core.result import MiningResult
    from repro.dataset.sqlite_store import SqliteTaggingStore
    from repro.index.lsh import CosineLshIndex
    from repro.serving import http
    from repro.serving.policy import SnapshotRotator
    from repro.serving.shards import CorpusShard
    from repro.serving.subscriptions import SubscriptionEvaluator

    # serving.http: the whole handler, from request line to last byte.
    tracer.patch(
        http._Handler, "_dispatch", "http.handler",
        before=lambda self, method: {"route": self.path.split("?", 1)[0].rsplit("/", 1)[-1]},
    )
    # api: spec validation, result serialisation and JSON encoding.
    tracer.patch(ProblemSpec, "validate", "api.validate")
    tracer.patch(MiningResult, "to_dict", "api.to_dict")
    http.json = types.SimpleNamespace(
        dumps=tracer.wrap("api.json_encode", http.json.dumps), loads=http.json.loads
    )
    # serving.shards: the ack as the handler thread waits for it, and the
    # fold on the writer thread.
    tracer.patch(
        CorpusShard, "insert_batch", "shards.insert_ack",
        before=lambda self, actions, request_id=None: {"key": request_id},
    )
    tracer.patch(
        IncrementalTagDM, "freeze", "shards.fold",
        before=lambda self, epoch=0: {"wm": self.session.dataset.n_actions},
    )
    # core.incremental: the batch apply, linked to its request by key.
    tracer.patch(
        IncrementalTagDM, "add_actions", "incremental.apply",
        before=lambda self, actions, request_id=None: {"key": request_id},
        after=lambda report, self, *a, **k: {
            "wm": self.session.dataset.n_actions,
            "actions": report.actions_added,
            "groups": report.groups_updated,
        },
    )
    # dataset.sqlite_store: the durable append and the ledger writes.
    tracer.patch(SqliteTaggingStore, "append_action", "store.append")
    for attribute in ("record_subscription_diff", "advance_subscription_watermark"):
        tracer.patch(
            SqliteTaggingStore, attribute, "store.ledger_write",
            before=lambda self, sub_id, watermark, *a, **k: {"wm": watermark},
        )
    # SessionView derived state: only the call that builds it.
    view_attrs = lambda self, *a, **k: {"view": id(self), "wm": self.watermark}  # noqa: E731
    signatures = SessionView.signatures
    SessionView.signatures = property(
        tracer.wrap(
            "view.build", signatures.fget, before=view_attrs,
            when=lambda self: self._signatures is None,
        )
    )
    tracer.patch(
        SessionView, "matrix_cache", "view.build", before=view_attrs,
        when=lambda self: self._matrix_cache is None,
    )

    def lsh_missing(self, n_bits: int = 10, n_tables: int = 1) -> bool:
        cached = self._lsh_cache.get(n_tables)
        return cached is None or cached.n_bits < n_bits

    tracer.patch(SessionView, "signature_lsh", "view.build", before=view_attrs, when=lsh_missing)
    tracer.patch(SessionView, "solve", "view.solve", before=view_attrs)
    # algorithms: one span per solver call, with its work counters.
    tracer.patch(
        MiningAlgorithm, "solve", "algorithms.solve",
        before=lambda self, *a, **k: {"algorithm": self.name},
        after=lambda result, *a, **k: {
            "evaluations": result.evaluations,
            "relaxations": result.metadata.get("relaxations", 0),
        },
    )
    tracer.patch(PairwiseMatrixCache, "subset_support", "scoring.support")
    tracer.patch(BatchCandidateScorer, "score", "scoring.batch_score")
    tracer.patch(CosineLshIndex, "build", "lsh.build")
    tracer.patch(CosineLshIndex, "rebuild_with_bits", "lsh.rebuild_with_bits")
    for attribute in ("greedy_max_avg_dispersion", "constrained_greedy_dispersion"):
        tracer.patch(dv_fdp, attribute, "dispersion.greedy")
    # serving.subscriptions: publication intake, with the backlog it left.
    tracer.patch(
        SubscriptionEvaluator, "notify_publish", "subs.notify",
        before=lambda self, view: {"wm": view.watermark},
        after=lambda result, self, view: {"backlog": self.counters()["subs_backlog"]},
    )
    # serving.policy + core.persistence: snapshot rotation.
    tracer.patch(SnapshotRotator, "rotate", "policy.rotate")
