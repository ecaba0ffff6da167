"""One warm serving shard: a corpus, its session, and its writer thread.

A :class:`CorpusShard` owns exactly one warm
:class:`~repro.core.incremental.IncrementalTagDM` session (optionally
mirrored into a :class:`~repro.dataset.sqlite_store.SqliteTaggingStore`)
and serves it with an HTAP-style **delta + main** split:

* **inserts** go through a thread-safe request queue drained by one
  dedicated writer thread per shard.  The writer coalesces whatever is
  queued and applies each request with the batch insert API (one cache
  invalidation per request, not per action) -- this is the *delta*:
  immediately visible to subsequent updates, durable in the store, but
  not yet served to solves;
* a **fold** freezes the session into an immutable
  :class:`~repro.core.incremental.SessionView` (the *main*) and
  publishes it under a new epoch.  The shard's
  :class:`~repro.serving.policy.MergePolicy` decides when: by default
  after every writer batch (before the batch's futures resolve, so an
  acknowledged insert is visible to the very next solve), optionally on
  a time trigger the writer checks whenever its queue wait times out;
* **solves** run on the calling threads against a *pinned* published
  view (epoch + refcount) and take **no lock at all**: a solve can never
  stall behind the writer, and a long solve can never stall the ingest
  path -- it just keeps its pinned epoch alive while newer views are
  published around it.

The writer thread is the only thread that ever touches the live
session: it applies batches, folds, rotates snapshots and runs the
final fold/snapshot on :meth:`CorpusShard.close`, one step at a time
in queue order.  Two steps on one thread cannot overlap, so the merge
path needs no lock; :meth:`CorpusShard.merge_now` rides the queue like
an insert and waits only for the entries queued before it.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Dict, Iterable, List, Mapping, Optional

from repro.api.errors import OverloadedError
from repro.core.incremental import (
    IncrementalTagDM,
    IncrementalUpdateReport,
    SessionView,
)
from repro.core.witness import named_lock
from repro.core.problem import TagDMProblem
from repro.core.result import MiningResult
from repro.serving.policy import MergePolicy, SnapshotRotator
from repro.serving.reliability import AdmissionPolicy, FaultPlan

__all__ = ["CorpusShard"]


class _InsertRequest:
    """One queued insert batch and the future its caller waits on."""

    __slots__ = ("actions", "request_id", "future")

    def __init__(
        self,
        actions: List[Mapping[str, object]],
        request_id: Optional[str] = None,
    ) -> None:
        self.actions = actions
        self.request_id = request_id
        self.future: "Future[IncrementalUpdateReport]" = Future()


class _MergeRequest:
    """One queued fold request and the future its caller waits on."""

    __slots__ = ("future",)

    def __init__(self) -> None:
        self.future: "Future[int]" = Future()


class _Shutdown:
    """The close sentinel: the last entry the writer thread takes."""

    __slots__ = ("final_snapshot",)

    def __init__(self, final_snapshot: bool) -> None:
        self.final_snapshot = final_snapshot


class CorpusShard:
    """A warm session for one corpus, served delta+main.

    Parameters
    ----------
    name:
        The corpus name this shard serves (the registry key in
        :class:`~repro.serving.server.TagDMServer`).
    session:
        A prepared :class:`IncrementalTagDM`.  If it carries a ``store``,
        every insert is mirrored durably in the same call.
    rotator:
        Optional :class:`SnapshotRotator`; when given, the shard
        snapshots the session per the rotator's policy and after a clean
        :meth:`close`.
    queue_capacity:
        Bound on queued insert requests; submitters block once full
        (simple back-pressure instead of unbounded memory growth).
    start_mode:
        How the session came up -- ``"cold"`` (full prepare), ``"warm"``
        (snapshot restore) or ``"warm-replay"`` (snapshot restore plus a
        store-tail replay); recorded for :meth:`stats`.
    replayed_actions:
        How many store-tail actions were replayed into the warm session
        at startup (non-zero only for ``"warm-replay"``).
    admission:
        Optional :class:`~repro.serving.reliability.AdmissionPolicy`;
        when given, inserts are shed with a typed 429
        (:class:`~repro.api.errors.OverloadedError`) once the writer
        queue reaches ``max_queue_depth``, and solves once
        ``max_inflight_solves`` are already running.
    merge_policy:
        :class:`~repro.serving.policy.MergePolicy` governing how far the
        published main view may trail the delta.  The default folds
        after every writer batch before its futures resolve
        (read-your-writes, matching the pre-HTAP contract).
    fault_plan:
        Optional :class:`~repro.serving.reliability.FaultPlan` for the
        chaos harness; exposes the ``shard.apply`` (writer thread, just
        before a batch is applied), ``shard.solve`` (solver thread, on
        the pinned view, no lock held), ``merge.pre_fold`` (before a
        fold freezes the session) and ``merge.post_fold`` (after the new
        view is published, before waiters resume) injection points.
    evaluator:
        Optional :class:`~repro.serving.subscriptions.SubscriptionEvaluator`
        notified with every view the fold path publishes; its counters
        surface in :meth:`stats` under the ``subs_*`` keys.  The server
        owns its lifecycle.
    """

    def __init__(
        self,
        name: str,
        session: IncrementalTagDM,
        rotator: Optional[SnapshotRotator] = None,
        queue_capacity: int = 1024,
        start_mode: str = "cold",
        replayed_actions: int = 0,
        admission: Optional[AdmissionPolicy] = None,
        merge_policy: Optional[MergePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        evaluator=None,
    ) -> None:
        if not session.session.is_prepared:
            raise ValueError("shard sessions must be prepared before serving")
        if start_mode not in ("cold", "warm", "warm-replay"):
            raise ValueError(
                f"start_mode must be cold/warm/warm-replay, got {start_mode!r}"
            )
        self.name = name
        self.session = session
        self.rotator = rotator
        self.admission = admission
        self.merge_policy = merge_policy or MergePolicy()
        self.fault_plan = fault_plan
        # Optional SubscriptionEvaluator: notified with every published
        # view from the fold path, surfaced in stats(); the server owns
        # its lifecycle (the shard never closes it).
        self.evaluator = evaluator
        self.start_mode = start_mode
        self.replayed_actions = int(replayed_actions)
        # Inserts, fold requests and the close sentinel, in arrival
        # order; the writer thread is the only consumer.
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_capacity)
        self._closed = threading.Event()
        # Makes the closed-check + enqueue in submit_insert and
        # merge_now atomic with respect to close(), so no request can
        # slip into a queue the writer has already left.
        self._submit_lock = named_lock("shard.submit")
        # Guards every mutable serving counter, the delta-age clock,
        # the published view and its pins; stats() snapshots them all
        # under one hold so /healthz never reports torn values mid-merge
        # (e.g. a bumped merge_count with the previous epoch).
        self._stats_lock = named_lock("shard.stats")
        self._inserts_served = 0
        self._solves_served = 0
        self._inflight_solves = 0
        self._inserts_shed = 0
        self._solves_shed = 0
        self._dedup_hits = 0
        self._merge_count = 0
        self._merge_failures = 0
        self._first_delta_at: Optional[float] = None
        self._last_rotation_error: Optional[str] = None
        self._last_merge_error: Optional[str] = None
        # The published main view and its pins (epoch -> active solves),
        # guarded by _stats_lock like every other mutable serving field.
        self._view: SessionView = session.freeze(epoch=1)
        self._next_epoch = 2
        self._pins: Dict[int, int] = {}
        if rotator is not None:
            session.add_mutation_listener(
                lambda report: rotator.record_inserts(report.actions_added)
            )
        self._writer = threading.Thread(
            target=self._writer_loop, name=f"tagdm-shard-{name}", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit_insert(
        self,
        actions: Iterable[Mapping[str, object]],
        request_id: Optional[str] = None,
    ) -> "Future[IncrementalUpdateReport]":
        """Queue a batch of action dicts; returns a future for its report.

        The future resolves once the writer thread has applied the whole
        batch (and mirrored it into the store, when one is attached); it
        carries the batch's exception if any action was rejected.  Under
        the default merge policy the fold runs before the future
        resolves, so an acknowledged batch is visible to the next solve.

        ``request_id`` is the batch's idempotency key: a batch whose key
        the durable store has already recorded resolves to the original
        report (``deduplicated=True``) without re-applying.  When the
        shard has an admission policy and the writer queue is at its
        watermark, the batch is shed with a retryable
        :class:`~repro.api.errors.OverloadedError` instead of queued.
        """
        admission = self.admission
        if admission is not None and admission.max_queue_depth is not None:
            depth = self._queue.qsize()
            if depth >= admission.max_queue_depth:
                with self._stats_lock:
                    self._inserts_shed += 1
                raise OverloadedError(
                    f"shard {self.name!r} shed the insert: writer queue at its "
                    f"admission watermark ({depth} queued)",
                    details={"corpus": self.name, "queue_depth": depth},
                    retry_after_seconds=admission.retry_after_seconds,
                )
        request = _InsertRequest(list(actions), request_id=request_id)
        with self._submit_lock:
            if self._closed.is_set():
                raise RuntimeError(f"shard {self.name!r} is closed")
            self._queue.put(request)
        return request.future

    def insert(
        self,
        user_id: str,
        item_id: str,
        tags: Iterable[str],
        rating: Optional[float] = None,
        user_attributes: Optional[Mapping[str, str]] = None,
        item_attributes: Optional[Mapping[str, str]] = None,
    ) -> IncrementalUpdateReport:
        """Insert one action and wait for it to be applied."""
        return self.insert_batch(
            [
                {
                    "user_id": user_id,
                    "item_id": item_id,
                    "tags": tuple(tags),
                    "rating": rating,
                    "user_attributes": user_attributes,
                    "item_attributes": item_attributes,
                }
            ]
        )

    def insert_batch(
        self,
        actions: Iterable[Mapping[str, object]],
        request_id: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        """Insert a batch of action dicts and wait for the merged report."""
        return self.submit_insert(actions, request_id=request_id).result()

    def solve(
        self, problem: TagDMProblem, algorithm="auto", **options
    ) -> MiningResult:
        """Solve ``problem`` against the pinned main view (no lock).

        Runs on the calling thread; concurrent solves proceed in
        parallel and are never excluded by the writer -- each solve pins
        the current published epoch for its duration and reads the
        immutable view, so it always observes a fully folded state with
        consistent caches.  With an admission policy, a solve arriving
        while ``max_inflight_solves`` are already running is shed with a
        retryable 429 before it can pile onto the session.
        """
        admission = self.admission
        with self._stats_lock:
            if (
                admission is not None
                and admission.max_inflight_solves is not None
                and self._inflight_solves >= admission.max_inflight_solves
            ):
                self._solves_shed += 1
                inflight = self._inflight_solves
                raise OverloadedError(
                    f"shard {self.name!r} shed the solve: {inflight} solve(s) "
                    "already in flight",
                    details={"corpus": self.name, "inflight_solves": inflight},
                    retry_after_seconds=admission.retry_after_seconds,
                )
            self._inflight_solves += 1
        try:
            view = self._pin_view()
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire("shard.solve", corpus=self.name)
                result = view.solve(problem, algorithm=algorithm, **options)
            finally:
                self._unpin_view(view)
        finally:
            with self._stats_lock:
                self._inflight_solves -= 1
        with self._stats_lock:
            self._solves_served += 1
        return result

    def flush(self) -> None:
        """Block until every insert queued so far is applied *and* folded.

        With a lazy merge policy this also publishes a fresh view, so a
        flush-then-solve always observes everything flushed.  The queue
        is FIFO, so this is exactly :meth:`merge_now`.
        """
        self.merge_now()

    def merge_now(self) -> int:
        """Fold the delta into a fresh main view immediately.

        The fold request rides the writer queue: it waits for the
        entries queued before it (and the snapshot rotation they make
        due), never for those queued after.  Returns the epoch of the
        published view (the current one when the delta was already
        empty).  Raises whatever the fold raised (e.g. an injected
        :class:`~repro.serving.reliability.InjectedFault`) after
        recording it in :meth:`stats`.  On a closed shard it waits for
        the writer's final fold and returns the last published epoch.
        """
        request = _MergeRequest()
        with self._submit_lock:
            closed = self._closed.is_set()
            if not closed:
                self._queue.put(request)
        if closed:
            self._writer.join()
            return self.current_view().epoch
        return request.future.result()

    @property
    def delta_size(self) -> int:
        """Actions applied to the session but not yet in the main view."""
        with self._stats_lock:
            view_actions = self._view.n_actions
        return max(0, self.session.dataset.n_actions - view_actions)

    # ------------------------------------------------------------------
    # View pinning
    # ------------------------------------------------------------------
    def _pin_view(self) -> SessionView:
        with self._stats_lock:
            view = self._view
            self._pins[view.epoch] = self._pins.get(view.epoch, 0) + 1
            return view

    def _unpin_view(self, view: SessionView) -> None:
        with self._stats_lock:
            remaining = self._pins.get(view.epoch, 0) - 1
            if remaining > 0:
                self._pins[view.epoch] = remaining
            else:
                self._pins.pop(view.epoch, None)

    def current_view(self) -> SessionView:
        """The currently published main view (unpinned; for inspection)."""
        with self._stats_lock:
            return self._view

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed.is_set()

    def stats(self) -> Dict[str, object]:
        """A consistent snapshot of the serving counters.

        All mutable counters are read under the same lock that guards
        their increments, and the view/pin fields under the view lock,
        so a stats call racing a merge can never observe torn values
        (e.g. a bumped ``merge_count`` with the previous epoch).

        ``snapshots_written`` / ``last_rotation_at`` track the rotation
        history of this shard's rotator (``snapshot_rotations`` is the
        same counter under its pre-PR-4 name, kept for callers of the
        older stats shape), and ``start_mode`` / ``replayed_actions``
        record how the session came up.  The delta+main fields:
        ``epoch`` (published main view), ``delta_size`` (actions applied
        but not yet folded), ``merge_count`` / ``merge_failures`` /
        ``last_merge_error`` (fold history), ``merge_lag_s`` (age of the
        oldest unfolded insert, 0 when the delta is empty) and
        ``pinned_epochs`` / ``pinned_solves`` (epochs kept alive by
        in-flight solves and how many solves hold them).
        """
        rotations = self.rotator.rotations if self.rotator is not None else 0
        # Taken before (never nested under) the stats lock; the
        # evaluator's own lock guards a consistent counter snapshot.
        subs = self.evaluator.counters() if self.evaluator is not None else {}
        with self._stats_lock:
            counters = {
                "inserts_served": self._inserts_served,
                "solves_served": self._solves_served,
                "inflight_solves": self._inflight_solves,
                "inserts_shed": self._inserts_shed,
                "solves_shed": self._solves_shed,
                "dedup_hits": self._dedup_hits,
                "merge_count": self._merge_count,
                "merge_failures": self._merge_failures,
                "last_merge_error": self._last_merge_error,
                "last_rotation_error": self._last_rotation_error,
            }
            first_delta_at = self._first_delta_at
            view = self._view
            pinned = {str(epoch): count for epoch, count in sorted(self._pins.items())}
        delta_size = max(0, self.session.dataset.n_actions - view.n_actions)
        merge_lag = 0.0
        if delta_size > 0 and first_delta_at is not None:
            merge_lag = max(0.0, time.monotonic() - first_delta_at)
        stats: Dict[str, object] = {
            "name": self.name,
            "actions": self.session.dataset.n_actions,
            "groups": view.n_groups,
            "queue_depth": self._queue.qsize(),
            "epoch": view.epoch,
            "delta_size": delta_size,
            "merge_lag_s": merge_lag,
            "pinned_epochs": pinned,
            "pinned_solves": sum(pinned.values()),
            "snapshot_rotations": rotations,
            "snapshots_written": rotations,
            "last_rotation_at": (
                self.rotator.last_rotation_at if self.rotator is not None else None
            ),
            "start_mode": self.start_mode,
            "replayed_actions": self.replayed_actions,
            "subs_active": subs.get("subs_active", 0),
            "subs_evaluations": subs.get("subs_evaluations", 0),
            "subs_notifications": subs.get("subs_notifications", 0),
            "subs_suppressed": subs.get("subs_suppressed", 0),
            "subs_backlog": subs.get("subs_backlog", 0),
            "subs_last_error": subs.get("subs_last_error"),
        }
        stats.update(counters)
        return stats

    # ------------------------------------------------------------------
    # Writer thread: the only thread that touches the live session
    # ------------------------------------------------------------------
    def _drain(self, first: object) -> List[object]:
        batch = [first]
        while True:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                return batch

    def _writer_loop(self) -> None:
        """Apply, fold, acknowledge, rotate: one step per batch or tick.

        The queue wait times out every ``poll`` seconds, so an idle
        shard still serves the time triggers of its merge and rotation
        policies.
        """
        poll = 0.25
        if self.merge_policy.every_seconds is not None:
            poll = min(poll, max(self.merge_policy.every_seconds / 4.0, 0.01))
        while True:
            try:
                batch = self._drain(self._queue.get(timeout=poll))
            except queue.Empty:
                batch = []
            inserts = [entry for entry in batch if isinstance(entry, _InsertRequest)]
            merges = [entry for entry in batch if isinstance(entry, _MergeRequest)]
            outcomes = []
            for request in inserts:
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.fire(
                            "shard.apply",
                            corpus=self.name,
                            n_actions=self.session.dataset.n_actions,
                        )
                    # analyze: writer-context -- this thread is the only
                    # one that ever touches the shard's session.
                    report = self.session.add_actions(
                        request.actions, request_id=request.request_id
                    )
                except BaseException as exc:
                    outcomes.append((request, None, exc))
                else:
                    with self._stats_lock:
                        if report.deduplicated:
                            self._dedup_hits += 1
                        else:
                            self._inserts_served += report.actions_added
                            if report.actions_added and self._first_delta_at is None:
                                self._first_delta_at = time.monotonic()
                    outcomes.append((request, report, None))
            # Fold delta -> main *before* acknowledging, so a solve issued
            # after an ack sees the batch (default policy).  A failed fold
            # must not fail the inserts -- they are durably applied; the
            # error is recorded and the next fold picks the delta up.
            fold_error: Optional[BaseException] = None
            if self._fold_due(after_inserts=bool(inserts), requested=bool(merges)):
                try:
                    self._fold()
                except BaseException as exc:
                    fold_error = exc  # recorded by _fold; serving continues
            for request, report, exc in outcomes:
                if exc is not None:
                    request.future.set_exception(exc)
                else:
                    request.future.set_result(report)
            if inserts or not batch:
                # Inserts and the idle tick make a rotation due (or retry
                # a failed one); a fold request alone changes neither.
                self._maybe_rotate(force=False)
            for request in merges:
                if fold_error is not None:
                    request.future.set_exception(fold_error)
                else:
                    request.future.set_result(self.current_view().epoch)
            shutdown = next((entry for entry in batch if isinstance(entry, _Shutdown)), None)
            if shutdown is not None:
                if self.delta_size > 0:
                    try:
                        self._fold()
                    except BaseException:
                        pass  # recorded; the store has everything anyway
                if shutdown.final_snapshot:
                    self._maybe_rotate(force=True)
                return

    # ------------------------------------------------------------------
    # Merge path (delta -> main), run by the writer thread
    # ------------------------------------------------------------------
    def _fold_due(self, after_inserts: bool, requested: bool) -> bool:
        """Whether this writer step folds: on request, or per policy."""
        delta = self.delta_size
        if delta <= 0:
            return False
        policy = self.merge_policy
        if requested or (after_inserts and policy.due_on_write(delta)):
            return True
        with self._stats_lock:
            first_delta_at = self._first_delta_at
        age = 0.0 if first_delta_at is None else time.monotonic() - first_delta_at
        return policy.due_on_timer(delta, age)

    def _fold(self) -> None:
        """Freeze the session into a new main view and publish it.

        Runs on the writer thread, between batches, so the view captures
        whole batches only and the published view's ``n_actions`` equals
        the session's at publication (the delta drops to zero).
        """
        try:
            if self.fault_plan is not None:
                self.fault_plan.fire(
                    "merge.pre_fold",
                    corpus=self.name,
                    n_actions=self.session.dataset.n_actions,
                )
            view = self.session.freeze(epoch=self._next_epoch)
            with self._stats_lock:
                self._view = view
                self._next_epoch += 1
                self._merge_count += 1
                self._last_merge_error = None
                self._first_delta_at = None
            if self.fault_plan is not None:
                self.fault_plan.fire(
                    "merge.post_fold",
                    corpus=self.name,
                    n_actions=view.n_actions,
                )
            if self.evaluator is not None:
                self.evaluator.notify_publish(view)
        except BaseException as exc:
            with self._stats_lock:
                self._merge_failures += 1
                self._last_merge_error = f"{type(exc).__name__}: {exc}"
            raise

    def _maybe_rotate(self, force: bool) -> None:
        """Snapshot the session when due (or forced).

        Runs on the writer thread, so no insert can mutate the session
        mid-pickle.  A failed snapshot must not take the shard down: the
        error is recorded for :meth:`stats` and serving continues; the
        next due rotation retries.
        """
        rotator = self.rotator
        if rotator is None:
            return
        if not force and not rotator.due():
            return
        if force and rotator.inserts_since_rotation <= 0:
            return  # the latest snapshot already covers the session
        try:
            rotator.rotate(self.session.session)
            with self._stats_lock:
                self._last_rotation_error = None
        except Exception as exc:
            with self._stats_lock:
                self._last_rotation_error = f"{type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, final_snapshot: bool = True) -> None:
        """Drain the queue, fold, optionally snapshot, and stop the writer.

        Idempotent.  Requests submitted after ``close`` raise
        ``RuntimeError``; requests queued before it are applied first
        (the shutdown sentinel sits behind them in the FIFO, and the
        writer runs the final fold and snapshot when it reaches it).
        The attached store (if any) is *not* closed here -- its owner
        (the server) closes it after every shard is down.
        """
        with self._submit_lock:
            if self._closed.is_set():
                return
            self._closed.set()
            self._queue.put(_Shutdown(final_snapshot))
        self._writer.join()
        # Belt and braces: _submit_lock makes the closed-check + enqueue
        # atomic, so nothing should be queued behind the sentinel -- but a
        # leftover request must fail loudly rather than hang its caller.
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(entry, (_InsertRequest, _MergeRequest)):
                entry.future.set_exception(
                    RuntimeError(f"shard {self.name!r} is closed")
                )
