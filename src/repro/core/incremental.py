"""Incremental maintenance of a TagDM session under new tagging actions.

The paper's future-work section announces support for "updates and
insertions of new users, items and tags".  This module implements that
extension: :class:`IncrementalTagDM` wraps a prepared
:class:`~repro.core.framework.TagDM` session and keeps its candidate
groups, tag signatures and support counts consistent as tagging actions
arrive, without re-running the full enumeration + summarisation pipeline:

* a new action is appended to the underlying dataset (registering the
  user/item on first sight);
* only the describable groups whose conjunctive description matches the
  new tuple are touched, and brand-new groups are created the moment a
  description crosses the minimum-support threshold;
* a touched group is replaced by the old group plus the new tuple, in
  work proportional to the tuple, not to the group: the tuple's tags
  are normalised once into a count vector
  (:meth:`~repro.text.topics.TopicModel.tag_counts`), added to each
  touched group's maintained counts, and the signature is renormalised
  from those counts; member rows, user/item sets and the tag multiset
  are extended, never re-collected.  The counts are built lazily from
  a group's tags on its first touch and kept only in memory;
* backends whose signature is not a function of tag counts (LDA) take
  the rebuild path instead: the touched group is re-collected from its
  rows and its signature re-inferred.  Group creation always builds
  from rows;
* the topic model fitted during the initial :meth:`prepare` is kept (it
  can be refitted explicitly with :meth:`refresh_topic_model` when drift
  accumulates, which also drops the maintained counts);
* the shared pairwise-matrix cache (and the session's cached LSH
  indexes) are invalidated because a changed signature perturbs one
  row/column of every matrix.

The wrapper exposes the same ``solve`` API as the session it maintains.
When constructed with a durable :class:`~repro.dataset.sqlite_store.SqliteTaggingStore`,
every insert is mirrored into the store in the same call, so the
database, the in-memory dataset and the maintained groups stay
consistent -- and :meth:`IncrementalTagDM.snapshot` can persist the
session for a warm restart at any point.
"""

from __future__ import annotations

import threading
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.enumeration import GroupEnumerationConfig
from repro.core.framework import TagDM
from repro.core.groups import GroupDescription, TaggingActionGroup
from repro.core.problem import TagDMProblem
from repro.core.result import MiningResult
from repro.core.sanitizer import freeze_array, owned_by, seal_view
from repro.core.witness import named_lock
from repro.dataset.store import ITEM_PREFIX, USER_PREFIX, TaggingDataset

__all__ = ["IncrementalTagDM", "IncrementalUpdateReport", "SessionView"]


@owned_by(
    # Captured at publication, read lock-free by every solver thread.
    epoch="frozen-after-publish",
    n_actions="frozen-after-publish",
    groups="frozen-after-publish",
    functions="frozen-after-publish",
    seed="frozen-after-publish",
    # Derived state built lazily after freeze(), under the view's lock.
    _build_lock="init-only",
    _signatures="lock:view.build",
    _matrix_cache="lock:view.build",
    _lsh_cache="lock:view.build",
)
class SessionView:
    """An immutable solve-only view of a session, frozen at one epoch.

    The delta+main serving split needs solves that never touch the write
    path: a view captures the session's group list (a shallow copy is
    enough -- incremental maintenance *replaces* list entries, it never
    mutates a published :class:`~repro.core.groups.TaggingActionGroup`)
    plus the solve configuration (function suite, seed, signature
    dimensionality), and lazily materialises its own signature matrix,
    pairwise-matrix cache and LSH indexes.  Because
    :meth:`TagDM.invalidate_caches` swaps cache *pointers* rather than
    mutating cache objects, a view may also inherit the live session's
    caches at freeze time: later inserts replace the session's pointers
    and leave the view's inherited objects intact.

    Freezing is therefore O(n_groups) pointer copying -- cheap enough to
    run after every merged writer batch -- while the expensive derived
    structures are built at most once per view, on first solve.

    Views are safe for concurrent solves: the lazy builds are serialised
    by a view-local lock, and the built structures are only ever read
    afterwards (the pairwise cache tolerates concurrent fills exactly as
    it did under the old shared read lock).
    """

    def __init__(self, session: TagDM, epoch: int = 0) -> None:
        if not session.is_prepared:
            raise ValueError("cannot freeze an unprepared session")
        #: Monotonic publication number assigned by the owner (the shard's
        #: merge path); views themselves never change it.
        self.epoch = int(epoch)
        #: How many dataset actions the frozen group state reflects -- the
        #: shard's ``delta_size`` is the live dataset size minus this.
        self.n_actions = session.dataset.n_actions
        self.groups: List[TaggingActionGroup] = list(session.groups)
        self.functions = session.functions
        self.seed = session.seed
        self._build_lock = named_lock("view.build")
        # Inherit whatever derived state the session has already paid for;
        # anything still None is built lazily against the frozen groups.
        self._signatures = session._signatures
        self._matrix_cache = session._matrix_cache
        self._lsh_cache: Dict[int, object] = dict(session._lsh_cache)
        # With TAGDM_STATE_SANITIZER armed, the published containers are
        # wrapped in raise-on-write proxies (no-op in production).
        seal_view(self)

    @property
    def watermark(self) -> int:
        """The insert watermark this view was frozen at.

        Watermarks are corpus action counts: monotone under the
        append-only insert path and totally ordered, unlike epochs,
        which restart from 1 on every shard (re)open.  The
        subscription pipeline keys its exactly-once delivery ledger on
        watermarks for exactly that reason -- a post-crash replay of
        an already-delivered evaluation carries the same watermark and
        is suppressed.
        """
        return self.n_actions

    @property
    def n_groups(self) -> int:
        """Number of groups in the frozen view."""
        return len(self.groups)

    @property
    def signatures(self):
        """The frozen ``(n_groups, d)`` signature matrix (built lazily)."""
        with self._build_lock:
            if self._signatures is None:
                from repro.core.signatures import signature_matrix  # lazy import

                self._signatures = freeze_array(signature_matrix(self.groups))
            return self._signatures

    def matrix_cache(self):
        """The view's pairwise-matrix cache (built lazily, then shared)."""
        with self._build_lock:
            if self._matrix_cache is None:
                from repro.algorithms.scoring import PairwiseMatrixCache  # lazy import

                self._matrix_cache = PairwiseMatrixCache(self.groups, self.functions)
            return self._matrix_cache

    def signature_lsh(self, n_bits: int = 10, n_tables: int = 1):
        """A cosine-LSH index over the frozen signatures (cached per view).

        Mirrors :meth:`TagDM.signature_lsh`: one index per table count at
        the widest bit width requested so far, narrower widths derived by
        prefix truncation.
        """
        signatures = self.signatures
        with self._build_lock:
            cached = self._lsh_cache.get(n_tables)
            if cached is None or cached.n_bits < n_bits:
                from repro.index.lsh import CosineLshIndex  # lazy import

                cached = CosineLshIndex(
                    n_dimensions=signatures.shape[1],
                    n_bits=n_bits,
                    n_tables=n_tables,
                    seed=self.seed,
                ).build(signatures)
                self._lsh_cache[n_tables] = cached
        if cached.n_bits == n_bits:
            return cached
        return cached.rebuild_with_bits(n_bits)

    def _signature_lsh_provider(self, n_bits: int, n_tables: int, seed: int):
        if seed != self.seed:
            return None
        return self.signature_lsh(n_bits=n_bits, n_tables=n_tables)

    def solve(
        self,
        problem: TagDMProblem,
        algorithm: Union[str, object] = "auto",
        **algorithm_options,
    ) -> MiningResult:
        """Solve ``problem`` over the frozen groups.

        Bit-identical to :meth:`TagDM.solve` on a session in the same
        state: the same solver construction (seeded with the session
        seed), the same group list, function suite, pairwise cache and
        LSH provider plumbing.
        """
        from repro.algorithms import build_algorithm  # lazy: avoids a cycle

        if isinstance(algorithm, str):
            name = algorithm.lower()
            if name == "auto":
                name = "dv-fdp-fo" if problem.maximises_tag_diversity else "sm-lsh-fo"
            solver = build_algorithm(name, seed=self.seed, **algorithm_options)
        else:
            solver = algorithm
        return solver.solve(
            problem,
            self.groups,
            self.functions,
            cache=self.matrix_cache(),
            lsh_provider=self._signature_lsh_provider,
        )


class IncrementalUpdateReport:
    """What one insert (or batch of inserts) changed in the session."""

    def __init__(self) -> None:
        self.actions_added = 0
        self.new_users: List[str] = []
        self.new_items: List[str] = []
        self.groups_updated = 0
        self.groups_created = 0
        self.pending_descriptions = 0
        #: True when this report was *recalled* from the store's
        #: idempotency log instead of applied: the batch had already
        #: been committed under the same request id, nothing mutated.
        self.deduplicated = False

    def merge(self, other: "IncrementalUpdateReport") -> "IncrementalUpdateReport":
        """Accumulate another report into this one (for batch inserts)."""
        self.actions_added += other.actions_added
        self.new_users.extend(other.new_users)
        self.new_items.extend(other.new_items)
        self.groups_updated += other.groups_updated
        self.groups_created += other.groups_created
        self.pending_descriptions = other.pending_descriptions
        return self

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.actions_added} action(s) added; "
            f"{len(self.new_users)} new user(s), {len(self.new_items)} new item(s); "
            f"{self.groups_updated} group(s) updated, {self.groups_created} created; "
            f"{self.pending_descriptions} description(s) below min support"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the wire API's insert response body)."""
        return {
            "actions_added": self.actions_added,
            "new_users": list(self.new_users),
            "new_items": list(self.new_items),
            "groups_updated": self.groups_updated,
            "groups_created": self.groups_created,
            "pending_descriptions": self.pending_descriptions,
            "deduplicated": self.deduplicated,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "IncrementalUpdateReport":
        """Rebuild a report from :meth:`to_dict` output."""
        report = cls()
        report.actions_added = int(payload.get("actions_added", 0))
        report.new_users = [str(user) for user in payload.get("new_users", [])]
        report.new_items = [str(item) for item in payload.get("new_items", [])]
        report.groups_updated = int(payload.get("groups_updated", 0))
        report.groups_created = int(payload.get("groups_created", 0))
        report.pending_descriptions = int(payload.get("pending_descriptions", 0))
        report.deduplicated = bool(payload.get("deduplicated", False))
        return report


class IncrementalTagDM:
    """A TagDM session that absorbs new tagging actions in place.

    The mutators (:meth:`add_action`, :meth:`add_actions`,
    :meth:`refresh_topic_model`) take no lock: one thread at a time may
    call them -- in serving, the shard's writer thread, which also does
    every :meth:`freeze`.

    Parameters
    ----------
    dataset:
        The initial tagging dataset (it will be mutated by inserts).
    enumeration, signature_backend, signature_dimensions, seed:
        Forwarded to the wrapped :class:`TagDM` session.  ``"full"``
        enumeration mode is supported; ``"partial"`` (default) and
        ``"cross"`` match the description-generation rules used when
        routing new tuples to groups.
    store:
        Optional durable :class:`~repro.dataset.sqlite_store.SqliteTaggingStore`;
        when given, every registered user/item and inserted action is
        mirrored into it so the database tracks the in-memory dataset.
    session:
        An existing :class:`TagDM` session to wrap instead of building
        one (the :meth:`from_session` path for warm starts).  Mutually
        exclusive with ``dataset`` and the session-configuration
        parameters above -- a wrapped session carries its own.
    """

    def __init__(
        self,
        dataset: Optional[TaggingDataset] = None,
        enumeration: Optional[GroupEnumerationConfig] = None,
        signature_backend: Optional[str] = None,
        signature_dimensions: Optional[int] = None,
        seed: Optional[int] = None,
        store=None,
        session: Optional[TagDM] = None,
    ) -> None:
        if session is not None:
            if dataset is not None and dataset is not session.dataset:
                raise ValueError(
                    "pass either a dataset or an existing session, not both"
                )
            conflicting = [
                name
                for name, value in (
                    ("enumeration", enumeration),
                    ("signature_backend", signature_backend),
                    ("signature_dimensions", signature_dimensions),
                    ("seed", seed),
                )
                if value is not None
            ]
            if conflicting:
                raise ValueError(
                    "an existing session carries its own configuration; "
                    f"drop {', '.join(conflicting)}"
                )
            self.session = session
        else:
            if dataset is None:
                raise ValueError("a dataset (or an existing session) is required")
            self.session = TagDM(
                dataset,
                enumeration=enumeration,
                signature_backend=(
                    "frequency" if signature_backend is None else signature_backend
                ),
                signature_dimensions=(
                    25 if signature_dimensions is None else signature_dimensions
                ),
                seed=0 if seed is None else seed,
            )
        self.store = store
        # Tuples that match a description which has not reached minimum
        # support yet, keyed by that description.
        self._pending: Dict[GroupDescription, List[int]] = {}
        self._group_index: Dict[GroupDescription, int] = {}
        # Tag-count vectors (TopicModel.tag_counts) of maintained groups,
        # built on a group's first touch and advanced by each inserted
        # row's counts.  Valid only for the fitted topic model, so
        # prepare() and refresh_topic_model() drop them.
        self._tag_counts: Dict[GroupDescription, np.ndarray] = {}
        # Called with the merged IncrementalUpdateReport after every
        # committed insert call (single or batch).  The serving layer uses
        # this to drive its snapshot-rotation policy without wrapping the
        # insert API.
        self._mutation_listeners: List[Callable[[IncrementalUpdateReport], None]] = []

    @classmethod
    def from_session(cls, session: TagDM, store=None) -> "IncrementalTagDM":
        """Wrap an existing (typically warm-started) :class:`TagDM` session.

        The serving layer restores a session with
        :func:`repro.core.persistence.load_session` and keeps absorbing
        inserts through the wrapper; call :meth:`prepare` afterwards --
        an already-prepared session is not re-enumerated, only indexed.
        """
        return cls(session=session, store=store)

    # ------------------------------------------------------------------
    # Preparation and delegation
    # ------------------------------------------------------------------
    def prepare(self) -> "IncrementalTagDM":
        """Prepare the wrapped session (if needed) and index its groups.

        A session that is already prepared -- warm-started from a
        snapshot, or wrapped via :meth:`from_session` -- keeps its groups
        as-is; only the group index and the sub-threshold pending map are
        (re)built.
        """
        if not self.session.is_prepared:
            self.session.prepare()
        self._group_index = {
            group.description: position
            for position, group in enumerate(self.session.groups)
        }
        self._pending = {}
        self._tag_counts = {}
        self._seed_pending_from_dataset()
        return self

    def _seed_pending_from_dataset(self) -> None:
        """Track sub-threshold descriptions already present in the data.

        Without this, a description with (min_support - 1) existing tuples
        would need min_support *new* tuples before becoming a group.
        """
        for row in range(self.dataset.n_actions):
            for description in self._descriptions_for_row(row):
                if description in self._group_index:
                    continue
                self._pending.setdefault(description, []).append(row)

    @property
    def dataset(self) -> TaggingDataset:
        """The underlying (mutated in place) dataset."""
        return self.session.dataset

    def watermark(self) -> int:
        """The current insert watermark: committed corpus action count.

        Every :meth:`freeze` stamps the view it publishes with the
        watermark at freeze time (:attr:`SessionView.watermark`); the
        subscription evaluator compares those stamps against each
        subscription's last-evaluated watermark to decide what still
        needs re-solving.
        """
        return self.session.dataset.n_actions

    @property
    def groups(self) -> List[TaggingActionGroup]:
        """The maintained candidate groups."""
        return self.session.groups

    @property
    def n_groups(self) -> int:
        """Number of maintained candidate groups."""
        return self.session.n_groups

    def default_support(self, fraction: float = 0.01) -> int:
        """Support threshold relative to the *current* dataset size."""
        return self.session.default_support(fraction)

    def solve(self, problem: TagDMProblem, algorithm="auto", **options) -> MiningResult:
        """Solve a problem over the maintained groups."""
        return self.session.solve(problem, algorithm=algorithm, **options)

    def freeze(self, epoch: int = 0) -> SessionView:
        """Freeze the current session state into an immutable solve view.

        The caller must ensure no insert is concurrently mutating the
        session (the serving shard freezes on its writer thread, between
        batches).  The returned
        :class:`SessionView` stays valid forever: later inserts replace
        group-list entries and cache pointers on the live session without
        touching the objects the view captured.
        """
        return SessionView(self.session, epoch=epoch)

    # ------------------------------------------------------------------
    # Description generation (mirrors repro.core.enumeration modes)
    # ------------------------------------------------------------------
    def _row_predicates(self, row: int) -> List[Tuple[str, str]]:
        config = self.session.enumeration
        columns = (
            tuple(config.columns) if config.columns is not None else self.dataset.columns
        )
        return [(column, self.dataset.column_value(column, row)) for column in columns]

    def _descriptions_for_row(self, row: int) -> List[GroupDescription]:
        """Every candidate description the tuple at ``row`` belongs to."""
        config = self.session.enumeration
        predicates = self._row_predicates(row)
        descriptions: List[GroupDescription] = []
        if config.mode == "full":
            descriptions.append(GroupDescription(predicates=tuple(sorted(predicates))))
        elif config.mode == "cross":
            user_predicates = [p for p in predicates if p[0].startswith(USER_PREFIX)]
            item_predicates = [p for p in predicates if p[0].startswith(ITEM_PREFIX)]
            for user_predicate in user_predicates:
                for item_predicate in item_predicates:
                    descriptions.append(
                        GroupDescription(
                            predicates=tuple(sorted((user_predicate, item_predicate)))
                        )
                    )
        else:  # partial
            max_predicates = min(config.max_predicates, len(predicates))
            for size in range(1, max_predicates + 1):
                for subset in combinations(predicates, size):
                    descriptions.append(GroupDescription(predicates=tuple(sorted(subset))))
        return descriptions

    # ------------------------------------------------------------------
    # Group maintenance
    # ------------------------------------------------------------------
    def _rebuild_group(self, description: GroupDescription, rows: Sequence[int]) -> TaggingActionGroup:
        """Build a group from its rows (creation, LDA updates, the oracle)."""
        rows = tuple(sorted(int(r) for r in rows))
        group = TaggingActionGroup(
            description=description,
            tuple_indices=rows,
            user_ids=frozenset(self.dataset.users_for_indices(rows)),
            item_ids=frozenset(self.dataset.items_for_indices(rows)),
            tags=tuple(self.dataset.tags_for_indices(rows)),
        )
        group.signature = self.session.signature_builder.signature(group)
        return group

    def _extend_group(
        self, group: TaggingActionGroup, row: int, row_counts: np.ndarray
    ) -> TaggingActionGroup:
        """``group`` plus the appended tuple ``row``, without a row loop.

        Equal, field by field and signature byte by byte, to
        ``_rebuild_group(group.description, group.tuple_indices + (row,))``:
        rows are append-only, so ``row`` sorts last, and the signature is
        a function of the summed counts.  A replacement object, never a
        mutation -- published views may still hold ``group``.
        """
        model = self.session.signature_builder.topic_model
        counts = self._tag_counts.get(group.description)
        if counts is None:
            counts = model.tag_counts(group.tags)
        counts = counts + row_counts
        user, item = self.dataset.user_of(row), self.dataset.item_of(row)
        extended = TaggingActionGroup(
            description=group.description,
            tuple_indices=group.tuple_indices + (row,),
            user_ids=group.user_ids if user in group.user_ids else group.user_ids | {user},
            item_ids=group.item_ids if item in group.item_ids else group.item_ids | {item},
            tags=group.tags + self.dataset.tags_of(row),
            signature=np.asarray(model.signature_from_counts(counts), dtype=float),
        )
        self._tag_counts[group.description] = counts
        return extended

    def _touch_group(
        self,
        description: GroupDescription,
        row: int,
        row_counts: Optional[np.ndarray],
        report: IncrementalUpdateReport,
    ) -> None:
        position = self._group_index.get(description)
        if position is not None:
            existing = self.session.groups[position]
            if row_counts is None:
                # The topic model's signature is not a function of tag
                # counts (LDA): the one rebuild-from-rows update path.
                replacement = self._rebuild_group(
                    description, existing.tuple_indices + (row,)
                )
            else:
                replacement = self._extend_group(existing, row, row_counts)
            self.session.groups[position] = replacement
            report.groups_updated += 1
            return

        pending_rows = self._pending.setdefault(description, [])
        pending_rows.append(row)
        config = self.session.enumeration
        if len(pending_rows) >= config.min_support:
            if config.max_groups is not None and len(self.session.groups) >= config.max_groups:
                return  # respect the configured cap; keep accumulating as pending
            group = self._rebuild_group(description, pending_rows)
            self.session.groups.append(group)
            self._group_index[description] = len(self.session.groups) - 1
            del self._pending[description]
            report.groups_created += 1

    # ------------------------------------------------------------------
    # Public insert API
    # ------------------------------------------------------------------
    def add_mutation_listener(
        self, listener: Callable[[IncrementalUpdateReport], None]
    ) -> None:
        """Register a callback fired after every committed insert call.

        The listener receives the merged :class:`IncrementalUpdateReport`
        of the call (one action for :meth:`add_action`, the whole batch
        for :meth:`add_actions`).  Listeners run on the inserting thread,
        after caches have been invalidated.
        """
        self._mutation_listeners.append(listener)

    def _notify_mutation(self, report: IncrementalUpdateReport) -> None:
        if report.actions_added:
            for listener in self._mutation_listeners:
                listener(report)

    def _invalidate_derived_state(self) -> None:
        """Drop every cache a changed signature poisons.

        Signatures changed, so cached pairwise matrices / LSH indexes
        (and the stacked signature matrix) are stale.  Called once per
        public insert call -- a 1k-action batch must not rebuild the
        caches 1k times.
        """
        self.session.invalidate_caches()
        self.session._signatures = None

    def _insert_one(
        self,
        user_id: str,
        item_id: str,
        tags: Iterable[str],
        rating: Optional[float],
        user_attributes: Optional[Mapping[str, str]],
        item_attributes: Optional[Mapping[str, str]],
    ) -> IncrementalUpdateReport:
        """Apply one insert to the store, dataset and groups.

        Does *not* invalidate session caches -- the public wrappers do
        that exactly once per call.
        """
        if not self.session.is_prepared:
            raise RuntimeError("call prepare() before inserting tagging actions")
        report = IncrementalUpdateReport()

        user_id, item_id = str(user_id), str(item_id)
        if not self.dataset.has_user(user_id):
            if user_attributes is None:
                raise KeyError(
                    f"user {user_id!r} is new; provide user_attributes on first insert"
                )
            self.dataset.register_user(user_id, user_attributes)
            report.new_users.append(user_id)
        if not self.dataset.has_item(item_id):
            if item_attributes is None:
                raise KeyError(
                    f"item {item_id!r} is new; provide item_attributes on first insert"
                )
            self.dataset.register_item(item_id, item_attributes)
            report.new_items.append(item_id)

        tags = tuple(tags)  # the iterable is consumed by both sinks below
        if self.store is not None:
            # Mirror into the durable store *before* mutating the in-memory
            # tuple columns: if the store write fails (lock timeout, disk
            # full) the session state is untouched apart from the in-memory
            # user/item registrations above, which carry no tuples and
            # leave groups and consistency checks intact.  Registrations
            # and the action row land in one commit; the attributes are
            # read back from the dataset so defaulted ("unknown") values
            # land in the store identically.
            self.store.append_action(
                user_id,
                item_id,
                tags,
                rating,
                user_attributes=(
                    None
                    if self.store.has_user(user_id)
                    else self.dataset.user_attributes(user_id)
                ),
                item_attributes=(
                    None
                    if self.store.has_item(item_id)
                    else self.dataset.item_attributes(item_id)
                ),
            )

        row = self.dataset.add_action(user_id, item_id, tags, rating)
        report.actions_added = 1

        # The row's tags are normalised once here, whatever the number
        # and size of the groups it lands in.
        row_counts = self.session.signature_builder.topic_model.tag_counts(
            self.dataset.tags_of(row)
        )
        for description in self._descriptions_for_row(row):
            self._touch_group(description, row, row_counts, report)

        report.pending_descriptions = len(self._pending)
        return report

    def add_action(
        self,
        user_id: str,
        item_id: str,
        tags: Iterable[str],
        rating: Optional[float] = None,
        user_attributes: Optional[Mapping[str, str]] = None,
        item_attributes: Optional[Mapping[str, str]] = None,
    ) -> IncrementalUpdateReport:
        """Insert one tagging action and update the affected groups.

        Unknown users/items must bring their attributes along on first
        sight (subsequent actions may omit them).
        """
        report = self._insert_one(
            user_id, item_id, tags, rating, user_attributes, item_attributes
        )
        self._invalidate_derived_state()
        self._notify_mutation(report)
        return report

    def add_actions(
        self,
        actions: Iterable[Mapping[str, object]],
        request_id: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        """Insert a batch of action dicts (same keys as :meth:`add_action`).

        The whole batch shares a single cache invalidation: groups are
        maintained per action, but the pairwise-matrix / LSH / stacked
        signature caches are dropped once at the end instead of once per
        action (which made a 1k-action batch rebuild them 1k times).  If
        an action in the middle of the batch raises, the actions already
        applied stay applied and the caches are still invalidated before
        the exception propagates, so the session never serves stale
        results.

        ``request_id`` makes the batch **exactly-once** against the
        attached durable store: a batch whose id is already in the
        store's idempotency log is *not* re-applied -- its recorded
        report comes back with ``deduplicated=True`` and no listener
        fires.  A fresh id applies the batch and records the id inside
        one deferred SQLite transaction, so a process killed mid-batch
        loses the whole uncommitted batch (and its marker) to WAL
        recovery and the retry re-applies cleanly; a kill *after* the
        commit leaves the marker, and the retry deduplicates.  A batch
        rejected mid-way (validation error) commits its applied prefix
        but records **no** marker -- such requests surface their 4xx and
        are not blindly retried.  Without a store, ``request_id`` is
        accepted but provides no replay protection.
        """
        store = self.store
        if request_id is not None and store is not None:
            cached = store.recall_request(request_id)
            if cached is not None:
                report = IncrementalUpdateReport.from_dict(cached)
                report.deduplicated = True
                return report
            with store.deferred_commit():
                total = self._apply_batch(actions)
                store.record_request(request_id, total.to_dict())
            return total
        return self._apply_batch(actions)

    def _apply_batch(
        self, actions: Iterable[Mapping[str, object]]
    ) -> IncrementalUpdateReport:
        total = IncrementalUpdateReport()
        try:
            for action in actions:
                report = self._insert_one(
                    action["user_id"],
                    action["item_id"],
                    action.get("tags", ()),
                    action.get("rating"),
                    action.get("user_attributes"),
                    action.get("item_attributes"),
                )
                total.merge(report)
        finally:
            if total.actions_added:
                self._invalidate_derived_state()
                self._notify_mutation(total)
        return total

    # ------------------------------------------------------------------
    # Consistency helpers
    # ------------------------------------------------------------------
    def refresh_topic_model(self) -> None:
        """Refit the topic model and recompute every group signature.

        Incremental inserts keep using the initially fitted topic model;
        after substantial drift (many new tags) call this to refit on the
        current groups, exactly what a periodic offline rebuild would do.

        The backend to refit is taken from the session's recorded
        ``signature_backend`` string -- not inferred from the live model
        object, whose ``name`` attribute may carry the base-class default
        (``"topic-model"``) and would silently swap the backend.

        The refit builds *replacement* group objects rather than
        rebinding ``signature`` on the live ones: published views share
        the captured group objects with the session (freeze() copies the
        list, not the groups), so an in-place rebind would mutate state
        a concurrent lock-free solver is reading.  Replacing list
        entries is the same discipline every incremental insert follows.
        """
        import dataclasses

        from repro.core.signatures import GroupSignatureBuilder

        builder = GroupSignatureBuilder(
            topic_model=None,
            backend=self.session.signature_backend,
            n_dimensions=self.session.signature_builder.n_dimensions,
            seed=self.session.seed,
        )
        replacements = [
            dataclasses.replace(group, signature=None)
            for group in self.session.groups
        ]
        builder.build(replacements)
        self.session.groups[:] = replacements
        self.session.signature_builder = builder
        self._tag_counts = {}
        self._invalidate_derived_state()

    def snapshot(self, path) -> "IncrementalTagDM":
        """Persist the maintained session to ``path`` for a warm restart.

        Because inserts update groups and the durable store in the same
        call, a snapshot taken at any point is consistent with the store's
        contents at that point.  Returns ``self`` for chaining.
        """
        from repro.core.persistence import save_session

        save_session(self.session, path)
        return self

    def consistency_errors(self) -> List[str]:
        """Compare maintained state against a from-scratch build.

        Group membership is checked against a fresh enumeration of the
        dataset.  Then every maintained group is checked against
        :meth:`_rebuild_group` over its own rows: user and item sets,
        the tag multiset (in row order) and the signature bytes, so an
        incrementally maintained signature that drifted from the rebuild
        shows up here.  Returns human-readable discrepancies, each naming
        the group and its first differing field (empty list when
        consistent).  Used by tests and available to callers as a safety
        net after large batches of inserts.
        """
        import dataclasses

        from repro.core.enumeration import enumerate_groups

        config = self.session.enumeration
        uncapped = dataclasses.replace(config, max_groups=None)
        expected = {
            group.description: set(group.tuple_indices)
            for group in enumerate_groups(self.dataset, uncapped)
        }
        actual = {
            group.description: set(group.tuple_indices) for group in self.session.groups
        }
        errors: List[str] = []
        if config.max_groups is None:
            for description in expected:
                if description not in actual:
                    errors.append(f"missing group {description}")
        for description, rows in actual.items():
            if description not in expected:
                errors.append(f"unexpected group {description}")
            elif expected[description] != rows:
                errors.append(f"member mismatch for {description}")
        for group in self.session.groups:
            rebuilt = self._rebuild_group(group.description, group.tuple_indices)
            field = _first_differing_field(group, rebuilt)
            if field is not None:
                errors.append(f"{field} mismatch for {group.description}")
        return errors


def _first_differing_field(
    group: TaggingActionGroup, rebuilt: TaggingActionGroup
) -> Optional[str]:
    """The first of the derived fields on which two groups disagree."""
    for field in ("tuple_indices", "user_ids", "item_ids", "tags"):
        if getattr(group, field) != getattr(rebuilt, field):
            return field
    signature, expected = group.signature, rebuilt.signature
    if (
        signature is None
        or signature.dtype != expected.dtype
        or signature.shape != expected.shape
        or signature.tobytes() != expected.tobytes()
    ):
        return "signature"
    return None
