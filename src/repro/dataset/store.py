"""In-memory columnar store of tagging actions.

The paper models a social tagging site as a triple ``<U, I, T>`` of users,
items and the tag vocabulary, and every tagging action as a triple
``<u, i, T>`` with ``T`` a subset of the vocabulary (Section 2).  Each
action is then expanded into a tuple that concatenates the user
attributes, the item attributes and the tags.  :class:`TaggingDataset`
stores those expanded tuples column-wise, maintains posting lists (value
-> row ids) for every attribute, and supports the conjunctive-predicate
filtering that *describable* tagging-action groups are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.vocab import TagVocabulary

__all__ = ["TaggingAction", "TaggingDataset", "DatasetStats"]

USER_PREFIX = "user."
ITEM_PREFIX = "item."


@dataclass(frozen=True)
class TaggingAction:
    """One expanded tagging-action tuple.

    Attributes mirror the paper's tuple
    ``r = <r_u.a1, ..., r_i.a1, ..., T>`` plus the identifiers of the user
    and item the action came from and an optional numeric rating (the
    MovieLens data the paper uses carries ratings alongside tags).
    """

    index: int
    user_id: str
    item_id: str
    user_attributes: Mapping[str, str]
    item_attributes: Mapping[str, str]
    tags: Tuple[str, ...]
    rating: Optional[float] = None

    def attribute(self, column: str) -> Optional[str]:
        """Return the value of a prefixed column such as ``user.gender``."""
        if column.startswith(USER_PREFIX):
            return self.user_attributes.get(column[len(USER_PREFIX):])
        if column.startswith(ITEM_PREFIX):
            return self.item_attributes.get(column[len(ITEM_PREFIX):])
        raise KeyError(f"column {column!r} must start with 'user.' or 'item.'")


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics of a :class:`TaggingDataset`."""

    n_actions: int
    n_users: int
    n_items: int
    n_distinct_tags: int
    n_tag_assignments: int
    mean_tags_per_action: float
    user_attributes: Tuple[str, ...]
    item_attributes: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        """Return the statistics as a plain dictionary (for reporting)."""
        return {
            "n_actions": self.n_actions,
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_distinct_tags": self.n_distinct_tags,
            "n_tag_assignments": self.n_tag_assignments,
            "mean_tags_per_action": self.mean_tags_per_action,
            "user_attributes": list(self.user_attributes),
            "item_attributes": list(self.item_attributes),
        }


class TaggingDataset:
    """Columnar store of expanded tagging-action tuples.

    Parameters
    ----------
    user_schema:
        Ordered sequence of user attribute names (the paper's ``S_U``).
    item_schema:
        Ordered sequence of item attribute names (the paper's ``S_I``).
    name:
        Optional human-readable dataset name, used in reports.
    """

    def __init__(
        self,
        user_schema: Sequence[str],
        item_schema: Sequence[str],
        name: str = "tagging-dataset",
    ) -> None:
        if not user_schema and not item_schema:
            raise ValueError("at least one of user_schema/item_schema is required")
        self.name = name
        self._user_schema: Tuple[str, ...] = tuple(user_schema)
        self._item_schema: Tuple[str, ...] = tuple(item_schema)

        self._users: Dict[str, Dict[str, str]] = {}
        self._items: Dict[str, Dict[str, str]] = {}

        # Column storage for the expanded tuples.
        self._user_ids: List[str] = []
        self._item_ids: List[str] = []
        self._tags: List[Tuple[str, ...]] = []
        self._ratings: List[Optional[float]] = []
        self._columns: Dict[str, List[str]] = {
            USER_PREFIX + attr: [] for attr in self._user_schema
        }
        self._columns.update(
            {ITEM_PREFIX + attr: [] for attr in self._item_schema}
        )

        # Posting lists: column -> value -> list of row indices.
        self._postings: Dict[str, Dict[str, List[int]]] = {
            column: {} for column in self._columns
        }
        self._tag_vocabulary = TagVocabulary()

    # ------------------------------------------------------------------
    # Schema / registration
    # ------------------------------------------------------------------
    @property
    def user_schema(self) -> Tuple[str, ...]:
        """The user attribute schema ``S_U``."""
        return self._user_schema

    @property
    def item_schema(self) -> Tuple[str, ...]:
        """The item attribute schema ``S_I``."""
        return self._item_schema

    @property
    def columns(self) -> Tuple[str, ...]:
        """All prefixed attribute columns (``user.*`` then ``item.*``)."""
        return tuple(self._columns)

    def register_user(self, user_id: str, attributes: Mapping[str, str]) -> None:
        """Register a user and its attribute values.

        Missing attributes default to the sentinel value ``"unknown"``;
        unknown attribute names raise ``ValueError`` so schema drift is
        caught early.
        """
        self._users[str(user_id)] = self._conform(attributes, self._user_schema, "user")

    def register_item(self, item_id: str, attributes: Mapping[str, str]) -> None:
        """Register an item and its attribute values."""
        self._items[str(item_id)] = self._conform(attributes, self._item_schema, "item")

    @staticmethod
    def _conform(
        attributes: Mapping[str, str],
        schema: Sequence[str],
        kind: str,
    ) -> Dict[str, str]:
        unknown = set(attributes) - set(schema)
        if unknown:
            raise ValueError(f"unknown {kind} attributes: {sorted(unknown)}")
        return {attr: str(attributes.get(attr, "unknown")) for attr in schema}

    def has_user(self, user_id: str) -> bool:
        """Return whether ``user_id`` has been registered."""
        return str(user_id) in self._users

    def has_item(self, item_id: str) -> bool:
        """Return whether ``item_id`` has been registered."""
        return str(item_id) in self._items

    def user_attributes(self, user_id: str) -> Dict[str, str]:
        """Return a copy of the registered attributes of ``user_id``."""
        return dict(self._users[str(user_id)])

    def item_attributes(self, item_id: str) -> Dict[str, str]:
        """Return a copy of the registered attributes of ``item_id``."""
        return dict(self._items[str(item_id)])

    def registered_users(self) -> Iterator[Tuple[str, Dict[str, str]]]:
        """Iterate ``(user_id, attributes)`` in registration order.

        Includes users registered but never referenced by an action, so
        durable stores can persist the full registry losslessly.
        """
        for user_id, attributes in self._users.items():
            yield user_id, dict(attributes)

    def registered_items(self) -> Iterator[Tuple[str, Dict[str, str]]]:
        """Iterate ``(item_id, attributes)`` in registration order."""
        for item_id, attributes in self._items.items():
            yield item_id, dict(attributes)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_action(
        self,
        user_id: str,
        item_id: str,
        tags: Iterable[str],
        rating: Optional[float] = None,
    ) -> int:
        """Append a tagging action and return its row index.

        The user and item must have been registered beforehand so the
        expanded tuple can be materialised with their attributes.
        """
        user_id = str(user_id)
        item_id = str(item_id)
        if user_id not in self._users:
            raise KeyError(f"user {user_id!r} has not been registered")
        if item_id not in self._items:
            raise KeyError(f"item {item_id!r} has not been registered")

        tag_tuple = tuple(dict.fromkeys(str(t) for t in tags))
        row = len(self._user_ids)
        self._user_ids.append(user_id)
        self._item_ids.append(item_id)
        self._tags.append(tag_tuple)
        self._ratings.append(None if rating is None else float(rating))

        user_attrs = self._users[user_id]
        item_attrs = self._items[item_id]
        for attr in self._user_schema:
            column = USER_PREFIX + attr
            value = user_attrs[attr]
            self._columns[column].append(value)
            self._postings[column].setdefault(value, []).append(row)
        for attr in self._item_schema:
            column = ITEM_PREFIX + attr
            value = item_attrs[attr]
            self._columns[column].append(value)
            self._postings[column].setdefault(value, []).append(row)

        for tag in tag_tuple:
            self._tag_vocabulary.record_usage(tag)
        return row

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._user_ids)

    @property
    def n_actions(self) -> int:
        """Number of expanded tagging-action tuples."""
        return len(self._user_ids)

    @property
    def n_users(self) -> int:
        """Number of registered users."""
        return len(self._users)

    @property
    def n_items(self) -> int:
        """Number of registered items."""
        return len(self._items)

    @property
    def tag_vocabulary(self) -> TagVocabulary:
        """The dataset-wide tag vocabulary with usage counts."""
        return self._tag_vocabulary

    def action(self, index: int) -> TaggingAction:
        """Materialise the expanded tuple at ``index``."""
        if index < 0 or index >= len(self._user_ids):
            raise IndexError(f"action index {index} out of range")
        user_id = self._user_ids[index]
        item_id = self._item_ids[index]
        return TaggingAction(
            index=index,
            user_id=user_id,
            item_id=item_id,
            user_attributes=dict(self._users[user_id]),
            item_attributes=dict(self._items[item_id]),
            tags=self._tags[index],
            rating=self._ratings[index],
        )

    def actions(self, indices: Optional[Iterable[int]] = None) -> Iterator[TaggingAction]:
        """Iterate expanded tuples, optionally restricted to ``indices``."""
        if indices is None:
            indices = range(len(self._user_ids))
        for index in indices:
            yield self.action(int(index))

    def tags_of(self, index: int) -> Tuple[str, ...]:
        """Return the tag set of the action at ``index``."""
        return self._tags[index]

    def rating_of(self, index: int) -> Optional[float]:
        """Return the rating of the action at ``index`` (or ``None``)."""
        return self._ratings[index]

    def user_of(self, index: int) -> str:
        """Return the user id of the action at ``index``."""
        return self._user_ids[index]

    def item_of(self, index: int) -> str:
        """Return the item id of the action at ``index``."""
        return self._item_ids[index]

    def column_value(self, column: str, index: int) -> str:
        """Return one tuple's value of a prefixed attribute (no column copy)."""
        if column not in self._columns:
            raise KeyError(f"unknown column {column!r}")
        return self._columns[column][index]

    def column_values(self, column: str) -> List[str]:
        """Return the full column of values for a prefixed attribute."""
        if column not in self._columns:
            raise KeyError(f"unknown column {column!r}")
        return list(self._columns[column])

    def distinct_values(self, column: str) -> List[str]:
        """Return the distinct values of a prefixed attribute column."""
        if column not in self._postings:
            raise KeyError(f"unknown column {column!r}")
        return sorted(self._postings[column])

    def value_counts(self, column: str) -> Dict[str, int]:
        """Return ``value -> number of tuples`` for a prefixed column."""
        if column not in self._postings:
            raise KeyError(f"unknown column {column!r}")
        return {value: len(rows) for value, rows in self._postings[column].items()}

    # ------------------------------------------------------------------
    # Predicate filtering
    # ------------------------------------------------------------------
    def matching_indices(self, predicates: Mapping[str, str]) -> np.ndarray:
        """Return row indices of tuples matching a conjunctive predicate.

        ``predicates`` maps prefixed columns (``user.gender``,
        ``item.genre``...) to required values.  An empty predicate matches
        every tuple.  The intersection is computed over posting lists,
        smallest first, so highly selective predicates short-circuit fast.
        """
        if not predicates:
            return np.arange(len(self._user_ids), dtype=np.int64)

        posting_lists: List[List[int]] = []
        for column, value in predicates.items():
            if column not in self._postings:
                raise KeyError(f"unknown column {column!r}")
            rows = self._postings[column].get(str(value))
            if not rows:
                return np.empty(0, dtype=np.int64)
            posting_lists.append(rows)

        posting_lists.sort(key=len)
        result = set(posting_lists[0])
        for rows in posting_lists[1:]:
            result.intersection_update(rows)
            if not result:
                return np.empty(0, dtype=np.int64)
        return np.array(sorted(result), dtype=np.int64)

    def support(self, predicates: Mapping[str, str]) -> int:
        """Return how many tuples match the conjunctive predicate."""
        return int(len(self.matching_indices(predicates)))

    def filter(self, predicates: Mapping[str, str], name: Optional[str] = None) -> "TaggingDataset":
        """Return a new dataset containing only matching tuples.

        Users and items referenced by the surviving tuples are carried
        over; the sub-dataset shares no mutable state with the parent.
        """
        indices = self.matching_indices(predicates)
        subset = TaggingDataset(
            self._user_schema,
            self._item_schema,
            name=name or f"{self.name}[filtered]",
        )
        for index in indices:
            index = int(index)
            user_id = self._user_ids[index]
            item_id = self._item_ids[index]
            if not subset.has_user(user_id):
                subset.register_user(user_id, self._users[user_id])
            if not subset.has_item(item_id):
                subset.register_item(item_id, self._items[item_id])
            subset.add_action(
                user_id, item_id, self._tags[index], self._ratings[index]
            )
        return subset

    def prefix(
        self,
        n_actions: int,
        n_users: Optional[int] = None,
        n_items: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "TaggingDataset":
        """Return the dataset as it was after its first ``n_actions`` rows.

        Because actions are append-only and users/items are registered in
        first-sight order, the first ``n_actions`` rows plus the first
        ``n_users`` / ``n_items`` registrations reconstruct an earlier
        state of the corpus exactly -- which is what lets a warm-start
        snapshot taken at that point load against the prefix and then
        replay the tail (:meth:`repro.serving.server.TagDMServer.open_corpus`).
        ``n_users`` / ``n_items`` default to every registration (callers
        that know the historical registry sizes pass them explicitly).
        The name is kept by default so dataset fingerprints line up.
        """
        if n_actions < 0 or n_actions > self.n_actions:
            raise ValueError(
                f"prefix length {n_actions} out of range [0, {self.n_actions}]"
            )
        subset = TaggingDataset(
            self._user_schema, self._item_schema, name=name or self.name
        )
        for position, (user_id, attributes) in enumerate(self._users.items()):
            if n_users is not None and position >= n_users:
                break
            subset.register_user(user_id, attributes)
        for position, (item_id, attributes) in enumerate(self._items.items()):
            if n_items is not None and position >= n_items:
                break
            subset.register_item(item_id, attributes)
        for index in range(n_actions):
            subset.add_action(
                self._user_ids[index],
                self._item_ids[index],
                self._tags[index],
                self._ratings[index],
            )
        return subset

    def sample(self, n: int, seed: int = 0, name: Optional[str] = None) -> "TaggingDataset":
        """Return a uniformly sampled sub-dataset of ``n`` tuples.

        Used by the Figure 7/8 experiments to build the 5K/10K/20K/30K
        tagging-tuple bins.
        """
        if n < 0:
            raise ValueError("sample size must be non-negative")
        n = min(n, self.n_actions)
        rng = np.random.default_rng(seed)
        chosen = rng.choice(self.n_actions, size=n, replace=False)
        chosen.sort()
        subset = TaggingDataset(
            self._user_schema,
            self._item_schema,
            name=name or f"{self.name}[sample-{n}]",
        )
        for index in chosen:
            index = int(index)
            user_id = self._user_ids[index]
            item_id = self._item_ids[index]
            if not subset.has_user(user_id):
                subset.register_user(user_id, self._users[user_id])
            if not subset.has_item(item_id):
                subset.register_item(item_id, self._items[item_id])
            subset.add_action(
                user_id, item_id, self._tags[index], self._ratings[index]
            )
        return subset

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def tags_for_indices(self, indices: Iterable[int]) -> List[str]:
        """Return the concatenation of tag lists of the given tuples."""
        tags: List[str] = []
        for index in indices:
            tags.extend(self._tags[int(index)])
        return tags

    def items_for_indices(self, indices: Iterable[int]) -> set:
        """Return the set of item ids tagged by the given tuples."""
        return {self._item_ids[int(index)] for index in indices}

    def users_for_indices(self, indices: Iterable[int]) -> set:
        """Return the set of user ids appearing in the given tuples."""
        return {self._user_ids[int(index)] for index in indices}

    def stats(self) -> DatasetStats:
        """Compute summary statistics of the dataset."""
        n_assignments = sum(len(tags) for tags in self._tags)
        mean_tags = n_assignments / self.n_actions if self.n_actions else 0.0
        return DatasetStats(
            n_actions=self.n_actions,
            n_users=self.n_users,
            n_items=self.n_items,
            n_distinct_tags=len(self._tag_vocabulary),
            n_tag_assignments=n_assignments,
            mean_tags_per_action=mean_tags,
            user_attributes=self._user_schema,
            item_attributes=self._item_schema,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaggingDataset(name={self.name!r}, actions={self.n_actions}, "
            f"users={self.n_users}, items={self.n_items}, "
            f"tags={len(self._tag_vocabulary)})"
        )
