"""Snapshot rotation policy for long-lived serving shards.

A serving shard absorbs inserts for hours; its warm-start snapshot must
track the store without either fsync-ing on every insert or growing an
unbounded pile of stale files.  This module provides the policy half of
that trade-off:

* :class:`SnapshotRotationPolicy` -- *when* to snapshot: after every N
  inserts and/or every T seconds, whichever fires first;
* :class:`SnapshotRotator` -- *how*: sequence-numbered snapshot files in
  one directory, written atomically (write-then-rename, inherited from
  :func:`repro.core.persistence.save_session`), pruned down to the K
  most recent once a new snapshot lands (compaction of superseded
  files).

Because every write is atomic and pruning only ever removes files that
are strictly older than the newest complete snapshot, a crash at any
point leaves :meth:`SnapshotRotator.latest` pointing at a loadable
snapshot -- either the previous one or the new one, never a torn file.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

__all__ = ["MergePolicy", "SnapshotRotationPolicy", "SnapshotRotator"]


@dataclass(frozen=True)
class MergePolicy:
    """When a delta+main shard folds its delta into a fresh main view.

    The shard lands inserts in the session (the delta) immediately, but
    solves only ever see the last *published* frozen view (the main).
    This policy decides how far the main may trail the delta:

    Parameters
    ----------
    every_inserts:
        Fold after a writer batch once this many actions have
        accumulated in the delta.  The fold runs *before* the batch's
        futures resolve, so with the default of ``1`` an acknowledged
        insert is visible to the very next solve -- the pre-HTAP
        read-your-writes contract.  Larger values amortise the fold
        (and its O(n_groups) freeze) over more inserts at the cost of
        acknowledged-but-not-yet-visible windows.  ``None`` disables
        the insert trigger entirely: folds happen only on the time
        trigger, :meth:`~repro.serving.shards.CorpusShard.merge_now`,
        :meth:`~repro.serving.shards.CorpusShard.flush` or close.
    every_seconds:
        Fold once the oldest unmerged insert is this old, checked after
        every writer batch and on the writer's idle ticks (``None``
        disables the time trigger).
    """

    every_inserts: Optional[int] = 1
    every_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_inserts is not None and self.every_inserts < 1:
            raise ValueError("every_inserts must be >= 1 (or None)")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValueError("every_seconds must be > 0 (or None)")

    def due_on_write(self, delta_size: int) -> bool:
        """Whether a writer batch should fold before acknowledging."""
        if delta_size <= 0:
            return False
        return self.every_inserts is not None and delta_size >= self.every_inserts

    def due_on_timer(self, delta_size: int, delta_age_seconds: float) -> bool:
        """Whether the writer's timer tick should fold now."""
        if delta_size <= 0:
            return False
        return (
            self.every_seconds is not None
            and delta_age_seconds >= self.every_seconds
        )


@dataclass(frozen=True)
class SnapshotRotationPolicy:
    """When a serving shard should take a fresh snapshot.

    Parameters
    ----------
    every_inserts:
        Snapshot after this many inserts since the last snapshot
        (``None`` disables the insert trigger).
    every_seconds:
        Snapshot once this much wall-clock time has passed since the
        last snapshot, provided at least one insert happened (``None``
        disables the time trigger; an idle shard is never re-snapshotted
        -- its last snapshot is already current).
    keep_last:
        How many snapshot files to retain; older ones are deleted after
        each successful rotation.
    """

    every_inserts: Optional[int] = 500
    every_seconds: Optional[float] = None
    keep_last: int = 3

    def __post_init__(self) -> None:
        if self.every_inserts is not None and self.every_inserts < 1:
            raise ValueError("every_inserts must be >= 1 (or None)")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValueError("every_seconds must be > 0 (or None)")
        if self.keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        if self.every_inserts is None and self.every_seconds is None:
            raise ValueError(
                "at least one of every_inserts/every_seconds must be set"
            )

    def due(self, inserts_since: int, seconds_since: float) -> bool:
        """Whether a snapshot is due given progress since the last one."""
        if inserts_since <= 0:
            return False  # nothing new to persist
        if self.every_inserts is not None and inserts_since >= self.every_inserts:
            return True
        if self.every_seconds is not None and seconds_since >= self.every_seconds:
            return True
        return False


class SnapshotRotator:
    """Sequence-numbered, pruned snapshot files for one shard.

    Files are named ``<basename>-<seq:08d>.snapshot`` inside
    ``directory``; the sequence number increases monotonically (resuming
    from whatever files already exist), so "latest" is a pure filename
    comparison and needs no mtime trust.

    Not itself thread-safe: a rotator belongs to exactly one shard,
    whose writer thread is the only caller of :meth:`record_inserts`/
    :meth:`due`/:meth:`rotate`.  :meth:`rotate` blocks
    for the full snapshot serialisation, fsync and prune.
    """

    _SUFFIX = ".snapshot"

    def __init__(
        self,
        directory: Union[str, Path],
        basename: str = "session",
        policy: Optional[SnapshotRotationPolicy] = None,
        fault_plan=None,
    ) -> None:
        if not re.fullmatch(r"[A-Za-z0-9._-]+", basename):
            raise ValueError(
                f"basename {basename!r} must be filesystem-safe "
                "(letters, digits, dot, underscore, dash)"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.basename = basename
        self.policy = policy or SnapshotRotationPolicy()
        #: Optional :class:`~repro.serving.reliability.FaultPlan`; fired
        #: at the ``snapshot.write`` point just before each rotation's
        #: save (chaos-testing hook, inert when ``None``).
        self.fault_plan = fault_plan
        # A process SIGKILLed mid-save leaves the staging file behind
        # (clean failures unlink it); it can never be mistaken for a
        # snapshot (the atomic rename never ran) but would pile up
        # forever.  This rotator now owns the directory, so sweep them.
        self._clean_stale_staging()
        self._pattern = re.compile(
            re.escape(basename) + r"-(\d{8})" + re.escape(self._SUFFIX) + r"\Z"
        )
        self.rotations = 0
        #: Wall-clock epoch of the last successful :meth:`rotate` (or
        #: ``None`` before the first one) -- surfaced by the serving
        #: stats so operators can see snapshot freshness.
        self.last_rotation_at: Optional[float] = None
        self._inserts_since = 0
        self._last_rotation_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # Snapshot inventory
    # ------------------------------------------------------------------
    def _clean_stale_staging(self) -> List[Path]:
        """Delete orphaned ``*.snapshot.tmp-<pid>`` staging files.

        Safe because exactly one rotator (one shard, one process) owns a
        snapshot directory at a time: any staging file present when the
        rotator is constructed belongs to a previous, dead owner.
        """
        removed: List[Path] = []
        for path in self.directory.glob(
            f"{self.basename}-*{self._SUFFIX}.tmp-*"
        ):
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - racing cleaner
                continue
            removed.append(path)
        return removed

    def snapshot_paths(self) -> List[Path]:
        """Existing snapshots of this shard, oldest first."""
        entries = []
        for path in self.directory.iterdir():
            match = self._pattern.fullmatch(path.name)
            if match:
                entries.append((int(match.group(1)), path))
        return [path for _seq, path in sorted(entries)]

    def latest(self) -> Optional[Path]:
        """The most recent complete snapshot, or ``None``."""
        paths = self.snapshot_paths()
        return paths[-1] if paths else None

    def _next_path(self) -> Path:
        paths = self.snapshot_paths()
        if paths:
            last = int(self._pattern.fullmatch(paths[-1].name).group(1))
        else:
            last = 0
        return self.directory / f"{self.basename}-{last + 1:08d}{self._SUFFIX}"

    # ------------------------------------------------------------------
    # Policy bookkeeping
    # ------------------------------------------------------------------
    def record_inserts(self, count: int) -> None:
        """Tell the rotator ``count`` inserts were applied to the session."""
        self._inserts_since += int(count)

    @property
    def inserts_since_rotation(self) -> int:
        """Inserts applied since the last successful rotation."""
        return self._inserts_since

    def due(self) -> bool:
        """Whether the policy says it is time to rotate."""
        return self.policy.due(
            self._inserts_since, time.monotonic() - self._last_rotation_monotonic
        )

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def rotate(self, session) -> Path:
        """Write a new snapshot of ``session`` and prune superseded files.

        The write is atomic (``save_session`` stages to a temp file and
        renames); pruning runs only after the rename succeeded, so a
        failure anywhere leaves the previous snapshot in place.
        """
        from repro.core.persistence import save_session  # lazy: keep import light

        if self.fault_plan is not None:
            self.fault_plan.fire("snapshot.write", basename=self.basename)
        path = save_session(session, self._next_path())
        self.rotations += 1
        self.last_rotation_at = time.time()
        self._inserts_since = 0
        self._last_rotation_monotonic = time.monotonic()
        self.prune()
        return path

    def prune(self) -> List[Path]:
        """Delete all but the ``keep_last`` newest snapshots.

        Returns the removed paths.  Missing files (a concurrent pruner,
        manual cleanup) are skipped silently.
        """
        paths = self.snapshot_paths()
        excess = paths[: -self.policy.keep_last] if self.policy.keep_last else paths
        removed: List[Path] = []
        for path in excess:
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - racing cleaner
                continue
            removed.append(path)
        return removed
