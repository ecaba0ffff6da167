"""Unit tests for the runtime lock-order witness
(``repro/core/witness.py``).

These tests drive privately-constructed :class:`LockOrderWitness`
instances, never the process-wide singleton, so an armed
``TAGDM_LOCK_WITNESS`` session (the chaos/HTAP CI jobs run the whole
suite with it set) does not see the deliberate inversions seeded here.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.witness import (
    LOCK_HIERARCHY,
    WITNESS_ENV,
    LockOrderViolation,
    LockOrderWitness,
    locked_by,
    named_lock,
    named_rlock,
)

A, B = "shard.submit", "shard.stats"  # A ranks above (outside) B


def _run_in_thread(fn):
    error = []

    def target():
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - surfaced below
            error.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if error:
        raise error[0]


class TestWitnessCore:
    def test_ordered_acquisition_is_clean(self):
        witness = LockOrderWitness()
        witness.note_acquire(A)
        witness.note_acquire(B)
        witness.note_release(B)
        witness.note_release(A)
        assert witness.inversions() == []
        witness.assert_clean()

    def test_seeded_inversion_reports_both_stacks(self):
        witness = LockOrderWitness()
        # thread 1: A -> B (the canonical order)
        witness.note_acquire(A)
        witness.note_acquire(B)
        witness.note_release(B)
        witness.note_release(A)

        # thread 2: B -> A (the inversion)
        def invert():
            witness.note_acquire(B)
            witness.note_acquire(A)
            witness.note_release(A)
            witness.note_release(B)

        _run_in_thread(invert)

        reports = witness.inversions()
        # one rank violation (B held while acquiring A) and one A<->B cycle
        assert len(reports) == 2
        rank_report = next(r for r in reports if "rank violation" in r)
        assert f"{B!r}" in rank_report and f"{A!r}" in rank_report
        # both sides carry their first-observation stack trace
        assert "reverse edge" in rank_report
        assert rank_report.count("test_witness.py") >= 2
        cycle_report = next(r for r in reports if "cycle" in r)
        assert A in cycle_report and B in cycle_report
        with pytest.raises(LockOrderViolation):
            witness.assert_clean()

    def test_cycle_detection_covers_undeclared_names(self):
        witness = LockOrderWitness()
        witness.note_acquire("custom.x")
        witness.note_acquire("custom.y")
        witness.note_release("custom.y")
        witness.note_release("custom.x")

        def invert():
            witness.note_acquire("custom.y")
            witness.note_acquire("custom.x")
            witness.note_release("custom.x")
            witness.note_release("custom.y")

        _run_in_thread(invert)
        reports = witness.inversions()
        assert len(reports) == 1  # no ranks, so only the cycle fires
        assert "cycle" in reports[0]

    def test_reentrant_holds_add_no_edges(self):
        witness = LockOrderWitness()
        witness.note_acquire(A)
        witness.note_acquire(A)  # rlock reentry
        witness.note_acquire(B)
        witness.note_release(B)
        witness.note_release(A)
        witness.note_release(A)
        assert set(witness.edges()) == {(A, B)}
        witness.assert_clean()

    def test_per_thread_stacks_are_independent(self):
        witness = LockOrderWitness()
        witness.note_acquire(A)  # held on the main thread only

        def other():
            witness.note_acquire(B)  # must NOT see A as held
            witness.note_release(B)

        _run_in_thread(other)
        witness.note_release(A)
        assert witness.edges() == {}

    def test_reset_drops_edges(self):
        witness = LockOrderWitness()
        witness.note_acquire(B)
        witness.note_acquire(A)
        witness.note_release(A)
        witness.note_release(B)
        assert witness.inversions()
        witness.reset()
        assert witness.inversions() == []


class TestFactories:
    def test_disabled_factories_return_plain_primitives(self, monkeypatch):
        monkeypatch.delenv(WITNESS_ENV, raising=False)
        lock = named_lock(A)
        assert type(lock) is type(threading.Lock())
        rlock = named_rlock(A)
        assert type(rlock) is type(threading.RLock())

    def test_zero_and_false_disable(self, monkeypatch):
        for value in ("0", "false", ""):
            monkeypatch.setenv(WITNESS_ENV, value)
            assert type(named_lock(A)) is type(threading.Lock())

    def test_enabled_factory_wraps_and_records(self, monkeypatch):
        monkeypatch.setenv(WITNESS_ENV, "1")
        lock = named_lock("custom.wrapped")
        assert lock.__class__.__name__ == "_WitnessedLock"
        witness = lock._witness
        with lock:
            assert witness.held_by_current_thread("custom.wrapped")
            assert lock.locked()
        assert not witness.held_by_current_thread("custom.wrapped")
        assert not lock.locked()

    def test_wrapped_nonblocking_acquire(self, monkeypatch):
        monkeypatch.setenv(WITNESS_ENV, "1")
        lock = named_lock("custom.probe")
        assert lock.acquire(blocking=False) is True
        assert lock.acquire(blocking=False) is False  # held; no double note
        assert lock._witness.held_by_current_thread("custom.probe")
        lock.release()


class TestLockedBy:
    def test_decorator_attaches_metadata_without_wrapping(self):
        def mutate(self):
            return 42

        tagged = locked_by("store.lock")(mutate)
        assert tagged is mutate
        assert tagged.__locked_by__ == ("store.lock",)

    def test_hierarchy_names_are_unique(self):
        assert len(set(LOCK_HIERARCHY)) == len(LOCK_HIERARCHY)
