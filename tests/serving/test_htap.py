"""Tests for the delta+main (HTAP) serving split.

Covers writer-thread ownership of the session (one thread per shard
that also serves the fold/rotation timers and queued fold requests),
consistent stats snapshots, epoch pinning, snapshot
visibility semantics -- an insert acknowledged via the delta appears in
the next merged view exactly once, including across merge crashes
injected at the ``merge.pre_fold`` / ``merge.post_fold`` fault points --
and delta-vs-merged solve parity against a serialized replay.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.enumeration import GroupEnumerationConfig
from repro.core.incremental import IncrementalTagDM, SessionView
from repro.core.problem import table1_problem
from repro.dataset.synthetic import generate_movielens_style
from repro.serving import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    MergePolicy,
    SnapshotRotationPolicy,
    TagDMServer,
)
from repro.serving.shards import CorpusShard

ENUMERATION = GroupEnumerationConfig(min_support=5)
SEED = 17


def make_dataset():
    return generate_movielens_style(n_users=40, n_items=80, n_actions=600, seed=SEED)


def make_server(root, **kwargs) -> TagDMServer:
    policy = SnapshotRotationPolicy(every_inserts=50, keep_last=2)
    return TagDMServer(
        root,
        policy=policy,
        enumeration=ENUMERATION,
        signature_backend="frequency",
        seed=3,
        **kwargs,
    )


def actions_for(dataset, label: str, count: int):
    """Deterministic insert payloads over existing users/items."""
    return [
        {
            "user_id": dataset.user_of((i * 7) % dataset.n_actions),
            "item_id": dataset.item_of((i * 11) % dataset.n_actions),
            "tags": (f"tag-{label}-{i}", "served"),
            "rating": float(i % 5),
        }
        for i in range(count)
    ]


def make_problem(shard):
    return table1_problem(1, k=3, min_support=shard.session.default_support())


def result_key(result):
    """Everything a bit-identical solve comparison needs."""
    return (
        result.feasible,
        result.objective_value,
        tuple(group.description for group in result.groups),
        tuple(group.tuple_indices for group in result.groups),
    )


def rows_tagged(dataset, tag: str):
    """Dataset row indices whose tag tuple contains ``tag``."""
    return [
        row for row in range(dataset.n_actions) if tag in dataset.tags_of(row)
    ]


class TestWriterThread:
    """The shard's writer thread is the only thread that touches its
    session: it applies batches, serves both timer triggers and runs
    merge_now()'s fold in queue order."""

    def test_shard_starts_exactly_one_thread(self):
        session = IncrementalTagDM(
            make_dataset(), enumeration=ENUMERATION, signature_backend="frequency", seed=3
        ).prepare()
        before = set(threading.enumerate())
        shard = CorpusShard("solo", session)
        # The shard names its threads after itself; filtering on that
        # keeps unrelated background threads out of the count.
        started = [
            thread
            for thread in set(threading.enumerate()) - before
            if thread.name.endswith("-solo")
        ]
        assert [thread.name for thread in started] == ["tagdm-shard-solo"]
        shard.insert_batch(actions_for(shard.session.dataset, "solo", 2))
        epoch = shard.current_view().epoch
        shard.close(final_snapshot=False)
        assert not any(thread.is_alive() for thread in started)
        # A closed shard has nothing left to fold: the last epoch stands.
        assert shard.merge_now() == epoch

    def test_timers_fold_and_rotate_an_idle_shard(self, tmp_path):
        """With both insert triggers off, only the writer's idle ticks
        can fold the delta and rotate the snapshot -- no merge_now()."""
        dataset = make_dataset()
        server = TagDMServer(
            tmp_path,
            policy=SnapshotRotationPolicy(every_inserts=None, every_seconds=0.05),
            merge_policy=MergePolicy(every_inserts=None, every_seconds=0.05),
            enumeration=ENUMERATION,
            signature_backend="frequency",
            seed=3,
        )
        shard = server.add_corpus("movies", dataset)
        base = shard.stats()
        base_actions = shard.current_view().n_actions
        shard.insert_batch(actions_for(dataset, "timer", 1))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            stats = shard.stats()
            if (
                stats["delta_size"] == 0
                and stats["snapshots_written"] > base["snapshots_written"]
            ):
                break
            time.sleep(0.02)
        assert stats["delta_size"] == 0
        assert stats["merge_count"] == 1
        assert stats["epoch"] == base["epoch"] + 1
        assert stats["snapshots_written"] == base["snapshots_written"] + 1
        assert stats["last_rotation_error"] is None
        assert shard.current_view().n_actions == base_actions + 1
        server.close()

    def test_merge_now_waits_for_a_sleeping_apply(self, tmp_path):
        """A fold requested while the writer sleeps inside an apply queues
        behind that batch, so the epoch it returns contains it."""
        dataset = make_dataset()
        plan = FaultPlan(
            [FaultRule("shard.apply", "sleep", at=1, sleep_seconds=1.0)]
        )
        server = make_server(
            tmp_path,
            merge_policy=MergePolicy(every_inserts=None),
            fault_plan=plan,
        )
        shard = server.add_corpus("movies", dataset)
        base_actions = shard.current_view().n_actions

        future = shard.submit_insert(actions_for(dataset, "asleep", 2))
        time.sleep(0.1)  # the writer is now asleep inside the apply
        epoch = shard.merge_now()
        assert future.done()
        view = shard.current_view()
        assert view.epoch == epoch
        assert view.n_actions == base_actions + 2
        assert len(rows_tagged(shard.session.dataset, "tag-asleep-1")) == 1
        assert [entry[0] for entry in plan.fired] == ["shard.apply"]
        server.close()

    def test_session_is_touched_only_by_the_writer_thread(self, tmp_path):
        """Inserts, merge_now(), flush() and close() from many client
        threads: every apply, fold and snapshot runs on the writer thread,
        and no two of them ever overlap."""
        dataset = make_dataset()
        # No fold on write: every fold is one a client asked for.
        server = make_server(tmp_path, merge_policy=MergePolicy(every_inserts=None))
        shard = server.add_corpus("movies", dataset)
        base_actions = shard.current_view().n_actions
        guard = threading.Lock()
        calls = []
        active = [0]
        peak = [0]

        def record(kind, method):
            def wrapper(*args, **kwargs):
                with guard:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                    calls.append((kind, threading.current_thread().name))
                try:
                    return method(*args, **kwargs)
                finally:
                    with guard:
                        active[0] -= 1

            return wrapper

        shard.session.add_actions = record("apply", shard.session.add_actions)
        shard.session.freeze = record("fold", shard.session.freeze)
        shard.rotator.rotate = record("rotate", shard.rotator.rotate)

        def client(worker):
            for step in range(5):
                shard.insert_batch(actions_for(dataset, f"w{worker}s{step}", 3))
                if step % 2:
                    shard.merge_now()
                else:
                    shard.flush()

        threads = [threading.Thread(target=client, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        server.close()

        assert {kind for kind, _ in calls} == {"apply", "fold", "rotate"}
        assert {name for _, name in calls} == {"tagdm-shard-movies"}
        assert peak[0] == 1
        assert shard.current_view().n_actions == base_actions + 60
        assert shard.session.consistency_errors() == []

    def test_concurrent_solves_never_wait_for_the_writer(self, tmp_path):
        """Several solves issued while the writer sleeps inside an apply
        all finish on the published view before the apply does, and
        agree with a solve made before the insert."""
        dataset = make_dataset()
        plan = FaultPlan(
            [FaultRule("shard.apply", "sleep", at=1, sleep_seconds=3.0)]
        )
        server = make_server(tmp_path, fault_plan=plan)
        shard = server.add_corpus("movies", dataset)
        problem = make_problem(shard)
        expected = result_key(shard.solve(problem))  # also warms the view
        epoch = shard.current_view().epoch

        future = shard.submit_insert(actions_for(dataset, "readers", 2))
        time.sleep(0.1)  # the writer is now asleep inside the apply
        results = []

        def reader():
            results.append(result_key(shard.solve(problem)))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not future.done(), "the solves waited for the writer"
        assert results == [expected] * 4
        assert shard.current_view().epoch == epoch
        future.result(timeout=30.0)
        assert shard.current_view().epoch > epoch
        server.close()

    def test_merge_requests_in_one_batch_share_one_fold(self, tmp_path):
        """merge_now() calls queued behind the same apply are answered by
        a single fold: one failure, raised to every caller, and the next
        request folds the delta."""
        dataset = make_dataset()
        plan = FaultPlan(
            [
                FaultRule("shard.apply", "sleep", at=1, sleep_seconds=1.0),
                FaultRule("merge.pre_fold", "crash", at=1),
            ]
        )
        server = make_server(
            tmp_path,
            merge_policy=MergePolicy(every_inserts=None),
            fault_plan=plan,
        )
        shard = server.add_corpus("movies", dataset)
        base_epoch = shard.stats()["epoch"]
        base_actions = shard.current_view().n_actions

        future = shard.submit_insert(actions_for(dataset, "shared", 2))
        time.sleep(0.1)  # the writer is now asleep inside the apply
        errors = []

        def request():
            try:
                shard.merge_now()
            except InjectedFault as exc:
                errors.append(exc)

        threads = [threading.Thread(target=request) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(errors) == 3
        assert errors[0] is errors[1] is errors[2]
        assert future.result(timeout=30.0).actions_added == 2
        stats = shard.stats()
        assert stats["merge_failures"] == 1
        assert stats["merge_count"] == 0
        assert stats["delta_size"] == 2

        assert shard.merge_now() == base_epoch + 1
        assert shard.current_view().n_actions == base_actions + 2
        assert [entry[0] for entry in plan.fired] == [
            "shard.apply",
            "merge.pre_fold",
        ]
        server.close()

    def test_close_folds_and_snapshots_the_leftover_delta(self, tmp_path):
        """With no trigger due, close() alone publishes the delta and
        writes the final snapshot, and a reopen starts warm from it."""

        def open_server():
            return TagDMServer(
                tmp_path,
                policy=SnapshotRotationPolicy(every_inserts=10_000),
                merge_policy=MergePolicy(every_inserts=None),
                enumeration=ENUMERATION,
                signature_backend="frequency",
                seed=3,
            )

        dataset = make_dataset()
        server = open_server()
        shard = server.add_corpus("movies", dataset)
        base = shard.stats()
        base_actions = shard.current_view().n_actions
        shard.insert_batch(actions_for(dataset, "closing", 3))
        assert shard.stats()["delta_size"] == 3
        server.close()

        stats = shard.stats()
        assert stats["delta_size"] == 0
        assert stats["merge_count"] == 1
        assert stats["epoch"] == base["epoch"] + 1
        assert stats["snapshots_written"] == base["snapshots_written"] + 1
        assert shard.current_view().n_actions == base_actions + 3

        reopened = open_server()
        warm = reopened.open_corpus("movies")
        assert warm.start_mode == "warm"
        assert warm.current_view().n_actions == base_actions + 3
        assert len(rows_tagged(warm.session.dataset, "tag-closing-1")) == 1
        reopened.close()


class TestSnapshotVisibility:
    """An insert acked via the delta appears in the next merged view
    exactly once -- with lazy merges, across merge_now, and across merge
    crashes injected at the merge fault points."""

    def test_lazy_policy_ack_lands_in_delta_then_merges_once(self, tmp_path):
        dataset = make_dataset()
        server = make_server(tmp_path, merge_policy=MergePolicy(every_inserts=None))
        shard = server.add_corpus("movies", dataset)
        base_epoch = shard.stats()["epoch"]
        base_actions = shard.current_view().n_actions

        shard.insert_batch(actions_for(dataset, "lazy", 3))
        stats = shard.stats()
        assert stats["delta_size"] == 3  # acked and applied, not yet visible
        assert stats["epoch"] == base_epoch
        assert stats["merge_count"] == 0
        assert stats["merge_lag_s"] >= 0.0
        assert shard.current_view().n_actions == base_actions

        epoch = shard.merge_now()
        stats = shard.stats()
        assert epoch == base_epoch + 1
        assert stats["delta_size"] == 0
        assert stats["merge_count"] == 1
        assert stats["merge_lag_s"] == 0.0
        assert shard.current_view().n_actions == base_actions + 3
        # Exactly once: each inserted action occupies exactly one row.
        assert len(rows_tagged(shard.session.dataset, "tag-lazy-0")) == 1
        assert shard.session.consistency_errors() == []
        server.close()

    def test_default_policy_folds_before_ack(self, tmp_path):
        dataset = make_dataset()
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", dataset)
        base_epoch = shard.stats()["epoch"]
        shard.insert_batch(actions_for(dataset, "sync", 2))
        stats = shard.stats()  # no flush: the ack itself implies the fold
        assert stats["delta_size"] == 0
        assert stats["epoch"] > base_epoch
        server.close()

    @pytest.mark.parametrize("point", ["merge.pre_fold", "merge.post_fold"])
    def test_insert_survives_merge_crash_exactly_once(self, tmp_path, point):
        dataset = make_dataset()
        plan = FaultPlan([FaultRule(point, "crash", at=1)])
        server = make_server(
            tmp_path,
            merge_policy=MergePolicy(every_inserts=None),
            fault_plan=plan,
        )
        shard = server.add_corpus("movies", dataset)
        base_actions = shard.current_view().n_actions

        shard.insert_batch(actions_for(dataset, "crash", 4))
        with pytest.raises(InjectedFault):
            shard.merge_now()
        stats = shard.stats()
        assert stats["merge_failures"] == 1
        assert stats["last_merge_error"] is not None
        if point == "merge.pre_fold":
            # Crash before the fold: nothing published, delta intact.
            assert stats["merge_count"] == 0
            assert stats["delta_size"] == 4
            assert shard.current_view().n_actions == base_actions
        else:
            # Crash after publication: the fold itself completed.
            assert stats["merge_count"] == 1
            assert stats["delta_size"] == 0
            assert shard.current_view().n_actions == base_actions + 4

        # The rule is spent; the next merge folds whatever is still
        # unmerged -- and the batch lands exactly once either way.
        shard.merge_now()
        stats = shard.stats()
        assert stats["delta_size"] == 0
        assert shard.current_view().n_actions == base_actions + 4
        if point == "merge.pre_fold":
            assert stats["merge_count"] == 1
            assert stats["last_merge_error"] is None  # cleared by the fold
        assert len(rows_tagged(shard.session.dataset, "tag-crash-2")) == 1
        assert shard.session.consistency_errors() == []
        assert [entry[0] for entry in plan.fired] == [point]
        server.close()

    def test_crashed_writer_fold_recovers_on_next_batch(self, tmp_path):
        """Under the default fold-per-batch policy a crashed fold must not
        fail the insert (it is durably applied) -- the next batch's fold
        publishes both batches."""
        dataset = make_dataset()
        plan = FaultPlan([FaultRule("merge.pre_fold", "crash", at=1)])
        server = make_server(tmp_path, fault_plan=plan)
        shard = server.add_corpus("movies", dataset)
        base_actions = shard.current_view().n_actions

        report = shard.insert_batch(actions_for(dataset, "recover", 2))
        assert report.actions_added == 2  # acked despite the crashed fold
        assert shard.stats()["delta_size"] == 2
        shard.insert_batch(actions_for(dataset, "recover2", 1))
        stats = shard.stats()
        assert stats["delta_size"] == 0
        assert stats["merge_failures"] == 1
        assert stats["last_merge_error"] is None  # cleared by the good fold
        assert shard.current_view().n_actions == base_actions + 3
        server.close()


class TestEpochPinning:
    def test_long_solve_keeps_its_epoch_pinned_across_merges(self, tmp_path):
        dataset = make_dataset()
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", dataset)
        problem = make_problem(shard)

        in_solve = threading.Event()
        release = threading.Event()
        original_solve = SessionView.solve

        def slow_solve(view, *args, **kwargs):
            in_solve.set()
            release.wait(timeout=10.0)
            return original_solve(view, *args, **kwargs)

        solver_result = {}

        def solver():
            solver_result["result"] = shard.solve(problem)

        thread = threading.Thread(target=solver, daemon=True)
        try:
            SessionView.solve = slow_solve
            thread.start()
            assert in_solve.wait(timeout=10.0)
            SessionView.solve = original_solve
            start_epoch = shard.stats()["epoch"]
            shard.insert_batch(actions_for(dataset, "pin", 2))
            stats = shard.stats()
            assert stats["epoch"] > start_epoch  # merges kept advancing
            assert stats["pinned_epochs"] == {str(start_epoch): 1}
            assert stats["pinned_solves"] == 1
        finally:
            SessionView.solve = original_solve
            release.set()
            thread.join(timeout=30.0)
        assert solver_result["result"] is not None
        stats = shard.stats()
        assert stats["pinned_epochs"] == {}
        assert stats["pinned_solves"] == 0
        server.close()

    def test_solve_does_not_wait_for_a_busy_writer(self, tmp_path):
        """A solve issued while the writer is mid-apply must complete
        against the current view instead of stalling behind the write --
        the pre-HTAP shard held the read lock for the whole solve, so
        this exact schedule used to serialize."""
        dataset = make_dataset()
        plan = FaultPlan(
            [FaultRule("shard.apply", "sleep", at=1, sleep_seconds=1.5)]
        )
        server = make_server(tmp_path, fault_plan=plan)
        shard = server.add_corpus("movies", dataset)
        problem = make_problem(shard)
        shard.solve(problem)  # warm the view's lazy caches

        future = shard.submit_insert(actions_for(dataset, "busy", 2))
        time.sleep(0.1)  # the writer is now asleep inside the apply
        started = time.monotonic()
        shard.solve(problem)
        solve_seconds = time.monotonic() - started
        future.result(timeout=30.0)
        assert solve_seconds < 1.0, (
            f"solve took {solve_seconds:.2f}s -- it stalled behind the writer"
        )
        server.close()


class TestStatsConsistency:
    def test_stats_never_torn_under_concurrent_merges(self, tmp_path):
        """Hammer stats() while inserts/merges run; every snapshot must be
        internally consistent (the satellite bug: counters were read
        without synchronisation, so /healthz could observe a bumped
        merge_count alongside the previous epoch)."""
        dataset = make_dataset()
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", dataset)
        errors = []
        stop = threading.Event()

        def poller():
            try:
                while not stop.is_set():
                    stats = shard.stats()
                    assert stats["delta_size"] >= 0
                    assert stats["merge_lag_s"] >= 0.0
                    assert stats["pinned_solves"] == sum(
                        stats["pinned_epochs"].values()
                    )
                    # Epoch 1 is the construction freeze and every
                    # successful fold publishes exactly one epoch, so with
                    # no merge failures the pair can never disagree.
                    assert stats["epoch"] == stats["merge_count"] + 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pollers = [threading.Thread(target=poller, daemon=True) for _ in range(4)]
        for thread in pollers:
            thread.start()
        for action in actions_for(dataset, "stats", 40):
            shard.insert(**action)
        stop.set()
        for thread in pollers:
            thread.join(timeout=10.0)
        assert errors == []
        stats = shard.stats()
        assert stats["inserts_served"] == 40
        assert stats["merge_count"] >= 1
        server.close()


class TestDeltaMergeParity:
    def test_shard_solves_match_serialized_replay(self, tmp_path):
        """After any prefix of inserts, a shard solve must be bit-identical
        to a fresh session replaying the same prefix serially."""
        dataset = make_dataset()
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", dataset)
        problem = make_problem(shard)
        inserts = actions_for(dataset, "parity", 30)

        applied = 0
        for cut in (10, 30):
            for action in inserts[applied:cut]:
                shard.insert(**action)
            applied = cut
            shard.flush()
            replay = IncrementalTagDM(
                make_dataset(),
                enumeration=ENUMERATION,
                signature_backend="frequency",
                seed=3,
            ).prepare()
            replay.add_actions(inserts[:cut])
            assert result_key(shard.solve(problem)) == result_key(
                replay.solve(problem)
            )
        server.close()

    def test_frozen_view_is_immutable_under_later_inserts(self):
        dataset = make_dataset()
        session = IncrementalTagDM(
            dataset, enumeration=ENUMERATION, signature_backend="frequency", seed=3
        ).prepare()
        problem = table1_problem(1, k=3, min_support=session.default_support())
        view = session.freeze(epoch=7)
        assert view.epoch == 7
        assert view.n_groups == session.n_groups
        frozen_key = result_key(view.solve(problem))
        assert frozen_key == result_key(session.solve(problem))

        session.add_actions(actions_for(dataset, "frozen", 5))
        # The view stays pinned to its freeze-time state: same action
        # count, bit-identical solve, while the live session moved on.
        assert session.dataset.n_actions == 605
        assert view.n_actions == 600
        assert result_key(view.solve(problem)) == frozen_key
