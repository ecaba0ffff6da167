"""Tests for incremental session maintenance (the paper's future work)."""

from __future__ import annotations

import pytest

from repro.core.enumeration import GroupEnumerationConfig
from repro.core.incremental import IncrementalTagDM
from repro.core.problem import table1_problem
from repro.dataset.store import TaggingDataset
from repro.dataset.synthetic import generate_movielens_style


def small_dataset() -> TaggingDataset:
    return generate_movielens_style(n_users=40, n_items=80, n_actions=600, seed=17)


@pytest.fixture()
def incremental():
    return IncrementalTagDM(
        small_dataset(),
        enumeration=GroupEnumerationConfig(min_support=5),
        signature_backend="frequency",
    ).prepare()


def action_for(dataset: TaggingDataset, row: int = 0, tags=("new-tag",)):
    """An insert payload reusing an existing user/item pair."""
    return {
        "user_id": dataset.user_of(row),
        "item_id": dataset.item_of(row),
        "tags": list(tags),
    }


class TestPreparationAndGuards:
    def test_insert_before_prepare_raises(self):
        session = IncrementalTagDM(small_dataset())
        with pytest.raises(RuntimeError):
            session.add_action("u", "i", ["t"])

    def test_new_user_requires_attributes(self, incremental):
        with pytest.raises(KeyError, match="user_attributes"):
            incremental.add_action(
                "brand-new-user", incremental.dataset.item_of(0), ["t"]
            )

    def test_new_item_requires_attributes(self, incremental):
        with pytest.raises(KeyError, match="item_attributes"):
            incremental.add_action(
                incremental.dataset.user_of(0), "brand-new-item", ["t"]
            )


class TestSingleInsert:
    def test_dataset_grows_and_groups_update(self, incremental):
        before_actions = incremental.dataset.n_actions
        before_groups = incremental.n_groups
        report = incremental.add_action(**action_for(incremental.dataset))
        assert incremental.dataset.n_actions == before_actions + 1
        assert report.actions_added == 1
        assert report.groups_updated >= 1
        assert incremental.n_groups >= before_groups

    def test_existing_group_membership_updated(self, incremental):
        dataset = incremental.dataset
        row_user = dataset.user_of(0)
        gender = dataset.user_attributes(row_user)["gender"]
        target = next(
            group
            for group in incremental.groups
            if dict(group.description.predicates) == {"user.gender": gender}
        )
        before_support = target.support
        incremental.add_action(**action_for(dataset))
        updated = next(
            group
            for group in incremental.groups
            if dict(group.description.predicates) == {"user.gender": gender}
        )
        assert updated.support == before_support + 1
        assert updated.has_signature()

    def test_new_user_and_item_registered(self, incremental):
        report = incremental.add_action(
            "fresh-user",
            "fresh-item",
            ["alpha", "beta"],
            user_attributes={
                "gender": "female",
                "age": "18-24",
                "occupation": "artist",
                "location": "NY",
            },
            item_attributes={
                "genre": "drama",
                "actor": "actor_9999",
                "director": "director_9999",
            },
        )
        assert report.new_users == ["fresh-user"]
        assert report.new_items == ["fresh-item"]
        assert incremental.dataset.has_user("fresh-user")
        assert incremental.dataset.has_item("fresh-item")

    def test_matrix_cache_invalidated(self, incremental):
        cache_before = incremental.session.matrix_cache()
        incremental.add_action(**action_for(incremental.dataset))
        assert incremental.session.matrix_cache() is not cache_before


class TestGroupCreation:
    def test_repeated_inserts_create_a_new_group(self, incremental):
        """A previously unseen attribute combination becomes a group once it
        crosses the minimum support threshold."""
        config_min_support = incremental.session.enumeration.min_support
        attributes = {
            "gender": "female",
            "age": "45-49",
            "occupation": "astronaut-candidate",
            "location": "WY",
        }
        item_attributes = {
            "genre": "western",
            "actor": "actor_unique",
            "director": "director_unique",
        }
        description = {"user.occupation": "astronaut-candidate"}
        assert not any(
            dict(group.description.predicates) == description
            for group in incremental.groups
        )
        created_total = 0
        for position in range(config_min_support):
            report = incremental.add_action(
                f"new-user-{position}",
                "new-item-western",
                ["frontier", "horse"],
                user_attributes=attributes,
                item_attributes=item_attributes,
            )
            created_total += report.groups_created
        assert any(
            dict(group.description.predicates) == description
            for group in incremental.groups
        )
        assert created_total >= 1

    def test_consistency_with_full_reenumeration(self):
        session = IncrementalTagDM(
            generate_movielens_style(n_users=20, n_items=40, n_actions=300, seed=4),
            enumeration=GroupEnumerationConfig(min_support=3),
            signature_backend="frequency",
        ).prepare()
        dataset = session.dataset
        for row in range(5):
            session.add_action(
                dataset.user_of(row), dataset.item_of(row), ["extra", f"t{row}"]
            )
        assert session.consistency_errors() == []


class TestBatchAndSolve:
    def test_add_actions_batch(self, incremental):
        dataset = incremental.dataset
        batch = [action_for(dataset, row) for row in range(4)]
        report = incremental.add_actions(batch)
        assert report.actions_added == 4

    def test_batch_invalidates_caches_once(self, incremental, monkeypatch):
        """Regression: a batch of n actions used to rebuild the pairwise /
        LSH caches n times; the batch path must invalidate exactly once."""
        calls = {"invalidate": 0}
        original = incremental.session.invalidate_caches

        def counting_invalidate():
            calls["invalidate"] += 1
            original()

        monkeypatch.setattr(
            incremental.session, "invalidate_caches", counting_invalidate
        )
        batch = [action_for(incremental.dataset, row) for row in range(10)]
        incremental.add_actions(batch)
        assert calls["invalidate"] == 1
        # A single insert still invalidates (once).
        incremental.add_action(**action_for(incremental.dataset))
        assert calls["invalidate"] == 2

    def test_batch_failure_still_invalidates(self, incremental, monkeypatch):
        """If the middle of a batch raises, the already-applied prefix must
        not be served from stale caches."""
        calls = {"invalidate": 0}
        original = incremental.session.invalidate_caches

        def counting_invalidate():
            calls["invalidate"] += 1
            original()

        monkeypatch.setattr(
            incremental.session, "invalidate_caches", counting_invalidate
        )
        dataset = incremental.dataset
        batch = [
            action_for(dataset, 0),
            {"user_id": "ghost-user", "item_id": dataset.item_of(0), "tags": ["x"]},
        ]
        before = dataset.n_actions
        with pytest.raises(KeyError):
            incremental.add_actions(batch)
        assert dataset.n_actions == before + 1  # the prefix stays applied
        assert calls["invalidate"] == 1

    def test_batch_matches_sequential_inserts(self):
        """One batch and n sequential add_action calls must leave identical
        sessions (groups, signatures, solve results)."""
        import numpy as np

        def build():
            return IncrementalTagDM(
                small_dataset(),
                enumeration=GroupEnumerationConfig(min_support=5),
                signature_backend="frequency",
            ).prepare()

        batched, sequential = build(), build()
        actions = [action_for(batched.dataset, row) for row in range(8)]
        batched.add_actions(actions)
        for action in actions:
            sequential.add_action(**action)
        assert [str(g.description) for g in batched.groups] == [
            str(g.description) for g in sequential.groups
        ]
        assert np.array_equal(
            batched.session.signatures, sequential.session.signatures
        )
        problem = table1_problem(6, k=3, min_support=batched.default_support())
        first = batched.solve(problem, algorithm="dv-fdp-fo")
        second = sequential.solve(problem, algorithm="dv-fdp-fo")
        assert first.objective_value == second.objective_value
        assert first.descriptions() == second.descriptions()

    def test_mutation_listeners_fire_once_per_call(self, incremental):
        seen = []
        incremental.add_mutation_listener(lambda report: seen.append(report))
        incremental.add_action(**action_for(incremental.dataset))
        incremental.add_actions(
            [action_for(incremental.dataset, row) for row in range(3)]
        )
        assert [report.actions_added for report in seen] == [1, 3]

    def test_solve_after_inserts(self, incremental):
        dataset = incremental.dataset
        incremental.add_actions([action_for(dataset, row) for row in range(5)])
        problem = table1_problem(6, k=3, min_support=incremental.default_support())
        result = incremental.solve(problem, algorithm="dv-fdp-fo")
        assert result.is_empty or result.feasible

    def test_refresh_topic_model(self, incremental):
        incremental.add_action(**action_for(incremental.dataset, tags=("zz-drift",) * 1))
        incremental.refresh_topic_model()
        assert all(group.has_signature() for group in incremental.groups)


class TestRefreshBackendSelection:
    def test_refresh_keeps_configured_backend(self):
        session = IncrementalTagDM(
            small_dataset(),
            enumeration=GroupEnumerationConfig(min_support=5),
            signature_backend="tfidf",
        ).prepare()
        session.refresh_topic_model()
        assert session.session.signature_backend == "tfidf"
        assert session.session.signature_builder.topic_model.name == "tfidf"

    def test_refresh_ignores_misleading_model_name(self):
        """Regression: the backend is taken from the recorded configuration,
        not inferred from the live model object -- a model reporting the
        base-class default name must not swap (or crash) the refit."""
        session = IncrementalTagDM(
            small_dataset(),
            enumeration=GroupEnumerationConfig(min_support=5),
            signature_backend="tfidf",
        ).prepare()
        # Shadow the class attribute with the base-class default name.
        session.session.signature_builder.topic_model.name = "topic-model"
        session.refresh_topic_model()
        assert session.session.signature_builder.topic_model.name == "tfidf"


class TestMaxGroupsCap:
    def make_capped(self):
        dataset = generate_movielens_style(n_users=20, n_items=40, n_actions=300, seed=4)
        session = IncrementalTagDM(
            dataset,
            enumeration=GroupEnumerationConfig(min_support=3, max_groups=10),
            signature_backend="frequency",
        ).prepare()
        assert session.n_groups == 10
        return session

    def test_cap_keeps_pending_and_consistency_clean(self):
        session = self.make_capped()
        attributes = {
            "gender": "female",
            "age": "45-49",
            "occupation": "astronaut-candidate",
            "location": "WY",
        }
        item_attributes = {
            "genre": "western",
            "actor": "actor_unique",
            "director": "director_unique",
        }
        pending_before = dict(session._pending)
        for position in range(4):
            report = session.add_action(
                f"capped-user-{position}",
                "capped-item",
                ["frontier"],
                user_attributes=attributes,
                item_attributes=item_attributes,
            )
            assert report.groups_created == 0  # the cap blocks creation
        assert session.n_groups == 10
        # The blocked descriptions keep accumulating rows as pending...
        new_pending = {
            description: rows
            for description, rows in session._pending.items()
            if description not in pending_before
        }
        assert any(len(rows) >= 3 for rows in new_pending.values())
        # ...and the maintained state still matches a from-scratch
        # enumeration (consistency_errors tolerates the cap).
        assert session.consistency_errors() == []


class TestStoreMirroring:
    def test_inserts_reach_the_store(self, tmp_path):
        from repro.dataset.loaders import dataset_to_records
        from repro.dataset.sqlite_store import SqliteTaggingStore

        dataset = small_dataset()
        store = SqliteTaggingStore.from_dataset(dataset, tmp_path / "mirror.sqlite")
        session = IncrementalTagDM(
            dataset,
            enumeration=GroupEnumerationConfig(min_support=5),
            signature_backend="frequency",
            store=store,
        ).prepare()
        before = store.counts()["actions"]
        session.add_action(**action_for(dataset))
        session.add_action(
            "mirror-user",
            "mirror-item",
            ["durable"],
            user_attributes={"gender": "female"},
            item_attributes={"genre": "drama"},
        )
        assert store.counts()["actions"] == before + 2
        assert store.has_user("mirror-user")
        assert store.has_item("mirror-item")
        # The store tracks the in-memory dataset exactly (including the
        # "unknown" defaults filled in for missing attributes).
        assert dataset_to_records(store.to_dataset()) == dataset_to_records(dataset)
        store.close()

    def test_store_failure_leaves_session_consistent(self, tmp_path):
        """A failing store write must not leave the in-memory dataset with
        a row that reached no group (mirroring runs before the append)."""
        from repro.dataset.sqlite_store import SqliteTaggingStore

        dataset = small_dataset()
        store = SqliteTaggingStore.from_dataset(dataset, tmp_path / "fail.sqlite")
        session = IncrementalTagDM(
            dataset,
            enumeration=GroupEnumerationConfig(min_support=5),
            signature_backend="frequency",
            store=store,
        ).prepare()
        actions_before = dataset.n_actions
        store.close()  # simulate the store becoming unavailable
        with pytest.raises(RuntimeError):
            session.add_action(**action_for(dataset))
        assert dataset.n_actions == actions_before
        assert session.consistency_errors() == []

    def test_snapshot_after_inserts_round_trips(self, tmp_path):
        from repro.core.persistence import load_session

        dataset = small_dataset()
        session = IncrementalTagDM(
            dataset,
            enumeration=GroupEnumerationConfig(min_support=5),
            signature_backend="frequency",
        ).prepare()
        session.add_action(**action_for(dataset))
        session.snapshot(tmp_path / "inc.snapshot")
        warm = load_session(tmp_path / "inc.snapshot", dataset)
        assert warm.n_groups == session.n_groups
        import numpy as np

        assert np.array_equal(warm.signatures, session.session.signatures)


class TestIncrementalMatchesRebuild:
    """Seeded insert interleavings over every signature backend.

    After every step the maintained groups must equal a from-scratch
    rebuild of their rows (``consistency_errors``: members, user/item
    sets, tags, signature bytes), and at the end the session must answer
    Table-1 problems 1 and 4 exactly like a cold session that replayed
    the same rows one action at a time.
    """

    NEW_USER = {
        "gender": "female",
        "age": "45-49",
        "occupation": "astronaut-candidate",
        "location": "WY",
    }
    NEW_ITEM = {"genre": "western", "actor": "actor_unique", "director": "director_unique"}
    MIN_SUPPORT = 3

    @staticmethod
    def corpus(backend: str) -> TaggingDataset:
        # LDA fits and re-infers with a per-token Gibbs loop in Python (the
        # oracle re-infers every group): a small corpus over three columns
        # keeps its run to seconds.
        n_actions = 40 if backend == "lda" else 300
        return generate_movielens_style(n_users=20, n_items=40, n_actions=n_actions, seed=4)

    def enumeration(self, backend: str, max_groups=None) -> GroupEnumerationConfig:
        columns = (
            ("user.gender", "user.occupation", "item.genre") if backend == "lda" else None
        )
        return GroupEnumerationConfig(
            min_support=self.MIN_SUPPORT, columns=columns, max_groups=max_groups
        )

    def build(self, backend: str, max_groups=None) -> IncrementalTagDM:
        return IncrementalTagDM(
            self.corpus(backend),
            enumeration=self.enumeration(backend, max_groups),
            signature_backend=backend,
            signature_dimensions=10,
        ).prepare()

    def steps(self, dataset: TaggingDataset, seed: int):
        import random

        rng = random.Random(seed)
        tag_pool = sorted(
            {tag for row in range(dataset.n_actions) for tag in dataset.tags_of(row)}
        )

        def existing():
            row = rng.randrange(dataset.n_actions)
            return {
                "user_id": dataset.user_of(row),
                "item_id": dataset.item_of(row),
                "tags": rng.sample(tag_pool, 2) + [f"Fresh Tag {rng.randrange(4)}"],
            }

        def newcomer(index):
            # A new user (and, first time, a new item) whose occupation
            # no existing tuple has: its descriptions start pending and
            # cross min_support on the third newcomer.
            return {
                "user_id": f"prop-user-{index}",
                "item_id": "prop-item",
                "tags": rng.sample(tag_pool, 2),
                "user_attributes": self.NEW_USER,
                "item_attributes": self.NEW_ITEM,
            }

        return [
            ("insert", [existing()]),
            ("insert", [existing(), existing(), existing()]),
            ("insert", [newcomer(0)]),
            ("insert", [newcomer(1), existing()]),
            ("refresh", []),
            ("insert", [newcomer(2)]),
            ("restart", []),
            ("insert", [existing(), existing(), existing()]),
            ("insert", [existing()]),
            ("insert", [newcomer(3), existing()]),
        ]

    @pytest.mark.parametrize("backend", ["frequency", "tfidf", "lda"])
    def test_interleaved_inserts_match_rebuild_and_cold_replay(self, backend, tmp_path):
        import numpy as np

        from repro.core.enumeration import enumerate_groups
        from repro.core.persistence import load_session

        # One slot above the uncapped group count: exactly one pending
        # description can become a group, the rest hit the cap.
        uncapped = len(enumerate_groups(self.corpus(backend), self.enumeration(backend)))
        session = self.build(backend, max_groups=uncapped + 1)
        assert session.consistency_errors() == []
        counted = backend != "lda"
        steps = self.steps(session.dataset, seed=11)
        created = 0
        for kind, actions in steps:
            if kind == "refresh":
                session.refresh_topic_model()
                assert session._tag_counts == {}
            elif kind == "restart":
                path = tmp_path / "restart.snapshot"
                session.snapshot(path)
                warm = load_session(path, session.dataset)
                session = IncrementalTagDM.from_session(warm).prepare()
                assert session._tag_counts == {}  # rebuilt lazily, not persisted
            elif len(actions) == 1:
                created += session.add_action(**actions[0]).groups_created
                assert bool(session._tag_counts) == counted
            else:
                created += session.add_actions(actions).groups_created
            assert session.consistency_errors() == [], kind
        assert created == 1
        assert session.n_groups == uncapped + 1
        assert any(
            len(rows) >= self.MIN_SUPPORT for rows in session._pending.values()
        ), "the cap never held a description back"

        cold = self.build(backend, max_groups=uncapped + 1)
        for kind, actions in steps:
            if kind == "refresh":
                cold.refresh_topic_model()
            for action in actions:
                cold.add_action(**action)
        assert [group.description for group in session.groups] == [
            group.description for group in cold.groups
        ]
        assert np.array_equal(session.session.signatures, cold.session.signatures)
        for problem_id in (1, 4):
            problem = table1_problem(problem_id, k=3, min_support=cold.default_support())
            warm_result = session.solve(problem)
            cold_result = cold.solve(problem)
            assert warm_result.descriptions() == cold_result.descriptions()
            assert warm_result.objective_value == cold_result.objective_value


class TestInsertCostShape:
    """An insert's Python work follows the inserted row, not group sizes.

    Counted, not timed: once the touched groups' tag counts are warm, a
    single-action insert normalises exactly its own tags, at any corpus
    size.  Rebuilding touched groups from their rows normalised every
    tag of every touched group instead, a count that grows with N.
    """

    @pytest.mark.parametrize("backend", ["frequency", "tfidf"])
    @pytest.mark.parametrize("n_actions", [300, 1200])
    def test_single_insert_normalises_only_its_own_tags(
        self, n_actions, backend, monkeypatch
    ):
        from repro.text import topics

        dataset = generate_movielens_style(
            n_users=40, n_items=80, n_actions=n_actions, seed=17
        )
        session = IncrementalTagDM(
            dataset,
            # The cap keeps group creation (which builds from rows) out
            # of the measured insert.
            enumeration=GroupEnumerationConfig(min_support=5, max_groups=60),
            signature_backend=backend,
        ).prepare()
        # Warm the counts of every group the measured insert touches.
        session.add_action(**action_for(dataset, row=0, tags=("warm", "up")))

        normalised = []
        original = topics.normalize_tags

        def counting(tags):
            tags = list(tags)
            normalised.append(len(tags))
            return original(tags)

        monkeypatch.setattr(topics, "normalize_tags", counting)
        report = session.add_action(
            **action_for(dataset, row=0, tags=("alpha", "Beta", "gamma ray"))
        )
        assert report.groups_updated >= 2 and report.groups_created == 0
        assert sum(normalised) == 3
