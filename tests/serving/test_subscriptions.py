"""Standing queries end to end: the metamorphic diff/replay suite.

The pipeline under test: a registered subscription is re-solved by the
shard's :class:`~repro.serving.subscriptions.SubscriptionEvaluator`
against every freshly published view epoch, and each change commits to
the ``subscription_diffs`` ledger keyed by the insert **watermark**
(the corpus action count at freeze time).  The metamorphic contract:

* composing the delivered diff chain from an empty result reproduces,
  byte-identically under canonical JSON, a from-scratch solve over a
  cold session replaying the committed insert prefix up to the same
  watermark;
* an empty diff is never delivered (unchanged results advance the
  watermark silently);
* evaluation is at-least-once (crash between eval and notify retries;
  a reopened corpus re-notifies) while visible delivery is exactly
  once (the ledger's watermark guard suppresses replays) -- ``lost=0``
  / ``dup=0``;
* the NDJSON stream detects truncation by its envelope count, and the
  resuming reader reconnects from the last acked seq, skipping and
  replaying nothing.

The pure diff-algebra half (random payload pairs, no corpus) lives in
``tests/api/test_diff.py``; the multi-process kill drill in
``examples/chaos_demo.py``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api.client import HttpClient, ServerClient
from repro.api.diff import ResultDiff, apply_diff, comparable_payload, payloads_equal
from repro.api.errors import (
    ConnectionFailedError,
    SpecValidationError,
    SubscriptionExistsError,
    UnknownSubscriptionError,
)
from repro.api.service import coerce_spec, diffs_from_ndjson
from repro.core.enumeration import GroupEnumerationConfig
from repro.core.incremental import IncrementalTagDM
from repro.core.problem import table1_problem
from repro.dataset.synthetic import generate_movielens_style
from repro.serving import (
    FaultPlan,
    FaultRule,
    SnapshotRotationPolicy,
    TagDMHttpServer,
    TagDMServer,
)

SEED = 53
ENUMERATION = GroupEnumerationConfig(min_support=5, max_groups=60)
SESSION_KWARGS = dict(
    enumeration=ENUMERATION, signature_backend="frequency", seed=3
)


def make_dataset():
    return generate_movielens_style(n_users=30, n_items=60, n_actions=400, seed=SEED)


def make_server(root, **kwargs) -> TagDMServer:
    return TagDMServer(
        root,
        policy=SnapshotRotationPolicy(every_inserts=200, keep_last=2),
        **{**SESSION_KWARGS, **kwargs},
    )


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def seeded_actions(dataset, rng: random.Random, count: int, label: str):
    return [
        {
            "user_id": dataset.user_of(rng.randrange(dataset.n_actions)),
            "item_id": dataset.item_of(rng.randrange(dataset.n_actions)),
            "tags": (f"tag-{label}-{rng.randrange(6)}", "subscribed"),
            "rating": float(rng.randrange(5)),
        }
        for _ in range(count)
    ]


def compose_ledger(diffs):
    """Fold a poll()-shaped diff list from an empty prior result."""
    state = None
    for entry in diffs:
        state = apply_diff(ResultDiff.from_dict(entry["diff"]), state)
    return state


def cold_solve_at(served_dataset, watermark: int, spec):
    """From-scratch solve over the committed insert prefix [0, watermark)."""
    cold = IncrementalTagDM(make_dataset(), **SESSION_KWARGS).prepare()
    for row in range(cold.dataset.n_actions, watermark):
        cold.add_action(
            served_dataset.user_of(row),
            served_dataset.item_of(row),
            served_dataset.tags_of(row),
            served_dataset.rating_of(row),
        )
    assert cold.dataset.n_actions == watermark
    problem, algorithm = spec.validate()
    return comparable_payload(
        cold.solve(problem, algorithm=algorithm, **dict(spec.options)).to_dict()
    )


class TestMetamorphicReplay:
    def test_diff_chain_replays_to_cold_solves(self, tmp_path):
        """The acceptance criterion: every ledger prefix composes to the
        same payload a from-scratch solve produces at that watermark."""
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", make_dataset())
        client = ServerClient(server)
        spec = coerce_spec(
            table1_problem(1, k=3, min_support=shard.session.default_support()),
            algorithm="sm-lsh-fo",
        )
        client.register_subscription("movies", spec, subscription_id="standing")
        assert shard.evaluator.wait_idle()

        rng = random.Random(SEED)
        for batch in range(3):
            for action in seeded_actions(shard.session.dataset, rng, 15, str(batch)):
                server.insert("movies", **action)
            shard.flush()
            assert shard.evaluator.wait_idle()

        poll = client.poll_subscription("movies", "standing")
        diffs = poll["diffs"]
        assert diffs, "inserts changed the corpus but delivered no diffs"
        # Ledger invariants: contiguous seqs from 1, strictly increasing
        # watermarks (exactly-once visible delivery -- no dup rows).
        assert [d["seq"] for d in diffs] == list(range(1, len(diffs) + 1))
        watermarks = [d["watermark"] for d in diffs]
        assert watermarks == sorted(set(watermarks))
        assert poll["last_seq"] == len(diffs)

        served = shard.session.dataset
        state = None
        for entry in diffs:
            state = apply_diff(ResultDiff.from_dict(entry["diff"]), state)
            expected = cold_solve_at(served, entry["watermark"], spec)
            assert canonical(state) == canonical(expected), (
                f"composed ledger prefix through seq {entry['seq']} diverges "
                f"from the from-scratch solve at watermark {entry['watermark']}"
            )
        # And the full composition matches a live solve right now.
        final = comparable_payload(client.solve("movies", spec).to_dict())
        if shard.session.dataset.n_actions == diffs[-1]["watermark"]:
            assert payloads_equal(state, final)
        server.close()

    def test_unchanged_result_delivers_no_diff(self, tmp_path):
        """Watermark moves without a result change advance the ledger
        silently: no empty diff is ever delivered."""
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", make_dataset())
        client = ServerClient(server)
        spec = coerce_spec(
            table1_problem(1, k=3, min_support=shard.session.default_support()),
            algorithm="sm-lsh-fo",
        )
        row = client.register_subscription("movies", spec, subscription_id="quiet")
        assert shard.evaluator.wait_idle()
        delivered = client.poll_subscription("movies", "quiet")["diffs"]
        for entry in delivered:
            assert not ResultDiff.from_dict(entry["diff"]).is_empty

        # Re-notifying the already-evaluated view must not re-deliver.
        shard.evaluator.notify_publish(shard.current_view())
        assert shard.evaluator.wait_idle()
        again = client.poll_subscription("movies", "quiet")["diffs"]
        assert [d["seq"] for d in again] == [d["seq"] for d in delivered]
        server.close()


class TestDeliverySemantics:
    def test_crash_between_eval_and_notify_retries_exactly_once(self, tmp_path):
        """subs.pre_notify crash: the evaluation is lost after the solve
        but before the ledger commit; the evaluator retries and the
        ledger ends up with the diff exactly once."""
        plan = FaultPlan([FaultRule("subs.pre_notify", "crash", times=1)])
        server = make_server(tmp_path, fault_plan=plan)
        shard = server.add_corpus("movies", make_dataset())
        client = ServerClient(server)
        spec = coerce_spec(
            table1_problem(1, k=3, min_support=shard.session.default_support()),
            algorithm="sm-lsh-fo",
        )
        client.register_subscription("movies", spec, subscription_id="crashy")
        assert shard.evaluator.wait_idle(timeout=30.0)

        poll = client.poll_subscription("movies", "crashy")
        assert [d["seq"] for d in poll["diffs"]] == [1]  # delivered once, not twice
        stats = shard.stats()
        assert stats["subs_notifications"] == 1
        assert stats["subs_last_error"] is not None  # the crash was recorded
        assert "subs.pre_notify" in stats["subs_last_error"]
        server.close()

    def test_reopen_bootstrap_replays_then_suppresses(self, tmp_path):
        """At-least-once evaluation across restarts: open_corpus
        re-notifies the current view; the watermark guard keeps the
        ledger exactly-once (lost=0, dup=0)."""
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", make_dataset())
        client = ServerClient(server)
        spec = coerce_spec(
            table1_problem(1, k=3, min_support=shard.session.default_support()),
            algorithm="sm-lsh-fo",
        )
        client.register_subscription("movies", spec, subscription_id="durable")
        assert shard.evaluator.wait_idle()
        rng = random.Random(SEED + 1)
        for action in seeded_actions(shard.session.dataset, rng, 10, "pre"):
            server.insert("movies", **action)
        shard.flush()
        assert shard.evaluator.wait_idle()
        before = client.poll_subscription("movies", "durable")["diffs"]
        assert before
        server.close()

        revived = make_server(tmp_path)
        shard2 = revived.open_corpus("movies")
        assert shard2.evaluator.wait_idle(timeout=30.0)
        client2 = ServerClient(revived)
        after = client2.poll_subscription("movies", "durable")["diffs"]
        # Subscriptions survived the restart; the bootstrap replay was
        # evaluated but suppressed -- the ledger is byte-identical.
        assert canonical(after) == canonical(before)
        stats = shard2.stats()
        assert stats["subs_active"] == 1
        assert stats["subs_suppressed"] >= 1
        server2_rows = client2.subscriptions("movies")
        assert [r["subscription_id"] for r in server2_rows] == ["durable"]
        revived.close()

    def test_registration_idempotency_and_conflict(self, tmp_path):
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", make_dataset())
        client = ServerClient(server)
        spec = coerce_spec(
            table1_problem(1, k=3, min_support=shard.session.default_support()),
            algorithm="sm-lsh-fo",
        )
        first = client.register_subscription(
            "movies", spec, subscription_id="dup", idempotency_key="reg-1"
        )
        assert first["deduplicated"] is False
        replay = client.register_subscription(
            "movies", spec, subscription_id="dup", idempotency_key="reg-1"
        )
        assert replay["deduplicated"] is True
        assert replay["subscription_id"] == "dup"
        with pytest.raises(SubscriptionExistsError):
            client.register_subscription("movies", spec, subscription_id="dup")
        with pytest.raises(UnknownSubscriptionError):
            client.poll_subscription("movies", "never-registered")
        server.close()


class TestNdjsonStream:
    def _ledger_lines(self, diffs, from_seq=1, n_diffs=None, last_seq=None):
        envelope = {
            "kind": "diffs",
            "subscription_id": "s",
            "from_seq": from_seq,
            "n_diffs": len(diffs) if n_diffs is None else n_diffs,
            "last_seq": (diffs[-1]["seq"] if diffs else 0) if last_seq is None else last_seq,
            "watermark": 999,
        }
        lines = [json.dumps(envelope).encode("utf-8") + b"\n"]
        for entry in diffs:
            lines.append(
                json.dumps({"kind": "diff", **entry}).encode("utf-8") + b"\n"
            )
        return lines

    def _diff_entries(self, n, start_seq=1):
        return [
            {
                "seq": start_seq + i,
                "watermark": 400 + i,
                "epoch": 1 + i,
                "diff": {
                    "watermark": 400 + i,
                    "ops": [["add", {"predicates": [["a", str(i)]], "tuple_indices": [i]}]],
                    "dropped": [],
                    "envelope": {"algorithm": "exact"},
                },
            }
            for i in range(n)
        ]

    def test_roundtrip(self):
        entries = self._diff_entries(3)
        payload = diffs_from_ndjson(self._ledger_lines(entries))
        assert [d["seq"] for d in payload["diffs"]] == [1, 2, 3]
        assert payload["last_seq"] == 3

    def test_truncated_stream_is_detected(self):
        entries = self._diff_entries(3)
        lines = self._ledger_lines(entries)[:-1]  # advertise 3, deliver 2
        with pytest.raises(SpecValidationError, match="truncated"):
            diffs_from_ndjson(lines)

    def test_wrong_envelope_kind_rejected(self):
        lines = self._ledger_lines(self._diff_entries(1))
        lines[0] = json.dumps({"kind": "result", "n_groups": 1}).encode() + b"\n"
        with pytest.raises(SpecValidationError):
            diffs_from_ndjson(lines)

    def test_non_contiguous_seq_rejected(self):
        entries = self._diff_entries(3)
        entries[2]["seq"] = 5
        with pytest.raises(SpecValidationError):
            diffs_from_ndjson(self._ledger_lines(entries))

    def test_malformed_line_rejected(self):
        lines = self._ledger_lines(self._diff_entries(2))
        lines[1] = b"{not json\n"
        with pytest.raises(SpecValidationError):
            diffs_from_ndjson(lines)
        entries = self._diff_entries(2)
        del entries[1]["epoch"]
        with pytest.raises(SpecValidationError):
            diffs_from_ndjson(self._ledger_lines(entries))


class TestHttpStreamReconnect:
    def _serving_stack(self, tmp_path, n_batches=2):
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", make_dataset())
        local = ServerClient(server)
        spec = coerce_spec(
            table1_problem(1, k=3, min_support=shard.session.default_support()),
            algorithm="sm-lsh-fo",
        )
        local.register_subscription("movies", spec, subscription_id="wired")
        assert shard.evaluator.wait_idle()
        rng = random.Random(SEED + 2)
        for batch in range(n_batches):
            for action in seeded_actions(shard.session.dataset, rng, 12, str(batch)):
                server.insert("movies", **action)
            shard.flush()
            assert shard.evaluator.wait_idle()
        expected = local.poll_subscription("movies", "wired")["diffs"]
        assert expected
        return server, expected

    def test_stream_matches_poll_and_resumes_mid_ledger(self, tmp_path):
        server, expected = self._serving_stack(tmp_path)
        front = TagDMHttpServer(server).start()
        client = HttpClient(front.url, request_timeout=60.0)
        stream = client.stream_subscription("movies", "wired")
        assert canonical(stream["diffs"]) == canonical(expected)
        mid = expected[len(expected) // 2]["seq"]
        tail = client.stream_subscription("movies", "wired", from_seq=mid)
        assert [d["seq"] for d in tail["diffs"]] == [
            d["seq"] for d in expected if d["seq"] >= mid
        ]
        client.close()
        front.stop()
        server.close()

    def test_one_shot_stream_surfaces_truncation(self, tmp_path):
        """A cut stream is a typed failure, never a silently short
        suffix."""
        server, _expected = self._serving_stack(tmp_path)
        plan = FaultPlan([FaultRule("http.post_write", "truncate", at=1)])
        front = TagDMHttpServer(server, fault_plan=plan).start()
        client = HttpClient(front.url, request_timeout=60.0)
        with pytest.raises((SpecValidationError, ConnectionFailedError)):
            client.stream_subscription("movies", "wired")
        client.close()
        front.stop()
        server.close()

    def test_follow_subscription_raises_error_responses_without_retrying(
        self, tmp_path
    ):
        """A 422 is the server's answer, not a broken stream: it surfaces
        as its typed error after exactly one request."""
        server, _expected = self._serving_stack(tmp_path, n_batches=1)
        front = TagDMHttpServer(server).start()
        client = HttpClient(front.url, request_timeout=60.0)
        with pytest.raises(SpecValidationError, match="from_seq"):
            client.follow_subscription("movies", "wired", from_seq=0)
        pool = client.pool.stats()
        assert pool["opened"] + pool["reused"] == 1
        client.close()
        front.stop()
        server.close()

    @pytest.mark.parametrize("backend", ["server", "http"])
    def test_every_backend_rejects_from_seq_below_one(self, tmp_path, backend):
        server, _expected = self._serving_stack(tmp_path, n_batches=1)
        front = TagDMHttpServer(server).start() if backend == "http" else None
        client = ServerClient(server) if front is None else HttpClient(front.url)
        with pytest.raises(SpecValidationError, match="from_seq"):
            client.poll_subscription("movies", "wired", from_seq=0)
        with pytest.raises(SpecValidationError, match="from_seq"):
            client.stream_subscription("movies", "wired", from_seq=-3)
        client.close()
        if front is not None:
            front.stop()
        server.close()

    def test_follow_subscription_resumes_from_last_acked_seq(self, tmp_path):
        """The resuming reader: the first stream is truncated mid-body;
        the reconnect asks for last-acked + 1 and the combined suffix
        skips and replays nothing."""
        server, expected = self._serving_stack(tmp_path)
        plan = FaultPlan([FaultRule("http.post_write", "truncate", at=1)])
        front = TagDMHttpServer(server, fault_plan=plan).start()
        client = HttpClient(front.url, request_timeout=60.0)
        payload = client.follow_subscription("movies", "wired")
        assert payload["reconnects"] == 1
        assert canonical(payload["diffs"]) == canonical(expected)
        assert [d["seq"] for d in payload["diffs"]] == list(
            range(1, len(expected) + 1)
        )
        client.close()
        front.stop()
        server.close()
