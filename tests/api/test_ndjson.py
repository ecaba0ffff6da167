"""The NDJSON wire codec shared by solve results and subscription diffs.

Both stream kinds travel as one envelope line carrying a record count,
then one record per line.  These tests pin the exact encoder bytes (the
wire format is a contract with deployed readers) and the resumable
decoder's ack-as-you-go behaviour.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.api.errors import SpecValidationError
from repro.api.service import (
    diffs_from_ndjson,
    result_ndjson_lines,
    subscription_ndjson_lines,
)

RESULT = {
    "algorithm": "sm-lsh-fo",
    "objective_value": 0.5,
    "groups": [
        {"predicates": [["gender", "F"]], "tuple_indices": [1, 2]},
        {"predicates": [["genre", "drama"], ["state", "CA"]], "tuple_indices": [3]},
    ],
    "metadata": {"relaxations": 0},
}

LEDGER = [
    {
        "seq": 1 + i,
        "watermark": 400 + i,
        "epoch": 1 + i,
        "diff": {"watermark": 400 + i, "ops": [["keep", [["a", str(i)]]]], "dropped": []},
    }
    for i in range(3)
]


def ledger_server():
    """The slice of a TagDMServer that the diff encoder reads."""
    row = {"subscription_id": "s", "last_seq": 3, "last_watermark": 402}
    store = SimpleNamespace(
        subscription=lambda subscription_id: row,
        subscription_diffs=lambda subscription_id, from_seq=1: [
            entry for entry in LEDGER if entry["seq"] >= from_seq
        ],
    )
    shard = SimpleNamespace(session=SimpleNamespace(store=store))
    return SimpleNamespace(shard=lambda corpus: shard, corpus_names=["movies"])


class TestWireBytes:
    def test_result_encoding_is_pinned(self):
        assert b"".join(result_ndjson_lines(RESULT)) == (
            b'{"algorithm": "sm-lsh-fo", "objective_value": 0.5, '
            b'"metadata": {"relaxations": 0}, "kind": "result", "n_groups": 2}\n'
            b'{"kind": "group", "group": {"predicates": [["gender", "F"]], '
            b'"tuple_indices": [1, 2]}}\n'
            b'{"kind": "group", "group": {"predicates": [["genre", "drama"], '
            b'["state", "CA"]], "tuple_indices": [3]}}\n'
        )

    def test_diff_encoding_is_pinned(self):
        lines = subscription_ndjson_lines(ledger_server(), "movies", "s", from_seq=2)
        assert b"".join(lines) == (
            b'{"kind": "diffs", "subscription_id": "s", "from_seq": 2, '
            b'"n_diffs": 2, "last_seq": 3, "watermark": 402}\n'
            b'{"kind": "diff", "seq": 2, "watermark": 401, "epoch": 2, '
            b'"diff": {"watermark": 401, "ops": [["keep", [["a", "1"]]]], "dropped": []}}\n'
            b'{"kind": "diff", "seq": 3, "watermark": 402, "epoch": 3, '
            b'"diff": {"watermark": 402, "ops": [["keep", [["a", "2"]]]], "dropped": []}}\n'
        )


class TestDiffSink:
    def test_cut_mid_record_leaves_the_complete_prefix(self):
        body = b"".join(subscription_ndjson_lines(ledger_server(), "movies", "s"))
        lines = body.splitlines(keepends=True)
        cut = b"".join(lines[:3]) + lines[3][: len(lines[3]) // 2]
        sink = []
        with pytest.raises(SpecValidationError, match="malformed"):
            diffs_from_ndjson(cut.splitlines(keepends=True), sink=sink)
        assert sink == LEDGER[:2]

    def test_sink_accumulates_across_resumed_streams(self):
        server = ledger_server()
        sink = []
        with pytest.raises(SpecValidationError, match="truncated"):
            diffs_from_ndjson(
                list(subscription_ndjson_lines(server, "movies", "s"))[:2], sink=sink
            )
        assert sink == LEDGER[:1]
        resumed = diffs_from_ndjson(
            subscription_ndjson_lines(server, "movies", "s", from_seq=2), sink=sink
        )
        assert resumed["diffs"] is sink
        assert sink == LEDGER

    def test_non_contiguous_record_is_not_acked(self):
        lines = list(subscription_ndjson_lines(ledger_server(), "movies", "s", from_seq=2))
        lines[1] = lines[1].replace(b'"seq": 2', b'"seq": 7')
        sink = []
        with pytest.raises(SpecValidationError, match="non-contiguous"):
            diffs_from_ndjson(lines, sink=sink)
        assert sink == []
