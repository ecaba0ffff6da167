"""Transport-agnostic request execution over a :class:`TagDMServer`.

The functions here are the single implementation of every wire-API
operation: :class:`~repro.api.client.ServerClient` calls them directly
(in-process), and the HTTP front-end (:mod:`repro.serving.http`) calls
the very same functions from its request handlers.  That sharing is the
point -- a solve answered over a socket and a solve answered in-process
run the same validation, the same shard locking and the same session
code, so their results are bit-identical by construction.

All failures surface as the typed :class:`~repro.api.errors.ApiError`
taxonomy; transports only translate them (HTTP status codes on one side,
plain raises on the other).
"""

from __future__ import annotations

import json
import uuid
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.api.errors import (
    SpecValidationError,
    SubscriptionExistsError,
    UnknownCorpusError,
    UnknownSubscriptionError,
    run_with_timeout,
)
from repro.api.spec import PageSpec, ProblemSpec
from repro.core.incremental import IncrementalUpdateReport
from repro.core.problem import TagDMProblem
from repro.core.result import MiningResult

__all__ = [
    "coerce_spec",
    "validate_actions",
    "list_corpora",
    "corpus_stats",
    "insert_actions",
    "solve_spec",
    "solve_spec_payload",
    "result_ndjson_lines",
    "result_from_ndjson",
    "register_subscription",
    "list_subscriptions",
    "poll_subscription",
    "subscription_ndjson_lines",
    "diffs_from_ndjson",
    "health",
]


def validate_actions(actions: Iterable[Mapping[str, object]]) -> List[Mapping[str, object]]:
    """Shape-check an insert batch; the one validator every backend uses.

    Returns the materialised batch.  Raises :class:`SpecValidationError`
    for non-object entries or missing identity keys, so LocalClient and
    the server-backed transports cannot drift on what they accept.
    """
    batch = list(actions)
    for position, action in enumerate(batch):
        if not isinstance(action, Mapping):
            raise SpecValidationError(
                f"actions[{position}] must be an object, got {type(action).__name__}"
            )
        for key in ("user_id", "item_id"):
            if key not in action:
                raise SpecValidationError(f"actions[{position}] is missing {key!r}")
    return batch


def coerce_spec(
    request: Union[ProblemSpec, TagDMProblem, Mapping[str, object]],
    algorithm: str = "auto",
    options: Optional[Mapping[str, object]] = None,
) -> ProblemSpec:
    """Normalise the three accepted solve-request forms into a spec.

    Clients accept a :class:`ProblemSpec`, an in-memory
    :class:`TagDMProblem` (plus ``algorithm``/``options``), or a raw wire
    payload dict; everything downstream speaks specs only.
    """
    if isinstance(request, ProblemSpec):
        if options:
            raise SpecValidationError(
                "pass algorithm options inside the ProblemSpec, not alongside it"
            )
        return request
    if isinstance(request, TagDMProblem):
        return ProblemSpec.from_problem(request, algorithm=algorithm, **dict(options or {}))
    if isinstance(request, Mapping):
        return ProblemSpec.from_dict(request)
    raise SpecValidationError(
        "solve request must be a ProblemSpec, a TagDMProblem or a spec payload "
        f"dict, got {type(request).__name__}"
    )


def _shard(server, corpus: str):
    try:
        return server.shard(corpus)
    except KeyError as exc:
        raise UnknownCorpusError(
            f"corpus {corpus!r} is not being served",
            details={"corpus": corpus, "known": list(server.corpus_names)},
        ) from exc


def list_corpora(server) -> List[str]:
    """Names of the corpora the server is currently serving."""
    return list(server.corpus_names)


def corpus_stats(server, corpus: str) -> Dict[str, object]:
    """Serving counters of one shard (raises for unknown corpora)."""
    return _shard(server, corpus).stats()


def insert_actions(
    server,
    corpus: str,
    actions: Iterable[Mapping[str, object]],
    request_id: Optional[str] = None,
) -> IncrementalUpdateReport:
    """Apply an action batch to the named shard (waits until applied).

    Bad action dicts -- missing keys, unknown users/items without
    attributes -- surface as :class:`SpecValidationError` so every
    transport answers them as a 422-class failure rather than a server
    error.

    ``request_id`` is the batch's idempotency key (the HTTP transport
    reads it from the ``Idempotency-Key`` header): a key the corpus
    store has already recorded returns the original report with
    ``deduplicated=True`` instead of re-applying the batch, which is
    what makes client/router retries of an insert exactly-once.
    """
    batch = validate_actions(actions)
    shard = _shard(server, corpus)
    try:
        return shard.insert_batch(batch, request_id=request_id)
    except (KeyError, ValueError, TypeError) as exc:
        raise SpecValidationError(f"insert rejected: {exc}") from exc


def solve_spec(
    server,
    corpus: str,
    request: Union[ProblemSpec, TagDMProblem, Mapping[str, object]],
    timeout: Optional[float] = None,
) -> MiningResult:
    """Validate a solve request and run it on the named warm shard.

    The spec is validated (422/409 taxonomy) *before* the shard is
    touched; the solve itself runs lock-free on the shard's pinned
    published view, on the calling thread, optionally bounded by ``timeout`` seconds
    (:class:`~repro.api.errors.SolveTimeoutError` on expiry).
    """
    spec = coerce_spec(request)
    problem, algorithm = spec.validate()
    shard = _shard(server, corpus)
    return run_with_timeout(
        lambda: shard.solve(problem, algorithm=algorithm, **dict(spec.options)),
        timeout,
        f"solve({corpus})",
    )


def solve_spec_payload(
    server,
    corpus: str,
    request: Union[ProblemSpec, TagDMProblem, Mapping[str, object]],
    timeout: Optional[float] = None,
    page: Optional[PageSpec] = None,
) -> Dict[str, object]:
    """Run a solve and return its wire payload, optionally one page of it.

    The solve itself is always complete -- pagination windows the
    *response*, not the computation -- so any page of a deterministic
    solve is consistent with every other page of the same request.
    With ``page=None`` the full payload comes back unwindowed (identical
    to ``solve_spec(...).to_dict()``).
    """
    result = solve_spec(server, corpus, request, timeout=timeout)
    payload = result.to_dict()
    if page is None:
        return payload
    return page.paginate(payload)


def _ndjson_frame(
    envelope: Mapping[str, object], records: Iterable[Mapping[str, object]]
) -> Iterator[bytes]:
    """The framing both NDJSON stream kinds share: the envelope line
    (carrying the record count), then one line per record."""
    yield json.dumps(envelope).encode("utf-8") + b"\n"
    for record in records:
        yield json.dumps(record).encode("utf-8") + b"\n"


def _ndjson_records(
    lines: Iterable[Union[str, bytes]],
    envelope_kind: str,
    count_key: str,
    record_kind: str,
) -> Iterator[Dict[str, object]]:
    """Decode one :func:`_ndjson_frame` lazily.

    Yields the envelope (minus ``kind`` and ``count_key``), then each
    ``record_kind`` record as soon as its line parses.  Raises
    :class:`SpecValidationError` on a malformed line, a wrong kind, an
    empty stream or -- once the lines run out -- a record count that
    disagrees with the envelope's (the truncation check).
    """
    expected: Optional[int] = None
    received = 0
    for raw in lines:
        try:
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
            if not text.strip():
                continue
            record = json.loads(text)
        except ValueError as exc:
            raise SpecValidationError(f"malformed NDJSON line: {exc}") from exc
        kind = record.get("kind") if isinstance(record, dict) else None
        if expected is None:
            if kind != envelope_kind:
                raise SpecValidationError(
                    f"NDJSON stream must start with the {envelope_kind} envelope, "
                    f"got {kind!r}"
                )
            expected = int(record.get(count_key, 0))
            yield {k: v for k, v in record.items() if k not in ("kind", count_key)}
        elif kind == record_kind:
            received += 1
            yield record
        else:
            raise SpecValidationError(f"unexpected NDJSON record kind {kind!r}")
    if expected is None:
        raise SpecValidationError("empty NDJSON stream")
    if received != expected:
        noun = count_key[len("n_"):]
        raise SpecValidationError(
            f"truncated NDJSON stream: expected {expected} {noun}, got {received}"
        )


def result_ndjson_lines(payload: Mapping[str, object]) -> Iterator[bytes]:
    """Encode a result payload as NDJSON lines (UTF-8, newline-terminated).

    Line 1 is the result envelope -- every field except ``groups`` plus
    ``n_groups`` -- and each following line is one group object, so a
    reader holds at most one group in memory per parse step no matter
    how large the group set is.  The inverse is
    :func:`result_from_ndjson`.
    """
    groups = payload.get("groups", [])
    envelope = {key: value for key, value in payload.items() if key != "groups"}
    envelope["kind"] = "result"
    envelope["n_groups"] = len(groups)
    return _ndjson_frame(
        envelope, ({"kind": "group", "group": group} for group in groups)
    )


def result_from_ndjson(lines: Iterable[Union[str, bytes]]) -> Dict[str, object]:
    """Reassemble the payload :func:`result_ndjson_lines` produced.

    Raises :class:`SpecValidationError` on a malformed or truncated
    stream (wrong first line, group-count mismatch), so a connection
    that died mid-stream cannot silently pass off a partial group set
    as a complete result.
    """
    records = _ndjson_records(lines, "result", "n_groups", "group")
    envelope = next(records)
    envelope["groups"] = [record.get("group") for record in records]
    return envelope


def _subscription_summary(row: Mapping[str, object]) -> Dict[str, object]:
    """The wire form of one subscription row (``last_result`` elided)."""
    return {
        "subscription_id": row["subscription_id"],
        "owner": row["owner"],
        "spec": row["spec"],
        "state": row["state"],
        "created_at": row["created_at"],
        "last_watermark": row["last_watermark"],
        "last_seq": row["last_seq"],
    }


def register_subscription(
    server,
    corpus: str,
    payload: Mapping[str, object],
    request_id: Optional[str] = None,
) -> Dict[str, object]:
    """Register a standing query on the named corpus.

    ``payload`` carries the problem ``spec`` (validated exactly like a
    one-shot solve request: 422 on malformed, 409 on capability
    mismatch), an optional ``owner`` label and an optional
    client-chosen ``subscription_id`` (server-assigned otherwise).

    ``request_id`` is the registration's idempotency key (HTTP reads
    it from ``Idempotency-Key``): a key the corpus store has already
    recorded replays the original response with ``deduplicated=True``
    instead of re-registering, which is what makes client/router
    retries of a registration exactly-once.  Reusing a *subscription
    id* without the original key is a 409
    (:class:`~repro.api.errors.SubscriptionExistsError`).

    The new subscription is evaluated against the currently published
    view immediately, so its first diff (seq 1, relative to the empty
    result) is the full initial snapshot.
    """
    if not isinstance(payload, Mapping):
        raise SpecValidationError(
            f"subscription request must be an object, got {type(payload).__name__}"
        )
    spec_payload = payload.get("spec")
    if not isinstance(spec_payload, Mapping):
        raise SpecValidationError("subscription request is missing its 'spec' object")
    spec = ProblemSpec.from_dict(spec_payload)
    spec.validate()  # full 422/409 taxonomy before any state changes
    shard = _shard(server, corpus)
    store = shard.session.store
    if store is None or shard.evaluator is None:
        raise SpecValidationError(
            f"corpus {corpus!r} has no durable store; subscriptions need one"
        )
    if request_id is not None:
        recalled = store.recall_request(request_id)
        if recalled is not None:
            response = dict(recalled)
            response["deduplicated"] = True
            return response
    subscription_id = str(payload.get("subscription_id") or f"sub-{uuid.uuid4().hex[:12]}")
    owner = str(payload.get("owner", "anonymous"))
    try:
        with store.deferred_commit():
            row = store.create_subscription(subscription_id, owner, spec.to_dict())
            response = _subscription_summary(row)
            response["deduplicated"] = False
            if request_id is not None:
                store.record_request(request_id, response)
    except KeyError:
        raise SubscriptionExistsError(
            f"subscription {subscription_id!r} already exists on corpus {corpus!r}",
            details={"corpus": corpus, "subscription_id": subscription_id},
        ) from None
    shard.evaluator.subscription_registered()
    shard.evaluator.notify_publish(shard.current_view())
    return response


def list_subscriptions(server, corpus: str) -> List[Dict[str, object]]:
    """All subscriptions registered on the named corpus, oldest first."""
    shard = _shard(server, corpus)
    store = shard.session.store
    if store is None:
        return []
    return [_subscription_summary(row) for row in store.list_subscriptions()]


def _subscription_diffs(server, corpus: str, subscription_id: str, from_seq: int):
    if int(from_seq) < 1:
        raise SpecValidationError(f"from_seq must be >= 1, got {from_seq}")
    shard = _shard(server, corpus)
    store = shard.session.store
    try:
        if store is None:
            raise KeyError(subscription_id)
        row = store.subscription(subscription_id)
        if row is None:
            raise KeyError(subscription_id)
        diffs = store.subscription_diffs(subscription_id, from_seq=int(from_seq))
    except KeyError:
        raise UnknownSubscriptionError(
            f"subscription {subscription_id!r} is not registered on corpus {corpus!r}",
            details={"corpus": corpus, "subscription_id": subscription_id},
        ) from None
    return row, diffs


def _delivered_diff(entry: Mapping[str, object]) -> Dict[str, object]:
    """The wire form of one ledger entry (poll payload and NDJSON record)."""
    return {
        "seq": entry["seq"],
        "watermark": entry["watermark"],
        "epoch": entry["epoch"],
        "diff": entry["diff"],
    }


def poll_subscription(
    server, corpus: str, subscription_id: str, from_seq: int = 1
) -> Dict[str, object]:
    """Delivered diffs with ``seq >= from_seq``, plus the ledger position.

    The poll/stream resume contract: a consumer that has applied diffs
    up to seq ``n`` asks for ``from_seq = n + 1`` and receives exactly
    the missing suffix -- seqs are dense per subscription, so there is
    no gap ambiguity after a disconnect.
    """
    row, diffs = _subscription_diffs(server, corpus, subscription_id, from_seq)
    return {
        "subscription_id": row["subscription_id"],
        "from_seq": int(from_seq),
        "last_seq": row["last_seq"],
        "watermark": row["last_watermark"],
        "diffs": [_delivered_diff(entry) for entry in diffs],
    }


def subscription_ndjson_lines(
    server, corpus: str, subscription_id: str, from_seq: int = 1
) -> Iterator[bytes]:
    """Encode a diff suffix as NDJSON (UTF-8, newline-terminated).

    Line 1 is the stream envelope -- ``kind: "diffs"`` plus ``n_diffs``
    and the ledger position -- and each following line is one
    ``kind: "diff"`` record carrying its seq, watermark, epoch and the
    :class:`~repro.api.diff.ResultDiff` payload.  The inverse is
    :func:`diffs_from_ndjson`; like the solve stream, the declared
    count is what lets a reader detect truncation.
    """
    row, diffs = _subscription_diffs(server, corpus, subscription_id, from_seq)
    envelope = {
        "kind": "diffs",
        "subscription_id": row["subscription_id"],
        "from_seq": int(from_seq),
        "n_diffs": len(diffs),
        "last_seq": row["last_seq"],
        "watermark": row["last_watermark"],
    }
    return _ndjson_frame(
        envelope, ({"kind": "diff", **_delivered_diff(entry)} for entry in diffs)
    )


def diffs_from_ndjson(
    lines: Iterable[Union[str, bytes]],
    sink: Optional[List[Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Reassemble the payload :func:`subscription_ndjson_lines` produced.

    Raises :class:`SpecValidationError` on a malformed or truncated
    stream (wrong first line, diff-count mismatch, non-contiguous
    seqs), so a connection that died mid-stream can never pass off a
    partial diff suffix as complete.

    Each diff is appended to ``sink`` (a fresh list by default) as soon
    as its line is validated, seq contiguity included, and the
    returned payload's ``diffs`` is that same list.  So when the stream
    dies mid-transfer, ``sink`` holds exactly the diffs that arrived
    whole, and a reader can resume from the seq after the last one
    (see :meth:`~repro.api.client.HttpClient.follow_subscription`).
    """
    diffs: List[Dict[str, object]] = [] if sink is None else sink
    records = _ndjson_records(lines, "diffs", "n_diffs", "diff")
    envelope = next(records)
    start = int(envelope.get("from_seq", 1))
    for offset, record in enumerate(records):
        try:
            entry = {
                "seq": int(record["seq"]),
                "watermark": int(record["watermark"]),
                "epoch": int(record["epoch"]),
                "diff": record.get("diff"),
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecValidationError(f"malformed NDJSON diff record: {exc!r}") from exc
        if entry["seq"] != start + offset:
            raise SpecValidationError(
                f"non-contiguous diff stream: expected seq {start + offset}, "
                f"got {entry['seq']}"
            )
        diffs.append(entry)
    envelope["diffs"] = diffs
    return envelope


def health(server) -> Dict[str, object]:
    """Aggregate liveness payload (the ``/healthz`` body).

    Sums the per-shard serving counters and surfaces the snapshot,
    warm/cold start and delta+main merge bookkeeping, so one probe
    answers "is it up, what is it serving, did it warm-start the way we
    expect, and is the merge path keeping up".  Every per-shard value is
    taken from one consistent :meth:`~repro.serving.shards.CorpusShard.stats`
    snapshot, so a probe racing a merge never reports torn values.
    """
    per_corpus = server.stats()
    start_modes = [str(stats.get("start_mode", "cold")) for stats in per_corpus.values()]
    return {
        "status": "ok",
        "corpora": sorted(per_corpus),
        "inserts_served": sum(int(s.get("inserts_served", 0)) for s in per_corpus.values()),
        "solves_served": sum(int(s.get("solves_served", 0)) for s in per_corpus.values()),
        "snapshots_written": sum(
            int(s.get("snapshots_written", 0)) for s in per_corpus.values()
        ),
        "warm_starts": sum(1 for mode in start_modes if mode.startswith("warm")),
        "cold_starts": sum(1 for mode in start_modes if mode == "cold"),
        "tail_replays": sum(1 for mode in start_modes if mode == "warm-replay"),
        "delta_size": sum(int(s.get("delta_size", 0)) for s in per_corpus.values()),
        "merge_count": sum(int(s.get("merge_count", 0)) for s in per_corpus.values()),
        "merge_failures": sum(
            int(s.get("merge_failures", 0)) for s in per_corpus.values()
        ),
        "max_merge_lag_s": max(
            (float(s.get("merge_lag_s", 0.0)) for s in per_corpus.values()),
            default=0.0,
        ),
        "pinned_solves": sum(int(s.get("pinned_solves", 0)) for s in per_corpus.values()),
        "pinned_epochs": sum(
            len(s.get("pinned_epochs", {}) or {}) for s in per_corpus.values()
        ),
    }
