"""Per-layer metrics from the traced window's spans.

A layer's *self* time is its span's duration minus the time its direct
child spans cover.  Spans on the writer and evaluator threads are tied
to requests: the writer's apply carries the insert's idempotency key,
and fold, notify, evaluator-solve and ledger spans carry the insert
watermark they cover.  Means are per call unless the name says
otherwise; a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Dict, List, NamedTuple, Tuple

from common import percentile


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int
    thread: str
    attrs: dict

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def role(span: Span) -> str:
    if span.thread.startswith("tagdm-shard-"):
        return "writer"
    if span.thread.startswith("tagdm-merge-"):
        return "merge"
    if span.thread.startswith("subs-"):
        return "evaluator"
    return "handler"


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Name -> unit of every per-layer metric, in report order.
LAYER_UNITS: Dict[str, str] = {
    "http.wire_ms": "ms",
    "api.validate_ms": "ms",
    "api.serialize_ms": "ms",
    "shards.insert_queue_wait_ms": "ms",
    "shards.fold_ms": "ms",
    "shards.requests_per_drain": "count/drain",
    "incremental.apply_ms_per_action": "ms",
    "incremental.groups_updated_per_action": "count/action",
    "store.append_ms": "ms",
    "store.ledger_write_ms": "ms",
    "view.build_ms": "ms",
    "view.builds_per_solve": "count/solve",
    "algorithms.sm_lsh_ms": "ms",
    "algorithms.dv_fdp_ms": "ms",
    "algorithms.candidates_per_solve": "count/solve",
    "algorithms.relaxations_per_solve": "count/solve",
    "scoring.support_ms": "ms",
    "scoring.support_calls": "count/solve",
    "scoring.batch_score_ms": "ms",
    "lsh.build_ms": "ms",
    "lsh.builds": "count",
    "lsh.rebuild_with_bits_ms": "ms",
    "lsh.rebuilds_with_bits": "count",
    "dispersion.greedy_ms": "ms",
    "subs.wait_ms": "ms",
    "subs.eval_ms": "ms",
    "subs.useful_ratio": "ratio",
    "subs.backlog_max": "count",
    "policy.rotate_ms": "ms",
    "policy.rotations": "count",
    "policy.stalled_inserts": "count",
    "loadgen.lag_p90_ms": "ms",
    "share.support_in_sim_p50": "ratio",
    "share.apply_in_ack_p50": "ratio",
    "share.view_build_in_ack_p50": "ratio",
}


def _client_latencies(samples: Dict[str, list]) -> List[float]:
    latencies = [s[2] for s in samples.get("sim", []) + samples.get("div", [])]
    latencies += [acked - sent for sent, acked, _ in samples.get("insert", [])]
    latencies += [acked - sent for _due, sent, acked, _wm in samples.get("open_insert", [])]
    latencies += [latency for _answered, _wm, latency in samples.get("poll", [])]
    return latencies


def layer_metrics(traced, plain) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric plus ``overhead.<m>`` for each end-to-end ``m``.

    ``traced`` and ``plain`` are the two :class:`run.Run` passes of the
    same workload and seed.
    """
    from run import E2E_UNITS

    spans = [Span(*raw) for raw in traced.spans]
    by_id = {span.id: span for span in spans}
    named: Dict[str, List[Span]] = defaultdict(list)
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        named[span.name].append(span)
        if span.parent in by_id:
            child_ns[span.parent] += span.end - span.start

    def self_ms(span: Span) -> float:
        return (span.end - span.start - child_ns[span.id]) / 1e6

    def root(span: Span) -> Span:
        while span.parent in by_id:
            span = by_id[span.parent]
        return span

    def on(name: str, where: str) -> List[Span]:
        return [span for span in named[name] if role(span) == where]

    m: Dict[str, float] = {}

    # serving.http: what the client waited beyond the server's handler.
    handlers = on("http.handler", "handler")
    m["http.wire_ms"] = (
        _mean(_client_latencies(traced.samples)) * 1000.0 - _mean([s.ms for s in handlers])
        if handlers else 0.0
    )
    # api
    m["api.validate_ms"] = _mean([s.ms for s in on("api.validate", "handler")])
    solve_roots = [s for s in handlers if s.attrs.get("route") == "solve"]
    solve_root_ids = {s.id for s in solve_roots}
    serialize = sum(s.ms for s in on("api.to_dict", "handler"))
    serialize += sum(s.ms for s in named["api.json_encode"] if root(s).id in solve_root_ids)
    m["api.serialize_ms"] = _ratio(serialize, len(solve_roots))
    # serving.shards + core.incremental
    applies = on("incremental.apply", "writer")
    folds = sorted(on("shards.fold", "writer"), key=lambda s: s.start)
    fold_starts = [s.start for s in folds]
    apply_by_key = {s.attrs.get("key"): s for s in applies}
    waits = []
    for ack in on("shards.insert_ack", "handler"):
        applied = apply_by_key.get(ack.attrs.get("key"))
        if applied is None:
            continue
        index = bisect.bisect_left(fold_starts, applied.end)
        fold_ms = folds[index].ms if index < len(folds) and folds[index].end <= ack.end else 0.0
        waits.append(ack.ms - applied.ms - fold_ms)
    m["shards.insert_queue_wait_ms"] = _mean(waits)
    m["shards.fold_ms"] = _mean([s.ms for s in folds])
    m["shards.requests_per_drain"] = _ratio(len(applies), len(folds))
    actions = sum(s.attrs.get("actions", 0) for s in applies)
    m["incremental.apply_ms_per_action"] = _ratio(sum(s.ms for s in applies), actions)
    m["incremental.groups_updated_per_action"] = _ratio(
        sum(s.attrs.get("groups", 0) for s in applies), actions
    )
    # dataset.sqlite_store
    m["store.append_ms"] = _mean([s.ms for s in named["store.append"]])
    m["store.ledger_write_ms"] = _mean([s.ms for s in named["store.ledger_write"]])
    # SessionView derived state: the outermost build spans, per view.
    per_view: Dict[int, float] = defaultdict(float)
    for span in named["view.build"]:
        parent = by_id.get(span.parent)
        if parent is None or parent.name != "view.build":
            per_view[span.attrs["view"]] += span.ms
    view_solves = named["view.solve"]
    m["view.build_ms"] = _mean(list(per_view.values()))
    m["view.builds_per_solve"] = _ratio(len(per_view), len(view_solves))
    # algorithms.sm_lsh / dv_fdp and algorithms.scoring
    solves = named["algorithms.solve"]
    sim = [s for s in solves if s.attrs["algorithm"].startswith("sm-lsh")]
    div = [s for s in solves if s.attrs["algorithm"].startswith("dv-fdp")]
    m["algorithms.sm_lsh_ms"] = _mean([self_ms(s) for s in sim])
    m["algorithms.dv_fdp_ms"] = _mean([self_ms(s) for s in div])
    m["algorithms.candidates_per_solve"] = _mean([s.attrs["evaluations"] for s in solves])
    m["algorithms.relaxations_per_solve"] = _mean([s.attrs["relaxations"] for s in sim])
    supports = named["scoring.support"]
    m["scoring.support_ms"] = _ratio(sum(s.ms for s in supports), len(solves))
    m["scoring.support_calls"] = _ratio(len(supports), len(solves))
    m["scoring.batch_score_ms"] = _mean([s.ms for s in named["scoring.batch_score"]])
    # index.lsh and geometry.dispersion
    m["lsh.build_ms"] = _mean([s.ms for s in named["lsh.build"]])
    m["lsh.builds"] = float(len(named["lsh.build"]))
    m["lsh.rebuild_with_bits_ms"] = _mean([s.ms for s in named["lsh.rebuild_with_bits"]])
    m["lsh.rebuilds_with_bits"] = float(len(named["lsh.rebuild_with_bits"]))
    m["dispersion.greedy_ms"] = _mean([s.ms for s in named["dispersion.greedy"]])
    # serving.subscriptions: publication -> evaluator solve, by watermark.
    published: Dict[int, int] = {}
    for span in sorted(named["subs.notify"], key=lambda s: s.end):
        published.setdefault(span.attrs["wm"], span.end)
    evaluations = [s for s in view_solves if role(s) == "evaluator"]
    m["subs.wait_ms"] = _mean([
        (s.start - published[s.attrs["wm"]]) / 1e6 for s in evaluations if s.attrs["wm"] in published
    ])
    m["subs.eval_ms"] = _mean([s.ms for s in evaluations])
    before = traced.stats_before["shards"].get(traced.insert_corpus, {})
    after = traced.stats_after["shards"].get(traced.insert_corpus, {})
    m["subs.useful_ratio"] = _ratio(
        after["subs_notifications"] - before["subs_notifications"],
        after["subs_evaluations"] - before["subs_evaluations"],
    )
    m["subs.backlog_max"] = float(max((s.attrs["backlog"] for s in named["subs.notify"]), default=0))
    # serving.policy + core.persistence
    rotations = named["policy.rotate"]
    m["policy.rotate_ms"] = _mean([s.ms for s in rotations])
    m["policy.rotations"] = float(len(rotations))
    m["policy.stalled_inserts"] = float(sum(
        1 for ack in on("shards.insert_ack", "handler")
        if any(r.start < ack.end and ack.start < r.end for r in rotations)
    ))
    m["loadgen.lag_p90_ms"] = traced.lag_p90_ms
    # Baseline shares for the open ROADMAP performance items.
    support_by_root: Dict[int, float] = defaultdict(float)
    for span in supports:
        support_by_root[root(span).id] += span.ms
    sim_root_ids = {root(span).id for span in sim}
    sim_roots = sorted((s for s in solve_roots if s.id in sim_root_ids), key=lambda s: s.ms)
    sim_latencies = [s[2] for s in traced.samples.get("sim", [])]
    if sim_roots and sim_latencies:
        median_root = sim_roots[(len(sim_roots) - 1) // 2]
        m["share.support_in_sim_p50"] = support_by_root[median_root.id] / (
            percentile(sim_latencies, 0.5) * 1000.0
        )
    else:
        m["share.support_in_sim_p50"] = 0.0
    ack_p50 = traced.metrics["insert_ack_p50_ms"] if applies else 0.0
    m["share.apply_in_ack_p50"] = _ratio(m["incremental.apply_ms_per_action"], ack_p50)
    m["share.view_build_in_ack_p50"] = _ratio(m["view.build_ms"], ack_p50)

    report = {name: (m[name], unit) for name, unit in LAYER_UNITS.items()}
    for name, unit in E2E_UNITS.items():
        report[f"overhead.{name}"] = (traced.metrics[name] - plain.metrics[name], unit)
    return report
