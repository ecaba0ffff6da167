"""Tier-1 smoke test for the perf-report harness.

Runs ``benchmarks/perf_report.py --quick`` end to end (seconds, not
minutes) and validates the emitted JSON against the documented schema,
so the harness future PRs rely on for their perf trajectory cannot rot.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import perf_report
    finally:
        sys.path.remove(str(BENCHMARKS))
    output = tmp_path_factory.mktemp("perf") / "bench.json"
    assert perf_report.main(["--quick", "--output", str(output)]) == 0
    return perf_report, json.loads(output.read_text(encoding="utf-8"))


class TestPerfReportQuick:
    def test_schema(self, quick_report):
        perf_report, report = quick_report
        perf_report.validate_report(report)
        assert report["mode"] == "quick"

    def test_expected_kernels_present(self, quick_report):
        _perf_report, report = quick_report
        assert set(report["kernels"]) >= {
            "greedy_max_avg_dispersion",
            "greedy_max_min_dispersion",
            "lsh_rebuild_with_bits",
            "batch_subset_scoring",
        }

    def test_kernels_keep_parity(self, quick_report):
        _perf_report, report = quick_report
        for name, entry in report["kernels"].items():
            assert entry["parity"] is True, name
            assert entry["speedup"] > 0

    def test_scaling_rows_cover_bins(self, quick_report):
        _perf_report, report = quick_report
        assert len(report["scaling"]) == 2
        tuples = [row["tuples"] for row in report["scaling"]]
        assert tuples == sorted(tuples)
        for row in report["scaling"]:
            assert row["build_seconds"] > 0
            assert set(row["solve"]) == {"p1-sm-lsh-fo", "p6-dv-fdp-fo"}

    def test_persistence_section(self, quick_report):
        """Snapshot warm loads must be faster than cold prepares with exact
        parity -- even in smoke mode, where the corpus is tiny."""
        _perf_report, report = quick_report
        persistence = report["persistence"]
        assert persistence["parity"] is True
        assert persistence["warm_load_seconds"] > 0
        assert persistence["warm_speedup"] > 1.0

    def test_serving_section(self, quick_report):
        """The warm shard must absorb every insert under concurrent clients
        and keep solve parity with a cold single-threaded replay."""
        _perf_report, report = quick_report
        serving = report["serving"]
        assert serving["parity"] is True
        assert serving["inserts"] > 0
        assert serving["inserts_per_second"] > 0
        assert serving["client_threads"] >= 4
        assert serving["snapshot_rotations"] >= 1

    def test_http_section(self, quick_report):
        """The HTTP front-end must sustain concurrent wire clients and
        return bit-identical solves to the in-process client."""
        _perf_report, report = quick_report
        http = report["http"]
        assert http["parity"] is True
        assert http["inserts"] > 0
        assert http["requests_per_second"] > 0
        assert http["client_threads"] >= 4
        assert http["http_solve_ms"] > 0
        assert http["inprocess_solve_ms"] > 0

    def test_fleet_section(self, quick_report):
        _perf_report, report = quick_report
        fleet = report["fleet"]
        assert fleet["parity"] is True
        assert [run["workers"] for run in fleet["runs"]] == [1, 2]
        assert all(run["solves_per_second"] > 0 for run in fleet["runs"])
        assert fleet["groups_returned"] > 0
        assert fleet["cpu_count"] >= 1

    def test_reliability_section(self, quick_report):
        """The kill drill must land every keyed insert exactly once and
        the admission gate must shed without leaking into the store."""
        _perf_report, report = quick_report
        reliability = report["reliability"]
        assert reliability["exactly_once"] is True
        assert reliability["lost_inserts"] == 0
        assert reliability["duplicated_inserts"] == 0
        assert reliability["worker_restarts"] >= 1
        assert reliability["deduplicated_replies"] >= 1
        assert reliability["solve_p99_ms"] >= reliability["solve_p50_ms"]
        admission = reliability["admission"]
        assert admission["shed"] >= 1
        assert admission["applied_equals_accepted"] is True

    def test_htap_section(self, quick_report):
        """The delta+main shard must keep solving during the insert storm
        with bit-identical parity for delta-visible and post-merge solves
        against a serialized replay."""
        _perf_report, report = quick_report
        htap = report["htap"]
        assert htap["parity"] is True
        assert htap["delta_visible_parity"] is True
        assert htap["merged_parity"] is True
        assert htap["inserts"] > 0
        assert htap["insert_threads"] >= 2
        assert htap["delta_main"]["solves_during_storm"] >= 1
        assert htap["delta_main"]["merge_count"] >= 1
        assert (
            htap["delta_main"]["final_epoch"]
            == htap["delta_main"]["merge_count"] + 1
        )

    def test_subscriptions_section(self, quick_report):
        """The standing-query evaluator must deliver every watermark
        exactly once, the composed diff chain must equal the cold
        replay, and the warm re-solve must beat it even in smoke mode
        (the cold side pays a full corpus prepare)."""
        _perf_report, report = quick_report
        subscriptions = report["subscriptions"]
        assert subscriptions["parity"] is True
        assert subscriptions["lost_diffs"] == 0
        assert subscriptions["duplicated_diffs"] == 0
        assert subscriptions["diffs_delivered"] >= 1
        assert subscriptions["notify_p99_ms"] >= subscriptions["notify_p50_ms"] > 0
        assert subscriptions["max_backlog"] >= 0
        assert subscriptions["incremental_speedup"] > 1.0


def _import_perf_report():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import perf_report
    finally:
        sys.path.remove(str(BENCHMARKS))
    return perf_report


def test_committed_bench_report_is_valid():
    """The committed BENCH_PR1.json must match the schema and its claims."""
    path = REPO_ROOT / "BENCH_PR1.json"
    assert path.exists(), "BENCH_PR1.json missing; run benchmarks/perf_report.py"
    report = json.loads(path.read_text(encoding="utf-8"))
    perf_report = _import_perf_report()
    perf_report.validate_report(report)
    assert report["mode"] == "full"
    greedy = report["kernels"]["greedy_max_avg_dispersion"]
    assert greedy["n"] == 2000 and greedy["k"] == 20
    assert greedy["speedup"] >= 5.0
    assert report["kernels"]["lsh_rebuild_with_bits"]["speedup"] >= 3.0


def test_committed_pr2_bench_report_is_valid():
    """The committed BENCH_PR2.json must back the persistence claims:
    warm-load at least 5x faster than cold prepare, with exact parity."""
    path = REPO_ROOT / "BENCH_PR2.json"
    assert path.exists(), "BENCH_PR2.json missing; run benchmarks/perf_report.py"
    report = json.loads(path.read_text(encoding="utf-8"))
    perf_report = _import_perf_report()
    perf_report.validate_report(report)
    assert report["mode"] == "full"
    persistence = report["persistence"]
    assert persistence["parity"] is True
    assert persistence["warm_speedup"] >= 5.0


def test_committed_pr3_bench_report_is_valid():
    """The committed BENCH_PR3.json must back the serving claims: a warm
    shard sustains interleaved inserts and solves from concurrent client
    threads with solve parity against a cold single-threaded replay."""
    path = REPO_ROOT / "BENCH_PR3.json"
    assert path.exists(), "BENCH_PR3.json missing; run benchmarks/perf_report.py"
    report = json.loads(path.read_text(encoding="utf-8"))
    perf_report = _import_perf_report()
    perf_report.validate_report(report)
    assert report["mode"] == "full"
    serving = report["serving"]
    assert serving["parity"] is True
    assert serving["inserts"] >= 500
    assert serving["client_threads"] >= 4
    assert serving["snapshot_rotations"] >= 1
    assert serving["inserts_per_second"] > 1.0


def test_committed_pr4_bench_report_is_valid():
    """The committed BENCH_PR4.json must back the wire-API claims: the
    HTTP front-end serves concurrent clients and an HttpClient solve is
    bit-identical to the same solve in-process on the same warm session."""
    path = REPO_ROOT / "BENCH_PR4.json"
    assert path.exists(), "BENCH_PR4.json missing; run benchmarks/perf_report.py"
    report = json.loads(path.read_text(encoding="utf-8"))
    perf_report = _import_perf_report()
    perf_report.validate_report(report)
    assert report["mode"] == "full"
    http = report["http"]
    assert http["parity"] is True
    assert http["inserts"] >= 300
    assert http["client_threads"] >= 4
    assert http["requests_per_second"] > 1.0


def test_committed_pr5_bench_report_is_valid():
    """The committed BENCH_PR5.json must back the fleet claims: solves
    routed through the router, sent directly to the owning worker and
    run single-process are bit-identical, the worker ladder (1/2/4) was
    actually measured, and the pooled-vs-unpooled client comparison is
    recorded.  Throughput *scaling* is machine-relative (bounded by
    ``fleet.cpu_count``), so it is asserted only on hosts with the cores
    to show it."""
    path = REPO_ROOT / "BENCH_PR5.json"
    assert path.exists(), "BENCH_PR5.json missing; run benchmarks/perf_report.py"
    report = json.loads(path.read_text(encoding="utf-8"))
    perf_report = _import_perf_report()
    perf_report.validate_report(report)
    assert report["mode"] == "full"
    fleet = report["fleet"]
    assert fleet["parity"] is True
    assert [run["workers"] for run in fleet["runs"]] == [1, 2, 4]
    assert fleet["corpora"] >= 4
    assert fleet["client_threads"] >= 8
    assert fleet["groups_returned"] > 0
    http = report["http"]
    assert http["stats_pooled_ms"] > 0 and http["stats_unpooled_ms"] > 0


def test_committed_pr6_bench_report_is_valid():
    """The committed BENCH_PR6.json must back the reliability claims:
    the kill drill landed every keyed insert exactly once (zero lost,
    zero duplicated, the ambiguous retry answered from the dedup log),
    the supervisor respawned the killed worker, and the admission gate
    shed load without a single shed batch leaking into the store."""
    path = REPO_ROOT / "BENCH_PR6.json"
    assert path.exists(), "BENCH_PR6.json missing; run benchmarks/perf_report.py"
    report = json.loads(path.read_text(encoding="utf-8"))
    perf_report = _import_perf_report()
    perf_report.validate_report(report)
    assert report["mode"] == "full"
    reliability = report["reliability"]
    assert reliability["exactly_once"] is True
    assert reliability["inserts"] >= 30
    assert reliability["deduplicated_replies"] >= 1
    assert reliability["worker_restarts"] >= 1
    assert reliability["admission"]["shed"] >= 1
    assert reliability["admission"]["applied_equals_accepted"] is True


def test_committed_pr7_bench_report_is_valid():
    """The committed BENCH_PR7.json must back the HTAP claims: the shard
    actually folded under the insert storm, and delta-visible and
    post-merge solves are bit-identical to a serialized replay of the
    committed insert order."""
    path = REPO_ROOT / "BENCH_PR7.json"
    assert path.exists(), "BENCH_PR7.json missing; run benchmarks/perf_report.py"
    report = json.loads(path.read_text(encoding="utf-8"))
    perf_report = _import_perf_report()
    perf_report.validate_report(report)
    assert report["mode"] == "full"
    htap = report["htap"]
    assert htap["parity"] is True
    assert htap["inserts"] >= 500
    assert htap["delta_main"]["merge_count"] >= 1


def test_committed_pr10_bench_report_is_valid():
    """The committed BENCH_PR10.json must back the standing-query
    claims: the batched insert storm delivered every ledger seq exactly
    once, the composed diff chain and the warm solve agree with a
    from-scratch cold replay at the final watermark, and the warm
    incremental re-solve is measurably faster than that replay (the
    acceptance criterion -- standing queries earn their keep)."""
    path = REPO_ROOT / "BENCH_PR10.json"
    assert path.exists(), "BENCH_PR10.json missing; run benchmarks/perf_report.py"
    report = json.loads(path.read_text(encoding="utf-8"))
    perf_report = _import_perf_report()
    perf_report.validate_report(report)
    assert report["mode"] == "full"
    subscriptions = report["subscriptions"]
    assert subscriptions["parity"] is True
    assert subscriptions["lost_diffs"] == 0
    assert subscriptions["duplicated_diffs"] == 0
    assert subscriptions["diffs_delivered"] >= 1
    assert subscriptions["inserts"] >= 100
    assert subscriptions["incremental_speedup"] > 1.0
