"""Performance report: kernels (PR 1), persistence (PR 2), serving (PR 3), HTTP (PR 4), fleet (PR 5), reliability (PR 6), HTAP (PR 7), subscriptions (PR 10), incremental inserts.

Times the vectorized kernels against the retained naive seed
implementations (:mod:`repro.geometry.reference`), measures the
end-to-end build/solve phases at the Figure 7 scaling bins, times the
persistence subsystem (SQLite ingest/load, cold session prepare vs
warm snapshot load), measures sustained interleaved insert+query
throughput on a warm serving shard, measures the HTTP front-end
(wire request throughput, per-request overhead over the same solve
in-process, and what connection pooling saves per request), and
measures the multi-process fleet (aggregate solve throughput at 1/2/4
workers on a multi-corpus workload, router forwarding overhead, and
routed/direct/single-process parity), and runs the reliability drill
(solve latency through a SIGKILL + respawn of the owning worker,
exactly-once audit of keyed inserts across the kill, admission-control
shed behaviour under a stalled writer), and measures the HTAP
delta+main split (solve latency percentiles under a sustained insert
storm on the lock-free pinned-view path, insert throughput with a
concurrent solve loop, and bit-identical parity of delta-visible/post-merge solves against a
serialized replay), and measures the standing-query pipeline (notify
latency from a published view to the subscription ledger position
covering its watermark, evaluator backlog depth under a batched insert
storm, and the incremental advantage of re-solving a standing query on
the warm serving session over a from-scratch cold replay at the same
watermark), then writes a JSON report so future PRs have a perf
trajectory to beat.

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py            # full report -> BENCH_PR10.json
    PYTHONPATH=src python benchmarks/perf_report.py --quick    # smoke mode, seconds not minutes
    PYTHONPATH=src python benchmarks/perf_report.py --output /tmp/bench.json

Report schema (``schema_version`` 9; older reports lack the newer
sections -- v1 has no ``persistence``/``serving``/``http``/``fleet``/
``reliability``/``htap``/``subscriptions``/``incremental``, v2 no
``serving``/``http``/``fleet``/``reliability``/``htap``/``subscriptions``/
``incremental``, v3 no ``http``/``fleet``/``reliability``/``htap``/
``subscriptions``/``incremental``, v4 no ``fleet``/``reliability``/
``htap``/``subscriptions``/``incremental``, v5 no ``reliability``/
``htap``/``subscriptions``/``incremental``, v6 no ``htap``/
``subscriptions``/``incremental``, v7 no ``subscriptions``/
``incremental``, v8 no ``incremental`` -- and all still validate)::

    {
      "schema_version": 9,
      "pr": "PR7",
      "mode": "full" | "quick",
      "kernels": {
        "<kernel>": {"naive_seconds": float, "vectorized_seconds": float,
                      "speedup": float, "parity": bool, ...parameters}
      },
      "scaling": [
        {"bin": str, "tuples": int, "groups": int, "build_seconds": float,
         "solve": {"<problem-algorithm>": float, ...}}
      ],
      "persistence": {
        "tuples": int, "groups": int,
        "sqlite_ingest_seconds": float, "sqlite_load_seconds": float,
        "cold_prepare_seconds": float, "warm_load_seconds": float,
        "warm_speedup": float, "parity": bool
      },
      "serving": {
        "tuples": int, "groups": int, "inserts": int, "solves": int,
        "client_threads": int, "wall_seconds": float,
        "inserts_per_second": float, "solves_per_second": float,
        "snapshot_rotations": int, "parity": bool
      },
      "http": {
        "tuples": int, "groups": int, "inserts": int, "solves": int,
        "client_threads": int, "wall_seconds": float,
        "requests_per_second": float,
        "inprocess_solve_ms": float, "http_solve_ms": float,
        "wire_overhead_ms": float,
        "parity": bool
      },
      "fleet": {
        "corpora": int, "tuples_per_corpus": int, "cpu_count": int,
        "groups_returned": int, "client_threads": int,
        "solves_per_run": int,
        "runs": [{"workers": int, "wall_seconds": float,
                   "solves_per_second": float}],
        "throughput_speedup_max_vs_1": float,
        "routed_solve_ms": float, "direct_solve_ms": float,
        "router_overhead_ms": float, "parity": bool
      },
      "reliability": {
        "tuples": int, "inserts": int, "solves": int,
        "kill_at_insert": int, "worker_restarts": int,
        "deduplicated_replies": int,
        "solve_p50_ms": float, "solve_p99_ms": float,
        "solve_max_ms": float,
        "lost_inserts": int, "duplicated_inserts": int,
        "exactly_once": bool,
        "admission": {"offered": int, "accepted": int, "shed": int,
                       "shed_rate": float,
                       "applied_equals_accepted": bool}
      },
      "htap": {
        "tuples": int, "inserts": int, "insert_threads": int,
        "delta_main": {"solve_p50_ms": float, "solve_p99_ms": float,
                        "solves_during_storm": int,
                        "storm_wall_seconds": float,
                        "inserts_per_second": float,
                        "merge_count": int, "final_epoch": int},
        "delta_visible_parity": bool, "merged_parity": bool,
        "parity": bool
      },
      "subscriptions": {
        "tuples": int, "inserts": int, "batches": int,
        "diffs_delivered": int, "storm_wall_seconds": float,
        "notify_p50_ms": float, "notify_p99_ms": float,
        "max_backlog": int,
        "lost_diffs": int, "duplicated_diffs": int,
        "warm_solve_ms": float, "cold_replay_ms": float,
        "incremental_speedup": float, "parity": bool
      },
      "incremental": {
        "rungs": [{"tuples": int, "groups": int, "inserts": int,
                    "apply_p50_ms": float, "apply_p90_ms": float,
                    "first_solve_p50_ms": float,
                    "first_solve_p90_ms": float, "parity": bool}],
        "apply_p50_growth": float, "tuples_growth": float, "parity": bool
      }
    }

The ``http.parity`` flag is the PR 4 acceptance check: the same
ProblemSpec solved through :class:`~repro.api.client.HttpClient` and
through :class:`~repro.api.client.LocalClient` on the same warm session
must return bit-identical group selections.  ``fleet.parity`` extends
it across processes (PR 5): routed-through-the-router, direct-to-worker
and single-process solves must all agree bit-identically.
``fleet.throughput_speedup_max_vs_1`` is meaningful only relative to
``fleet.cpu_count`` -- worker processes cannot scale past the cores the
machine actually has, so the report records both.

``reliability.exactly_once`` is the PR 6 acceptance check: with the
owning worker SIGKILLed *after* a keyed insert committed but *before*
it answered, every keyed insert must land exactly once -- zero lost,
zero duplicated -- with the ambiguous retry answered from the dedup
log.  ``reliability.solve_p99_ms`` reads against ``solve_p50_ms``: the
gap is the recovery window solves rode out while the supervisor
respawned the worker.

``htap`` drives an insert storm + solve loop against the delta+main
:class:`~repro.serving.shards.CorpusShard` (lock-free solves on a
pinned view).  ``htap.parity`` requires the shard's delta-visible and
post-merge solves to be bit-identical to a serialized single-threaded
replay of the same committed insert order.  ``BENCH_PR7.json`` also
carries ``htap.baseline`` and ``htap.solve_p99_speedup``: a comparison
against an inline reconstruction of the RW-lock shard that preceded
delta+main, kept there as the historical record and no longer re-run.

``subscriptions.incremental_speedup`` is the PR 10 acceptance check:
re-solving a registered standing query on the warm serving session
(the evaluator's per-publish path) must beat a from-scratch cold
session that re-prepares the corpus and replays the committed insert
prefix to the same watermark.  ``subscriptions.parity`` requires the
composed diff chain delivered by the ledger *and* the warm solve to
agree byte-identically (under canonical JSON, volatile fields
stripped) with that cold replay; ``lost_diffs``/``duplicated_diffs``
audit the ledger seqs for exactly-once visible delivery.

``incremental`` is the insert ladder: single-action apply p50/p90 and
the first solve on the view frozen after each insert, per corpus size.
Its ``parity`` requires the maintained groups to equal a from-scratch
rebuild of their rows at every rung.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.algorithms.scoring import batch_subset_means  # noqa: E402
from repro.geometry.dispersion import (  # noqa: E402
    greedy_max_avg_dispersion,
    greedy_max_min_dispersion,
)
from repro.geometry.distance import pairwise_cosine_distance  # noqa: E402
from repro.geometry.reference import (  # noqa: E402
    naive_greedy_max_avg_dispersion,
    naive_greedy_max_min_dispersion,
    naive_lsh_tables,
    naive_subset_mean,
)
from repro.index.lsh import CosineLshIndex  # noqa: E402

SCHEMA_VERSION = 9


def best_of(repeats: int, fn: Callable[[], object]) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def best_of_pair(
    repeats: int, fn_a: Callable[[], object], fn_b: Callable[[], object]
) -> "tuple[float, float]":
    """Interleaved :func:`best_of` over two alternatives (A,B,A,B,...).

    Comparing two paths with back-to-back ``best_of`` runs lets slow
    machine-load drift land entirely on one side and flip the sign of a
    small difference; interleaving exposes both sides to the same drift.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - started)
        started = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - started)
    return best_a, best_b


def _speedup_entry(naive_seconds: float, fast_seconds: float, parity: bool, **params):
    entry = dict(params)
    entry.update(
        {
            "naive_seconds": naive_seconds,
            "vectorized_seconds": fast_seconds,
            "speedup": naive_seconds / fast_seconds if fast_seconds > 0 else float("inf"),
            "parity": parity,
        }
    )
    return entry


# ----------------------------------------------------------------------
# Kernel benchmarks
# ----------------------------------------------------------------------
def bench_greedy_dispersion(n: int, k: int, repeats: int) -> Dict[str, Dict]:
    rng = np.random.default_rng(0)
    matrix = pairwise_cosine_distance(rng.random((n, 8)))

    fast_avg = greedy_max_avg_dispersion(matrix, k)
    slow_avg = naive_greedy_max_avg_dispersion(matrix, k)
    avg = _speedup_entry(
        best_of(repeats, lambda: naive_greedy_max_avg_dispersion(matrix, k)),
        best_of(repeats, lambda: greedy_max_avg_dispersion(matrix, k)),
        parity=fast_avg.indices == slow_avg.indices,
        n=n,
        k=k,
    )

    fast_min = greedy_max_min_dispersion(matrix, k)
    slow_min = naive_greedy_max_min_dispersion(matrix, k)
    mn = _speedup_entry(
        best_of(repeats, lambda: naive_greedy_max_min_dispersion(matrix, k)),
        best_of(repeats, lambda: greedy_max_min_dispersion(matrix, k)),
        parity=fast_min.indices == slow_min.indices,
        n=n,
        k=k,
    )
    return {"greedy_max_avg_dispersion": avg, "greedy_max_min_dispersion": mn}


def bench_lsh_rebuild(n: int, n_dimensions: int, bits_from: int, bits_to: int, n_tables: int, repeats: int) -> Dict:
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(n, n_dimensions))
    index = CosineLshIndex(n_dimensions, n_bits=bits_from, n_tables=n_tables, seed=3).build(vectors)

    rebuilt = index.rebuild_with_bits(bits_to)
    naive_tables = naive_lsh_tables(vectors, n_bits=bits_to, n_tables=n_tables, seed=3)
    parity = all(
        {bucket.key: tuple(bucket.members) for bucket in rebuilt.buckets(table)} == naive_tables[table]
        for table in range(n_tables)
    )
    return _speedup_entry(
        best_of(repeats, lambda: naive_lsh_tables(vectors, n_bits=bits_to, n_tables=n_tables, seed=3)),
        best_of(repeats, lambda: index.rebuild_with_bits(bits_to)),
        parity=parity,
        n=n,
        n_dimensions=n_dimensions,
        n_tables=n_tables,
        bits_from=bits_from,
        bits_to=bits_to,
    )


def bench_subset_scoring(n: int, n_subsets: int, subset_size: int, repeats: int) -> Dict:
    rng = np.random.default_rng(2)
    matrix = pairwise_cosine_distance(rng.random((n, 8)))
    subsets = np.asarray(
        [rng.choice(n, size=subset_size, replace=False) for _ in range(n_subsets)]
    )

    fast = batch_subset_means(matrix, subsets)
    slow = [naive_subset_mean(matrix, subset.tolist(), 0.0) for subset in subsets]
    parity = bool(np.allclose(fast, slow, atol=1e-12))
    return _speedup_entry(
        best_of(
            repeats,
            lambda: [naive_subset_mean(matrix, subset.tolist(), 0.0) for subset in subsets],
        ),
        best_of(repeats, lambda: batch_subset_means(matrix, subsets)),
        parity=parity,
        n=n,
        n_subsets=n_subsets,
        subset_size=subset_size,
    )


# ----------------------------------------------------------------------
# Persistence: SQLite round-trip + cold prepare vs warm snapshot load
# ----------------------------------------------------------------------
def bench_persistence(quick: bool) -> Dict:
    import tempfile

    from repro.core.persistence import load_session, save_session
    from repro.dataset.sqlite_store import SqliteTaggingStore
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_dataset, build_problem, build_session

    if quick:
        config = ExperimentConfig(
            n_users=60, n_items=120, n_actions=800, seed=42, max_groups=40
        )
    else:
        config = ExperimentConfig(
            n_users=150, n_items=300, n_actions=4000, seed=42, max_groups=90
        )
    dataset = build_dataset(config)

    with tempfile.TemporaryDirectory() as tmp:
        db_path = Path(tmp) / "corpus.sqlite"
        snapshot_path = Path(tmp) / "session.snapshot"

        started = time.perf_counter()
        store = SqliteTaggingStore.from_dataset(dataset, db_path)
        sqlite_ingest = time.perf_counter() - started

        started = time.perf_counter()
        session = build_session(dataset, config)
        cold_prepare = time.perf_counter() - started
        # Warm the LSH cache so its sign-bit matrices ride in the snapshot.
        session.signature_lsh(n_bits=config.lsh_bits, n_tables=config.lsh_tables)
        save_session(session, snapshot_path)

        started = time.perf_counter()
        reloaded = store.to_dataset()
        sqlite_load = time.perf_counter() - started

        started = time.perf_counter()
        warm = load_session(snapshot_path, reloaded)
        warm_load = time.perf_counter() - started
        store.close()

        parity = bool(
            np.array_equal(session.signatures, warm.signatures)
            and [str(g.description) for g in session.groups]
            == [str(g.description) for g in warm.groups]
        )
        for problem_id, algorithm in ((1, "sm-lsh-fo"), (6, "dv-fdp-fo")):
            problem = build_problem(problem_id, dataset, config)
            cold_result = session.solve(problem, algorithm=algorithm)
            warm_result = warm.solve(problem, algorithm=algorithm)
            parity = parity and (
                cold_result.objective_value == warm_result.objective_value
                and cold_result.descriptions() == warm_result.descriptions()
            )

    return {
        "tuples": dataset.n_actions,
        "groups": session.n_groups,
        "sqlite_ingest_seconds": sqlite_ingest,
        "sqlite_load_seconds": sqlite_load,
        "cold_prepare_seconds": cold_prepare,
        "warm_load_seconds": warm_load,
        "warm_speedup": cold_prepare / warm_load if warm_load > 0 else float("inf"),
        "parity": parity,
    }


# ----------------------------------------------------------------------
# Serving: sustained interleaved insert+query throughput on a warm shard
# ----------------------------------------------------------------------
def bench_serving(quick: bool) -> Dict:
    import tempfile
    import threading
    import time as time_module
    from pathlib import Path as PathType

    from repro.core.enumeration import GroupEnumerationConfig
    from repro.core.incremental import IncrementalTagDM
    from repro.core.problem import table1_problem
    from repro.dataset.synthetic import generate_movielens_style
    from repro.serving import SnapshotRotationPolicy, TagDMServer

    if quick:
        n_actions, n_inserts, n_solves = 600, 80, 8
    else:
        n_actions, n_inserts, n_solves = 2000, 500, 50
    enumeration = GroupEnumerationConfig(min_support=5, max_groups=60)
    dataset = generate_movielens_style(
        n_users=60, n_items=120, n_actions=n_actions, seed=42
    )
    initial_actions = dataset.n_actions

    with tempfile.TemporaryDirectory() as tmp:
        server = TagDMServer(
            PathType(tmp),
            policy=SnapshotRotationPolicy(every_inserts=max(25, n_inserts // 8)),
            enumeration=enumeration,
            seed=42,
        )
        shard = server.add_corpus("bench", dataset)
        problem = table1_problem(1, k=3, min_support=shard.session.default_support())

        n_writers = 2
        per_writer = n_inserts // n_writers
        errors: List[BaseException] = []
        barrier = threading.Barrier(n_writers + 2)

        def inserter(label: int) -> None:
            try:
                barrier.wait()
                for i in range(per_writer):
                    row = (label * per_writer + i) % initial_actions
                    server.insert(
                        "bench",
                        dataset.user_of(row),
                        dataset.item_of(row),
                        [f"bench-{label}-{i}"],
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def solver() -> None:
            try:
                barrier.wait()
                for _ in range(n_solves // 2):
                    server.solve("bench", problem, algorithm="sm-lsh-fo")
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=inserter, args=(label,))
            for label in range(n_writers)
        ]
        threads.extend(threading.Thread(target=solver) for _ in range(2))
        started = time_module.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shard.flush()
        wall = time_module.perf_counter() - started
        if errors:
            raise RuntimeError(f"serving bench raised: {errors[0]!r}")
        # Capture the counters before the parity check below adds an
        # out-of-band solve that was not part of the timed window.
        stats = server.stats()["bench"]

        # Parity: replay the committed insert order into a cold
        # single-threaded session over a regenerated initial corpus.
        cold = IncrementalTagDM(
            generate_movielens_style(
                n_users=60, n_items=120, n_actions=n_actions, seed=42
            ),
            enumeration=enumeration,
            seed=42,
        ).prepare()
        served = shard.session.dataset
        for row in range(initial_actions, served.n_actions):
            cold.add_action(
                served.user_of(row),
                served.item_of(row),
                served.tags_of(row),
                served.rating_of(row),
            )
        warm_result = server.solve("bench", problem, algorithm="sm-lsh-fo")
        cold_result = cold.solve(problem, algorithm="sm-lsh-fo")
        parity = bool(
            served.n_actions == initial_actions + n_inserts
            and warm_result.objective_value == cold_result.objective_value
            and warm_result.descriptions() == cold_result.descriptions()
        )
        server.close()

    solves_done = stats["solves_served"]
    return {
        "tuples": initial_actions,
        "groups": stats["groups"],
        "inserts": n_inserts,
        "solves": solves_done,
        "client_threads": n_writers + 2,
        "wall_seconds": wall,
        "inserts_per_second": n_inserts / wall if wall > 0 else float("inf"),
        "solves_per_second": solves_done / wall if wall > 0 else float("inf"),
        "snapshot_rotations": stats["snapshot_rotations"],
        "parity": parity,
    }


# ----------------------------------------------------------------------
# HTTP front-end: wire throughput and per-request overhead (PR 4)
# ----------------------------------------------------------------------
def bench_http(quick: bool) -> Dict:
    import tempfile
    import threading
    import time as time_module
    from pathlib import Path as PathType

    from repro.api import HttpClient, LocalClient, ProblemSpec
    from repro.core.enumeration import GroupEnumerationConfig
    from repro.core.problem import table1_problem
    from repro.dataset.synthetic import generate_movielens_style
    from repro.serving import TagDMHttpServer, TagDMServer

    if quick:
        n_actions, n_inserts, n_solves, timed_solves = 600, 40, 6, 5
    else:
        n_actions, n_inserts, n_solves, timed_solves = 2000, 300, 30, 20
    enumeration = GroupEnumerationConfig(min_support=5, max_groups=60)
    dataset = generate_movielens_style(
        n_users=60, n_items=120, n_actions=n_actions, seed=42
    )

    with tempfile.TemporaryDirectory() as tmp:
        server = TagDMServer(PathType(tmp), enumeration=enumeration, seed=42)
        shard = server.add_corpus("bench", dataset)
        problem = table1_problem(1, k=3, min_support=shard.session.default_support())
        spec = ProblemSpec.from_problem(problem, algorithm="sm-lsh-fo")

        with TagDMHttpServer(server) as front:
            n_writers = 2
            per_writer = n_inserts // n_writers
            errors: List[BaseException] = []
            barrier = threading.Barrier(n_writers + 2)

            def inserter(label: int) -> None:
                client = HttpClient(front.url)
                try:
                    barrier.wait()
                    for i in range(per_writer):
                        row = (label * per_writer + i) % n_actions
                        client.insert_action(
                            "bench",
                            dataset.user_of(row),
                            dataset.item_of(row),
                            [f"http-{label}-{i}"],
                        )
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def solver() -> None:
                client = HttpClient(front.url)
                try:
                    barrier.wait()
                    for _ in range(n_solves // 2):
                        client.solve("bench", spec)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=inserter, args=(label,))
                for label in range(n_writers)
            ]
            threads.extend(threading.Thread(target=solver) for _ in range(2))
            started = time_module.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            shard.flush()
            wall = time_module.perf_counter() - started
            if errors:
                raise RuntimeError(f"http bench raised: {errors[0]!r}")

            # Per-request overhead: the identical spec, warm caches, one
            # client -- wire time minus in-process time is the protocol
            # cost (serde + HTTP + socket).
            client = HttpClient(front.url)
            local = LocalClient({"bench": shard.session})
            client.solve("bench", spec)  # warm both paths before timing
            local.solve("bench", spec)
            http_solve, inprocess_solve = best_of_pair(
                timed_solves,
                lambda: client.solve("bench", spec),
                lambda: local.solve("bench", spec),
            )

            over_http = client.solve("bench", spec)
            in_process = local.solve("bench", spec)
            parity = bool(
                over_http.objective_value == in_process.objective_value
                and [str(g.description) for g in over_http.groups]
                == [str(g.description) for g in in_process.groups]
                and [g.tuple_indices for g in over_http.groups]
                == [g.tuple_indices for g in in_process.groups]
            )
            stats = client.stats("bench")
            client.close()
        server.close()

    solves_done = 2 * (n_solves // 2)
    return {
        "tuples": n_actions,
        "groups": int(stats["groups"]),
        "inserts": n_inserts,
        "solves": solves_done,
        "client_threads": n_writers + 2,
        "wall_seconds": wall,
        "requests_per_second": (
            (n_inserts + solves_done) / wall if wall > 0 else float("inf")
        ),
        "inprocess_solve_ms": inprocess_solve * 1e3,
        "http_solve_ms": http_solve * 1e3,
        "wire_overhead_ms": (http_solve - inprocess_solve) * 1e3,
        "parity": parity,
    }


# ----------------------------------------------------------------------
# Multi-process fleet: aggregate throughput + router overhead (PR 5)
# ----------------------------------------------------------------------
def bench_fleet(quick: bool) -> Dict:
    """Aggregate solve throughput at 1/2/4 workers, and router overhead.

    One shared fleet root holds N corpora; for each worker count a fresh
    fleet serves that same root (corpora pinned round-robin so every
    worker owns an equal share) and a fixed pool of client threads
    drives solves round-robin across corpora through the router.
    Throughput scaling is bounded by the machine's cores -- the report
    records ``cpu_count`` so a 1.0x on a 1-core container and a 3x on a
    4-core host read correctly.
    """
    import os
    import tempfile
    import threading
    import time as time_module
    from pathlib import Path as PathType

    from repro.api import FleetClient, HttpClient, ProblemSpec, ServerClient
    from repro.core.enumeration import GroupEnumerationConfig
    from repro.core.problem import table1_problem
    from repro.dataset.synthetic import generate_movielens_style
    from repro.serving import TagDMFleet, TagDMServer

    if quick:
        n_corpora, n_actions, worker_counts = 2, 600, (1, 2)
        client_threads, solves_per_thread, timed_solves = 4, 3, 3
    else:
        n_corpora, n_actions, worker_counts = 4, 2000, (1, 2, 4)
        client_threads, solves_per_thread, timed_solves = 8, 6, 10
    enumeration = GroupEnumerationConfig(min_support=5, max_groups=60)
    seed = 42

    with tempfile.TemporaryDirectory() as tmp:
        root = PathType(tmp)
        corpora = [f"corpus-{index}" for index in range(n_corpora)]
        problems: Dict[str, object] = {}

        # Ingest every corpus once (store + cold prepare + snapshot);
        # all fleets below warm-start from these snapshots.
        ingest = TagDMServer(root, enumeration=enumeration, seed=seed)
        for index, name in enumerate(corpora):
            dataset = generate_movielens_style(
                n_users=60, n_items=120, n_actions=n_actions, seed=seed + index
            )
            shard = ingest.add_corpus(name, dataset)
            # Pick a k this corpus can actually satisfy, so the workload
            # solves real (non-null) problems end to end.
            support = shard.session.default_support()
            problems[name] = table1_problem(1, k=2, min_support=support)
            for k in (5, 4, 3):
                candidate = table1_problem(1, k=k, min_support=support)
                if shard.session.solve(candidate, algorithm="sm-lsh-fo").groups:
                    problems[name] = candidate
                    break
        ingest.close()
        specs = {
            name: ProblemSpec.from_problem(problem, algorithm="sm-lsh-fo")
            for name, problem in problems.items()
        }

        def drive_through(router_url: str) -> float:
            """Aggregate wall time for the fixed multi-corpus solve load."""
            client = HttpClient(router_url, request_timeout=600.0)
            errors: List[BaseException] = []
            barrier = threading.Barrier(client_threads + 1)

            def solver(label: int) -> None:
                try:
                    barrier.wait()
                    for index in range(solves_per_thread):
                        name = corpora[(label + index) % n_corpora]
                        client.solve(name, specs[name])
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=solver, args=(label,))
                for label in range(client_threads)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time_module.perf_counter()
            for thread in threads:
                thread.join()
            wall = time_module.perf_counter() - started
            client.close()
            if errors:
                raise RuntimeError(f"fleet bench raised: {errors[0]!r}")
            return wall

        runs: List[Dict] = []
        routed_solve = direct_solve = float("nan")
        routed_result = direct_result = None
        total_solves = client_threads * solves_per_thread
        for n_workers in worker_counts:
            pins = {
                name: f"worker-{index % n_workers}"
                for index, name in enumerate(corpora)
            }
            fleet = TagDMFleet(
                root,
                n_workers=n_workers,
                enumeration=enumeration,
                seed=seed,
                pins=pins,
                spawn_timeout=600.0,
            )
            fleet.discover_corpora()
            fleet.start()
            try:
                # One warm-up pass per corpus, then the timed load.
                warm_client = HttpClient(fleet.url, request_timeout=600.0)
                for name in corpora:
                    warm_client.solve(name, specs[name])
                wall = drive_through(fleet.url)
                runs.append(
                    {
                        "workers": n_workers,
                        "wall_seconds": wall,
                        "solves_per_second": total_solves / wall if wall > 0 else float("inf"),
                    }
                )
                if n_workers == worker_counts[-1]:
                    # Router forwarding overhead: the same solve through
                    # the router vs straight at the owning worker
                    # (interleaved so machine-load drift cannot flip the
                    # few-ms difference).
                    direct_client = FleetClient(fleet.url, request_timeout=600.0)
                    name = corpora[0]
                    direct_client.solve(name, specs[name])  # placement fetch + warm
                    routed_solve, direct_solve = best_of_pair(
                        timed_solves,
                        lambda: warm_client.solve(name, specs[name]),
                        lambda: direct_client.solve(name, specs[name]),
                    )
                    routed_result = warm_client.solve(name, specs[name])
                    direct_result = direct_client.solve(name, specs[name])
                    direct_client.close()
                warm_client.close()
            finally:
                fleet.close()

        # Single-process parity baseline over the very same root (the
        # corpus warm-starts from the same snapshot the workers used).
        single = TagDMServer(root, enumeration=enumeration, seed=seed)
        single.open_corpus(corpora[0])
        single_result = ServerClient(single).solve(corpora[0], specs[corpora[0]])
        single.close()

    def key(result):
        return (
            result.objective_value,
            [str(group.description) for group in result.groups],
            [group.tuple_indices for group in result.groups],
        )

    parity = bool(key(routed_result) == key(direct_result) == key(single_result))
    baseline = runs[0]["solves_per_second"]
    peak = max(run["solves_per_second"] for run in runs)
    return {
        "corpora": n_corpora,
        "tuples_per_corpus": n_actions,
        "cpu_count": int(os.cpu_count() or 1),
        "groups_returned": len(routed_result.groups),
        "client_threads": client_threads,
        "solves_per_run": total_solves,
        "runs": runs,
        "throughput_speedup_max_vs_1": peak / baseline if baseline > 0 else float("inf"),
        "routed_solve_ms": routed_solve * 1e3,
        "direct_solve_ms": direct_solve * 1e3,
        "router_overhead_ms": (routed_solve - direct_solve) * 1e3,
        "parity": parity,
    }


# ----------------------------------------------------------------------
# Reliability: kill-ladder latency, exactly-once audit, admission (PR 6)
# ----------------------------------------------------------------------
def bench_reliability(quick: bool) -> Dict:
    """Fault drill under measurement.

    A seeded :class:`~repro.serving.reliability.FaultPlan` SIGKILLs the
    worker that owns the drill corpus right after it *applied* a keyed
    insert but before it answered -- the ambiguous window -- while solve
    traffic keeps flowing through the router.  The section records solve
    latency percentiles through the recovery (p99 - p50 is the respawn
    window), audits the store for exactly-once insert semantics, and
    separately measures admission-control shedding against a writer
    stalled by an injected sleep (shed batches must never reach the
    store; accepted batches all must).
    """
    import tempfile
    import threading
    import time as time_module
    from pathlib import Path as PathType

    from repro.api import HttpClient, OverloadedError, ProblemSpec
    from repro.core.enumeration import GroupEnumerationConfig
    from repro.core.problem import table1_problem
    from repro.dataset.synthetic import generate_movielens_style
    from repro.serving import (
        AdmissionPolicy,
        FaultPlan,
        FaultRule,
        TagDMFleet,
        TagDMServer,
    )

    if quick:
        n_actions, n_inserts, n_solves = 500, 10, 8
    else:
        n_actions, n_inserts, n_solves = 1500, 30, 24
    kill_at = 3
    enumeration = GroupEnumerationConfig(min_support=5, max_groups=60)
    seed = 42
    dataset = generate_movielens_style(
        n_users=40, n_items=80, n_actions=n_actions, seed=seed
    )
    initial = dataset.n_actions
    spec = ProblemSpec.from_problem(
        table1_problem(1, k=3, min_support=5), algorithm="sm-lsh-fo"
    )

    with tempfile.TemporaryDirectory() as tmp:
        root = PathType(tmp)
        plan = FaultPlan(
            [
                FaultRule(
                    "insert.applied",
                    "kill",
                    when_actions=initial + kill_at,
                    once=True,
                )
            ],
            seed=seed,
            state_dir=root / "latches",
        )
        fleet = TagDMFleet(
            root / "fleet",
            n_workers=1,
            enumeration=enumeration,
            seed=seed,
            spawn_timeout=600.0,
            fault_plan=plan,
            heartbeat_interval=0.5,
        )
        fleet.add_corpus("drill", dataset)
        fleet.start()
        client = HttpClient(fleet.url, request_timeout=600.0)
        client.solve("drill", spec)  # warm the wire path before timing

        errors: List[BaseException] = []
        latencies: List[float] = []
        reports: List[object] = []
        barrier = threading.Barrier(2)

        def solver() -> None:
            try:
                solve_client = HttpClient(fleet.url, request_timeout=600.0)
                barrier.wait()
                for _ in range(n_solves):
                    started = time_module.perf_counter()
                    solve_client.solve("drill", spec)
                    latencies.append(time_module.perf_counter() - started)
                solve_client.close()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def inserter() -> None:
            try:
                barrier.wait()
                for index in range(n_inserts):
                    row = index % initial
                    reports.append(
                        client.insert(
                            "drill",
                            [
                                {
                                    "user_id": dataset.user_of(row),
                                    "item_id": dataset.item_of(row),
                                    "tags": [f"drill-{index}"],
                                }
                            ],
                            idempotency_key=f"drill-insert-{index}",
                        )
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=solver), threading.Thread(target=inserter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError(f"reliability bench raised: {errors[0]!r}")

        restarts = 0
        deadline = time_module.monotonic() + 120.0
        while time_module.monotonic() < deadline:
            worker_stats = fleet.stats()["workers"]
            restarts = sum(entry["restarts"] for entry in worker_stats.values())
            if restarts > 0 and all(entry["alive"] for entry in worker_stats.values()):
                break
            time_module.sleep(0.05)
        actual = int(client.stats("drill")["actions"])
        client.close()
        fleet.close()

    expected = initial + n_inserts
    lost = max(0, expected - actual)
    duplicated = max(0, actual - expected)
    deduplicated = sum(1 for report in reports if report.deduplicated)
    ordered = sorted(latencies)

    def percentile(fraction: float) -> float:
        return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]

    # Admission control, in-process: stall the writer with an injected
    # sleep, burst more batches than the one-deep queue admits, and
    # audit that shed batches never reached the store while every
    # accepted batch did.
    offered = 12
    with tempfile.TemporaryDirectory() as tmp:
        server = TagDMServer(
            PathType(tmp),
            enumeration=enumeration,
            seed=seed,
            admission=AdmissionPolicy(max_queue_depth=1, retry_after_seconds=0.2),
            fault_plan=FaultPlan(
                [FaultRule("shard.apply", "sleep", at=1, sleep_seconds=0.5)]
            ),
        )
        gate_dataset = generate_movielens_style(
            n_users=40, n_items=80, n_actions=400, seed=seed
        )
        gate_initial = gate_dataset.n_actions
        shard = server.add_corpus("gate", gate_dataset)
        futures = [
            shard.submit_insert(
                [
                    {
                        "user_id": gate_dataset.user_of(0),
                        "item_id": gate_dataset.item_of(0),
                        "tags": ["gate-0"],
                    }
                ]
            )
        ]
        # Wait for the writer to dequeue the first batch into the
        # injected sleep so the burst below meets a full queue.
        stall_deadline = time_module.monotonic() + 10.0
        while (
            shard.stats()["queue_depth"] > 0
            and time_module.monotonic() < stall_deadline
        ):
            time_module.sleep(0.01)
        shed = 0
        for index in range(1, offered):
            try:
                futures.append(
                    shard.submit_insert(
                        [
                            {
                                "user_id": gate_dataset.user_of(index),
                                "item_id": gate_dataset.item_of(index),
                                "tags": [f"gate-{index}"],
                            }
                        ]
                    )
                )
            except OverloadedError:
                shed += 1
        for future in futures:
            future.result(timeout=60.0)
        shard.flush()
        accepted = len(futures)
        applied = int(shard.stats()["actions"]) - gate_initial
        server.close()

    return {
        "tuples": initial,
        "inserts": n_inserts,
        "solves": len(latencies),
        "kill_at_insert": kill_at,
        "worker_restarts": restarts,
        "deduplicated_replies": deduplicated,
        "solve_p50_ms": percentile(0.50) * 1e3,
        "solve_p99_ms": percentile(0.99) * 1e3,
        "solve_max_ms": ordered[-1] * 1e3,
        "lost_inserts": lost,
        "duplicated_inserts": duplicated,
        "exactly_once": lost == 0 and duplicated == 0,
        "admission": {
            "offered": offered,
            "accepted": accepted,
            "shed": shed,
            "shed_rate": shed / offered,
            "applied_equals_accepted": applied == accepted,
        },
    }


# ----------------------------------------------------------------------
# HTAP: delta+main solves under an insert storm
# ----------------------------------------------------------------------
def bench_htap(quick: bool) -> Dict:
    """Solve latency under a sustained insert storm, with replay parity.

    N writer threads push single-action inserts into the real
    :class:`~repro.serving.shards.CorpusShard` as fast as they are
    acknowledged, while a solve loop measures latency the whole time
    (lock-free solves on the pinned published view).  ``BENCH_PR7.json``
    keeps the historical comparison against an inline reconstruction of
    the RW-lock shard that preceded delta+main.

    Parity pins correctness: the shard's post-storm solve (delta folded)
    and a post-ack delta-visible solve must be bit-identical to a fresh
    session serially replaying the same committed insert order.
    """
    import tempfile
    import threading
    import time as time_module
    from pathlib import Path as PathType

    from repro.core.enumeration import GroupEnumerationConfig
    from repro.core.incremental import IncrementalTagDM
    from repro.core.problem import table1_problem
    from repro.dataset.synthetic import generate_movielens_style
    from repro.serving import SnapshotRotationPolicy, TagDMServer

    if quick:
        n_actions, n_inserts = 600, 120
    else:
        n_actions, n_inserts = 1500, 600
    n_writers = 2
    enumeration = GroupEnumerationConfig(min_support=5, max_groups=60)
    seed = 42

    def fresh_dataset():
        return generate_movielens_style(
            n_users=60, n_items=120, n_actions=n_actions, seed=seed
        )

    base = fresh_dataset()
    initial = base.n_actions
    payloads = [
        {
            "user_id": base.user_of((i * 7) % initial),
            "item_id": base.item_of((i * 11) % initial),
            "tags": (f"htap-{i}", "storm"),
            "rating": float(i % 5),
        }
        for i in range(n_inserts)
    ]
    chunks = [payloads[label::n_writers] for label in range(n_writers)]

    def run_storm(apply_chunk, do_solve):
        """Drive the storm; measure solve latency until it completes."""
        storm_done = threading.Event()
        latencies: List[float] = []
        errors: List[BaseException] = []

        def solver() -> None:
            try:
                while True:
                    started = time_module.perf_counter()
                    do_solve()
                    latencies.append(time_module.perf_counter() - started)
                    if storm_done.is_set():
                        return
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer(chunk) -> None:
            try:
                apply_chunk(chunk)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        solve_thread = threading.Thread(target=solver)
        write_threads = [
            threading.Thread(target=writer, args=(chunk,)) for chunk in chunks
        ]
        solve_thread.start()
        started = time_module.perf_counter()
        for thread in write_threads:
            thread.start()
        for thread in write_threads:
            thread.join()
        wall = time_module.perf_counter() - started
        storm_done.set()
        solve_thread.join()
        if errors:
            raise RuntimeError(f"htap bench raised: {errors[0]!r}")
        return latencies, wall

    def percentiles(latencies: List[float]):
        ordered = sorted(latencies)
        def at(fraction: float) -> float:
            return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]
        return at(0.50) * 1e3, at(0.99) * 1e3

    def result_key(result):
        return (
            result.objective_value,
            [str(group.description) for group in result.groups],
            [group.tuple_indices for group in result.groups],
        )

    def serialized_replay(served_dataset):
        """A fresh session replaying the committed insert order serially."""
        replay = IncrementalTagDM(
            fresh_dataset(), enumeration=enumeration, seed=seed
        ).prepare()
        for row in range(initial, served_dataset.n_actions):
            replay.add_action(
                served_dataset.user_of(row),
                served_dataset.item_of(row),
                served_dataset.tags_of(row),
                served_dataset.rating_of(row),
            )
        return replay

    with tempfile.TemporaryDirectory() as tmp:
        server = TagDMServer(
            PathType(tmp),
            policy=SnapshotRotationPolicy(every_inserts=max(50, n_inserts // 4)),
            enumeration=enumeration,
            seed=seed,
        )
        shard = server.add_corpus("htap", fresh_dataset())
        problem = table1_problem(1, k=3, min_support=shard.session.default_support())

        def htap_apply(chunk) -> None:
            for action in chunk:
                shard.insert(**action)

        def htap_solve() -> None:
            shard.solve(problem, algorithm="sm-lsh-fo")

        htap_solve()  # warm the published view outside the measured window
        htap_latencies, htap_wall = run_storm(htap_apply, htap_solve)
        shard.flush()
        stats = shard.stats()

        # Post-merge parity: the folded shard vs a serialized replay of
        # its committed insert order.
        merged_result = shard.solve(problem, algorithm="sm-lsh-fo")
        replay = serialized_replay(shard.session.dataset)
        merged_parity = result_key(merged_result) == result_key(
            replay.solve(problem, algorithm="sm-lsh-fo")
        )

        # Delta-visible parity: under the fold-per-batch default an
        # acknowledged insert is visible to the very next solve; that
        # solve must match the replay extended by the same batch.
        extra = [
            {
                "user_id": base.user_of(i),
                "item_id": base.item_of(i),
                "tags": (f"htap-delta-{i}",),
                "rating": None,
            }
            for i in range(3)
        ]
        shard.insert_batch(extra)
        delta_result = shard.solve(problem, algorithm="sm-lsh-fo")
        replay.add_actions(extra)
        delta_parity = result_key(delta_result) == result_key(
            replay.solve(problem, algorithm="sm-lsh-fo")
        )
        server.close()
    htap_p50, htap_p99 = percentiles(htap_latencies)

    return {
        "tuples": initial,
        "inserts": n_inserts,
        "insert_threads": n_writers,
        "delta_main": {
            "solve_p50_ms": htap_p50,
            "solve_p99_ms": htap_p99,
            "solves_during_storm": len(htap_latencies),
            "storm_wall_seconds": htap_wall,
            "inserts_per_second": (
                n_inserts / htap_wall if htap_wall > 0 else float("inf")
            ),
            "merge_count": int(stats["merge_count"]),
            "final_epoch": int(stats["epoch"]),
        },
        "delta_visible_parity": bool(delta_parity),
        "merged_parity": bool(merged_parity),
        "parity": bool(merged_parity and delta_parity),
    }


def bench_subscriptions(quick: bool) -> Dict:
    """Standing-query delivery: notify latency, backlog, incremental edge.

    One serving shard with a registered subscription rides out a
    batched insert storm.  After each batch flushes (publishing a new
    view at watermark = corpus action count) the bench records the
    publish instant; a sampler thread polls the subscription row and
    stamps the first instant its ``last_watermark`` covers each
    published watermark.  The gap is the **notify latency** -- insert
    commit to delivered (or silently advanced) ledger position --
    reported as p50/p99, together with the deepest ``subs_backlog`` the
    sampler ever observed.

    The incremental half is the reason standing queries exist at all:
    answering the same spec at the final watermark from the warm
    serving session (what the evaluator does per publish) vs a
    from-scratch cold session that must re-prepare the corpus and
    replay the committed insert prefix (what a poll-and-resolve client
    would pay).  ``incremental_speedup`` is cold/warm and the ledger
    audit (dense seqs, no duplicates, parity of the composed chain
    against the warm solve) pins correctness.
    """
    import tempfile
    import threading
    import time as time_module
    from pathlib import Path as PathType

    from repro.api.client import ServerClient
    from repro.api.diff import (
        ResultDiff,
        apply_diff,
        comparable_payload,
        payloads_equal,
    )
    from repro.api.service import coerce_spec
    from repro.core.enumeration import GroupEnumerationConfig
    from repro.core.incremental import IncrementalTagDM
    from repro.core.problem import table1_problem
    from repro.dataset.synthetic import generate_movielens_style
    from repro.serving import SnapshotRotationPolicy, TagDMServer

    if quick:
        n_actions, n_batches, batch_size = 400, 6, 10
    else:
        n_actions, n_batches, batch_size = 800, 20, 15
    enumeration = GroupEnumerationConfig(min_support=5, max_groups=60)
    seed = 17
    total_inserts = n_batches * batch_size

    def fresh_dataset():
        return generate_movielens_style(
            n_users=40, n_items=80, n_actions=n_actions, seed=seed
        )

    base = fresh_dataset()
    initial = base.n_actions
    payloads = [
        {
            "user_id": base.user_of((i * 13) % initial),
            "item_id": base.item_of((i * 17) % initial),
            "tags": (f"standing-{i % 9}", "subscribed"),
            "rating": float(i % 5),
        }
        for i in range(total_inserts)
    ]

    with tempfile.TemporaryDirectory() as tmp:
        server = TagDMServer(
            PathType(tmp),
            policy=SnapshotRotationPolicy(every_inserts=max(100, total_inserts)),
            enumeration=enumeration,
            seed=seed,
        )
        shard = server.add_corpus("standing", fresh_dataset())
        client = ServerClient(server)
        problem = table1_problem(1, k=3, min_support=shard.session.default_support())
        spec = coerce_spec(problem, algorithm="sm-lsh-fo")
        client.register_subscription("standing", spec, subscription_id="bench")
        if not shard.evaluator.wait_idle(timeout=60.0):
            raise RuntimeError("subscription bench: initial evaluation never settled")

        # (watermark, publish_seconds) appended by the storm loop; the
        # sampler only reads committed prefixes, so no lock is needed.
        publishes: List[tuple] = []
        arrivals: Dict[int, float] = {}
        max_backlog = 0
        sampler_stop = threading.Event()
        sampler_errors: List[BaseException] = []

        def sampler() -> None:
            nonlocal max_backlog
            try:
                while not sampler_stop.is_set():
                    stats = shard.stats()
                    max_backlog = max(max_backlog, int(stats["subs_backlog"]))
                    row = client.subscriptions("standing")[0]
                    now = time_module.perf_counter()
                    reached = int(row["last_watermark"])
                    for watermark, _ in publishes[: len(publishes)]:
                        if watermark <= reached and watermark not in arrivals:
                            arrivals[watermark] = now
                    time_module.sleep(0.002)
            except BaseException as exc:  # pragma: no cover - failure path
                sampler_errors.append(exc)

        sampler_thread = threading.Thread(target=sampler)
        sampler_thread.start()
        storm_started = time_module.perf_counter()
        for batch in range(n_batches):
            for action in payloads[batch * batch_size : (batch + 1) * batch_size]:
                shard.insert(**action)
            shard.flush()
            publishes.append(
                (shard.session.dataset.n_actions, time_module.perf_counter())
            )
        final_watermark = publishes[-1][0]
        deadline = time_module.perf_counter() + 120.0
        while (
            final_watermark not in arrivals
            and time_module.perf_counter() < deadline
            and not sampler_errors
        ):
            time_module.sleep(0.002)
        storm_wall = time_module.perf_counter() - storm_started
        sampler_stop.set()
        sampler_thread.join()
        if sampler_errors:
            raise RuntimeError(f"subscription bench raised: {sampler_errors[0]!r}")
        if final_watermark not in arrivals:
            raise RuntimeError("subscription bench: final watermark never delivered")

        latencies = sorted(
            arrivals[watermark] - published
            for watermark, published in publishes
            if watermark in arrivals
        )

        def at(fraction: float) -> float:
            return latencies[min(len(latencies) - 1, int(fraction * len(latencies)))]

        # Ledger audit: dense seqs, exactly-once, and the composed diff
        # chain must equal the warm solve at the final watermark.
        poll = client.poll_subscription("standing", "bench")
        diffs = poll["diffs"]
        seqs = [int(entry["seq"]) for entry in diffs]
        lost = len(set(range(1, (max(seqs) if seqs else 0) + 1)) - set(seqs))
        duplicated = len(seqs) - len(set(seqs))
        composed = None
        for entry in diffs:
            composed = apply_diff(ResultDiff.from_dict(entry["diff"]), composed)

        def warm_solve():
            return comparable_payload(
                shard.solve(problem, algorithm="sm-lsh-fo").to_dict()
            )

        warm_payload = warm_solve()  # warm the caches outside the window
        warm_seconds = best_of(3, warm_solve)

        started = time_module.perf_counter()
        cold = IncrementalTagDM(
            fresh_dataset(), enumeration=enumeration, seed=seed
        ).prepare()
        served = shard.session.dataset
        for row_index in range(initial, final_watermark):
            cold.add_action(
                served.user_of(row_index),
                served.item_of(row_index),
                served.tags_of(row_index),
                served.rating_of(row_index),
            )
        cold_payload = comparable_payload(
            cold.solve(problem, algorithm="sm-lsh-fo").to_dict()
        )
        cold_seconds = time_module.perf_counter() - started

        parity = payloads_equal(warm_payload, cold_payload) and (
            composed is None or payloads_equal(composed, warm_payload)
        )
        server.close()

    return {
        "tuples": initial,
        "inserts": total_inserts,
        "batches": n_batches,
        "diffs_delivered": len(diffs),
        "storm_wall_seconds": storm_wall,
        "notify_p50_ms": at(0.50) * 1e3,
        "notify_p99_ms": at(0.99) * 1e3,
        "max_backlog": int(max_backlog),
        "lost_diffs": int(lost),
        "duplicated_diffs": int(duplicated),
        "warm_solve_ms": warm_seconds * 1e3,
        "cold_replay_ms": cold_seconds * 1e3,
        "incremental_speedup": (
            cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
        ),
        "parity": bool(parity),
    }


# ----------------------------------------------------------------------
# End-to-end scaling sweep (Figure 7 bins)
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# Incremental inserts: single-action cost against corpus size
# ----------------------------------------------------------------------
def bench_incremental(quick: bool) -> Dict:
    """Single-action insert cost, and the first solve after it, per corpus size.

    Each rung prepares a corpus with the serving bench's configuration
    (``min_support=5``, ``max_groups=60``, seed 42) and replays the same
    ``inserts`` single-action inserts twice: once untimed (a group's tag
    counts are built from its tags on its first touch) and once timed.
    Each timed ``add_action`` is followed by freezing a view and timing
    its first ``sm-lsh-fo`` solve of Table-1 problem 1, which builds the
    view's pairwise matrices and LSH index.  Maintaining per-group tag
    counts keeps the apply p50 nearly flat across rungs; what still
    grows is the C-level copy of each touched group's ``tags`` and
    ``tuple_indices`` tuples.  ``parity`` requires every rung's
    maintained groups to equal a from-scratch rebuild of their rows
    (``consistency_errors() == []``).
    """
    from repro.core.enumeration import GroupEnumerationConfig
    from repro.core.incremental import IncrementalTagDM
    from repro.core.problem import table1_problem
    from repro.dataset.synthetic import generate_movielens_style

    if quick:
        sizes, n_inserts = (500, 1000), 15
    else:
        sizes, n_inserts = (1000, 4000, 16000), 40
    rungs: List[Dict] = []
    for n_actions in sizes:
        dataset = generate_movielens_style(
            n_users=60, n_items=120, n_actions=n_actions, seed=42
        )
        session = IncrementalTagDM(
            dataset,
            enumeration=GroupEnumerationConfig(min_support=5, max_groups=60),
            seed=42,
        ).prepare()
        problem = table1_problem(1, k=3, min_support=session.default_support())
        actions = [
            {
                "user_id": dataset.user_of(row),
                "item_id": dataset.item_of(row),
                "tags": list(dataset.tags_of(row)) + [f"ladder-{row}"],
            }
            for row in range(n_inserts)
        ]
        for action in actions:
            session.add_action(**action)
        apply_ms: List[float] = []
        solve_ms: List[float] = []
        for epoch, action in enumerate(actions, start=1):
            started = time.perf_counter()
            session.add_action(**action)
            apply_ms.append((time.perf_counter() - started) * 1e3)
            view = session.freeze(epoch=epoch)
            started = time.perf_counter()
            view.solve(problem, algorithm="sm-lsh-fo")
            solve_ms.append((time.perf_counter() - started) * 1e3)
        rungs.append(
            {
                "tuples": n_actions,
                "groups": session.n_groups,
                "inserts": n_inserts,
                "apply_p50_ms": float(np.percentile(apply_ms, 50)),
                "apply_p90_ms": float(np.percentile(apply_ms, 90)),
                "first_solve_p50_ms": float(np.percentile(solve_ms, 50)),
                "first_solve_p90_ms": float(np.percentile(solve_ms, 90)),
                "parity": session.consistency_errors() == [],
            }
        )
    return {
        "rungs": rungs,
        "apply_p50_growth": rungs[-1]["apply_p50_ms"] / rungs[0]["apply_p50_ms"],
        "tuples_growth": rungs[-1]["tuples"] / rungs[0]["tuples"],
        "parity": all(rung["parity"] for rung in rungs),
    }


def bench_scaling(quick: bool) -> List[Dict]:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_dataset, build_problem, build_session, run_algorithm

    if quick:
        config = ExperimentConfig(
            n_users=60,
            n_items=120,
            n_actions=800,
            seed=42,
            max_groups=40,
            scaling_bins=(0.5, 1.0),
        )
    else:
        config = ExperimentConfig(
            n_users=150,
            n_items=300,
            n_actions=4000,
            seed=42,
            max_groups=90,
            scaling_bins=(0.25, 0.5, 1.0),
        )

    dataset = build_dataset(config)
    pairs = ((1, "sm-lsh-fo"), (6, "dv-fdp-fo"))
    rows: List[Dict] = []
    for fraction in config.scaling_bins:
        bin_size = max(1, int(round(fraction * dataset.n_actions)))
        bin_dataset = dataset.sample(bin_size, seed=config.seed, name=f"bin-{bin_size}")
        started = time.perf_counter()
        session = build_session(bin_dataset, config)
        build_seconds = time.perf_counter() - started

        solve: Dict[str, float] = {}
        for problem_id, algorithm in pairs:
            problem = build_problem(problem_id, bin_dataset, config)
            started = time.perf_counter()
            run_algorithm(session, problem, algorithm, config, problem_id=problem_id)
            solve[f"p{problem_id}-{algorithm}"] = time.perf_counter() - started

        rows.append(
            {
                "bin": f"bin{int(round(fraction * 100))}pct",
                "tuples": bin_dataset.n_actions,
                "groups": session.n_groups,
                "build_seconds": build_seconds,
                "solve": solve,
            }
        )
    return rows


def generate_report(quick: bool) -> Dict:
    if quick:
        kernels = bench_greedy_dispersion(n=300, k=8, repeats=1)
        kernels["lsh_rebuild_with_bits"] = bench_lsh_rebuild(
            n=2000, n_dimensions=16, bits_from=10, bits_to=5, n_tables=1, repeats=1
        )
        kernels["batch_subset_scoring"] = bench_subset_scoring(
            n=300, n_subsets=500, subset_size=4, repeats=1
        )
    else:
        kernels = bench_greedy_dispersion(n=2000, k=20, repeats=3)
        kernels["lsh_rebuild_with_bits"] = bench_lsh_rebuild(
            n=20000, n_dimensions=32, bits_from=16, bits_to=8, n_tables=2, repeats=3
        )
        kernels["batch_subset_scoring"] = bench_subset_scoring(
            n=2000, n_subsets=5000, subset_size=5, repeats=3
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "pr": "PR10",
        "mode": "quick" if quick else "full",
        "kernels": kernels,
        "scaling": bench_scaling(quick),
        "persistence": bench_persistence(quick),
        "serving": bench_serving(quick),
        "http": bench_http(quick),
        "fleet": bench_fleet(quick),
        "reliability": bench_reliability(quick),
        "htap": bench_htap(quick),
        "subscriptions": bench_subscriptions(quick),
        "incremental": bench_incremental(quick),
    }


def validate_report(report: Dict) -> None:
    """Assert the report matches the documented schema (used by tests).

    Accepts every committed generation: v1 (kernels + scaling only;
    ``BENCH_PR1.json``) through v8 (no ``incremental``;
    ``BENCH_PR10.json``) and current v9 reports -- each version adds one
    section and all older reports still validate.
    """
    assert report["schema_version"] in (1, 2, 3, 4, 5, 6, 7, 8, SCHEMA_VERSION)
    assert report["mode"] in ("full", "quick")
    assert isinstance(report["kernels"], dict) and report["kernels"]
    for name, entry in report["kernels"].items():
        for field in ("naive_seconds", "vectorized_seconds", "speedup", "parity"):
            assert field in entry, f"kernel {name} missing {field}"
        assert entry["naive_seconds"] >= 0 and entry["vectorized_seconds"] >= 0
        assert entry["parity"] is True, f"kernel {name} lost parity"
    assert isinstance(report["scaling"], list) and report["scaling"]
    for row in report["scaling"]:
        for field in ("bin", "tuples", "groups", "build_seconds", "solve"):
            assert field in row, f"scaling row missing {field}"
        assert isinstance(row["solve"], dict) and row["solve"]
    if report["schema_version"] >= 2:
        persistence = report["persistence"]
        for field in (
            "tuples",
            "groups",
            "sqlite_ingest_seconds",
            "sqlite_load_seconds",
            "cold_prepare_seconds",
            "warm_load_seconds",
            "warm_speedup",
            "parity",
        ):
            assert field in persistence, f"persistence missing {field}"
        assert persistence["parity"] is True, "persistence round-trip lost parity"
        assert persistence["warm_speedup"] > 0
    if report["schema_version"] >= 3:
        serving = report["serving"]
        for field in (
            "tuples",
            "groups",
            "inserts",
            "solves",
            "client_threads",
            "wall_seconds",
            "inserts_per_second",
            "solves_per_second",
            "snapshot_rotations",
            "parity",
        ):
            assert field in serving, f"serving missing {field}"
        assert serving["parity"] is True, "serving lost parity with cold replay"
        assert serving["inserts_per_second"] > 0
        assert serving["client_threads"] >= 2
    if report["schema_version"] >= 4:
        http = report["http"]
        for field in (
            "tuples",
            "groups",
            "inserts",
            "solves",
            "client_threads",
            "wall_seconds",
            "requests_per_second",
            "inprocess_solve_ms",
            "http_solve_ms",
            "wire_overhead_ms",
            "parity",
        ):
            assert field in http, f"http missing {field}"
        assert http["parity"] is True, "HTTP solve lost parity with in-process"
        assert http["requests_per_second"] > 0
        assert http["client_threads"] >= 2
    if report["schema_version"] >= 5:
        fleet = report["fleet"]
        for field in (
            "corpora",
            "tuples_per_corpus",
            "cpu_count",
            "groups_returned",
            "client_threads",
            "solves_per_run",
            "runs",
            "throughput_speedup_max_vs_1",
            "routed_solve_ms",
            "direct_solve_ms",
            "router_overhead_ms",
            "parity",
        ):
            assert field in fleet, f"fleet missing {field}"
        assert fleet["parity"] is True, "fleet lost routed/direct/single parity"
        assert isinstance(fleet["runs"], list) and fleet["runs"]
        for run in fleet["runs"]:
            assert run["solves_per_second"] > 0
        assert fleet["groups_returned"] > 0, "fleet bench solved a null result"
        assert fleet["cpu_count"] >= 1
    if report["schema_version"] >= 6:
        reliability = report["reliability"]
        for field in (
            "tuples",
            "inserts",
            "solves",
            "kill_at_insert",
            "worker_restarts",
            "deduplicated_replies",
            "solve_p50_ms",
            "solve_p99_ms",
            "solve_max_ms",
            "lost_inserts",
            "duplicated_inserts",
            "exactly_once",
            "admission",
        ):
            assert field in reliability, f"reliability missing {field}"
        assert reliability["lost_inserts"] == 0, "reliability drill lost inserts"
        assert reliability["duplicated_inserts"] == 0, (
            "reliability drill duplicated inserts"
        )
        assert reliability["exactly_once"] is True
        assert reliability["worker_restarts"] >= 1, "the kill never fired"
        assert reliability["solve_p50_ms"] > 0
        admission = reliability["admission"]
        for field in (
            "offered",
            "accepted",
            "shed",
            "shed_rate",
            "applied_equals_accepted",
        ):
            assert field in admission, f"reliability.admission missing {field}"
        assert admission["applied_equals_accepted"] is True, (
            "shed batches leaked into the store (or accepted batches were lost)"
        )
        assert admission["accepted"] + admission["shed"] == admission["offered"]
    if report["schema_version"] >= 7:
        htap = report["htap"]
        for field in (
            "tuples",
            "inserts",
            "insert_threads",
            "delta_main",
            "delta_visible_parity",
            "merged_parity",
            "parity",
        ):
            assert field in htap, f"htap missing {field}"
        delta_main = htap["delta_main"]
        for field in (
            "solve_p50_ms",
            "solve_p99_ms",
            "solves_during_storm",
            "storm_wall_seconds",
            "inserts_per_second",
        ):
            assert field in delta_main, f"htap.delta_main missing {field}"
        assert delta_main["solve_p50_ms"] > 0
        assert delta_main["inserts_per_second"] > 0
        assert delta_main["solves_during_storm"] >= 1
        assert htap["delta_main"]["merge_count"] >= 1, "the shard never folded"
        assert (
            htap["delta_main"]["final_epoch"]
            == htap["delta_main"]["merge_count"] + 1
        )
        assert htap["parity"] is True, "HTAP solves lost parity with serialized replay"
        assert htap["delta_visible_parity"] is True
        assert htap["merged_parity"] is True
    if report["schema_version"] >= 8:
        subscriptions = report["subscriptions"]
        for field in (
            "tuples",
            "inserts",
            "batches",
            "diffs_delivered",
            "storm_wall_seconds",
            "notify_p50_ms",
            "notify_p99_ms",
            "max_backlog",
            "lost_diffs",
            "duplicated_diffs",
            "warm_solve_ms",
            "cold_replay_ms",
            "incremental_speedup",
            "parity",
        ):
            assert field in subscriptions, f"subscriptions missing {field}"
        assert subscriptions["lost_diffs"] == 0, "subscription ledger lost diffs"
        assert subscriptions["duplicated_diffs"] == 0, (
            "subscription ledger duplicated diffs"
        )
        assert subscriptions["parity"] is True, (
            "composed diff chain lost parity with the cold replay"
        )
        assert subscriptions["notify_p50_ms"] > 0
        assert subscriptions["notify_p99_ms"] >= subscriptions["notify_p50_ms"]
        assert subscriptions["max_backlog"] >= 0
        # The PR 10 acceptance check: re-solving a standing query on the
        # warm serving session must beat a from-scratch cold session
        # replaying the same committed prefix (quick mode included --
        # the cold side pays a full corpus prepare either way).
        assert subscriptions["incremental_speedup"] > 1.0, (
            "warm standing-query solve did not beat the from-scratch replay"
        )
    if report["schema_version"] >= 9:
        incremental = report["incremental"]
        for field in ("rungs", "apply_p50_growth", "tuples_growth", "parity"):
            assert field in incremental, f"incremental missing {field}"
        assert isinstance(incremental["rungs"], list) and len(incremental["rungs"]) >= 2
        for rung in incremental["rungs"]:
            for field in (
                "tuples",
                "groups",
                "inserts",
                "apply_p50_ms",
                "apply_p90_ms",
                "first_solve_p50_ms",
                "first_solve_p90_ms",
                "parity",
            ):
                assert field in rung, f"incremental rung missing {field}"
            assert 0 < rung["apply_p50_ms"] <= rung["apply_p90_ms"]
            assert 0 < rung["first_solve_p50_ms"] <= rung["first_solve_p90_ms"]
            assert rung["parity"] is True, (
                f"maintained groups at {rung['tuples']} tuples differ from a rebuild"
            )
        tuples = [rung["tuples"] for rung in incremental["rungs"]]
        assert tuples == sorted(set(tuples)), "incremental rungs must grow in size"
        assert incremental["parity"] is True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smoke mode: tiny sizes, one repeat"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_PR10.json",
        help="where to write the JSON report (default: repo-root BENCH_PR10.json)",
    )
    args = parser.parse_args(argv)

    report = generate_report(quick=args.quick)
    validate_report(report)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for name, entry in report["kernels"].items():
        print(
            f"{name}: {entry['naive_seconds'] * 1e3:.1f} ms -> "
            f"{entry['vectorized_seconds'] * 1e3:.1f} ms "
            f"({entry['speedup']:.1f}x, parity={entry['parity']})"
        )
    for row in report["scaling"]:
        solve = ", ".join(f"{key}={value:.3f}s" for key, value in row["solve"].items())
        print(
            f"{row['bin']}: tuples={row['tuples']} groups={row['groups']} "
            f"build={row['build_seconds']:.3f}s {solve}"
        )
    persistence = report["persistence"]
    print(
        f"persistence: cold_prepare={persistence['cold_prepare_seconds'] * 1e3:.1f} ms "
        f"warm_load={persistence['warm_load_seconds'] * 1e3:.1f} ms "
        f"({persistence['warm_speedup']:.1f}x, parity={persistence['parity']}); "
        f"sqlite ingest={persistence['sqlite_ingest_seconds'] * 1e3:.1f} ms "
        f"load={persistence['sqlite_load_seconds'] * 1e3:.1f} ms"
    )
    serving = report["serving"]
    print(
        f"serving: {serving['inserts']} inserts + {serving['solves']} solves "
        f"from {serving['client_threads']} client threads in "
        f"{serving['wall_seconds']:.2f}s "
        f"({serving['inserts_per_second']:.0f} ins/s, "
        f"{serving['solves_per_second']:.1f} sol/s, "
        f"{serving['snapshot_rotations']} rotations, parity={serving['parity']})"
    )
    http = report["http"]
    print(
        f"http: {http['inserts']} inserts + {http['solves']} solves "
        f"from {http['client_threads']} wire clients in "
        f"{http['wall_seconds']:.2f}s "
        f"({http['requests_per_second']:.0f} req/s; solve "
        f"{http['inprocess_solve_ms']:.1f} ms in-process vs "
        f"{http['http_solve_ms']:.1f} ms over HTTP, "
        f"overhead {http['wire_overhead_ms']:.1f} ms, parity={http['parity']})"
    )
    fleet = report["fleet"]
    ladder = ", ".join(
        f"{run['workers']}w={run['solves_per_second']:.1f} sol/s" for run in fleet["runs"]
    )
    print(
        f"fleet: {fleet['corpora']} corpora x {fleet['tuples_per_corpus']} tuples, "
        f"{fleet['client_threads']} clients on {fleet['cpu_count']} cpu(s): {ladder} "
        f"(peak {fleet['throughput_speedup_max_vs_1']:.2f}x vs 1 worker); "
        f"router overhead {fleet['router_overhead_ms']:.1f} ms "
        f"({fleet['routed_solve_ms']:.1f} routed vs {fleet['direct_solve_ms']:.1f} direct), "
        f"parity={fleet['parity']}"
    )
    reliability = report["reliability"]
    admission = reliability["admission"]
    print(
        f"reliability: {reliability['inserts']} keyed inserts through a kill at "
        f"#{reliability['kill_at_insert']} -> lost={reliability['lost_inserts']} "
        f"dup={reliability['duplicated_inserts']} "
        f"({reliability['deduplicated_replies']} dedup replies, "
        f"{reliability['worker_restarts']} respawn); solve p50 "
        f"{reliability['solve_p50_ms']:.1f} ms / p99 "
        f"{reliability['solve_p99_ms']:.1f} ms through the recovery window; "
        f"admission shed {admission['shed']}/{admission['offered']} "
        f"({admission['shed_rate']:.0%}), "
        f"applied==accepted={admission['applied_equals_accepted']}"
    )
    htap = report["htap"]
    print(
        f"htap: {htap['inserts']} inserts from {htap['insert_threads']} writers; "
        f"solve p50/p99 under the storm "
        f"{htap['delta_main']['solve_p50_ms']:.1f}/{htap['delta_main']['solve_p99_ms']:.1f} ms "
        f"({htap['delta_main']['solves_during_storm']} solves); "
        f"{htap['delta_main']['inserts_per_second']:.0f} ins/s with concurrent solves, "
        f"{htap['delta_main']['merge_count']} merges; parity={htap['parity']}"
    )
    subscriptions = report["subscriptions"]
    print(
        f"subscriptions: {subscriptions['inserts']} inserts in "
        f"{subscriptions['batches']} batches -> "
        f"{subscriptions['diffs_delivered']} diffs "
        f"(lost={subscriptions['lost_diffs']} "
        f"dup={subscriptions['duplicated_diffs']}); notify p50/p99 "
        f"{subscriptions['notify_p50_ms']:.1f}/"
        f"{subscriptions['notify_p99_ms']:.1f} ms, "
        f"backlog<= {subscriptions['max_backlog']}; warm solve "
        f"{subscriptions['warm_solve_ms']:.1f} ms vs cold replay "
        f"{subscriptions['cold_replay_ms']:.1f} ms "
        f"({subscriptions['incremental_speedup']:.1f}x, "
        f"parity={subscriptions['parity']})"
    )
    incremental = report["incremental"]
    ladder = ", ".join(
        f"{rung['tuples']} tuples: apply p50/p90 "
        f"{rung['apply_p50_ms']:.2f}/{rung['apply_p90_ms']:.2f} ms, "
        f"first solve p50 {rung['first_solve_p50_ms']:.1f} ms"
        for rung in incremental["rungs"]
    )
    print(
        f"incremental: {ladder}; apply p50 grew "
        f"{incremental['apply_p50_growth']:.2f}x over "
        f"{incremental['tuples_growth']:.0f}x tuples, "
        f"parity={incremental['parity']}"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
