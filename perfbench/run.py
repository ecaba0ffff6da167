"""The repo benchmark: TagDM served over HTTP, three traffic mixes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-warm --seed 1 --seconds 30 --trace 0

One run starts the server child (``serve.py``) several times to time the
cold open (``setup_s``), keeps the last one, drives it for ``--seconds``,
checks every answer, and prints one metric per line followed by a
run-context line and, last, one JSON result line (``correct``,
``attempted``, ``failed``, ``metrics``).  The gated workloads send one
request at a time, interleaving solves on one corpus with
insert-then-notify cycles on another, so every end-to-end metric is
sampled across the whole window.  ``--trace 1`` runs the same workload
twice, untraced and traced, and reports the per-layer metrics of the
traced window plus the traced-minus-untraced difference of every
end-to-end metric.

``README.md`` next to this file says why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR, CORPUS, DIV_PROBLEMS, REPO_ROOT, ROTATE_EVERY_INSERTS,
    ROTATE_KEEP_LAST, SIDE_CORPUS, SIM_PROBLEMS, SQLITE_SYNCHRONOUS, CORPUS_SEED,
    SERVER_SEED, ENUMERATION, N_ITEMS, N_USERS, default_support, generate_corpus,
    insert_payloads, p90_supported, percentile, pin_to_cpu, problem_specs, read_corpus,
    require_source, write_corpus,
)

WORKLOADS = ("solve-warm", "ingest", "htap")

#: Every end-to-end metric with its unit; each run reports all of them.
E2E_UNITS = {
    "setup_s": "s",
    "sim_solve_p50_ms": "ms",
    "sim_solve_p90_ms": "ms",
    "div_solve_p50_ms": "ms",
    "div_solve_p90_ms": "ms",
    "insert_ack_p50_ms": "ms",
    "insert_ack_p90_ms": "ms",
    "inserts_per_s": "1/s",
    "notify_p50_ms": "ms",
    "notify_p90_ms": "ms",
    "server_rss_mb": "MB",
}
#: Each round of a gated workload's serial window: this many solves on
#: the solved corpus, then this many insert-then-notify cycles on the
#: other one.  The rounds spread every request class over the whole
#: window, so each median averages the machine's drift the same way.
SCHEDULE = {"solve-warm": (2, 1), "ingest": (1, 1)}
#: Run time cap: every child is stopped and the run fails before this.
RUN_DEADLINE_S = 170
#: After the writer stops, how long polls may wait to see the last
#: watermark before the missing notifications count as failed.
NOTIFY_GRACE_S = 10.0


@dataclass(frozen=True)
class Config:
    """Sizes of one run.  ``DEFAULT`` is the benchmark; the self-check
    shrinks it."""

    warm_actions: int = 2000
    write_actions: int = 500
    side_actions: int = 300
    setups: int = 3
    #: ``htap``'s open-loop insert rate (a single writer that waits for
    #: each ack sustains about 20/s).
    htap_rate: float = 5.0
    #: Samples per percentile: a window runs past ``--seconds`` (up to
    #: twice it) until each class holds this many, so each p90 has ten
    #: samples beyond it.
    min_samples: int = 150


DEFAULT = Config()


class Ops:
    """Attempted and failed operations of one run, with the first errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.flags: List[str] = []

    def add_loop(self, loop) -> None:
        self.attempted += loop.attempted
        self.failed += loop.failed
        self.errors.extend(loop.errors)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


class ServerProcess:
    """The server child; ``setup_s`` runs from spawn to its first answer."""

    def __init__(self, work: Path, corpus_file: Path, label: str, traced: bool) -> None:
        from repro.api.client import HttpClient

        self.spans_file = work / f"{label}.spans.json" if traced else None
        self.stderr_file = work / f"{label}.stderr"
        command = [
            sys.executable, str(BENCH_DIR / "serve.py"),
            "--corpus-file", str(corpus_file), "--root", str(work / label),
        ]
        if self.spans_file is not None:
            command += ["--spans", str(self.spans_file)]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        with open(self.stderr_file, "w") as stderr:
            self.proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=stderr, text=True, cwd=str(REPO_ROOT), env=env,
            )
        try:
            ready = self.proc.stdout.readline().split()
            if len(ready) != 2 or ready[0] != "READY":
                raise RuntimeError(f"server child did not start: {self.stderr_tail()}")
            self.url = ready[1]
            with HttpClient(self.url) as client:
                client.stats(CORPUS)
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.kill()
            raise

    def stderr_tail(self) -> str:
        try:
            return self.stderr_file.read_text()[-2000:]
        except OSError:
            return ""

    def command(self, text: str) -> Dict[str, object]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited on {text!r}: {self.stderr_tail()}")
        return json.loads(line)

    def stop(self) -> Optional[list]:
        """Quit cleanly; the spans (when traced) as a list, else None."""
        try:
            reply = self.command("quit")
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if not reply.get("ok"):
            raise RuntimeError(f"server child failed to quit: {reply}")
        if self.spans_file is None:
            return None
        return json.loads(self.spans_file.read_text())["spans"]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _run_threads(*targets) -> None:
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _latency_metrics(prefix: str, latencies: List[float], flags: List[str]) -> Dict[str, float]:
    if not latencies:
        raise RuntimeError(f"no {prefix} samples were taken")
    if not p90_supported(len(latencies)):
        flags.append(f"{prefix}: {len(latencies)} samples cannot support a p90")
    return {
        f"{prefix}_p50_ms": _ms(percentile(latencies, 0.50)),
        f"{prefix}_p90_ms": _ms(percentile(latencies, 0.90)),
    }


class Run:
    """One pass of a workload against one kept server child."""

    def __init__(self, workload: str, seed: int, seconds: float, config: Config,
                 work: Path, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.config = config
        self.work = work
        self.traced = traced
        self.ops = Ops()
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, list] = {}
        self.stats_before: Dict[str, object] = {}
        self.stats_after: Dict[str, object] = {}
        self.spans: Optional[list] = None
        self.lag_p90_ms = 0.0
        #: The corpus that took the window's inserts.
        self.insert_corpus = ""
        #: Wall seconds of each phase of the run, for the run record.
        self.phase_s: Dict[str, float] = {}
        self._phase_mark = time.perf_counter()

    def _phase(self, name: str) -> None:
        now = time.perf_counter()
        self.phase_s[name] = round(now - self._phase_mark, 3)
        self._phase_mark = now

    # -- set-up ---------------------------------------------------------
    def start(self, corpus_file: Path, setups: int) -> ServerProcess:
        times = []
        server = None
        for attempt in range(setups):
            label = f"{'traced' if self.traced else 'plain'}-{attempt}"
            server = ServerProcess(self.work, corpus_file, label, self.traced and attempt == setups - 1)
            times.append(server.setup_s)
            if attempt < setups - 1:
                server.stop()
        self.metrics["setup_s"] = statistics.median(times)
        return server

    # -- traffic --------------------------------------------------------
    def _register(self, url: str, corpus: "Corpus") -> None:
        """Register the problem-4 standing query on the corpus that takes
        inserts and wait for its first evaluation, so notifications in
        the window cover inserts only."""
        from repro.api.client import HttpClient

        corpus.sub_id = "notify"
        with HttpClient(url) as client:
            client.register_subscription(corpus.name, corpus.specs[4], subscription_id=corpus.sub_id)
            waited = time.perf_counter() + NOTIFY_GRACE_S
            while time.perf_counter() < waited:
                rows = client.subscriptions(corpus.name)
                if rows and rows[0]["last_watermark"] >= corpus.n_actions:
                    return
                time.sleep(0.01)
        raise RuntimeError("the subscription's first evaluation never arrived")

    def _mixed_window(self, url: str, solving: "Corpus", inserting: "Corpus", until) -> Dict[str, float]:
        """Serial traffic, one request in flight: problems 1-6 in seeded
        passes on ``solving`` and insert-then-notify cycles on
        ``inserting``, interleaved by the workload's schedule so every
        class is sampled across the whole window.  Two connections:
        similarity solves and inserts share one, diversity solves and
        subscription polls the other."""
        from loadgen import Cycler, Loop, Solver, connect, notify_latencies

        first, second = connect(url), connect(url)
        sim, writer = Loop(first), Loop(first)
        div, poller = Loop(second), Loop(second)
        loops = {pid: sim for pid in SIM_PROBLEMS}
        loops.update({pid: div for pid in DIV_PROBLEMS})
        solver = Solver(loops, solving.name, solving.specs, self.seed, solving.expected)
        cycler = Cycler(
            writer, poller, inserting.name, insert_payloads(inserting.dataset, self.seed),
            inserting.n_actions, f"{self.seed}-{inserting.name}", inserting.sub_id, NOTIFY_GRACE_S,
        )
        until.count = lambda: min(len(sim.samples), len(div.samples), len(writer.samples))
        solves, cycles = SCHEDULE[self.workload]
        while until.more():
            for _ in range(solves):
                solver.step()
            for _ in range(cycles):
                cycler.step()
        first.close()
        second.close()
        for loop in (sim, div, writer, poller):
            self.ops.add_loop(loop)
        inserts, polls = writer.samples, poller.samples
        self.samples.update(sim=sim.samples, div=div.samples, insert=inserts, poll=polls)
        metrics = _latency_metrics("sim_solve", [s[2] for s in sim.samples], self.ops.flags)
        metrics.update(_latency_metrics("div_solve", [s[2] for s in div.samples], self.ops.flags))
        metrics.update(_latency_metrics(
            "insert_ack", [acked - sent for sent, acked, _ in inserts], self.ops.flags,
        ))
        # Cycles take turns with solves, so the rate counts each insert's
        # own cycle only: from its send to the poll that showed it covered.
        notify, missed = notify_latencies([(sent, wm) for sent, _acked, wm in inserts], polls)
        self.ops.check(missed == 0, f"{missed} acknowledged inserts were never notified")
        metrics["inserts_per_s"] = len(notify) / sum(notify) if notify else 0.0
        metrics.update(_latency_metrics("notify", notify, self.ops.flags))
        inserting.committed = cycler.committed
        return metrics

    def _htap_window(self, url: str, corpus: "Corpus", until) -> Dict[str, float]:
        """Open-loop writer (which also polls the problem-4 standing query
        while idle) beside a closed loop over problems 1-6."""
        from loadgen import Freshness, Loop, Solver, Until, connect, notify_latencies, open_insert_loop

        writer, solver_loop = Loop(connect(url)), Loop(connect(url))
        fresh = Freshness(CORPUS, corpus.sub_id, corpus.n_actions)
        committed: list = []
        until.count = lambda: len(writer.samples)
        # The solver alternates similarity and diversity: it needs twice
        # the samples for each to reach the minimum.
        solver_until = Until(
            until.deadline, 2 * until.min_samples + 6, until.cap, lambda: len(solver_loop.samples)
        )
        solver = Solver({pid: solver_loop for pid in SIM_PROBLEMS + DIV_PROBLEMS}, CORPUS,
                        corpus.specs, self.seed)

        def solve() -> None:
            while solver_until.more():
                solver.step()
                if fresh.pending():
                    fresh.poll(solver_loop)

        start = time.perf_counter()
        _run_threads(
            lambda: committed.extend(open_insert_loop(
                writer, insert_payloads(corpus.dataset, self.seed), f"{self.seed}-htap",
                self.config.htap_rate, start, until, fresh, NOTIFY_GRACE_S,
            )),
            solve,
        )
        for loop in (writer, solver_loop):
            loop.client.close()
            self.ops.add_loop(loop)
        inserts = writer.samples
        self.samples["open_insert"], self.samples["poll"] = inserts, fresh.polls
        self.samples["sim"] = [s for s in solver_loop.samples if s[0] in SIM_PROBLEMS]
        self.samples["div"] = [s for s in solver_loop.samples if s[0] in DIV_PROBLEMS]
        metrics = _latency_metrics("sim_solve", [s[2] for s in self.samples["sim"]], self.ops.flags)
        metrics.update(_latency_metrics("div_solve", [s[2] for s in self.samples["div"]], self.ops.flags))
        metrics.update(_latency_metrics(
            "insert_ack", [acked - due for due, _sent, acked, _wm in inserts], self.ops.flags,
        ))
        metrics["inserts_per_s"] = len(inserts) / (inserts[-1][2] - inserts[0][0])
        notify, missed = notify_latencies([(sent, wm) for _due, sent, _acked, wm in inserts], fresh.polls)
        self.ops.check(missed == 0, f"{missed} acknowledged inserts were never notified")
        metrics.update(_latency_metrics("notify", notify, self.ops.flags))
        lag = percentile([sent - due for due, sent, _acked, _wm in inserts], 0.90)
        self.lag_p90_ms = _ms(lag)
        if lag > 0.5 / self.config.htap_rate:
            self.ops.flags.append(
                f"open-loop generator fell behind: lag p90 {self.lag_p90_ms:.1f} ms > half "
                f"the {1000.0 / self.config.htap_rate:.0f} ms send interval"
            )
        corpus.committed = committed
        return metrics

    # -- gates ----------------------------------------------------------
    def _check_inserts(self, url: str, corpus: "Corpus") -> None:
        """Serial replay parity of the corpus that took inserts, then the
        audit of its standing query's ledger."""
        from gates import ledger_errors, replay_mismatches, served_answers
        from repro.api.client import HttpClient

        with HttpClient(url) as client:
            served = served_answers(client, corpus.name, corpus.specs)
            poll = client.poll_subscription(corpus.name, corpus.sub_id)
        self.ops.attempted += len(served)
        wrong = replay_mismatches(read_corpus(corpus.file), corpus.committed, served, corpus.specs)
        self.ops.check(not wrong, f"{corpus.name}: problems {wrong} differ from the serial replay")
        errors = ledger_errors(poll, served[4])
        self.ops.check(not errors, f"{corpus.name} ledger: {errors}")

    # -- the run --------------------------------------------------------
    def execute(self) -> None:
        from gates import answer_key
        from loadgen import Until
        from repro.api.client import HttpClient

        config = self.config
        main = Corpus(CORPUS, config.warm_actions if self.workload == "solve-warm" else config.write_actions,
                      self.work)
        side = Corpus(SIDE_CORPUS, config.side_actions, self.work)
        # htap solves and inserts on its one corpus; the gated workloads
        # solve on one and insert into the other.
        solving, inserting = (main, side) if self.workload == "solve-warm" else (side, main)
        if self.workload != "htap":
            solving.reference()
        self._phase("inputs")
        server = self.start(main.file, config.setups if not self.traced else 1)
        self._phase("setups")
        try:
            if self.workload != "htap":
                server.command(f"side {side.file}")
                # Warm every view cache of the solved corpus (checked too).
                with HttpClient(server.url) as client:
                    for pid, spec in solving.specs.items():
                        self.ops.check(
                            answer_key(client.solve(solving.name, spec)) == solving.expected[pid],
                            f"warm-up problem {pid} differs from the reference",
                        )
            self._register(server.url, inserting)
            self.insert_corpus = inserting.name
            self.stats_before = server.command("stats")
            self._phase("warm-up")
            if self.traced:
                server.command("trace on")
            started = time.perf_counter()
            until = Until(started + self.seconds, config.min_samples, started + 2 * self.seconds, None)
            if self.workload == "htap":
                self.metrics.update(self._htap_window(server.url, main, until))
            else:
                self.metrics.update(self._mixed_window(server.url, solving, inserting, until))
            if self.traced:
                server.command("trace off")
            self.stats_after = server.command("stats")
            self._phase("window")
            self.metrics["server_rss_mb"] = float(self.stats_after["rss_peak_mb"])
            self._check_inserts(server.url, inserting)
            self._phase("gates")
            self.spans = server.stop()
            self._phase("stop")
        except BaseException:
            server.kill()
            raise


class Corpus:
    """One corpus of a run: generated with the fixed generator seed,
    written to a file for the server child, with its problem specs."""

    def __init__(self, name: str, n_actions: int, work: Path) -> None:
        self.name = name
        self.n_actions = n_actions
        self.dataset = generate_corpus(n_actions, name)
        self.file = work / f"{name}.json"
        write_corpus(self.dataset, self.file)
        self.specs = problem_specs(default_support(n_actions))
        self.expected: Optional[Dict[int, str]] = None
        self.committed: list = []
        self.sub_id = ""

    def reference(self) -> None:
        from gates import reference_answers

        self.expected = reference_answers(self.dataset, self.specs)


def run_context(workload: str, seed: int, seconds: float, config: Config) -> Dict[str, object]:
    import sqlite3

    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "corpus_actions": config.warm_actions if workload == "solve-warm" else config.write_actions,
        "side_corpus_actions": config.side_actions,
        "corpus_generator": {"n_users": N_USERS, "n_items": N_ITEMS, "seed": CORPUS_SEED},
        "enumeration": ENUMERATION,
        "server_seed": SERVER_SEED,
        "rotation_policy": {"every_inserts": ROTATE_EVERY_INSERTS, "keep_last": ROTATE_KEEP_LAST},
        "sqlite_synchronous": SQLITE_SYNCHRONOUS,
        "htap_rate_per_s": config.htap_rate,
        "setups_per_run": config.setups,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
    }


def execute(workload: str, seed: int, seconds: float, trace: bool,
            config: Config = DEFAULT) -> Dict[str, object]:
    """Run one workload; returns the result object (without printing it)."""
    work = REPO_ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plain = Run(workload, seed, seconds, config, work, traced=False)
        plain.execute()
        runs = [plain]
        if trace:
            traced = Run(workload, seed, seconds, config, work, traced=True)
            traced.execute()
            runs.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(run.ops.attempted for run in runs)
    failed = sum(run.ops.failed for run in runs)
    result: Dict[str, object] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": [error for run in runs for error in run.ops.errors][:10],
        "flags": [flag for run in runs for flag in run.ops.flags],
        "e2e": {name: plain.metrics[name] for name in E2E_UNITS},
        "lag_p90_ms": plain.lag_p90_ms if workload == "htap" else None,
        "phase_s": [run.phase_s for run in runs],
    }
    if trace:
        from layers import layer_metrics

        result["layers"] = layer_metrics(runs[1], plain)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not require_source():
        print("perfbench: no src/repro in this checkout; nothing to benchmark", file=sys.stderr)
        return 2
    pin_to_cpu(-1)

    def out_of_time(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S}s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_DEADLINE_S)
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    signal.alarm(0)

    for name, value in result["e2e"].items():
        print(f"{args.workload} {name} {value:.4f} {E2E_UNITS[name]}")
    print(f"{args.workload} error_rate {result['failed'] / result['attempted']:.6f} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    if result["lag_p90_ms"] is not None:
        print(f"{args.workload} loadgen.lag_p90_ms {result['lag_p90_ms']:.4f} ms")
    for flag in result["flags"]:
        print(f"FLAG {flag}")
    for error in result["errors"]:
        print(f"ERROR {error}", file=sys.stderr)
    if args.trace:
        for name, (value, unit) in result["layers"].items():
            print(f"{args.workload} {name} {value:.4f} {unit}")
    context = run_context(args.workload, args.seed, args.seconds, DEFAULT)
    context["phase_s"] = result["phase_s"]
    print(json.dumps({"context": context}))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in result["e2e"].items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
