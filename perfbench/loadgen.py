"""Client-side traffic over at most two connections per workload.

Every loop appends plain tuples to a list it owns and counts a failed
operation (non-2xx answer, exception, timeout, wrong answer) instead of
stopping, so one bad response shows up in ``failed`` and the run goes on.
Times are ``time.perf_counter()`` seconds.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.api.client import HttpClient

from gates import answer_key

REQUEST_TIMEOUT_S = 60.0
#: Pause between two polls of the subscription list while other traffic
#: runs (``htap``): a busy poller would steal the server's interpreter
#: lock from the work it is timing.
POLL_INTERVAL_S = 0.02
#: Poll pause of :class:`Cycler`, whose polls are the only
#: request in flight: fine enough that notify figures do not snap to a
#: coarse grid.
CYCLE_POLL_S = 0.005


class Until:
    """When a closed loop stops: at ``deadline``, or later once
    ``count()`` reaches ``min_samples`` (so a p90 has ten samples beyond
    it), but never after ``cap``.  Loops that share one ``Until`` stop
    together, so none runs its tail alone."""

    def __init__(self, deadline: float, min_samples: int, cap: float, count: Callable[[], int]) -> None:
        self.deadline = deadline
        self.min_samples = min_samples
        self.cap = cap
        self.count = count

    def more(self) -> bool:
        now = time.perf_counter()
        return now < self.cap and (now < self.deadline or self.count() < self.min_samples)


def connect(url: str) -> HttpClient:
    """One client connection (an ``HttpClient`` with a pool of one)."""
    return HttpClient(url, request_timeout=REQUEST_TIMEOUT_S, pool_size=1)


class Loop:
    """Counters and samples of one request class, sent on ``client``'s
    connection (which other classes may share)."""

    def __init__(self, client: HttpClient) -> None:
        self.client = client
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: List[tuple] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


class Solver:
    """Problems in seeded passes, one solve per :meth:`step`; each problem
    is sent on its own loop's connection.

    Samples (on that loop) are ``(problem_id, start, latency_s)``.  With
    ``expected`` (canonical comparable payload per problem), every answer
    is checked.
    """

    def __init__(
        self,
        loops: Mapping[int, Loop],
        corpus: str,
        specs: Dict[int, object],
        seed: int,
        expected: Optional[Dict[int, str]] = None,
    ) -> None:
        self.loops = loops
        self.corpus = corpus
        self.specs = specs
        self.expected = expected
        self._rng = random.Random(seed)
        self._order: List[int] = []

    def step(self) -> None:
        if not self._order:
            self._order = list(self.loops)
            self._rng.shuffle(self._order)
        pid = self._order.pop()
        loop = self.loops[pid]
        loop.attempted += 1
        start = time.perf_counter()
        try:
            result = loop.client.solve(self.corpus, self.specs[pid])
        except Exception as exc:  # noqa: BLE001 -- counted, loop goes on
            loop.fail(f"solve {pid}: {type(exc).__name__}: {exc}")
            return
        latency = time.perf_counter() - start
        if self.expected is not None and answer_key(result) != self.expected[pid]:
            loop.fail(f"solve {pid}: answer differs from the reference")
            return
        loop.samples.append((pid, start, latency))


def _insert(loop: Loop, corpus: str, action: Dict[str, object], key: str) -> bool:
    loop.attempted += 1
    try:
        report = loop.client.insert(corpus, [action], idempotency_key=key)
    except Exception as exc:  # noqa: BLE001 -- counted, loop goes on
        loop.fail(f"insert {key}: {type(exc).__name__}: {exc}")
        return False
    if report.actions_added != 1 or report.deduplicated:
        loop.fail(f"insert {key}: ack reports {report.to_dict()}")
        return False
    return True


class Freshness:
    """What the ``htap`` writer has had acknowledged and what a poll has
    shown covered, shared by both connections: either may poll while
    an acknowledged insert is not yet covered (the writer while it waits
    for its next due time, the solver between solves)."""

    def __init__(self, corpus: str, subscription_id: str, watermark: int) -> None:
        self.corpus = corpus
        self.subscription_id = subscription_id
        self.acked = watermark
        self.seen = watermark
        self.polls: List[tuple] = []
        self._lock = threading.Lock()

    def pending(self) -> bool:
        with self._lock:
            return self.seen < self.acked

    def ack(self, watermark: int) -> None:
        with self._lock:
            self.acked = watermark

    def poll(self, loop: Loop) -> None:
        watermark = poll_once(loop, self.corpus, self.subscription_id, self.polls)
        with self._lock:
            self.seen = max(self.seen, watermark)


def open_insert_loop(
    writer: Loop,
    payloads: Iterator[Dict[str, object]],
    key_prefix: str,
    rate: float,
    start: float,
    until: Until,
    fresh: Freshness,
    grace_s: float,
) -> List[Dict[str, object]]:
    """Inserts due every ``1/rate`` s from ``start``, timed from when due.

    Samples are ``(due, sent, acked, watermark)``; ``sent - due`` is how
    late the generator ran (one connection cannot send while it waits
    for the previous ack, so a slow ack delays the sends behind it).
    The schedule ends at the first due time past ``until``; polling goes
    on for at most ``grace_s`` until the last insert is covered.
    """
    committed: List[Dict[str, object]] = []
    watermark = fresh.acked
    index = 0
    while True:
        due = start + index / rate
        if due >= until.cap or (due >= until.deadline and until.count() >= until.min_samples):
            break
        index += 1
        while fresh.pending() and time.perf_counter() + POLL_INTERVAL_S < due:
            fresh.poll(writer)
            time.sleep(POLL_INTERVAL_S)
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        action = next(payloads)
        sent = time.perf_counter()
        if _insert(writer, fresh.corpus, action, f"{key_prefix}-{index}"):
            watermark += 1
            fresh.ack(watermark)
            committed.append(action)
            writer.samples.append((due, sent, time.perf_counter(), watermark))
    give_up = time.perf_counter() + grace_s
    while fresh.pending() and time.perf_counter() < give_up:
        fresh.poll(writer)
        time.sleep(POLL_INTERVAL_S)
    return committed


class Cycler:
    """Insert-then-notify cycles, one per :meth:`step`: send one insert on
    ``writer``, wait for the ack, then poll on ``poller`` every
    :data:`CYCLE_POLL_S` until the subscription covers it.

    Writer samples are ``(sent, acked, watermark)``; poller samples are
    those of :func:`poll_once`.  ``committed`` holds the acknowledged
    actions in commit order: the only writer sends the next insert after
    the previous one is covered, so send order is commit order and each
    ack's watermark is the previous one plus one.  If an insert is not
    covered within ``grace_s``, polling stops for the rest of the run and
    the uncovered inserts count as failed (see :func:`notify_latencies`).
    """

    def __init__(
        self,
        writer: Loop,
        poller: Loop,
        corpus: str,
        payloads: Iterator[Dict[str, object]],
        watermark: int,
        key_prefix: str,
        subscription_id: str,
        grace_s: float,
    ) -> None:
        self.writer = writer
        self.poller = poller
        self.corpus = corpus
        self.payloads = payloads
        self.watermark = watermark
        self.key_prefix = key_prefix
        self.subscription_id = subscription_id
        self.grace_s = grace_s
        self.committed: List[Dict[str, object]] = []
        self.stalled = False

    def step(self) -> None:
        action = next(self.payloads)
        sent = time.perf_counter()
        if not _insert(self.writer, self.corpus, action, f"{self.key_prefix}-{self.writer.attempted}"):
            return
        self.watermark += 1
        self.committed.append(action)
        self.writer.samples.append((sent, time.perf_counter(), self.watermark))
        give_up = time.perf_counter() + self.grace_s
        while not self.stalled and poll_once(
            self.poller, self.corpus, self.subscription_id, self.poller.samples
        ) < self.watermark:
            self.stalled = time.perf_counter() > give_up
            time.sleep(CYCLE_POLL_S)


def poll_once(loop: Loop, corpus: str, subscription_id: str, polls: List[tuple]) -> int:
    """One poll of the subscription list; appends ``(answered,
    last_watermark, latency)`` to ``polls`` and returns the watermark
    (-1 when the poll failed)."""
    loop.attempted += 1
    asked = time.perf_counter()
    try:
        rows = loop.client.subscriptions(corpus)
    except Exception as exc:  # noqa: BLE001 -- counted, loop goes on
        loop.fail(f"poll: {type(exc).__name__}: {exc}")
        return -1
    answered = time.perf_counter()
    watermark = next(
        (int(row["last_watermark"]) for row in rows if row["subscription_id"] == subscription_id),
        -1,
    )
    polls.append((answered, watermark, answered - asked))
    return watermark


def notify_latencies(
    inserts: Sequence[Tuple[float, int]], polls: Sequence[tuple]
) -> Tuple[List[float], int]:
    """Send-to-first-covering-poll latency of each insert, and how many
    inserts no poll ever covered.

    ``inserts`` are ``(sent, watermark)`` in send order (watermarks
    rise); ``polls`` are ``(answered, last_watermark, ...)`` from any
    number of pollers.
    """
    latencies: List[float] = []
    for answered, watermark, *_ in sorted(polls):
        while (
            len(latencies) < len(inserts)
            and inserts[len(latencies)][0] <= answered
            and inserts[len(latencies)][1] <= watermark
        ):
            latencies.append(answered - inserts[len(latencies)][0])
    return latencies, len(inserts) - len(latencies)
