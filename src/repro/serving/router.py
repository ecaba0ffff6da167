"""Corpus-placement router: one front door for a multi-process fleet.

The router is the half of the serving fleet that clients see: an HTTP
process that owns the corpus->worker placement table and forwards every
``/corpora/<name>/*`` request to the worker process whose
:class:`~repro.serving.server.TagDMServer` holds that corpus's warm
shard.  Placement is rendezvous hashing (stable under worker
joins/leaves: only the moved corpus re-homes) with explicit pin
overrides for operators who need a corpus on a specific worker.

Routes (bodies and errors exactly as in :mod:`repro.serving.http`, so a
client cannot tell a router from a single-process front-end except by
the extra route)::

    GET  /healthz                  -- router + aggregated worker health
    GET  /corpora                  -- {"corpora": [names]} from placement
    GET  /placement                -- corpus->worker map with worker urls
    *    /corpora/<name>/<verb>    -- forwarded verbatim to the owner

Failure semantics: a forward that cannot reach the owning worker
(killed, restarting) is retried against the worker's *current* address
-- re-resolved every attempt, because a respawned worker comes back on
a new port -- under two bounds: a per-request **retry budget**
(:class:`~repro.serving.reliability.RetryBudget`: at most
``max_attempts`` actual forwards, jittered exponential backoff between
them) and the wall-clock ``retry_deadline``.  Whichever runs out first
answers 503 (:class:`~repro.api.errors.WorkerUnavailableError`).  Each
worker also has a :class:`~repro.serving.reliability.CircuitBreaker`
fed by forward failures and (when enabled) background heartbeat
probes: once a worker trips the breaker open, forwards skip it without
burning connection attempts until the breaker half-opens and a probe
succeeds.  Waits spent on an unresolved worker or an open breaker
consume *no* budget -- only the deadline -- so a respawning worker is
picked up the moment it is back.  A request the worker *answered* is
relayed as-is, status, body and ``Retry-After`` header untouched,
which is what keeps routed error payloads bit-identical to
single-process ones; the ``Idempotency-Key`` request header is
forwarded too, so a routed insert retried across a worker crash
deduplicates instead of double-applying.

Threading model: the router is a :class:`ThreadingHTTPServer`; each
request forwards on its own handler thread over a per-worker
:class:`~repro.api.client.HttpConnectionPool`, so slow solves on one
worker do not block requests to another.  :class:`PlacementTable` is
itself thread-safe and shared with the fleet supervisor.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import urllib.parse
from http.client import HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socket import timeout as socket_timeout
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.client import HttpConnectionPool
from repro.core.witness import named_lock, named_rlock
from repro.api.errors import (
    ApiError,
    SolveTimeoutError,
    SpecValidationError,
    UnknownCorpusError,
    UnknownRouteError,
    WorkerUnavailableError,
    retry_after_header,
)
from repro.serving.http import _CORPUS_ROUTE, _SUBSCRIPTION_ROUTE, MAX_BODY_BYTES
from repro.serving.reliability import CircuitBreaker, RetryBudget

__all__ = ["PlacementTable", "TagDMRouter"]


def _rendezvous_score(worker_id: str, corpus: str) -> int:
    """The weight of ``worker_id`` for ``corpus`` (highest weight owns).

    SHA-1 based so the placement is identical in every process that
    computes it -- Python's builtin ``hash`` is salted per process and
    would scatter corpora differently on every restart.
    """
    digest = hashlib.sha1(f"{worker_id}\x00{corpus}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PlacementTable:
    """Thread-safe corpus->worker placement with pin overrides.

    Ownership is rendezvous hashing over the current worker set: each
    corpus goes to the worker with the highest hash weight for it, so
    adding or removing one worker only moves the corpora that worker
    gains or loses -- every other assignment is untouched.  An explicit
    :meth:`pin` overrides hashing for one corpus as long as its pinned
    worker is registered (an absent pinned worker falls back to hashing
    rather than blackholing the corpus).

    All methods take an internal lock and never block on I/O, so the
    table can be shared between the router's request threads and the
    fleet supervisor.
    """

    def __init__(
        self,
        workers: Union[List[str], Tuple[str, ...]] = (),
        pins: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._lock = named_rlock("placement.table")
        self._workers: List[str] = []
        self._corpora: List[str] = []
        self._pins: Dict[str, str] = dict(pins or {})
        for worker_id in workers:
            self.add_worker(worker_id)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_worker(self, worker_id: str) -> None:
        """Register a worker id (idempotent)."""
        with self._lock:
            if worker_id not in self._workers:
                self._workers.append(worker_id)
                self._workers.sort()

    def remove_worker(self, worker_id: str) -> None:
        """Drop a worker id; its corpora re-home by hashing (idempotent)."""
        with self._lock:
            if worker_id in self._workers:
                self._workers.remove(worker_id)

    def register_corpus(self, corpus: str) -> None:
        """Make a corpus placeable (idempotent)."""
        with self._lock:
            if corpus not in self._corpora:
                self._corpora.append(corpus)
                self._corpora.sort()

    def forget_corpus(self, corpus: str) -> None:
        """Remove a corpus (and any pin it had; idempotent)."""
        with self._lock:
            if corpus in self._corpora:
                self._corpora.remove(corpus)
            self._pins.pop(corpus, None)

    def pin(self, corpus: str, worker_id: str) -> None:
        """Pin a corpus to one worker, overriding rendezvous hashing."""
        with self._lock:
            if worker_id not in self._workers:
                raise KeyError(
                    f"cannot pin {corpus!r} to unknown worker {worker_id!r}; "
                    f"known: {self._workers}"
                )
            self.register_corpus(corpus)
            self._pins[corpus] = worker_id

    def unpin(self, corpus: str) -> None:
        """Remove a pin; the corpus re-homes by hashing (idempotent)."""
        with self._lock:
            self._pins.pop(corpus, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def workers(self) -> List[str]:
        """Registered worker ids, sorted."""
        with self._lock:
            return list(self._workers)

    def corpora(self) -> List[str]:
        """Registered corpus names, sorted."""
        with self._lock:
            return list(self._corpora)

    def __contains__(self, corpus: str) -> bool:
        with self._lock:
            return corpus in self._corpora

    def owner_of(self, corpus: str) -> str:
        """The worker id serving ``corpus``.

        Raises ``KeyError`` for an unregistered corpus and
        ``RuntimeError`` when the table has no workers at all.
        """
        with self._lock:
            if corpus not in self._corpora:
                raise KeyError(f"corpus {corpus!r} is not placed")
            if not self._workers:
                raise RuntimeError("placement table has no workers")
            pinned = self._pins.get(corpus)
            if pinned is not None and pinned in self._workers:
                return pinned
            return max(
                self._workers,
                key=lambda worker_id: (_rendezvous_score(worker_id, corpus), worker_id),
            )

    def assignments(self) -> Dict[str, List[str]]:
        """Every worker's corpus list (workers with none map to ``[]``)."""
        with self._lock:
            table: Dict[str, List[str]] = {worker_id: [] for worker_id in self._workers}
            for corpus in self._corpora:
                table[self.owner_of(corpus)].append(corpus)
            return table

    def to_payload(
        self, worker_urls: Optional[Mapping[str, Optional[str]]] = None
    ) -> Dict[str, object]:
        """The ``GET /placement`` wire body."""
        with self._lock:
            corpora = {corpus: self.owner_of(corpus) for corpus in self._corpora}
            workers: Dict[str, Optional[str]] = {
                worker_id: (worker_urls or {}).get(worker_id)
                for worker_id in self._workers
            }
            return {
                "workers": workers,
                "corpora": corpora,
                "pins": dict(self._pins),
            }


class _RouterHandler(BaseHTTPRequestHandler):
    """Forward one request to the owning worker (or answer router routes)."""

    router: "TagDMRouter" = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    # Same keep-alive Nagle/delayed-ACK trap as the worker front-end.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep request logging off the forwarding hot path

    # ------------------------------------------------------------------
    # Plumbing (mirrors repro.serving.http._Handler)
    # ------------------------------------------------------------------
    def _write_json(self, status: int, payload: Mapping[str, object]) -> None:
        self._write_raw(status, "application/json", json.dumps(payload).encode("utf-8"))

    def _write_raw(
        self,
        status: int,
        content_type: str,
        body: bytes,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            return b""
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            # Same class and message as the worker front-end's own
            # oversized-body answer, so routed and direct requests see
            # an identical 422 payload.
            raise SpecValidationError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
            )
        return self.rfile.read(length)

    def _dispatch(self, method: str) -> None:
        extra_headers: Optional[Mapping[str, str]] = None
        try:
            status, content_type, body, extra_headers = self._route(method)
        except ApiError as error:
            status, content_type = error.status, "application/json"
            body = json.dumps(error.to_payload()).encode("utf-8")
            retry_after = retry_after_header(error)
            if retry_after is not None:
                extra_headers = {"Retry-After": retry_after}
        except Exception as exc:  # a router bug must answer 500, not drop the socket
            error = ApiError(f"{type(exc).__name__}: {exc}")
            status, content_type = error.status, "application/json"
            body = json.dumps(error.to_payload()).encode("utf-8")
        self._write_raw(status, content_type, body, extra_headers)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str) -> Tuple[int, str, bytes, Optional[Mapping[str, str]]]:
        path, _, query = self.path.partition("?")
        body = self._read_body()
        if method == "GET" and path == "/healthz":
            return 200, "application/json", self.router._health_body(), None
        if method == "GET" and path == "/corpora":
            payload = {"corpora": self.router.placement.corpora()}
            return 200, "application/json", json.dumps(payload).encode("utf-8"), None
        if method == "GET" and path == "/placement":
            return 200, "application/json", self.router._placement_body(), None
        match = _CORPUS_ROUTE.fullmatch(path) or _SUBSCRIPTION_ROUTE.fullmatch(path)
        if match:
            corpus = urllib.parse.unquote(match.group("name"))
            # Forward the idempotency key so a keyed insert (or a
            # subscription registration) retried by the router -- or
            # replayed over a pooled connection into the worker --
            # deduplicates server-side instead of double-applying.
            request_headers: Dict[str, str] = {}
            idempotency_key = self.headers.get("Idempotency-Key")
            if idempotency_key is not None:
                request_headers["Idempotency-Key"] = idempotency_key
            return self.router.forward(
                method, corpus, self.path, body, headers=request_headers
            )
        raise UnknownRouteError(
            f"no route for {method} {path}",
            details={
                "routes": [
                    "GET /healthz",
                    "GET /corpora",
                    "GET /placement",
                    "GET /corpora/<name>/stats",
                    "POST /corpora/<name>/insert",
                    "POST /corpora/<name>/solve",
                    "POST /corpora/<name>/subscriptions",
                    "GET /corpora/<name>/subscriptions",
                    "GET /corpora/<name>/subscriptions/<id>",
                    "GET /corpora/<name>/subscriptions/<id>/stream",
                ]
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")


class TagDMRouter:
    """Route fleet traffic to the worker that owns each corpus.

    Parameters
    ----------
    placement:
        The (shared, thread-safe) :class:`PlacementTable`.  The fleet
        supervisor registers workers/corpora on it; the router only
        reads.
    resolve_worker:
        ``worker_id -> base url`` resolver -- a callable or a plain
        mapping.  Returning ``None`` means "worker currently down";
        the router keeps re-resolving while it retries, which is how a
        respawned worker's new port is picked up mid-request.
    host / port:
        Bind address (``port=0`` picks a free port; read :attr:`url`).
    retry_deadline:
        Wall-clock bound on one forward: how long it may keep waiting
        for an unreachable owner before answering 503 (seconds).  Must
        cover a worker respawn: process start + warm-start from
        snapshot.
    retry_interval:
        Sleep between placement polls while the owner is unresolved or
        its breaker is open (seconds); also the backoff base of the
        default retry budget.
    request_timeout:
        Socket timeout for one forwarded attempt (seconds); a worker
        that is *reachable but slow* past this answers 504, it is not
        retried (re-running a slow solve would only pile on load).
    retry_budget:
        The :class:`~repro.serving.reliability.RetryBudget` bounding
        *actual* forward attempts per request (waits on an unresolved
        worker or an open breaker are free).  ``None`` builds one from
        ``retry_interval`` (64 attempts, capped jittered backoff,
        seeded for deterministic tests).
    breaker_failure_threshold / breaker_reset_timeout:
        Per-worker :class:`~repro.serving.reliability.CircuitBreaker`
        tuning: consecutive failures to trip open, and how long an open
        breaker waits before letting a half-open probe through.
    heartbeat_interval:
        When set, :meth:`start` runs a background thread probing every
        worker's ``/healthz`` this often (seconds), feeding the
        breakers -- a respawned worker is then closed back into rotation
        even when no client traffic is probing it.  ``None`` (default)
        disables the thread; breakers are still fed by forward results.

    Lifecycle and threading match
    :class:`~repro.serving.http.TagDMHttpServer`: ``start()`` serves on
    a daemon thread, ``stop()`` is idempotent, the object is a context
    manager, and every inbound request is handled (and forwarded) on
    its own thread.
    """

    def __init__(
        self,
        placement: PlacementTable,
        resolve_worker: Union[Callable[[str], Optional[str]], Mapping[str, str]],
        host: str = "127.0.0.1",
        port: int = 0,
        retry_deadline: float = 30.0,
        retry_interval: float = 0.05,
        request_timeout: float = 120.0,
        retry_budget: Optional[RetryBudget] = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_timeout: float = 0.25,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        self.placement = placement
        if callable(resolve_worker):
            self._resolve = resolve_worker
        else:
            mapping = dict(resolve_worker)
            self._resolve = mapping.get
        self.retry_deadline = retry_deadline
        self.retry_interval = retry_interval
        self.request_timeout = request_timeout
        self.retry_budget = retry_budget or RetryBudget(
            max_attempts=64,
            backoff_base=max(retry_interval, 1e-3),
            backoff_cap=0.5,
            jitter=0.5,
            seed=0,
        )
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_reset_timeout = breaker_reset_timeout
        self.heartbeat_interval = heartbeat_interval
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = named_lock("router.breakers")
        self._pools: Dict[str, HttpConnectionPool] = {}
        self._pools_lock = named_lock("router.pools")
        self._stats_lock = named_lock("router.stats")
        self._forwarded = 0
        self._retries = 0
        self._unavailable = 0
        self._budget_exhausted = 0
        self._heartbeat_probes = 0
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        handler = type("BoundRouterHandler", (_RouterHandler,), {"router": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when 0 was asked)."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def is_running(self) -> bool:
        """Whether the accept loop is live."""
        return self._thread is not None and self._thread.is_alive()

    def stats(self) -> Dict[str, object]:
        """Forwarding counters plus per-worker breaker snapshots."""
        with self._stats_lock:
            counters: Dict[str, object] = {
                "requests_forwarded": self._forwarded,
                "forward_retries": self._retries,
                "workers_unavailable": self._unavailable,
                "budget_exhausted": self._budget_exhausted,
                "heartbeat_probes": self._heartbeat_probes,
            }
        with self._breakers_lock:
            counters["breakers"] = {
                worker_id: breaker.snapshot()
                for worker_id, breaker in sorted(self._breakers.items())
            }
        return counters

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _pool_for(self, base_url: str) -> HttpConnectionPool:
        with self._pools_lock:
            pool = self._pools.get(base_url)
            if pool is None:
                pool = HttpConnectionPool(
                    base_url, request_timeout=self.request_timeout
                )
                self._pools[base_url] = pool
            return pool

    def breaker_for(self, worker_id: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one worker.

        Keyed by worker *id*, not address: a respawned worker keeps its
        breaker, so the successful first forward after a respawn is what
        closes it.
        """
        with self._breakers_lock:
            breaker = self._breakers.get(worker_id)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.breaker_failure_threshold,
                    reset_timeout=self.breaker_reset_timeout,
                )
                self._breakers[worker_id] = breaker
            return breaker

    def _owner_of(self, corpus: str) -> str:
        try:
            return self.placement.owner_of(corpus)
        except KeyError:
            # Bit-identical to the single-process unknown-corpus answer
            # (message and details from repro.api.service._shard).
            raise UnknownCorpusError(
                f"corpus {corpus!r} is not being served",
                details={"corpus": corpus, "known": self.placement.corpora()},
            ) from None
        except RuntimeError as exc:
            raise WorkerUnavailableError(
                str(exc), details={"corpus": corpus}
            ) from None

    def forward(
        self,
        method: str,
        corpus: str,
        path_with_query: str,
        body: bytes,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        """Relay one request to the corpus owner; retry while it is down.

        Returns ``(status, content type, body bytes, extra headers)``
        exactly as the worker answered (the extra headers carry a
        relayed ``Retry-After``, if the worker sent one).  Retries
        happen only for *transport* failures (connect refused/reset,
        worker mid-restart) -- never after a response arrived, and
        never for per-attempt socket timeouts (those answer 504).  Each
        transport failure consumes one unit of the retry budget and
        feeds the worker's breaker; waits on an unresolved worker or an
        open breaker consume only wall clock.  A request that exhausts
        either the budget or ``retry_deadline`` answers 503.

        An insert forwarded to a worker that dies mid-request is
        retried with its ``Idempotency-Key`` header intact, so the
        respawned worker deduplicates it -- exactly-once; an unkeyed
        insert keeps the at-least-once caveat (see ``DEPLOYMENT.md``).
        """
        request_headers: Dict[str, str] = (
            {"Content-Type": "application/json"} if body else {}
        )
        if headers:
            request_headers.update(headers)
        deadline = time.monotonic() + self.retry_deadline
        attempt = 0
        while True:
            worker_id = self._owner_of(corpus)
            base_url = self._resolve(worker_id)
            breaker = self.breaker_for(worker_id)
            pause = self.retry_interval
            if base_url is not None and breaker.allow():
                attempt += 1
                try:
                    status, response_headers, data = self._pool_for(base_url).request(
                        method, path_with_query, body=body or None,
                        headers=request_headers,
                    )
                except (socket_timeout, TimeoutError) as exc:
                    raise SolveTimeoutError(
                        f"worker {worker_id!r} did not answer {method} "
                        f"{path_with_query} within {self.request_timeout:g}s",
                        details={
                            "corpus": corpus,
                            "worker": worker_id,
                            "timeout_seconds": self.request_timeout,
                        },
                    ) from exc
                except (OSError, HTTPException):
                    # Worker down or dying: feed the breaker, spend one
                    # unit of retry budget, back off before the next try.
                    breaker.record_failure()
                    if self.retry_budget.exhausted(attempt):
                        with self._stats_lock:
                            self._unavailable += 1
                            self._budget_exhausted += 1
                        raise WorkerUnavailableError(
                            f"worker {worker_id!r} for corpus {corpus!r} "
                            f"failed {attempt} forward attempts "
                            "(retry budget exhausted)",
                            details={
                                "corpus": corpus,
                                "worker": worker_id,
                                "attempts": attempt,
                                "breaker": breaker.snapshot(),
                            },
                        ) from None
                    pause = self.retry_budget.delay(attempt)
                else:
                    breaker.record_success()
                    with self._stats_lock:
                        self._forwarded += 1
                        self._retries += attempt - 1
                    content_type = response_headers.get("content-type", "application/json")
                    extra: Dict[str, str] = {}
                    retry_after = response_headers.get("retry-after")
                    if retry_after is not None:
                        extra["Retry-After"] = retry_after
                    return status, content_type, data, extra
            now = time.monotonic()
            if now >= deadline:
                with self._stats_lock:
                    self._unavailable += 1
                raise WorkerUnavailableError(
                    f"worker {worker_id!r} for corpus {corpus!r} stayed "
                    f"unreachable for {self.retry_deadline:g}s",
                    details={
                        "corpus": corpus,
                        "worker": worker_id,
                        "attempts": attempt,
                        "breaker": breaker.snapshot(),
                    },
                )
            time.sleep(max(0.0, min(pause, deadline - now)))

    # ------------------------------------------------------------------
    # Router-local routes
    # ------------------------------------------------------------------
    def _placement_body(self) -> bytes:
        urls = {worker_id: self._resolve(worker_id) for worker_id in self.placement.workers()}
        return json.dumps(self.placement.to_payload(urls)).encode("utf-8")

    def _probe_worker(self, worker_id: str) -> Optional[Dict[str, object]]:
        """One ``/healthz`` probe of one worker, feeding its breaker.

        Returns the worker's health payload, or ``None`` when the worker
        is unresolved, unreachable or answered garbage.  Transport
        failures count against the breaker; an unresolved worker (known
        to be down, nothing to probe) does not -- the breaker should
        reflect *surprise* failures, not supervised restarts.
        """
        base_url = self._resolve(worker_id)
        if base_url is None:
            return None
        breaker = self.breaker_for(worker_id)
        with self._stats_lock:
            self._heartbeat_probes += 1
        try:
            code, _headers, data = self._pool_for(base_url).request(
                "GET", "/healthz", timeout=min(5.0, self.request_timeout)
            )
            payload = json.loads(data.decode("utf-8"))
        except (OSError, HTTPException, ValueError):
            breaker.record_failure()
            return None
        if code == 200 and isinstance(payload, dict):
            breaker.record_success()
            return payload
        return None

    def _heartbeat_loop(self) -> None:
        while not self._heartbeat_stop.wait(self.heartbeat_interval):
            for worker_id in self.placement.workers():
                if self._heartbeat_stop.is_set():
                    return
                self._probe_worker(worker_id)

    def _health_body(self) -> bytes:
        """Aggregate worker ``/healthz`` bodies under the router's own.

        Uses one non-retried probe per worker so a dead worker makes the
        probe report it (``reachable: false``) instead of hanging the
        health endpoint through a retry window.  Probe results feed the
        per-worker breakers, whose snapshots ride along in each entry.
        """
        workers: Dict[str, Dict[str, object]] = {}
        totals = {"inserts_served": 0, "solves_served": 0, "snapshots_written": 0}
        status = "ok"
        for worker_id in self.placement.workers():
            base_url = self._resolve(worker_id)
            entry: Dict[str, object] = {"url": base_url, "reachable": False}
            payload = self._probe_worker(worker_id)
            if payload is not None:
                entry["reachable"] = True
                entry["health"] = payload
                for key in totals:
                    totals[key] += int(payload.get(key, 0))
            entry["breaker"] = self.breaker_for(worker_id).snapshot()
            if not entry["reachable"]:
                status = "degraded"
            workers[worker_id] = entry
        body: Dict[str, object] = {
            "status": status,
            "role": "router",
            "corpora": self.placement.corpora(),
            "workers": workers,
            "router": self.stats(),
        }
        body.update(totals)
        return json.dumps(body).encode("utf-8")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TagDMRouter":
        """Start the accept loop (and heartbeat thread) -- idempotent."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"tagdm-router-{self.address[1]}",
                daemon=True,
            )
            self._thread.start()
        if self.heartbeat_interval is not None and self._heartbeat_thread is None:
            self._heartbeat_stop.clear()
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"tagdm-router-heartbeat-{self.address[1]}",
                daemon=True,
            )
            self._heartbeat_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close worker pools, release the socket.

        Idempotent; blocks until the accept loop exits (in-flight
        handler threads finish their current response).
        """
        if self._heartbeat_thread is not None:
            self._heartbeat_stop.set()
            self._heartbeat_thread.join(timeout=10.0)
            self._heartbeat_thread = None
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        with self._pools_lock:
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.close()

    def __enter__(self) -> "TagDMRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
