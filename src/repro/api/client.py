"""The unified TagDM client: one API, four interchangeable backends.

:class:`TagDMClient` is the caller-facing abstraction of the wire-native
API.  Code written against it does not know -- and does not need to know
-- where the corpus lives:

* :class:`LocalClient` wraps in-process :class:`~repro.core.framework.TagDM`
  / :class:`~repro.core.incremental.IncrementalTagDM` sessions (the
  embedded-library deployment);
* :class:`ServerClient` wraps a :class:`~repro.serving.server.TagDMServer`
  and routes through its warm shards (the single-process serving
  deployment);
* :class:`HttpClient` speaks JSON to an HTTP front-end
  (:mod:`repro.serving.http` or the fleet router in
  :mod:`repro.serving.router`) over pooled keep-alive connections (the
  remote deployment);
* :class:`FleetClient` fetches a fleet's corpus->worker placement map
  from its router and talks to the owning workers directly, falling
  back to the router when placement drifts (the high-fan-in remote
  deployment).

All backends validate requests through the same
:class:`~repro.api.spec.ProblemSpec` machinery and raise the same typed
:class:`~repro.api.errors.ApiError` taxonomy, and a solve produces
bit-identical group selections on every backend serving the same warm
session -- that is the contract the smoke tests in
``examples/http_client.py`` and ``examples/fleet_demo.py`` prove.
"""

from __future__ import annotations

import http.client
import json
import socket  # noqa: F401 - timeout type + TCP_NODELAY
import threading
import urllib.parse
import uuid
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.api.errors import (
    ApiError,
    CapabilityMismatchError,
    ConnectionFailedError,
    SolveTimeoutError,
    SpecValidationError,
    UnknownCorpusError,
    api_error_from_payload,
    run_with_timeout,
)
from repro.api.service import (
    coerce_spec,
    corpus_stats,
    diffs_from_ndjson,
    health as server_health,
    insert_actions,
    list_corpora,
    poll_subscription as service_poll_subscription,
    register_subscription as service_register_subscription,
    list_subscriptions as service_list_subscriptions,
    result_from_ndjson,
    solve_spec,
    validate_actions,
)
from repro.api.spec import DEFAULT_PAGE_SIZE, PageSpec, ProblemSpec, ResultPage
from repro.core.incremental import IncrementalTagDM, IncrementalUpdateReport
from repro.core.witness import named_lock
from repro.core.problem import TagDMProblem
from repro.core.result import MiningResult

__all__ = [
    "TagDMClient",
    "LocalClient",
    "ServerClient",
    "HttpClient",
    "FleetClient",
    "HttpConnectionPool",
]

SolveRequest = Union[ProblemSpec, TagDMProblem, Mapping[str, object]]


class TagDMClient(ABC):
    """Backend-independent TagDM request interface.

    Solve requests accept a :class:`ProblemSpec`, a plain
    :class:`TagDMProblem` (with ``algorithm`` / keyword options), or a
    raw spec payload dict -- the three forms the wire protocol defines.
    """

    # ------------------------------------------------------------------
    # Abstract operations
    # ------------------------------------------------------------------
    @abstractmethod
    def corpora(self) -> List[str]:
        """Names of the corpora this client can reach."""

    @abstractmethod
    def insert(
        self,
        corpus: str,
        actions: Iterable[Mapping[str, object]],
        idempotency_key: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        """Apply a batch of action dicts and return the merged report.

        ``idempotency_key`` names the batch for exactly-once semantics:
        retrying the same batch under the same key (after a transport
        failure, through any backend reaching the same durable corpus)
        never double-applies -- the original report comes back with
        ``deduplicated=True``.  Backends that talk over the network
        generate a key automatically when none is given.
        """

    @abstractmethod
    def solve(
        self,
        corpus: str,
        request: SolveRequest,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> MiningResult:
        """Validate and run one solve request over the named corpus."""

    @abstractmethod
    def stats(self, corpus: str) -> Dict[str, object]:
        """Serving counters for one corpus."""

    @abstractmethod
    def health(self) -> Dict[str, object]:
        """Aggregate liveness payload (shape of ``/healthz``)."""

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def insert_action(
        self,
        corpus: str,
        user_id: str,
        item_id: str,
        tags: Iterable[str],
        rating: Optional[float] = None,
        user_attributes: Optional[Mapping[str, str]] = None,
        item_attributes: Optional[Mapping[str, str]] = None,
        idempotency_key: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        """Insert a single tagging action (one-element batch)."""
        return self.insert(
            corpus,
            [
                {
                    "user_id": user_id,
                    "item_id": item_id,
                    "tags": list(tags),
                    "rating": rating,
                    "user_attributes": (
                        None if user_attributes is None else dict(user_attributes)
                    ),
                    "item_attributes": (
                        None if item_attributes is None else dict(item_attributes)
                    ),
                }
            ],
            idempotency_key=idempotency_key,
        )

    def solve_page(
        self,
        corpus: str,
        request: SolveRequest,
        page: int = 1,
        page_size: int = DEFAULT_PAGE_SIZE,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> ResultPage:
        """Solve and return one page of the result's group list.

        The default implementation runs the full solve and windows it
        client-side, so every backend answers pages identically;
        :class:`HttpClient` overrides it to request the window on the
        wire instead (``?page=``/``?page_size=``), keeping large group
        sets off the response body.  Blocks for the whole solve either
        way -- pagination bounds the transfer, not the computation.
        """
        window = PageSpec(page=page, page_size=page_size)
        result = self.solve(
            corpus, request, algorithm=algorithm, timeout=timeout, **options
        )
        return ResultPage.from_payload(window.paginate(result.to_dict()))

    def solve_pages(
        self,
        corpus: str,
        request: SolveRequest,
        page_size: int = DEFAULT_PAGE_SIZE,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> Iterator[ResultPage]:
        """Iterate every page of a solve, first to last.

        The default implementation solves once and windows locally.
        :class:`HttpClient` fetches page by page over the wire; because
        serving solves are deterministic over a warm session, those
        per-page solves agree, and
        :func:`~repro.api.spec.merge_result_pages` over the yielded
        pages reconstructs the unpaginated result bit-identically.
        """
        result = self.solve(
            corpus, request, algorithm=algorithm, timeout=timeout, **options
        )
        payload = result.to_dict()
        page = 1
        while True:
            entry = ResultPage.from_payload(
                PageSpec(page=page, page_size=page_size).paginate(payload)
            )
            yield entry
            if not entry.has_more:
                return
            page += 1

    def solve_stream(
        self,
        corpus: str,
        request: SolveRequest,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> MiningResult:
        """Solve, transferring the result incrementally where possible.

        In-process backends have nothing to stream, so the default is a
        plain :meth:`solve`.  :class:`HttpClient` overrides it to read
        the response as NDJSON (one group per line), bounding the size
        of any single JSON document it must parse.
        """
        return self.solve(corpus, request, algorithm=algorithm, timeout=timeout, **options)

    # ------------------------------------------------------------------
    # Subscriptions (standing queries)
    # ------------------------------------------------------------------
    def _no_subscriptions(self, corpus: str) -> CapabilityMismatchError:
        return CapabilityMismatchError(
            f"the {type(self).__name__} backend has no durable subscription "
            f"ledger for corpus {corpus!r}; use a server-backed client",
            details={"corpus": corpus},
        )

    def register_subscription(
        self,
        corpus: str,
        spec: SolveRequest,
        owner: str = "anonymous",
        subscription_id: Optional[str] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, object]:
        """Register a standing query; returns the subscription row.

        ``idempotency_key`` makes retried registrations exactly-once
        (the replay answers ``deduplicated=True``); reusing a
        ``subscription_id`` without it is a 409.  Backends without a
        durable store report a capability mismatch.
        """
        raise self._no_subscriptions(corpus)

    def subscriptions(self, corpus: str) -> List[Dict[str, object]]:
        """All subscriptions registered on the named corpus."""
        raise self._no_subscriptions(corpus)

    def poll_subscription(
        self, corpus: str, subscription_id: str, from_seq: int = 1
    ) -> Dict[str, object]:
        """Delivered diffs with ``seq >= from_seq`` plus ledger position."""
        raise self._no_subscriptions(corpus)

    def stream_subscription(
        self, corpus: str, subscription_id: str, from_seq: int = 1
    ) -> Dict[str, object]:
        """Like :meth:`poll_subscription`; HTTP backends read NDJSON.

        In-process backends have nothing to stream, so the default
        delegates to the poll implementation.
        """
        return self.poll_subscription(corpus, subscription_id, from_seq=from_seq)

    def close(self) -> None:
        """Release client-held resources (default: nothing to release)."""

    def __enter__(self) -> "TagDMClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalClient(TagDMClient):
    """Speak the wire API to in-process sessions (no server, no socket).

    Calls run synchronously on the calling thread against the raw
    sessions -- there is no shard locking here, so concurrent inserts
    and solves on the *same* session need external coordination (that
    is what :class:`ServerClient` over a :class:`TagDMServer` provides).

    Parameters
    ----------
    sessions:
        ``corpus name -> prepared session`` mapping.  Solves work with
        both :class:`TagDM` and :class:`IncrementalTagDM`; inserts need
        the incremental wrapper (a plain session cannot absorb actions,
        which the client reports as a capability mismatch).
    """

    def __init__(self, sessions: Mapping[str, object]) -> None:
        self._sessions: Dict[str, object] = dict(sessions)

    def _session(self, corpus: str):
        try:
            return self._sessions[corpus]
        except KeyError:
            raise UnknownCorpusError(
                f"corpus {corpus!r} is not registered with this client",
                details={"corpus": corpus, "known": sorted(self._sessions)},
            ) from None

    def corpora(self) -> List[str]:
        return sorted(self._sessions)

    def insert(
        self,
        corpus: str,
        actions: Iterable[Mapping[str, object]],
        idempotency_key: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        session = self._session(corpus)
        if not isinstance(session, IncrementalTagDM):
            raise CapabilityMismatchError(
                f"corpus {corpus!r} is served by a static TagDM session; "
                "inserts need an IncrementalTagDM",
                details={"corpus": corpus},
            )
        batch = validate_actions(actions)
        # analyze: writer-context -- the local backend owns no threads;
        # the caller that handed us these sessions is their only writer.
        try:
            return session.add_actions(batch, request_id=idempotency_key)
        except (KeyError, ValueError, TypeError) as exc:
            raise SpecValidationError(f"insert rejected: {exc}") from exc

    def solve(
        self,
        corpus: str,
        request: SolveRequest,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> MiningResult:
        session = self._session(corpus)
        spec = coerce_spec(request, algorithm=algorithm, options=options)
        problem, name = spec.validate()
        return run_with_timeout(
            lambda: session.solve(problem, algorithm=name, **dict(spec.options)),
            timeout,
            f"solve({corpus})",
        )

    def stats(self, corpus: str) -> Dict[str, object]:
        session = self._session(corpus)
        dataset = session.dataset
        return {
            "name": corpus,
            "backend": "local",
            "actions": dataset.n_actions,
            "groups": session.n_groups,
        }

    def health(self) -> Dict[str, object]:
        return {"status": "ok", "corpora": self.corpora()}


class ServerClient(TagDMClient):
    """Route requests through a :class:`TagDMServer`'s warm shards.

    Thread-safe to share: every call delegates to the server's
    per-shard locking (solves shared, inserts single-writer and
    blocking until applied).  The client does not own the server:
    closing the client leaves the server (and its stores and snapshot
    rotators) running.
    """

    def __init__(self, server) -> None:
        self.server = server

    def corpora(self) -> List[str]:
        return list_corpora(self.server)

    def insert(
        self,
        corpus: str,
        actions: Iterable[Mapping[str, object]],
        idempotency_key: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        return insert_actions(
            self.server, corpus, actions, request_id=idempotency_key
        )

    def solve(
        self,
        corpus: str,
        request: SolveRequest,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> MiningResult:
        spec = coerce_spec(request, algorithm=algorithm, options=options)
        return solve_spec(self.server, corpus, spec, timeout=timeout)

    def stats(self, corpus: str) -> Dict[str, object]:
        return corpus_stats(self.server, corpus)

    def health(self) -> Dict[str, object]:
        return server_health(self.server)

    def register_subscription(
        self,
        corpus: str,
        spec: SolveRequest,
        owner: str = "anonymous",
        subscription_id: Optional[str] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "spec": coerce_spec(spec).to_dict(),
            "owner": owner,
        }
        if subscription_id is not None:
            payload["subscription_id"] = subscription_id
        return service_register_subscription(
            self.server, corpus, payload, request_id=idempotency_key
        )

    def subscriptions(self, corpus: str) -> List[Dict[str, object]]:
        return service_list_subscriptions(self.server, corpus)

    def poll_subscription(
        self, corpus: str, subscription_id: str, from_seq: int = 1
    ) -> Dict[str, object]:
        return service_poll_subscription(
            self.server, corpus, subscription_id, from_seq=from_seq
        )


#: Transport failures that mean "the reused keep-alive connection went
#: stale before the server saw this request" -- safe to retry once on a
#: fresh connection.  Failures *after* the status line arrived are never
#: in this set (the server already processed the request by then).
_STALE_CONNECTION_ERRORS = (
    http.client.BadStatusLine,
    http.client.RemoteDisconnected,
    http.client.CannotSendRequest,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class HttpConnectionPool:
    """Thread-safe pool of keep-alive connections to one HTTP endpoint.

    Every wire client used to open a fresh TCP connection per request;
    this pool is the shared fix: idle :class:`http.client.HTTPConnection`
    objects are parked per endpoint and reused across requests (and
    across threads -- each connection is used by one thread at a time,
    the pool itself is locked).  A reused connection that the server
    closed while idle is detected by its failure mode
    (:data:`_STALE_CONNECTION_ERRORS` before any response byte) and the
    request is replayed once on a fresh connection -- but only when the
    replay is provably safe (see :meth:`open_response`); a fresh
    connection that fails is a real error and propagates.

    All methods block only for their own socket I/O; acquiring and
    releasing connections never blocks on other requests.
    """

    def __init__(
        self,
        base_url: str,
        request_timeout: float = 30.0,
        max_idle: int = 8,
        fault_plan=None,
    ) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ValueError(
                f"HttpConnectionPool speaks plain http, got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.request_timeout = request_timeout
        self.max_idle = max_idle
        #: Optional :class:`~repro.serving.reliability.FaultPlan`; the
        #: ``pool.pre_send`` point fires before each send on a *reused*
        #: connection (``reset`` shuts the socket down first, simulating
        #: a server that closed the idle connection).
        self.fault_plan = fault_plan
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = named_lock("pool.lock")
        self._closed = False
        self._reused = 0
        self._opened = 0

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _acquire(self, fresh: bool = False) -> Tuple[http.client.HTTPConnection, bool]:
        with self._lock:
            if self._closed:
                raise ConnectionFailedError(f"connection pool for {self.base_url} is closed")
            if self._idle and not fresh:
                self._reused += 1
                return self._idle.pop(), True
            self._opened += 1
        return (
            http.client.HTTPConnection(self.host, self.port, timeout=self.request_timeout),
            False,
        )

    def _release(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(connection)
                return
        connection.close()

    @staticmethod
    def _discard(connection: http.client.HTTPConnection) -> None:
        try:
            connection.close()
        except OSError:  # pragma: no cover - close() should not raise
            pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    @staticmethod
    def _infer_idempotent(method: str, headers: Mapping[str, str]) -> bool:
        """Whether a request is provably safe to replay after an
        ambiguous failure: GETs (read-only by contract) and requests
        carrying an ``Idempotency-Key`` (the server deduplicates)."""
        if method.upper() == "GET":
            return True
        return any(key.lower() == "idempotency-key" for key in headers)

    def open_response(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
        idempotent: Optional[bool] = None,
    ) -> http.client.HTTPResponse:
        """Send one request and return the live (unread) response.

        The caller owns the response: it must either read it fully and
        hand it back through :meth:`finish` (so the connection can be
        reused) or :meth:`abandon` it.

        Retry rule: a reused connection that fails while *sending* never
        delivered the request, so it is always safe to replay once -- on
        a deliberately fresh connection, since a restarted server leaves
        the whole idle pool stale at once.  A failure while *waiting for
        the response* is ambiguous (the server may have applied the
        request before dying), so it is replayed only when the request
        is idempotent -- by default that is inferred: GETs and requests
        carrying an ``Idempotency-Key`` header replay (the server
        deduplicates the key), any other POST propagates the failure as
        :class:`~repro.api.errors.ConnectionFailedError` territory and
        the caller decides.  Pass ``idempotent=True``/``False`` to
        override the inference (e.g. solve POSTs are read-only).  All
        non-stale failures propagate as the underlying
        :mod:`socket`/:mod:`http.client` exceptions.
        """
        request_headers = dict(headers or {})
        if idempotent is None:
            idempotent = self._infer_idempotent(method, request_headers)
        budget = self.request_timeout if timeout is None else timeout
        for attempt in (1, 2):
            connection, reused = self._acquire(fresh=attempt > 1)
            connection.timeout = budget
            sent = False
            try:
                if (
                    self.fault_plan is not None
                    and reused
                    and self.fault_plan.fire("pool.pre_send", path=path) == "reset"
                ):
                    # Simulate the server closing this idle keep-alive
                    # connection: the send below fails stale.
                    try:
                        connection.sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                if connection.sock is None:
                    connection.connect()
                    # Nagle + the peer's delayed ACK costs ~40ms on every
                    # request that needs two writes (headers, then body)
                    # over a warm keep-alive connection; a fresh
                    # connection hides it behind TCP quickack, which is
                    # exactly why an unpooled client never shows it.
                    connection.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                connection.sock.settimeout(budget)
                connection.request(method, path, body=body, headers=request_headers)
                sent = True
                response = connection.getresponse()
            except _STALE_CONNECTION_ERRORS:
                self._discard(connection)
                if reused and attempt == 1 and (not sent or idempotent):
                    continue
                raise
            except BaseException:
                self._discard(connection)
                raise
            response._pool_connection = connection  # type: ignore[attr-defined]
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    def finish(self, response: http.client.HTTPResponse) -> None:
        """Return a fully-read response's connection to the idle pool."""
        connection = getattr(response, "_pool_connection", None)
        if connection is None:  # pragma: no cover - not one of ours
            response.close()
            return
        if response.isclosed() and not response.will_close:
            self._release(connection)
        else:
            response.close()
            self._discard(connection)

    def abandon(self, response: http.client.HTTPResponse) -> None:
        """Drop a response (and its connection) without draining it."""
        connection = getattr(response, "_pool_connection", None)
        response.close()
        if connection is not None:
            self._discard(connection)

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
        idempotent: Optional[bool] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One full request/response cycle over a pooled connection.

        Returns ``(status, lowercased headers, body bytes)``.  Blocks
        for the whole exchange.  ``idempotent`` follows
        :meth:`open_response`: ``None`` infers replay safety from the
        method and an ``Idempotency-Key`` header; ``False`` restricts
        the stale-connection replay to send-stage failures.
        """
        response = self.open_response(
            method, path, body=body, headers=headers, timeout=timeout, idempotent=idempotent
        )
        try:
            data = response.read()
        except BaseException:
            self.abandon(response)
            raise
        header_map = {key.lower(): value for key, value in response.getheaders()}
        status = response.status
        self.finish(response)
        return status, header_map, data

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Pool counters: connections opened, requests on reused ones."""
        with self._lock:
            return {
                "opened": self._opened,
                "reused": self._reused,
                "idle": len(self._idle),
            }

    def close(self) -> None:
        """Close every idle connection; in-flight ones close on finish."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            self._discard(connection)


class HttpClient(TagDMClient):
    """Speak JSON to an HTTP front-end over pooled keep-alive connections.

    Works against both a single-process front-end
    (:class:`~repro.serving.http.TagDMHttpServer`) and a fleet router
    (:class:`~repro.serving.router.TagDMRouter`) -- the routes are
    identical.  Thread-safe: any number of threads may share one client;
    each in-flight request holds its own pooled connection.

    Parameters
    ----------
    base_url:
        Front-end address, e.g. ``"http://127.0.0.1:8631"``.
    request_timeout:
        Socket timeout applied to every request (seconds).  A solve with
        an explicit ``timeout`` also sends it to the server as its
        compute budget and widens the socket timeout to cover it.
    pool_size:
        Upper bound on idle connections kept warm.

    Error bodies are decoded back into the same typed
    :class:`~repro.api.errors.ApiError` classes the server raised, so
    ``except SpecValidationError`` works identically against every
    backend; transport failures raise
    :class:`~repro.api.errors.ConnectionFailedError`.
    """

    def __init__(
        self,
        base_url: str,
        request_timeout: float = 30.0,
        pool_size: int = 8,
        fault_plan=None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.request_timeout = request_timeout
        self.pool = HttpConnectionPool(
            self.base_url,
            request_timeout=request_timeout,
            max_idle=pool_size,
            fault_plan=fault_plan,
        )

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_body(
        body: Optional[Mapping[str, object]],
    ) -> Tuple[Optional[bytes], Dict[str, str]]:
        if body is None:
            return None, {}
        return json.dumps(body).encode("utf-8"), {"Content-Type": "application/json"}

    def _budget(self, timeout: Optional[float]) -> float:
        return self.request_timeout if timeout is None else timeout + self.request_timeout

    def _raise_transport_error(
        self, exc: BaseException, method: str, path: str, budget: float
    ) -> None:
        if isinstance(exc, (socket.timeout, TimeoutError)):
            raise SolveTimeoutError(
                f"{method} {path} timed out after {budget:g}s",
                details={"timeout_seconds": budget},
            ) from exc
        raise ConnectionFailedError(f"cannot reach {self.base_url}: {exc}") from exc

    @staticmethod
    def _decode_payload(status: int, data: bytes, method: str, path: str) -> Dict[str, object]:
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(
                f"HTTP {status} with non-JSON body from {method} {path}"
            ) from exc
        if not isinstance(payload, dict):
            raise ApiError(f"malformed response body from {method} {path}")
        if status >= 400:
            raise api_error_from_payload(payload)
        return payload

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, object]] = None,
        timeout: Optional[float] = None,
        idempotent: Optional[bool] = None,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> Dict[str, object]:
        data, headers = self._encode_body(body)
        if extra_headers:
            headers.update(extra_headers)
        budget = self._budget(timeout)
        try:
            status, _headers, raw = self.pool.request(
                method, path, body=data, headers=headers, timeout=budget,
                idempotent=idempotent,
            )
        except (OSError, http.client.HTTPException) as exc:
            self._raise_transport_error(exc, method, path, budget)
        return self._decode_payload(status, raw, method, path)

    def _stream(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, object]],
        timeout: Optional[float],
        parse: Callable[[Iterator[bytes]], Dict[str, object]],
    ) -> Dict[str, object]:
        """One request whose NDJSON body ``parse`` reads line by line.

        ``parse`` sees the body's lines as they arrive off the socket
        and returns the decoded payload.  An error status raises its
        typed :class:`ApiError` (``parse`` never runs); a transport
        failure raises :class:`ConnectionFailedError` or
        :class:`SolveTimeoutError`.  The connection goes back to the
        pool only when the body was drained; a body that ``parse``
        abandoned, or that broke, takes its connection with it.  Every
        streamed request is replay-safe (GETs and read-only solves).
        """
        data, headers = self._encode_body(body)
        budget = self._budget(timeout)
        try:
            response = self.pool.open_response(
                method, path, body=data, headers=headers, timeout=budget,
                idempotent=True,
            )
        except (OSError, http.client.HTTPException) as exc:
            self._raise_transport_error(exc, method, path, budget)
        error_body: Optional[bytes] = None
        try:
            if response.status >= 400:
                error_body = response.read()
            else:
                payload = parse(iter(response.readline, b""))
        except (OSError, http.client.HTTPException) as exc:
            self.pool.abandon(response)
            self._raise_transport_error(exc, method, path, budget)
        except BaseException:
            self.pool.abandon(response)
            raise
        if response.isclosed():
            self.pool.finish(response)
        else:
            self.pool.abandon(response)
        if error_body is not None:
            self._decode_payload(response.status, error_body, method, path)  # raises
        return payload

    # ------------------------------------------------------------------
    # TagDMClient operations
    # ------------------------------------------------------------------
    @staticmethod
    def _corpus_path(corpus: str, verb: str, query: str = "") -> str:
        # Corpus names are caller input; a name with a slash or space
        # must not produce a malformed or misrouted request line.
        quoted = urllib.parse.quote(corpus, safe="")
        suffix = f"?{query}" if query else ""
        return f"/corpora/{quoted}/{verb}{suffix}"

    def corpora(self) -> List[str]:
        payload = self._request("GET", "/corpora")
        return [str(name) for name in payload.get("corpora", [])]

    def insert(
        self,
        corpus: str,
        actions: Iterable[Mapping[str, object]],
        idempotency_key: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        # Every insert travels with an Idempotency-Key (generated when
        # the caller brings none): the server deduplicates the key, so a
        # stale-connection replay -- or any caller retry under the same
        # key -- can never double-apply the batch.
        key = idempotency_key or uuid.uuid4().hex
        payload = self._request(
            "POST",
            self._corpus_path(corpus, "insert"),
            body={"actions": list(actions)},
            extra_headers={"Idempotency-Key": key},
        )
        return IncrementalUpdateReport.from_dict(payload)

    def _solve_body(
        self,
        request: SolveRequest,
        algorithm: str,
        timeout: Optional[float],
        options: Mapping[str, object],
    ) -> Dict[str, object]:
        spec = coerce_spec(request, algorithm=algorithm, options=options)
        body = spec.to_dict()
        if timeout is not None:
            body["timeout_seconds"] = timeout
        return body

    def solve(
        self,
        corpus: str,
        request: SolveRequest,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> MiningResult:
        body = self._solve_body(request, algorithm, timeout, options)
        # Solves are read-only: safe to replay on a stale keep-alive
        # connection even though they travel as POSTs.
        payload = self._request(
            "POST",
            self._corpus_path(corpus, "solve"),
            body=body,
            timeout=timeout,
            idempotent=True,
        )
        return MiningResult.from_dict(payload)

    def solve_page(
        self,
        corpus: str,
        request: SolveRequest,
        page: int = 1,
        page_size: int = DEFAULT_PAGE_SIZE,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> ResultPage:
        """One wire-paged solve: only this page's groups travel back."""
        window = PageSpec(page=page, page_size=page_size)
        body = self._solve_body(request, algorithm, timeout, options)
        payload = self._request(
            "POST",
            self._corpus_path(corpus, "solve", window.to_query()),
            body=body,
            timeout=timeout,
            idempotent=True,
        )
        return ResultPage.from_payload(payload)

    def solve_pages(
        self,
        corpus: str,
        request: SolveRequest,
        page_size: int = DEFAULT_PAGE_SIZE,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> Iterator[ResultPage]:
        """Fetch a solve page by page over the wire (see base docstring)."""
        page = 1
        while True:
            entry = self.solve_page(
                corpus,
                request,
                page=page,
                page_size=page_size,
                algorithm=algorithm,
                timeout=timeout,
                **options,
            )
            yield entry
            if not entry.has_more:
                return
            page += 1

    def solve_stream(
        self,
        corpus: str,
        request: SolveRequest,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> MiningResult:
        """Solve with an NDJSON response body, parsed line by line.

        The server sends one group per line after a result envelope
        (``?stream=ndjson``), and this client decodes each line as it
        arrives off the socket -- the largest JSON document ever parsed
        is one group, not the whole result.  A stream cut mid-transfer
        raises :class:`SpecValidationError` (truncation is detected by
        the envelope's group count), never a silently short result.
        """
        body = self._solve_body(request, algorithm, timeout, options)
        path = self._corpus_path(corpus, "solve", "stream=ndjson")
        return MiningResult.from_dict(
            self._stream("POST", path, body, timeout, result_from_ndjson)
        )

    def stats(self, corpus: str) -> Dict[str, object]:
        return self._request("GET", self._corpus_path(corpus, "stats"))

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def placement(self) -> Dict[str, object]:
        """Fetch a fleet router's corpus->worker placement map.

        Only routers answer this route; a single-process front-end
        raises :class:`~repro.api.errors.UnknownRouteError` (404).
        """
        return self._request("GET", "/placement")

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    @staticmethod
    def _subscription_path(corpus: str, subscription_id: str, suffix: str = "") -> str:
        quoted = urllib.parse.quote(corpus, safe="")
        quoted_sub = urllib.parse.quote(subscription_id, safe="")
        return f"/corpora/{quoted}/subscriptions/{quoted_sub}{suffix}"

    def register_subscription(
        self,
        corpus: str,
        spec: SolveRequest,
        owner: str = "anonymous",
        subscription_id: Optional[str] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, object]:
        # Registrations travel with an Idempotency-Key exactly like
        # inserts: a stale-connection replay or caller retry under the
        # same key returns the original row (deduplicated=True) instead
        # of a 409.
        key = idempotency_key or uuid.uuid4().hex
        body: Dict[str, object] = {
            "spec": coerce_spec(spec).to_dict(),
            "owner": owner,
        }
        if subscription_id is not None:
            body["subscription_id"] = subscription_id
        return self._request(
            "POST",
            self._corpus_path(corpus, "subscriptions"),
            body=body,
            extra_headers={"Idempotency-Key": key},
        )

    def subscriptions(self, corpus: str) -> List[Dict[str, object]]:
        payload = self._request("GET", self._corpus_path(corpus, "subscriptions"))
        entries = payload.get("subscriptions", [])
        return [entry for entry in entries if isinstance(entry, dict)]

    def poll_subscription(
        self, corpus: str, subscription_id: str, from_seq: int = 1
    ) -> Dict[str, object]:
        return self._request(
            "GET",
            self._subscription_path(
                corpus, subscription_id, f"?from_seq={int(from_seq)}"
            ),
        )

    def stream_subscription(
        self, corpus: str, subscription_id: str, from_seq: int = 1
    ) -> Dict[str, object]:
        """Fetch a diff suffix as NDJSON, parsed line by line.

        Truncation is detected by the envelope's diff count -- a
        connection cut mid-stream raises :class:`SpecValidationError`
        (or :class:`ConnectionFailedError` at the transport level),
        never a silently short diff list.  :meth:`follow_subscription`
        layers reconnect-and-resume on top of this.
        """
        path = self._subscription_path(
            corpus, subscription_id, f"/stream?from_seq={int(from_seq)}"
        )
        return self._stream("GET", path, None, None, diffs_from_ndjson)

    def follow_subscription(
        self,
        corpus: str,
        subscription_id: str,
        from_seq: int = 1,
        max_reconnects: int = 3,
    ) -> Dict[str, object]:
        """Stream the diff suffix, resuming across truncated streams.

        Diffs are acked line by line as each complete NDJSON record
        arrives; when a stream dies mid-transfer (truncated or malformed
        body, or a dropped connection) the client reconnects with
        ``from_seq`` set to the last acked seq + 1, so no diff is ever
        skipped or replayed -- the resumed stream starts exactly where
        the dead one stopped.  An error response is not a broken
        stream: it raises its typed error on the first attempt.
        Returns the poll-shaped payload plus a ``reconnects`` count.
        """
        collected: List[Dict[str, object]] = []

        def ack(lines: Iterator[bytes]) -> Dict[str, object]:
            try:
                return diffs_from_ndjson(lines, sink=collected)
            except SpecValidationError as exc:
                raise ConnectionFailedError(f"subscription stream broke: {exc}") from exc

        next_seq = int(from_seq)
        last_error: Optional[Exception] = None
        for attempt in range(max_reconnects + 1):
            path = self._subscription_path(
                corpus, subscription_id, f"/stream?from_seq={next_seq}"
            )
            try:
                result = self._stream("GET", path, None, None, ack)
            except ConnectionFailedError as exc:
                last_error = exc
                if collected:
                    next_seq = int(collected[-1]["seq"]) + 1
                continue
            result["from_seq"] = int(from_seq)
            result["reconnects"] = attempt
            return result
        raise ConnectionFailedError(
            f"subscription stream for {subscription_id!r} on {corpus!r} kept "
            f"failing after {max_reconnects} reconnects: {last_error}",
            details={"corpus": corpus, "subscription_id": subscription_id},
        )

    def close(self) -> None:
        """Close pooled connections (the client is unusable afterwards)."""
        self.pool.close()


class FleetClient(TagDMClient):
    """Talk to a serving fleet, bypassing the router on the data path.

    On first use the client fetches the router's placement map
    (``GET /placement``) and opens a pooled :class:`HttpClient` per
    worker; corpus operations then go *directly* to the owning worker,
    cutting the router's forwarding hop out of every insert and solve.
    The router stays the source of truth: when a direct request fails at
    the transport level (the worker died, or respawned on a new port) or
    the worker no longer serves the corpus, the client refreshes its
    placement map and retries direct once, then falls back to the router
    -- which itself waits out worker respawns.

    Thread-safe; the placement cache and per-worker clients are shared
    under one lock, requests themselves run lock-free on pooled
    connections.
    """

    def __init__(
        self,
        router_url: str,
        request_timeout: float = 30.0,
        pool_size: int = 8,
    ) -> None:
        self.router = HttpClient(
            router_url, request_timeout=request_timeout, pool_size=pool_size
        )
        self.request_timeout = request_timeout
        self.pool_size = pool_size
        self._lock = named_lock("client.placement")
        self._corpus_urls: Dict[str, str] = {}
        self._workers: Dict[str, HttpClient] = {}

    # ------------------------------------------------------------------
    # Placement cache
    # ------------------------------------------------------------------
    def refresh_placement(self) -> Dict[str, str]:
        """Re-fetch the router's placement map; returns corpus->worker-url."""
        payload = self.router.placement()
        corpora = payload.get("corpora", {})
        workers = payload.get("workers", {})
        mapping: Dict[str, str] = {}
        if isinstance(corpora, Mapping) and isinstance(workers, Mapping):
            for corpus, worker_id in corpora.items():
                url = workers.get(str(worker_id))
                if isinstance(url, str) and url:
                    mapping[str(corpus)] = url
        with self._lock:
            self._corpus_urls = mapping
        return dict(mapping)

    def _worker_client(self, url: str) -> HttpClient:
        with self._lock:
            client = self._workers.get(url)
            if client is None:
                client = HttpClient(
                    url, request_timeout=self.request_timeout, pool_size=self.pool_size
                )
                self._workers[url] = client
            return client

    def _direct_client(self, corpus: str, refresh: bool) -> Optional[HttpClient]:
        with self._lock:
            url = self._corpus_urls.get(corpus)
        if url is None or refresh:
            url = self.refresh_placement().get(corpus)
        if url is None:
            return None
        return self._worker_client(url)

    def _run(self, corpus: str, operation: Callable[[TagDMClient], object]) -> object:
        """Direct attempt -> placement refresh + retry -> router fallback."""
        for refresh in (False, True):
            client = self._direct_client(corpus, refresh=refresh)
            if client is None:
                break
            try:
                return operation(client)
            except (ConnectionFailedError, UnknownCorpusError):
                continue
        return operation(self.router)

    # ------------------------------------------------------------------
    # TagDMClient operations
    # ------------------------------------------------------------------
    def corpora(self) -> List[str]:
        return self.router.corpora()

    def insert(
        self,
        corpus: str,
        actions: Iterable[Mapping[str, object]],
        idempotency_key: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        """Insert via the owning worker, falling back to the router.

        Exactly-once across a worker crash: one idempotency key is
        generated up front and rides on the direct attempt, the
        placement-refresh retry *and* the router fallback, so whichever
        path re-sends the batch, the corpus store deduplicates it (see
        ``DEPLOYMENT.md``).
        """
        batch = list(actions)
        key = idempotency_key or uuid.uuid4().hex
        return self._run(
            corpus,
            lambda client: client.insert(corpus, batch, idempotency_key=key),
        )

    def solve(
        self,
        corpus: str,
        request: SolveRequest,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> MiningResult:
        return self._run(
            corpus,
            lambda client: client.solve(
                corpus, request, algorithm=algorithm, timeout=timeout, **options
            ),
        )

    def solve_page(
        self,
        corpus: str,
        request: SolveRequest,
        page: int = 1,
        page_size: int = DEFAULT_PAGE_SIZE,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> ResultPage:
        return self._run(
            corpus,
            lambda client: client.solve_page(
                corpus,
                request,
                page=page,
                page_size=page_size,
                algorithm=algorithm,
                timeout=timeout,
                **options,
            ),
        )

    def solve_stream(
        self,
        corpus: str,
        request: SolveRequest,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
        **options: object,
    ) -> MiningResult:
        return self._run(
            corpus,
            lambda client: client.solve_stream(
                corpus, request, algorithm=algorithm, timeout=timeout, **options
            ),
        )

    def stats(self, corpus: str) -> Dict[str, object]:
        return self._run(corpus, lambda client: client.stats(corpus))

    def register_subscription(
        self,
        corpus: str,
        spec: SolveRequest,
        owner: str = "anonymous",
        subscription_id: Optional[str] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, object]:
        # Same exactly-once contract as insert: one key up front rides
        # on the direct attempt, the refresh retry and the router
        # fallback, so no path can double-register.
        key = idempotency_key or uuid.uuid4().hex
        return self._run(
            corpus,
            lambda client: client.register_subscription(
                corpus,
                spec,
                owner=owner,
                subscription_id=subscription_id,
                idempotency_key=key,
            ),
        )

    def subscriptions(self, corpus: str) -> List[Dict[str, object]]:
        return self._run(corpus, lambda client: client.subscriptions(corpus))

    def poll_subscription(
        self, corpus: str, subscription_id: str, from_seq: int = 1
    ) -> Dict[str, object]:
        return self._run(
            corpus,
            lambda client: client.poll_subscription(
                corpus, subscription_id, from_seq=from_seq
            ),
        )

    def stream_subscription(
        self, corpus: str, subscription_id: str, from_seq: int = 1
    ) -> Dict[str, object]:
        return self._run(
            corpus,
            lambda client: client.stream_subscription(
                corpus, subscription_id, from_seq=from_seq
            ),
        )

    def health(self) -> Dict[str, object]:
        return self.router.health()

    def placement(self) -> Dict[str, object]:
        """The router's full placement payload (workers, corpora, pins)."""
        return self.router.placement()

    def close(self) -> None:
        """Close the router client and every per-worker client."""
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for client in workers:
            client.close()
        self.router.close()
