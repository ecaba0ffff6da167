"""HTTP front-end over :class:`~repro.serving.server.TagDMServer`.

:class:`TagDMHttpServer` is the network half of the wire-native API: a
stdlib :class:`~http.server.ThreadingHTTPServer` that translates JSON
requests into the transport-agnostic service layer
(:mod:`repro.api.service`) -- the *same* functions
:class:`~repro.api.client.ServerClient` calls in-process, which is what
makes a solve answered over the socket bit-identical to one answered
in-process on the same warm session.

Routes (all bodies JSON; see ``API.md`` for the full schema)::

    GET  /healthz                  -- liveness + aggregate counters
    GET  /corpora                  -- {"corpora": [names]}
    GET  /corpora/<name>/stats     -- per-shard serving counters
    POST /corpora/<name>/insert    -- {"actions": [...]} -> update report
    POST /corpora/<name>/solve     -- ProblemSpec payload -> MiningResult
    POST /corpora/<name>/subscriptions             -- register a standing query
    GET  /corpora/<name>/subscriptions             -- list registrations
    GET  /corpora/<name>/subscriptions/<id>        -- poll diffs (?from_seq=N)
    GET  /corpora/<name>/subscriptions/<id>/stream -- same suffix as NDJSON

The solve route also accepts result-shaping query parameters:
``?page=P&page_size=S`` windows the response's group list (JSON body
plus a ``pagination`` envelope), and ``?stream=ndjson`` answers
``application/x-ndjson`` -- a result envelope line followed by one
group per line -- so very large group sets never form one giant JSON
document on either side of the wire.  The two are mutually exclusive
(422 when combined).

Failures answer with the typed taxonomy of :mod:`repro.api.errors`
(validation 422, unknown corpus/route 404, capability mismatch 409,
timeout 504) as ``{"error": {code, status, message, details}}`` bodies.
Threading model: every request runs on its own handler thread; solves
read the shard's pinned published view with no lock (many concurrent
solves), inserts
enqueue onto the shard's single-writer queue and block until applied --
exactly the semantics in-process callers get.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.api import service
from repro.api.errors import (
    ApiError,
    SpecValidationError,
    UnknownRouteError,
    retry_after_header,
)
from repro.api.spec import PageSpec, ProblemSpec
from repro.serving.reliability import FaultPlan
from repro.serving.server import TagDMServer

__all__ = ["TagDMHttpServer"]

#: Insert/solve bodies above this size are rejected before parsing
#: (simple protection against a client flooding handler memory).
MAX_BODY_BYTES = 64 * 1024 * 1024

_CORPUS_ROUTE = re.compile(r"\A/corpora/(?P<name>[A-Za-z0-9._~%-]+)/(?P<verb>[a-z]+)\Z")
_SUBSCRIPTION_ROUTE = re.compile(
    r"\A/corpora/(?P<name>[A-Za-z0-9._~%-]+)/subscriptions/"
    r"(?P<sub>[A-Za-z0-9._~%-]+)(?P<stream>/stream)?\Z"
)


class _NdjsonBody:
    """Marker wrapper: a route answered pre-encoded NDJSON lines."""

    __slots__ = ("lines",)

    def __init__(self, lines: List[bytes]) -> None:
        self.lines = lines


class _Handler(BaseHTTPRequestHandler):
    """Route one HTTP request into the service layer."""

    #: Injected by :class:`TagDMHttpServer` via ``type(...)`` below.
    tagdm_server: TagDMServer = None  # type: ignore[assignment]
    default_solve_timeout: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None

    protocol_version = "HTTP/1.1"
    # Responses are written as several small segments (status, headers,
    # body); with Nagle on, a keep-alive client's delayed ACK turns that
    # into ~40ms per response.
    disable_nagle_algorithm = True

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # a serving process wants that off the hot path (and tests quiet).
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _write_json(
        self,
        status: int,
        payload: Dict[str, object],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._write_body(status, "application/json", [body], extra_headers)

    def _write_body(
        self,
        status: int,
        content_type: str,
        chunks: List[bytes],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        truncate_at: Optional[int] = None
        if self.fault_plan is not None:
            if self.fault_plan.fire("http.post_write", path=self.path) == "truncate":
                # Advertise the full Content-Length, deliver half: the
                # client's read fails with IncompleteRead mid-body.
                truncate_at = sum(len(chunk) for chunk in chunks) // 2
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(sum(len(chunk) for chunk in chunks)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        # Written chunk-at-a-time so an NDJSON reader on the other end
        # starts parsing groups before the last one hits the socket.
        written = 0
        for chunk in chunks:
            if truncate_at is not None and written + len(chunk) > truncate_at:
                self.wfile.write(chunk[: truncate_at - written])
                self.close_connection = True
                return
            self.wfile.write(chunk)
            written += len(chunk)

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise SpecValidationError("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise SpecValidationError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
            )
        raw = self.rfile.read(length)
        self._body_unread = 0
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SpecValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SpecValidationError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    def _discard_unread_body(self) -> None:
        """Keep the HTTP/1.1 connection in sync before responding.

        An error path can respond before the request body was read
        (unknown route, oversized body, validation failure); on a
        keep-alive connection the unread bytes would then be parsed as
        the next request line.  Small remainders are drained; oversized
        ones close the connection instead of reading them all.
        """
        remaining = getattr(self, "_body_unread", 0)
        if remaining <= 0:
            return
        if remaining > MAX_BODY_BYTES:
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 1 << 16))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    def _dispatch(self, method: str) -> None:
        self._body_unread = int(self.headers.get("Content-Length", 0) or 0)
        extra_headers: Optional[Dict[str, str]] = None
        try:
            status, payload = self._route(method)
        except ApiError as error:
            status, payload = error.status, error.to_payload()
            retry_after = retry_after_header(error)
            if retry_after is not None:
                extra_headers = {"Retry-After": retry_after}
        except Exception as exc:  # a bug must answer 500, not drop the socket
            error = ApiError(f"{type(exc).__name__}: {exc}")
            status, payload = error.status, error.to_payload()
        self._discard_unread_body()
        if self.fault_plan is not None:
            action = self.fault_plan.fire(
                "http.pre_write", path=self.path, status=status
            )
            if action == "reset":
                # Close without writing a byte: the client sees its
                # response socket die (RemoteDisconnected), exactly like
                # a worker killed after applying but before answering.
                self.close_connection = True
                return
        if isinstance(payload, _NdjsonBody):
            self._write_body(status, "application/x-ndjson", payload.lines)
        else:
            self._write_json(status, payload, extra_headers)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str):
        path = self.path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            return 200, service.health(self.tagdm_server)
        if method == "GET" and path == "/corpora":
            return 200, {"corpora": service.list_corpora(self.tagdm_server)}
        match = _CORPUS_ROUTE.fullmatch(path)
        if match:
            # Clients percent-encode corpus names; decode so an unsafe
            # name answers "unknown corpus", not "unknown route".
            name = urllib.parse.unquote(match.group("name"))
            verb = match.group("verb")
            if method == "GET" and verb == "stats":
                return 200, service.corpus_stats(self.tagdm_server, name)
            if method == "POST" and verb == "insert":
                return 200, self._handle_insert(name)
            if method == "POST" and verb == "solve":
                return 200, self._handle_solve(name)
            if verb == "subscriptions":
                if method == "POST":
                    return 200, self._handle_register(name)
                if method == "GET":
                    return 200, {
                        "subscriptions": service.list_subscriptions(
                            self.tagdm_server, name
                        )
                    }
        sub_match = _SUBSCRIPTION_ROUTE.fullmatch(path)
        if sub_match and method == "GET":
            name = urllib.parse.unquote(sub_match.group("name"))
            sub_id = urllib.parse.unquote(sub_match.group("sub"))
            from_seq = self._from_seq_query()
            if sub_match.group("stream"):
                return 200, _NdjsonBody(
                    list(
                        service.subscription_ndjson_lines(
                            self.tagdm_server, name, sub_id, from_seq=from_seq
                        )
                    )
                )
            return 200, service.poll_subscription(
                self.tagdm_server, name, sub_id, from_seq=from_seq
            )
        raise UnknownRouteError(
            f"no route for {method} {path}",
            details={
                "routes": [
                    "GET /healthz",
                    "GET /corpora",
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

    def _idempotency_key(self) -> Optional[str]:
        """The request's validated ``Idempotency-Key`` header, if any."""
        key = self.headers.get("Idempotency-Key")
        if key is None:
            return None
        key = key.strip()
        if not key or len(key) > 200 or not key.isprintable():
            raise SpecValidationError(
                "Idempotency-Key must be 1-200 printable characters"
            )
        return key

    def _corpus_actions(self, corpus: str) -> Optional[int]:
        """Current action count of ``corpus`` (fault-rule context only)."""
        try:
            return self.tagdm_server.shard(corpus).session.dataset.n_actions
        except KeyError:
            return None

    def _handle_insert(self, corpus: str) -> Dict[str, object]:
        request_id = self._idempotency_key()
        payload = self._read_body()
        actions = payload.get("actions")
        if not isinstance(actions, list):
            raise SpecValidationError("insert body needs an 'actions' list")
        plan = self.fault_plan
        if plan is not None:
            plan.fire(
                "insert.pre_apply",
                corpus=corpus,
                n_actions=self._corpus_actions(corpus),
            )
        report = service.insert_actions(
            self.tagdm_server, corpus, actions, request_id=request_id
        )
        if plan is not None:
            plan.fire(
                "insert.applied",
                corpus=corpus,
                n_actions=self._corpus_actions(corpus),
            )
        return report.to_dict()

    def _handle_register(self, corpus: str) -> Dict[str, object]:
        request_id = self._idempotency_key()
        payload = self._read_body()
        return service.register_subscription(
            self.tagdm_server, corpus, payload, request_id=request_id
        )

    def _from_seq_query(self) -> int:
        """Decode the subscription routes' ``?from_seq=N`` parameter."""
        _, _, raw_query = self.path.partition("?")
        query = dict(urllib.parse.parse_qsl(raw_query))
        raw = query.get("from_seq", "1")
        try:
            return int(raw)
        except ValueError:
            raise SpecValidationError(
                f"from_seq must be an integer, got {raw!r}"
            ) from None

    def _solve_query(self) -> Tuple[Optional[PageSpec], bool]:
        """Decode the solve route's result-shaping query parameters."""
        _, _, raw_query = self.path.partition("?")
        query = dict(urllib.parse.parse_qsl(raw_query))
        stream = query.get("stream")
        if stream is not None and stream != "ndjson":
            raise SpecValidationError(
                f"stream must be 'ndjson', got {stream!r}"
            )
        page = PageSpec.from_query(query)
        if page is not None and stream is not None:
            raise SpecValidationError(
                "page/page_size and stream=ndjson are mutually exclusive"
            )
        return page, stream is not None

    def _handle_solve(self, corpus: str):
        page, stream = self._solve_query()
        payload = self._read_body()
        timeout = payload.pop("timeout_seconds", self.default_solve_timeout)
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, (int, float))
        ):
            raise SpecValidationError(
                f"timeout_seconds must be a number, got {timeout!r}"
            )
        spec = ProblemSpec.from_dict(payload)
        result_payload = service.solve_spec_payload(
            self.tagdm_server, corpus, spec, timeout=timeout, page=page
        )
        if stream:
            return _NdjsonBody(list(service.result_ndjson_lines(result_payload)))
        return result_payload

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")


class TagDMHttpServer:
    """Serve a :class:`TagDMServer` over HTTP on a background thread.

    Parameters
    ----------
    server:
        The warm-shard registry to expose.  Not owned: closing the
        front-end leaves the :class:`TagDMServer` (and its stores and
        rotators) running, so one process can expose the same registry
        over several transports at once.
    host / port:
        Bind address; ``port=0`` picks a free port (the default, right
        for tests and examples -- read :attr:`url` after construction).
    default_solve_timeout:
        Optional server-side compute budget (seconds) applied to solve
        requests that do not send ``timeout_seconds`` themselves.
    fault_plan:
        Optional :class:`~repro.serving.reliability.FaultPlan` armed on
        every handler (``http.pre_write`` / ``http.post_write`` /
        ``insert.pre_apply`` / ``insert.applied`` injection points);
        inert in production.

    Usage::

        with TagDMHttpServer(server) as front:
            client = HttpClient(front.url)
            client.solve("movies", ProblemSpec.from_problem(problem))
    """

    def __init__(
        self,
        server: TagDMServer,
        host: str = "127.0.0.1",
        port: int = 0,
        default_solve_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.server = server
        handler = type(
            "BoundTagDMHandler",
            (_Handler,),
            {
                "tagdm_server": server,
                "default_solve_timeout": default_solve_timeout,
                "fault_plan": fault_plan,
            },
        )
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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TagDMHttpServer":
        """Start the accept loop on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"tagdm-http-{self.address[1]}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests and release the socket (idempotent).

        In-flight handler threads finish their current response; the
        underlying :class:`TagDMServer` keeps serving in-process callers.
        """
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TagDMHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
