"""A zero-dependency HTTP front-end for :class:`~repro.service.QueryService`.

Built on the standard library's :class:`http.server.ThreadingHTTPServer`, so
``repro serve`` has no dependencies beyond Python itself: every connection is
handled on its own thread, and the service's plans are immutable after
preparation, so concurrent requests against one plan need no locking.

With a worker pool attached (``repro serve --workers N``), routable read ops
on published plans that ask for more than ``LOOP_LANE_MAX_ANSWERS`` answers
(the *worker* lane of :func:`repro.service.dispatch.choose_lane`)
short-circuit through
:meth:`~repro.service.service.QueryService.dispatch_raw`: the picked worker
process answers from its attached shared-memory image and returns pre-encoded
JSON bytes, which the connection thread writes verbatim — the master's
interpreter never touches the answer payload.  Everything else — smaller
reads, which finish before a worker could have been woken, and every request
the pool declines — runs inline exactly as without a pool.

Endpoints (all JSON):

* ``GET  /healthz``          — liveness: ``{"status": "ok"}``; with a pool,
  also triggers a worker health sweep (dead workers respawn) and reports
  ``{"pool": {"workers", "alive", "restarts"}}`` plus a per-worker state list.
* ``GET  /readyz``           — readiness: 200 only when every worker is
  attached at the current epoch and the pool is not draining; 503 otherwise,
  always with the structured per-worker/per-export detail in the body.
* ``GET  /debug/profile``    — merged folded-stack output from the sampling
  profiler (master + every worker), plain text, one ``stack count`` line per
  distinct stack — pipe into ``flamegraph.pl`` directly.
* ``GET  /metrics``          — Prometheus text exposition (the one non-JSON
  endpoint; gauges are refreshed from service state before rendering).  With
  a pool, each worker's ``repro_pool_worker_*`` families are scraped over the
  control pipes and appended, labeled with the worker id.
* ``GET  /v1/metrics``       — the same registry as JSON, plus the slow-query
  log (also reachable as op ``metrics``).
* ``GET  /v1/stats``         — cache/op counters (same shape as op ``stats``).
* ``GET  /v1/databases``     — registered database names.
* ``POST /v1/query``         — the generic request object (``{"op": ...}``).
* ``POST /v1/<op>``          — convenience: the path names the op, e.g.
  ``POST /v1/batch_access`` with ``{"plan": ..., "ks": [...]}``.
* ``POST /v1/insert`` / ``/v1/delete`` / ``/v1/compact`` — live-update
  mutations: ``{"db": ..., "relation": ..., "rows": [[...], ...]}`` insert
  or delete tuples (prepared plans re-bind to the new epoch on their next
  read); ``{"db": ...}`` compacts the database's cached plans.  Malformed
  mutations (unknown relation, wrong arity, unhashable values) answer a
  structured 400, never a 500.
* ``POST /v1/explain``       — the planner's decision trace for a query
  (classification, FD rewrites, order, layered tree, stage DAG); no database
  needed and nothing is built.
* ``POST /v1/databases``     — register: ``{"name": ..., "relations": {...}}``.

Error responses carry ``{"ok": false, "error": {"code", "message"}}`` with an
HTTP status derived from the error code (400/404/413/422/500/503;
:data:`~repro.service.protocol.STATUS_BY_CODE`) — and, like every response,
the request's trace id under ``"trace"`` when tracing is on, so a client
error report can be correlated with the server-side span tree (``repro trace
<id>``).  An ``overloaded`` shed from the build admission gate answers 503
with a ``Retry-After`` header.  Oversized request bodies answer a structured
413.  Every response is counted in the request metrics; error responses
additionally feed ``repro_http_errors_total{op,status}``.

Shutdown: :meth:`ServiceHTTPServer.drain` waits for in-flight requests after
``shutdown()`` stopped the accept loop — the ``repro serve`` signal handlers
use it so SIGTERM/SIGINT finish started work before the service closes (and
unlinks its published shared-memory blocks).
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional, Tuple

from repro.obs import HTTP_ERRORS, LANE_COUNTERS, METRICS
from repro.service.dispatch import choose_lane
from repro.service.protocol import STATUS_BY_CODE, error_response
from repro.service.service import QueryService

#: Backwards-compatible alias; the canonical table lives in the protocol
#: module so the worker-side encoder and this front-end cannot drift apart.
_STATUS_BY_CODE = STATUS_BY_CODE

#: Default maximum accepted request body (a registered database can be
#: sizeable); override per server with ``make_server(..., max_body=...)``.
_MAX_BODY = 64 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`."""

    daemon_threads = True
    # The socketserver default backlog of 5 resets bursts of concurrent
    # connects (a C-client fleet arriving at once overflows the accept
    # queue); match the event loop's listen depth.
    request_queue_size = 512

    def __init__(
        self,
        address: Tuple[str, int],
        service: QueryService,
        quiet: bool = True,
        max_body: int = _MAX_BODY,
        reuse_port: bool = False,
    ):
        # server_bind runs inside TCPServer.__init__, so the flag it reads
        # must be set first.
        self.reuse_port = reuse_port
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.quiet = quiet
        self.max_body = max_body
        self.header_timeout: Optional[float] = None
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition(self._inflight_lock)

    def server_bind(self) -> None:
        if self.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
                raise OSError("SO_REUSEPORT is not supported on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    # -- in-flight tracking (graceful drain) ---------------------------
    def request_started(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait (bounded) until no request is mid-handling; True when idle.

        Call after :meth:`shutdown` stopped the accept loop: connection
        threads are daemonic, so exiting without draining could cut a
        response mid-write.
        """
        deadline = time.monotonic() + timeout
        with self._inflight_lock:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Bound every socket read: a client announcing more bytes than it sends
    # must not pin a server thread forever in rfile.read().
    timeout = 60
    # Headers and body are written separately; without TCP_NODELAY, Nagle
    # holds the second segment until the client ACKs the first, which with
    # delayed ACKs stalls every keep-alive response by up to 40ms.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def handle_one_request(self) -> None:
        """One request off the keep-alive stream, with a structured 408.

        The stdlib implementation swallows ``socket.timeout`` silently, so a
        slow-loris client (partial headers, then nothing) would just see its
        connection dropped.  Distinguish the cases: a timeout before a
        complete request line arrived is an idle keep-alive connection going
        away (close silently, same as before), while a timeout once the
        request line was read — i.e. mid-headers — answers ``408 Request
        Timeout`` with ``Connection: close`` so well-behaved clients can
        tell patience ran out from the server crashing.
        """
        per_server = getattr(self.server, "header_timeout", None)
        if per_server is not None:
            self.connection.settimeout(per_server)
        try:
            self.raw_requestline = self.rfile.readline(65537)
            if len(self.raw_requestline) > 65536:
                self.requestline = ""
                self.request_version = ""
                self.command = ""
                self.send_error(414)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self.parse_request():
                return
            method_name = "do_" + self.command
            if not hasattr(self, method_name):
                self.close_connection = True
                self._respond_client_error(501, error_response(
                    "not_implemented",
                    f"method {self.command!r} is not supported"))
                return
            getattr(self, method_name)()
            self.wfile.flush()
        except socket.timeout:
            # Stream-level timeout.  If we had already read this request's
            # request line, the client deserves a 408.
            self.close_connection = True
            partial = getattr(self, "raw_requestline", b"")
            if partial:
                try:
                    self._respond_client_error(408, error_response(
                        "timeout",
                        "timed out waiting for the complete request"))
                except OSError:
                    pass
            self.log_error("Request timed out")

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self.server.request_started()
        try:
            self._do_get()
        finally:
            self.server.request_finished()

    def _do_get(self) -> None:
        if self.path == "/healthz":
            payload: Dict[str, object] = {"status": "ok"}
            pool = getattr(self.server.service, "pool", None)
            if pool is not None and pool.running:
                # The liveness probe doubles as the supervision tick: dead
                # workers (e.g. kill -9) are detected and respawned here.
                payload["pool"] = pool.check_health()
                payload["workers"] = pool.readiness().get("workers", [])
            self._respond(200, payload)
        elif self.path == "/readyz":
            document = self.server.service.readiness()
            self._respond(200 if document.get("ready") else 503, document)
        elif self.path == "/debug/profile":
            body = self.server.service.profile_folded().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/metrics":
            self._respond_prometheus()
        elif self.path == "/v1/metrics":
            self._dispatch({"op": "metrics"})
        elif self.path == "/v1/stats":
            self._dispatch({"op": "stats"})
        elif self.path == "/v1/databases":
            self._dispatch({"op": "databases"})
        else:
            self._respond_client_error(
                404, error_response("bad_request", f"unknown path {self.path!r}")
            )

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self.server.request_started()
        try:
            self._do_post()
        finally:
            self.server.request_finished()

    def _do_post(self) -> None:
        request = self._read_json()
        if request is None:
            return
        if self.path in ("/v1/query", "/v1"):
            self._dispatch(request)
        elif self.path == "/v1/databases":
            self._dispatch({**request, "op": "register"})
        elif self.path.startswith("/v1/"):
            op = self.path[len("/v1/"):].strip("/")
            self._dispatch({**request, "op": op})
        else:
            self._respond_client_error(
                404, error_response("bad_request", f"unknown path {self.path!r}")
            )

    # ------------------------------------------------------------------
    def _dispatch(self, request: Mapping) -> None:
        # The event loop's lane rule (repro.service.dispatch.choose_lane);
        # here "loop" and "executor" both mean this handler thread, so the
        # rule only keeps a small read from paying the worker hop.
        service = self.server.service
        _plan, reader, published = service.pinned(request)
        lane = choose_lane(request, reader, published)
        LANE_COUNTERS[lane].inc()
        routed = service.dispatch_raw(request) if lane == "worker" else None
        if routed is not None:
            status, body, trace_id = routed
            if status >= 400:
                op = request.get("op")
                HTTP_ERRORS.inc((op if isinstance(op, str) else "invalid", str(status)))
            self._respond_bytes(status, body, trace_id=trace_id)
            return
        response = service.execute(request, reader if lane == "loop" else None)
        if response.get("ok"):
            self._respond(200, response)
        else:
            code = response.get("error", {}).get("code", "bad_request")
            status = _STATUS_BY_CODE.get(code, 400)
            op = request.get("op")
            HTTP_ERRORS.inc((op if isinstance(op, str) else "invalid", str(status)))
            self._respond(status, response)

    def _respond_prometheus(self) -> None:
        """``GET /metrics``: the registry in Prometheus text exposition format."""
        service = self.server.service
        service.update_gauges()
        text = METRICS.render_prometheus()
        pool = getattr(service, "pool", None)
        if pool is not None and pool.running:
            # Worker families are disjoint from the master's (all named
            # repro_pool_worker_*), so appending them keeps the document valid.
            text += pool.render_worker_metrics()
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_client_error(self, status: int, payload: Dict[str, object]) -> None:
        """An error answered before any op was dispatched (no op label)."""
        HTTP_ERRORS.inc(("invalid", str(status)))
        self._respond(status, payload)

    def _read_json(self) -> Optional[Mapping]:
        max_body = getattr(self.server, "max_body", _MAX_BODY)
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            # An unread chunked body would desync the keep-alive stream, and
            # decoding it is not worth it for a JSON-object protocol.
            self.close_connection = True
            self._respond_client_error(501, error_response(
                "not_implemented",
                "Transfer-Encoding: chunked is not supported; "
                "send a Content-Length body",
            ))
            return None
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self.close_connection = True
            self._respond_client_error(411, error_response(
                "length_required",
                "POST requests need a Content-Length header",
            ))
            return None
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            length = 0
        if length <= 0 or length > max_body:
            # The body (if any) is not drained, so the keep-alive stream would
            # desync — the unread bytes would parse as the next request line.
            self.close_connection = True
            if length > max_body:
                self._respond_client_error(413, error_response(
                    "payload_too_large",
                    f"request body of {length} bytes exceeds the {max_body}-byte limit",
                ))
            else:
                self._respond_client_error(400, error_response(
                    "bad_request", "request needs a JSON body (Content-Length)"
                ))
            return None
        try:
            body = self.rfile.read(length)
        except socket.timeout:  # announced more bytes than it sent
            self.close_connection = True
            try:
                self._respond_client_error(408, error_response(
                    "timeout", "timed out waiting for the complete request"))
            except OSError:
                pass
            return None
        except OSError:  # reset mid-body: the client is gone
            self.close_connection = True
            return None
        if len(body) < length:  # short read (client closed early)
            self.close_connection = True
            return None
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._respond_client_error(
                400, error_response("bad_request", f"invalid JSON body: {exc}")
            )
            return None
        if not isinstance(request, Mapping):
            self._respond_client_error(
                400, error_response("bad_request", "request body must be a JSON object")
            )
            return None
        return request

    def _respond(self, status: int, payload: Dict[str, object]) -> None:
        try:
            body = json.dumps(payload).encode("utf-8")
        except (TypeError, ValueError) as exc:
            # Non-JSON-representable answer values: report instead of crashing
            # the connection thread.
            status = 500
            body = json.dumps(
                error_response("internal", f"response not JSON-representable: {exc}")
            ).encode("utf-8")
        retry_after = None
        if status == 503 and isinstance(payload, Mapping):
            error = payload.get("error")
            if isinstance(error, Mapping):
                retry_after = error.get("retry_after")
        self._respond_bytes(status, body, retry_after=retry_after)

    def _respond_bytes(
        self, status: int, body: bytes, retry_after: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        """Write a pre-encoded JSON body (the worker-routed fast path)."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        if trace_id is not None:
            # Routed bodies are worker-encoded and passed through verbatim, so
            # the stitched trace id travels in a header instead of the JSON.
            self.send_header("X-Repro-Trace", trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_body: int = _MAX_BODY,
    reuse_port: bool = False,
    io_loop: str = "threaded",
    header_timeout: Optional[float] = None,
    max_connections: int = 1024,
):
    """Bind (but do not run) a server; ``port=0`` picks a free port.

    The bound port is ``server.server_address[1]`` — tests and scripts can
    start the server on an ephemeral port and discover it afterwards.
    ``reuse_port`` sets ``SO_REUSEPORT`` before binding, so several
    independent ``repro serve`` processes can share one port and let the
    kernel spread connections (see the README's multi-process section for
    the caveats versus ``--workers``).

    ``io_loop`` selects the front-end: ``"threaded"`` (this module's
    thread-per-connection server) or ``"event"`` (the selectors-based
    non-blocking loop in :mod:`repro.service.eventloop`).  Both expose the
    same lifecycle surface, so callers need no other change — the flag
    exists precisely so regressions can be bisected by switching it.
    """
    if io_loop == "event":
        from repro.service.eventloop import EventLoopHTTPServer

        return EventLoopHTTPServer(
            (host, port), service, quiet=quiet, max_body=max_body,
            reuse_port=reuse_port, max_connections=max_connections,
            header_timeout=header_timeout if header_timeout is not None else 30.0,
        )
    if io_loop != "threaded":
        raise ValueError(f"unknown io_loop {io_loop!r}; expected 'threaded' or 'event'")
    server = ServiceHTTPServer(
        (host, port), service, quiet=quiet, max_body=max_body, reuse_port=reuse_port
    )
    server.header_timeout = header_timeout
    return server


def run_server(server: ServiceHTTPServer) -> None:
    """Run a bound server until interrupted, then close it cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()


def serve(
    service: QueryService, host: str = "127.0.0.1", port: int = 8734, quiet: bool = True
) -> None:
    """Run the front-end until interrupted (the ``repro serve`` entry point)."""
    run_server(make_server(service, host, port, quiet=quiet))
