"""The HTTP front-end of the query service: a selectors-based event loop.

``repro serve`` runs one **single-threaded event loop** instead of one OS
thread per connection, so an idle keep-alive socket costs no thread, a
worker round-trip blocks nobody, and concurrency is bounded by CPU work
rather than by thread count:

* One ``selectors.DefaultSelector`` owns the listening socket, every client
  connection, the worker pool's serve sockets, and a self-pipe for
  executor completions — all non-blocking.
* Each connection runs a small state machine: incremental HTTP/1.1 header
  parsing, bounded body buffering, keep-alive and pipelining (strictly
  in-order responses, one in-flight request per connection), and slow-client
  write buffering via ``memoryview`` slices.
* Each request takes one of three **lanes**, chosen from what the request and
  the plan show (:func:`repro.service.dispatch.choose_lane`):

  - *loop*: a read of at most ``LOOP_LANE_MAX_ANSWERS`` answers on a cached
    plan whose served view is current runs to completion right here, on the
    loop thread, against a reader pinned together with the epoch check — it
    cannot sync, rebuild or compact, and nobody is woken to serve it.
  - *worker*: a larger routable read on a published plan is written to a
    pool worker as a length-prefixed frame and the connection **suspends** —
    no thread waits.  When the worker's reply frame arrives, the pre-encoded
    JSON body bytes are passed through to the client socket verbatim
    (vectored ``sendmsg`` of header + body; the master never parses,
    re-serializes, or even copies the payload).
  - *executor*: everything that can build, refresh, rebuild, compact, scrape
    or block — plan builds, mutations, the first read after a write, metrics
    scrapes, ``/healthz`` health sweeps — goes to a small
    :class:`~concurrent.futures.ThreadPoolExecutor`, so the loop never
    stalls behind one slow request.
* Pipelined requests are drained iteratively, a bounded burst per connection
  per selector round, and an unexpected exception in one event's handler
  costs that connection, never the loop.
* Protocol edges answer structured errors: header-read timeouts → 408
  (``Connection: close``), connection cap → 503, ``Transfer-Encoding:
  chunked`` → 501, missing ``Content-Length`` → 411, a malformed or
  conflicting ``Content-Length`` → 400, oversized bodies → 413.

Endpoints (JSON unless noted):

* ``GET  /healthz`` — liveness; with a pool, also a worker health sweep (dead
  workers respawn) and per-worker state.
* ``GET  /readyz`` — 200 only when every worker is attached at the current
  epoch and the pool is not draining; 503 otherwise, with the detail.
* ``GET  /debug/profile`` — merged folded stacks of the sampling profiler
  (master + every worker), plain text, ready for ``flamegraph.pl``.
* ``GET  /metrics`` — Prometheus text exposition, with each worker's
  ``repro_pool_worker_*`` families appended.
* ``GET  /v1/metrics``, ``/v1/stats``, ``/v1/databases`` — the ops of the
  same names.
* ``POST /v1/query`` — the generic request object (``{"op": ...}``);
  ``POST /v1/<op>`` names the op in the path; ``POST /v1/databases``
  registers a database.

Error bodies are ``{"ok": false, "error": {"code", "message"}}`` with the
status from :data:`~repro.service.protocol.STATUS_BY_CODE`; an
``overloaded`` shed adds ``Retry-After``.

Observability: the loop exports ``repro_loop_lag_seconds`` (heartbeat
scheduling delay), ``repro_loop_open_connections`` /
``repro_loop_active_requests`` gauges, per-state timing
(``repro_loop_state_seconds{state=read|dispatch|serve|write}``), lifecycle
counters (``repro_loop_events_total``) and the lane split
(``repro_loop_lane_total{lane}``).  Every request carries a trace whose root
names its ``lane``: inline responses embed their trace id as usual and the
loop attaches ``loop:read`` / ``loop:queue`` (executor lane) / ``loop:write``
spans once the response is written; routed responses (whose bodies are
worker-encoded and must not be touched) return the id in an
``X-Repro-Trace`` header, with queue-wait vs worker-time vs write-time spans
visible via ``repro trace <id>``.

Lifecycle: :func:`make_server` binds, ``serve_forever`` runs the loop (usually
on a dedicated thread), ``shutdown`` stops accepting and lets in-flight
requests finish (bounded), then ``server_close``.
"""

from __future__ import annotations

import email.utils
import json
import logging
import math
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs import (
    HTTP_ERRORS,
    LANE_COUNTERS,
    LOOP_ACTIVE_REQUESTS,
    LOOP_EVENTS,
    LOOP_LAG,
    LOOP_OPEN_CONNECTIONS,
    LOOP_STATE_SECONDS,
    METRICS,
    TRACER,
)
from repro.service.dispatch import choose_lane
from repro.service.protocol import STATUS_BY_CODE, error_response
from repro.service.service import QueryService

_MAX_BODY = 64 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024
_RECV_CHUNK = 262144
#: Read interest is dropped for a connection whose buffered-but-unparsed
#: bytes exceed this while a request is in flight (pipelining backpressure).
_PIPELINE_BUFFER_CAP = 1 * 1024 * 1024
#: Requests one connection may have parsed and dispatched per selector round;
#: the rest of its pipeline waits a round, so one client cannot starve others.
_PIPELINE_BURST = 16
_HEARTBEAT = 0.5

_JSON_TYPE = "application/json"
_SERVER_NAME = "repro-serve/1"

_LOG = logging.getLogger(__name__)

# The series the loop feeds on every request, bound once (no per-request
# label validation); the rare lifecycle events go through LOOP_EVENTS.inc.
_STATE_READ = LOOP_STATE_SECONDS.bind(("read",))
_STATE_DISPATCH = LOOP_STATE_SECONDS.bind(("dispatch",))
_STATE_SERVE = LOOP_STATE_SECONDS.bind(("serve",))
_STATE_WRITE = LOOP_STATE_SECONDS.bind(("write",))
_EVENT_KEEPALIVE = LOOP_EVENTS.bind(("keepalive",))


def _status_line(status: int) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    return f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1")


class _Response:
    """A computed response waiting to be written back on the loop."""

    __slots__ = ("status", "body", "content_type", "retry_after", "trace_id",
                 "close", "queue_seconds")

    def __init__(self, status: int, body: bytes,
                 content_type: str = _JSON_TYPE,
                 retry_after: Optional[float] = None,
                 trace_id: Optional[str] = None,
                 close: bool = False) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.retry_after = retry_after
        self.trace_id = trace_id
        self.close = close
        #: Executor lane: submit → job start (the ``loop:queue`` span).
        self.queue_seconds: Optional[float] = None


class _Connection:
    """Per-client state machine: buffer, parse cursor, in-flight request."""

    __slots__ = (
        "sock", "fd", "buffer", "out", "closed", "close_after_write",
        "in_flight", "active", "queued", "reading", "want_write", "registered",
        "last_activity", "request_started", "t_parsed", "t_dispatched",
        "method", "path", "headers", "content_length", "headers_parsed",
        "trace", "trace_id", "op", "lane", "read_seconds", "queue_seconds",
        "routed_request", "routed_started",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.buffer = bytearray()
        self.out: Deque[memoryview] = deque()
        self.closed = False
        self.close_after_write = False
        self.in_flight = False
        self.active = False       # counted in the server's _active_requests
        self.queued = False       # on the server's ready list
        self.reading = True       # read interest wanted
        self.want_write = False   # write interest wanted
        self.registered = selectors.EVENT_READ  # mask the selector holds
        self.last_activity = time.monotonic()
        self.request_started: Optional[float] = None
        self.t_parsed = 0.0
        self.t_dispatched = 0.0
        self.method = ""
        self.path = ""
        self.headers: Dict[str, str] = {}
        self.content_length = 0
        self.headers_parsed = False
        self.trace = None         # RequestTrace for routed requests
        self.trace_id: Optional[str] = None
        self.op: Optional[str] = None
        self.lane: Optional[str] = None
        self.read_seconds = 0.0
        self.queue_seconds: Optional[float] = None
        #: The routed request + its parse-completion time, kept so the
        #: write-complete hook can feed the slow-query log with the full
        #: queue + worker + write duration (routed reads bypass execute()).
        self.routed_request: Optional[Mapping] = None
        self.routed_started = 0.0

    def reset_request(self) -> None:
        self.in_flight = False
        self.request_started = None
        self.t_parsed = 0.0
        self.t_dispatched = 0.0
        self.method = ""
        self.path = ""
        self.headers = {}
        self.content_length = 0
        self.headers_parsed = False
        self.trace = None
        self.trace_id = None
        self.op = None
        self.lane = None
        self.read_seconds = 0.0
        self.queue_seconds = None
        self.routed_request = None
        self.routed_started = 0.0


class _WorkerChannel:
    """A pool worker's serve socket as seen by the loop (non-blocking)."""

    __slots__ = ("worker", "sock", "buffer", "out", "pending", "registered")

    def __init__(self, worker, sock: socket.socket) -> None:
        self.worker = worker
        self.sock = sock
        self.buffer = bytearray()
        self.out: Deque[memoryview] = deque()
        self.registered = selectors.EVENT_READ  # mask the selector holds
        #: seq → (connection, request, dispatched_at)
        self.pending: Dict[int, Tuple[_Connection, Mapping, float]] = {}


class EventLoopHTTPServer:
    """Single-threaded non-blocking front-end over one :class:`QueryService`.

    Bind at construction, run with :meth:`serve_forever` (usually on a
    dedicated thread), stop with :meth:`shutdown`, then :meth:`server_close`.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        service: QueryService,
        max_body: int = _MAX_BODY,
        reuse_port: bool = False,
        max_connections: int = 1024,
        header_timeout: float = 30.0,
        idle_timeout: float = 120.0,
        executor_threads: int = 4,
        drain_grace: float = 10.0,
    ) -> None:
        self.service = service
        self.max_body = max_body
        self.max_connections = max_connections
        self.header_timeout = header_timeout
        self.idle_timeout = idle_timeout
        self.drain_grace = drain_grace

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
                listener.close()
                raise OSError("SO_REUSEPORT is not supported on this platform")
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            listener.bind(address)
            listener.listen(512)
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        self._listener: Optional[socket.socket] = listener
        self.server_address = listener.getsockname()

        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, ("listen", None))
        # Self-pipe: executor threads and shutdown() wake the selector.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                ("wake", None))

        self._executor = ThreadPoolExecutor(
            max_workers=max(1, executor_threads),
            thread_name_prefix="repro-loop",
        )
        self._completions: Deque[Tuple[_Connection, object]] = deque()
        self._completions_lock = threading.Lock()
        #: Connections holding parsed-but-undispatched pipelined input.
        self._ready: Deque[_Connection] = deque()

        self._connections: Dict[int, _Connection] = {}
        self._channels: Dict[int, _WorkerChannel] = {}
        self._active_requests = 0
        self._shutdown_requested = False
        self._shutdown_at: Optional[float] = None
        self._done = threading.Event()
        self._done.set()  # not running yet
        self._closed = False
        self._date_second = 0
        self._date_bytes = b""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._active_requests

    def serve_forever(self, poll_interval: Optional[float] = None) -> None:
        """Run the loop until :meth:`shutdown`; call on a dedicated thread."""
        self._done.clear()
        next_beat = time.monotonic() + _HEARTBEAT
        try:
            while True:
                timeout = 0.0 if self._ready else max(
                    0.0, next_beat - time.monotonic())
                events = self._selector.select(timeout)
                now = time.monotonic()
                for key, mask in events:
                    kind, payload = key.data
                    try:
                        if kind == "conn":
                            if mask & selectors.EVENT_READ:
                                self._on_conn_readable(payload, now)
                            if mask & selectors.EVENT_WRITE and not payload.closed:
                                self._flush_out(payload)
                        elif kind == "worker":
                            if mask & selectors.EVENT_READ:
                                self._on_channel_readable(payload, now)
                            if mask & selectors.EVENT_WRITE:
                                self._flush_channel(payload)
                        elif kind == "listen":
                            self._on_accept(now)
                        else:  # wake
                            self._drain_wake_pipe()
                    except Exception:
                        self._handler_failed(kind, payload)
                self._run_completions(now)
                self._run_ready(now)
                if now >= next_beat:
                    lag = now - next_beat
                    next_beat = now + _HEARTBEAT
                    self._heartbeat(now, lag)
                if self._shutdown_requested and self._shutdown_drained(now):
                    break
        finally:
            self._teardown()
            self._done.set()

    def shutdown(self) -> None:
        """Stop accepting, finish in-flight work (bounded), exit the loop."""
        self._shutdown_requested = True
        self._wake()
        self._done.wait(self.drain_grace + 5.0)

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until the loop exited (shutdown implies drained)."""
        return self._done.wait(timeout)

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        if self._done.is_set():
            # Loop not running: release the rest of the resources here.
            try:
                self._selector.close()
            except (OSError, RuntimeError):
                pass
            for sock in (self._wake_recv, self._wake_send):
                try:
                    sock.close()
                except OSError:
                    pass
            self._executor.shutdown(wait=False)

    def _shutdown_drained(self, now: float) -> bool:
        if self._shutdown_at is None:
            self._shutdown_at = now
            listener = self._listener
            if listener is not None:
                try:
                    self._selector.unregister(listener)
                except (KeyError, ValueError):
                    pass
            # Idle keep-alive connections have nothing owed to them.
            for conn in list(self._connections.values()):
                if not conn.in_flight and not conn.out:
                    self._close_connection(conn)
        busy = self._active_requests > 0 or any(
            conn.out for conn in self._connections.values()
        )
        return not busy or (now - self._shutdown_at) > self.drain_grace

    def _teardown(self) -> None:
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        for channel in list(self._channels.values()):
            self._drop_channel(channel, fail_pending=False)
        try:
            self._selector.close()
        except (OSError, RuntimeError):
            pass
        for sock in (self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:
                pass
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        self._executor.shutdown(wait=False)
        LOOP_OPEN_CONNECTIONS.set(0)
        LOOP_ACTIVE_REQUESTS.set(0)

    def _handler_failed(self, kind: str, payload) -> None:
        """An unexpected exception escaped one event's handler: give up that
        connection (or worker channel, failing its frames over), never the
        loop — every other client keeps being served."""
        _LOG.exception("event-loop %s handler failed", kind)
        LOOP_EVENTS.inc(("handler_error",))
        if kind == "conn":
            self._abandon_request(payload)
            self._close_connection(payload)
        elif kind == "worker":
            self._drop_channel(payload)

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # pipe full → the loop is already waking up

    def _drain_wake_pipe(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    # ------------------------------------------------------------------
    # Accept / close
    # ------------------------------------------------------------------
    def _on_accept(self, now: float) -> None:
        listener = self._listener
        if listener is None:
            return
        while True:
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if self._shutdown_requested:
                sock.close()
                continue
            if len(self._connections) >= self.max_connections:
                self._refuse_connection(sock)
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test doubles
                pass
            conn = _Connection(sock)
            conn.last_activity = now
            self._connections[conn.fd] = conn
            self._selector.register(sock, selectors.EVENT_READ, ("conn", conn))
            LOOP_EVENTS.inc(("accept",))
            LOOP_OPEN_CONNECTIONS.set(len(self._connections))

    def _refuse_connection(self, sock: socket.socket) -> None:
        """Over the cap: answer a structured 503 and close (best effort)."""
        LOOP_EVENTS.inc(("overflow",))
        HTTP_ERRORS.inc(("invalid", "503"))
        body = json.dumps(error_response(
            "overloaded",
            f"connection limit of {self.max_connections} reached",
            retry_after=1.0,
        )).encode("utf-8")
        header = (_status_line(503)
                  + b"Content-Type: application/json\r\n"
                  + b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                  + b"Retry-After: 1\r\nConnection: close\r\n\r\n")
        try:
            sock.setblocking(False)
            sock.send(header + body)
        except OSError:
            pass
        finally:
            sock.close()

    def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._connections.pop(conn.fd, None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        LOOP_OPEN_CONNECTIONS.set(len(self._connections))

    # ------------------------------------------------------------------
    # Client socket readiness
    # ------------------------------------------------------------------
    def _set_interest(self, conn: _Connection) -> None:
        if conn.closed:
            return
        mask = 0
        if conn.reading:
            mask |= selectors.EVENT_READ
        if conn.want_write:
            mask |= selectors.EVENT_WRITE
        if mask == conn.registered:
            return  # nothing changed: no epoll_ctl
        conn.registered = mask
        try:
            if mask == 0:
                # Backpressured mid-request: stop watching entirely — the
                # client blocks in its own kernel buffer until we respond.
                try:
                    self._selector.unregister(conn.sock)
                except KeyError:
                    pass
                return
            try:
                self._selector.modify(conn.sock, mask, ("conn", conn))
            except KeyError:
                self._selector.register(conn.sock, mask, ("conn", conn))
        except (ValueError, OSError):
            self._close_connection(conn)

    def _on_conn_readable(self, conn: _Connection, now: float) -> None:
        if conn.closed:
            return
        was_empty = not conn.buffer
        while True:
            try:
                chunk = conn.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except (ConnectionResetError, OSError):
                LOOP_EVENTS.inc(("reset",))
                self._close_connection(conn)
                return
            if not chunk:
                # Orderly close.  If a response is still being computed the
                # suspended work completes and is discarded (closed flag).
                self._close_connection(conn)
                return
            conn.buffer += chunk
            if len(chunk) < _RECV_CHUNK:
                break
        conn.last_activity = now
        if was_empty and conn.buffer and conn.request_started is None:
            conn.request_started = now
        if not conn.queued:  # else _run_ready pumps it this very round
            self._pump(conn, now)

    # ------------------------------------------------------------------
    # HTTP state machine
    # ------------------------------------------------------------------
    def _pump(self, conn: _Connection, now: float) -> None:
        """Parse and dispatch buffered requests, one after the other while
        each is answered on the spot (loop lane, loop-answered errors) — at
        most :data:`_PIPELINE_BURST` per call; what is left of the pipeline
        is queued for the next selector round."""
        conn.queued = True  # keeps _response_written from queueing it meanwhile
        for _ in range(_PIPELINE_BURST):
            if not self._advance(conn, now) or not conn.buffer:
                break
            now = time.monotonic()  # the select-time clock is stale by now
        else:
            self._ready.append(conn)
            return
        conn.queued = False

    def _run_ready(self, now: float) -> None:
        # Only what was queued before this pass: a connection re-queued by
        # its own burst waits for the next round, behind everyone's events.
        for _ in range(len(self._ready)):
            conn = self._ready.popleft()
            try:
                self._pump(conn, now)
            except Exception:
                self._handler_failed("conn", conn)

    def _advance(self, conn: _Connection, now: float) -> bool:
        """Parse and dispatch the next buffered request if ordering allows;
        whether one was dispatched."""
        if conn.closed or conn.in_flight:
            # Pipelined bytes wait; drop read interest past the cap so a
            # flooding client blocks in its own kernel buffer, not our RAM.
            if (conn.in_flight and conn.reading
                    and len(conn.buffer) > _PIPELINE_BUFFER_CAP):
                conn.reading = False
                self._set_interest(conn)
            return False
        if not conn.headers_parsed:
            if not self._parse_headers(conn, now):
                return False
        if len(conn.buffer) < conn.content_length:
            return False  # body still arriving
        body = bytes(conn.buffer[:conn.content_length])
        del conn.buffer[:conn.content_length]
        conn.in_flight = conn.active = True
        conn.t_parsed = now
        if conn.request_started is not None:
            conn.read_seconds = now - conn.request_started
            _STATE_READ.observe(conn.read_seconds)
        self._active_requests += 1
        LOOP_ACTIVE_REQUESTS.set(self._active_requests)
        self._dispatch(conn, body, now)
        return True

    def _parse_headers(self, conn: _Connection, now: float) -> bool:
        end = conn.buffer.find(b"\r\n\r\n")
        if end < 0:
            if len(conn.buffer) > _MAX_HEADER_BYTES:
                self._respond_error(conn, 400, "bad_request",
                                    "request header section too large",
                                    close=True)
            return False
        head = bytes(conn.buffer[:end]).decode("latin-1")
        del conn.buffer[:end + 4]
        lines = head.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            self._respond_error(conn, 400, "bad_request",
                                f"malformed request line {lines[0]!r}",
                                close=True)
            return False
        conn.method, conn.path, version = parts
        headers: Dict[str, str] = {}
        conflicting_length = False
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                name, value = name.strip().lower(), value.strip()
                if name == "content-length" and headers.get(name, value) != value:
                    conflicting_length = True
                headers[name] = value
        conn.headers = headers
        conn.headers_parsed = True
        # Keep-alive: HTTP/1.1 default-on, HTTP/1.0 default-off.
        connection_token = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            conn.close_after_write = connection_token != "keep-alive"
        else:
            conn.close_after_write = connection_token == "close"
        if conn.method not in ("GET", "POST"):
            self._respond_error(
                conn, 501, "not_implemented",
                f"method {conn.method!r} is not supported", close=True)
            return False
        if "chunked" in headers.get("transfer-encoding", "").lower():
            # An unread chunked body would desync the keep-alive stream.
            self._respond_error(
                conn, 501, "not_implemented",
                "Transfer-Encoding: chunked is not supported; "
                "send a Content-Length body", close=True)
            return False
        # RFC 9112 §6.3: several differing Content-Length values, or one
        # that is not 1*DIGIT, leave the framing unknowable — refuse, close.
        if conflicting_length:
            self._respond_error(conn, 400, "bad_request",
                                "conflicting Content-Length values", close=True)
            return False
        raw_length = headers.get("content-length")
        if raw_length is None:
            if conn.method == "POST":
                self._respond_error(
                    conn, 411, "length_required",
                    "POST requests need a Content-Length header", close=True)
                return False
            conn.content_length = 0
        elif raw_length.isascii() and raw_length.isdigit():
            conn.content_length = int(raw_length)
        else:
            self._respond_error(conn, 400, "bad_request",
                                f"invalid Content-Length {raw_length!r}",
                                close=True)
            return False
        if conn.content_length > self.max_body:
            self._respond_error(conn, 413, "payload_too_large",
                                f"request body of {conn.content_length} bytes "
                                f"exceeds the {self.max_body}-byte limit",
                                close=True)
            return False
        if conn.method == "POST" and conn.content_length == 0:
            self._respond_error(conn, 400, "bad_request",
                                "request needs a JSON body (Content-Length)",
                                close=True)
            return False
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, body: bytes, now: float) -> None:
        method, path = conn.method, conn.path
        if method == "GET":
            if path == "/healthz":
                self._submit(conn, self._job_healthz)
            elif path == "/readyz":
                self._submit(conn, self._job_readyz)
            elif path == "/debug/profile":
                self._submit(conn, self._job_profile)
            elif path == "/metrics":
                self._submit(conn, self._job_prometheus)
            elif path == "/v1/metrics":
                self._dispatch_request(conn, {"op": "metrics"}, now)
            elif path == "/v1/stats":
                self._dispatch_request(conn, {"op": "stats"}, now)
            elif path == "/v1/databases":
                self._dispatch_request(conn, {"op": "databases"}, now)
            else:
                self._finish_with_error(conn, 404, "bad_request",
                                        f"unknown path {path!r}")
            return
        # POST: decode the JSON body on the loop (cheap), route by path.
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._finish_with_error(conn, 400, "bad_request",
                                    f"invalid JSON body: {exc}")
            return
        if not isinstance(request, Mapping):
            self._finish_with_error(conn, 400, "bad_request",
                                    "request body must be a JSON object")
            return
        if path in ("/v1/query", "/v1"):
            pass
        elif path == "/v1/databases":
            request = {**request, "op": "register"}
        elif path.startswith("/v1/"):
            request = {**request, "op": path[len("/v1/"):].strip("/")}
        else:
            self._finish_with_error(conn, 404, "bad_request",
                                    f"unknown path {path!r}")
            return
        self._dispatch_request(conn, request, now)

    def _dispatch_request(self, conn: _Connection, request: Mapping,
                          now: float) -> None:
        """Serve on the lane the request and its plan call for."""
        op = request.get("op")
        conn.op = op if isinstance(op, str) else "invalid"
        service = self.service
        plan, reader, published = service.pinned(request)
        lane = choose_lane(request, reader, published)
        if lane == "loop":
            # Answered right here against the pinned reader: no sync, no
            # build, no wake-up (and so nothing to suspend the connection on).
            conn.lane = lane
            LANE_COUNTERS[lane].inc()
            conn.t_dispatched = started = time.monotonic()
            _STATE_DISPATCH.observe(started - conn.t_parsed)
            self._finish_request(conn, self._job_execute(request, reader),
                                 time.monotonic())
            return
        if lane == "worker":
            pool = service.pool
            fingerprint = plan.fingerprint
            epoch = plan.engine.base_epoch
            if pool.export_current(fingerprint, epoch):
                worker = pool.route(fingerprint, epoch, load=self._channel_load)
                if worker is not None and self._send_to_worker(
                        worker, conn, request, now):
                    return
            else:
                # Exports catch up off-loop; this request serves inline.
                self._executor.submit(self._safe_ensure_export, pool, plan)
        self._submit(conn, self._job_execute, request)

    def _safe_ensure_export(self, pool, plan) -> None:
        try:
            pool.ensure_export(plan)
        except Exception:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    # Executor plumbing
    # ------------------------------------------------------------------
    def _submit(self, conn: _Connection, job, *args) -> None:
        conn.lane = "executor"
        LANE_COUNTERS["executor"].inc()
        conn.t_dispatched = time.monotonic()
        _STATE_DISPATCH.observe(conn.t_dispatched - conn.t_parsed)
        try:
            future = self._executor.submit(
                self._run_job, conn.t_dispatched, job, *args)
        except RuntimeError:  # shutting down
            self._finish_with_error(conn, 503, "overloaded",
                                    "server is shutting down")
            return
        future.add_done_callback(
            lambda fut, conn=conn: self._complete(conn, fut))

    def _complete(self, conn: _Connection, future) -> None:
        """Executor thread → loop: queue the result and wake the selector."""
        exc = future.exception()
        if exc is not None:
            result = _Response(500, json.dumps(error_response(
                "internal", f"{type(exc).__name__}: {exc}")).encode("utf-8"))
        else:
            result = future.result()
        with self._completions_lock:
            self._completions.append((conn, result))
        self._wake()

    def _run_completions(self, now: float) -> None:
        while True:
            with self._completions_lock:
                if not self._completions:
                    return
                conn, response = self._completions.popleft()
            try:
                self._finish_request(conn, response, now)
            except Exception:
                self._handler_failed("conn", conn)

    # -- jobs (run on executor threads) --------------------------------
    @staticmethod
    def _run_job(submitted: float, job, *args) -> _Response:
        queue_seconds = time.monotonic() - submitted
        response = job(*args)
        response.queue_seconds = queue_seconds
        return response

    def _job_healthz(self) -> _Response:
        payload: Dict[str, object] = {"status": "ok"}
        pool = getattr(self.service, "pool", None)
        if pool is not None and pool.running:
            payload["pool"] = pool.check_health()
            payload["workers"] = pool.readiness().get("workers", [])
        return _Response(200, json.dumps(payload).encode("utf-8"))

    def _job_readyz(self) -> _Response:
        document = self.service.readiness()
        status = 200 if document.get("ready") else 503
        return _Response(status, json.dumps(document).encode("utf-8"))

    def _job_profile(self) -> _Response:
        text = self.service.profile_folded()
        return _Response(200, text.encode("utf-8"),
                         content_type="text/plain; charset=utf-8")

    def _job_prometheus(self) -> _Response:
        service = self.service
        service.update_gauges()
        text = METRICS.render_prometheus()
        pool = getattr(service, "pool", None)
        if pool is not None and pool.running:
            text += pool.render_worker_metrics()
        return _Response(200, text.encode("utf-8"),
                         content_type="text/plain; version=0.0.4; charset=utf-8")

    def _job_execute(self, request: Mapping, reader=None) -> _Response:
        """``execute`` + JSON encoding: on an executor thread, or — with the
        loop lane's pinned ``reader`` — on the loop thread itself."""
        response = self.service.execute(request, reader)
        if response.get("ok"):
            status = 200
        else:
            code = response.get("error", {}).get("code", "bad_request")
            status = STATUS_BY_CODE.get(code, 400)
            op = request.get("op")
            HTTP_ERRORS.inc((op if isinstance(op, str) else "invalid",
                             str(status)))
        try:
            body = json.dumps(response).encode("utf-8")
        except (TypeError, ValueError) as exc:
            status = 500
            body = json.dumps(error_response(
                "internal", f"response not JSON-representable: {exc}"
            )).encode("utf-8")
        retry_after = None
        if status == 503:
            error = response.get("error")
            if isinstance(error, Mapping):
                retry_after = error.get("retry_after")
        trace_id = response.get("trace")
        return _Response(status, body, retry_after=retry_after,
                         trace_id=trace_id if isinstance(trace_id, str) else None)

    # ------------------------------------------------------------------
    # Worker channels (suspended connections)
    # ------------------------------------------------------------------
    def _channel_for(self, worker) -> Optional[_WorkerChannel]:
        channel = self._channels.get(worker.index)
        if channel is not None:
            if channel.sock is worker.serve_sock:
                return channel
            # The worker respawned: the old socket is dead.
            self._drop_channel(channel)
        sock = worker.serve_sock
        if sock is None or not worker.alive:
            return None
        channel = _WorkerChannel(worker, sock)
        try:
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ,
                                    ("worker", channel))
        except (OSError, ValueError, KeyError):
            return None
        self._channels[worker.index] = channel
        return channel

    def _channel_load(self, index: int) -> int:
        """Frames sent to worker ``index`` and not yet answered."""
        channel = self._channels.get(index)
        return len(channel.pending) if channel is not None else 0

    def _send_to_worker(self, worker, conn: _Connection, request: Mapping,
                        now: float) -> bool:
        from repro.service.dispatch import pack_request_frame

        channel = self._channel_for(worker)
        if channel is None:
            return False
        seq = next(worker.seq) & 0xFFFFFFFF
        conn.lane = "worker"
        LANE_COUNTERS["worker"].inc()
        conn.t_dispatched = now
        _STATE_DISPATCH.observe(now - conn.t_parsed)
        conn.trace = TRACER.open_request(
            f"op:{conn.op}", path="event-loop", worker=worker.index,
            lane="worker")
        if conn.trace is not None:
            conn.trace_id = conn.trace.trace_id
            if conn.request_started is not None:
                conn.trace.add_event("loop:read", conn.t_parsed - conn.request_started)
            conn.trace.add_event("loop:queue", now - conn.t_parsed)
        conn.routed_request = request
        conn.routed_started = conn.t_parsed
        channel.pending[seq] = (conn, request, now)
        channel.out.append(memoryview(
            pack_request_frame(seq, request, conn.trace_id)))
        self._flush_channel(channel)
        return True

    def _flush_channel(self, channel: _WorkerChannel) -> None:
        while channel.out:
            view = channel.out[0]
            try:
                sent = channel.sock.send(view)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop_channel(channel)
                return
            if sent < len(view):
                channel.out[0] = view[sent:]
                break
            channel.out.popleft()
        self._update_channel_interest(channel)

    def _update_channel_interest(self, channel: _WorkerChannel) -> None:
        mask = selectors.EVENT_READ
        if channel.out:
            mask |= selectors.EVENT_WRITE
        if mask == channel.registered:
            return  # nothing changed: no epoll_ctl
        channel.registered = mask
        try:
            self._selector.modify(channel.sock, mask, ("worker", channel))
        except (KeyError, ValueError, OSError):
            self._drop_channel(channel)

    def _on_channel_readable(self, channel: _WorkerChannel, now: float) -> None:
        from repro.service.dispatch import (
            FRAME_MISS,
            RESPONSE_HEADER,
            SPAN_DROPPED,
            decode_shipped_spans,
        )

        try:
            while True:
                chunk = channel.sock.recv(_RECV_CHUNK)
                if not chunk:
                    self._drop_channel(channel)
                    return
                channel.buffer += chunk
                if len(chunk) < _RECV_CHUNK:
                    break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._drop_channel(channel)
            return
        header_size = RESPONSE_HEADER.size
        while len(channel.buffer) >= header_size:
            seq, length, status, span_len = RESPONSE_HEADER.unpack_from(
                channel.buffer)
            span_extra = 0 if span_len == SPAN_DROPPED else span_len
            total = header_size + length + span_extra
            if len(channel.buffer) < total:
                break
            body = bytes(channel.buffer[header_size:header_size + length])
            span_bytes = (bytes(channel.buffer[header_size + length:total])
                          if span_extra else b"")
            del channel.buffer[:total]
            entry = channel.pending.pop(seq, None)
            if entry is None:
                continue  # stale frame from a timed-out request
            conn, request, dispatched_at = entry
            worker_index = channel.worker.index
            pool = getattr(self.service, "pool", None)
            if status == FRAME_MISS:
                LOOP_EVENTS.inc(("worker_fallback",))
                if pool is not None:
                    pool.note_dispatched(worker_index, "miss")
                conn.routed_request = None
                self._submit(conn, self._job_execute, request)
                continue
            seconds = now - dispatched_at
            if pool is not None:
                pool.note_dispatched(worker_index, "routed")
            self.service.note_routed(conn.op, status, seconds)
            if status >= 400:
                HTTP_ERRORS.inc((conn.op, str(status)))
            if conn.trace is not None:
                span = decode_shipped_spans(span_len, span_bytes)
                if span is not None:
                    conn.trace.add_span(span)
                else:
                    conn.trace.add_event("worker:serve", seconds)
                conn.trace.set_status(status)
            self._finish_request(
                conn,
                _Response(status, body, trace_id=conn.trace_id),
                now,
            )

    def _drop_channel(self, channel: _WorkerChannel,
                      fail_pending: bool = True) -> None:
        self._channels.pop(channel.worker.index, None)
        try:
            self._selector.unregister(channel.sock)
        except (KeyError, ValueError, OSError):
            pass
        if not fail_pending:
            return
        pool = getattr(self.service, "pool", None)
        pending = list(channel.pending.values())
        channel.pending.clear()
        for conn, request, _dispatched_at in pending:
            LOOP_EVENTS.inc(("worker_fallback",))
            if pool is not None:
                pool.note_dispatched(channel.worker.index, "failed")
            if conn.closed:
                self._abandon_request(conn)
            else:
                conn.routed_request = None
                self._submit(conn, self._job_execute, request)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def _respond_error(self, conn: _Connection, status: int, code: str,
                       message: str, close: bool = False,
                       retry_after: Optional[float] = None) -> None:
        """An error answered before any op was dispatched (no op label)."""
        HTTP_ERRORS.inc(("invalid", str(status)))
        body = json.dumps(error_response(code, message,
                                         retry_after=retry_after)).encode("utf-8")
        if close:
            conn.close_after_write = True
        self._write_response(conn, _Response(status, body,
                                             retry_after=retry_after))

    def _finish_with_error(self, conn: _Connection, status: int, code: str,
                           message: str) -> None:
        """An error for an already in-flight request (counts it finished)."""
        HTTP_ERRORS.inc(("invalid", str(status)))
        body = json.dumps(error_response(code, message)).encode("utf-8")
        self._finish_request(conn, _Response(status, body), time.monotonic())

    def _abandon_request(self, conn: _Connection) -> None:
        """Account for an in-flight request whose client is already gone
        (a no-op once the request was finished or abandoned before)."""
        if conn.active:
            conn.active = False
            self._active_requests -= 1
            LOOP_ACTIVE_REQUESTS.set(self._active_requests)
        if conn.trace is not None:
            TRACER.close_request(conn.trace)
            conn.trace = None

    def _finish_request(self, conn: _Connection, response: _Response,
                        now: float) -> None:
        if conn.closed:
            self._abandon_request(conn)
            return
        conn.active = False
        self._active_requests -= 1
        LOOP_ACTIVE_REQUESTS.set(self._active_requests)
        if conn.t_dispatched:
            _STATE_SERVE.observe(now - conn.t_dispatched)
        conn.trace_id = response.trace_id
        conn.queue_seconds = response.queue_seconds
        if response.close:
            conn.close_after_write = True
        self._write_response(conn, response)

    def _http_date(self, now_wall: float) -> bytes:
        second = int(now_wall)
        if second != self._date_second:
            self._date_second = second
            self._date_bytes = email.utils.formatdate(
                second, usegmt=True).encode("latin-1")
        return self._date_bytes

    def _write_response(self, conn: _Connection, response: _Response) -> None:
        if conn.closed:
            return
        parts: List[bytes] = [
            _status_line(response.status),
            b"Server: " + _SERVER_NAME.encode() + b"\r\n",
            b"Date: " + self._http_date(time.time()) + b"\r\n",
            b"Content-Type: " + response.content_type.encode("latin-1") + b"\r\n",
            b"Content-Length: " + str(len(response.body)).encode() + b"\r\n",
        ]
        if response.retry_after is not None:
            parts.append(b"Retry-After: "
                         + str(max(1, math.ceil(response.retry_after))).encode()
                         + b"\r\n")
        if response.trace_id is not None:
            parts.append(b"X-Repro-Trace: " + response.trace_id.encode("latin-1")
                         + b"\r\n")
        if conn.close_after_write:
            parts.append(b"Connection: close\r\n")
        parts.append(b"\r\n")
        header = b"".join(parts)
        # Zero-copy pass-through: the body bytes (worker-encoded for routed
        # requests) are handed to the kernel as-is via a vectored write.
        conn.out.append(memoryview(header))
        if response.body:
            conn.out.append(memoryview(response.body))
        conn.t_dispatched = 0.0
        # Reused as write-start for the write-state timer.
        conn.t_parsed = conn.last_activity = time.monotonic()
        self._flush_out(conn)

    def _flush_out(self, conn: _Connection) -> None:
        if conn.closed:
            return
        sock = conn.sock
        sendmsg = getattr(sock, "sendmsg", None)
        try:
            while conn.out:
                if sendmsg is not None and len(conn.out) > 1:
                    sent = sendmsg(list(conn.out))
                else:
                    sent = sock.send(conn.out[0])
                while sent > 0 and conn.out:
                    view = conn.out[0]
                    if sent >= len(view):
                        sent -= len(view)
                        conn.out.popleft()
                    else:
                        conn.out[0] = view[sent:]
                        sent = 0
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            LOOP_EVENTS.inc(("reset",))
            self._close_connection(conn)
            return
        if conn.out:
            # Slow client: keep the remainder buffered, wait for writability.
            if not conn.want_write:
                conn.want_write = True
                self._set_interest(conn)
            return
        if conn.want_write:
            conn.want_write = False
        self._response_written(conn)

    def _response_written(self, conn: _Connection) -> None:
        now = time.monotonic()
        write_seconds = max(0.0, now - conn.t_parsed)
        _STATE_WRITE.observe(write_seconds)
        trace = conn.trace
        trace_id = conn.trace_id
        if trace is not None:
            trace.add_event("loop:write", write_seconds)
            TRACER.close_request(trace)
            conn.trace = None
        elif trace_id is not None:
            # An inline response: execute() retained its trace before the
            # loop knew these, so they are attached to the retained tree.
            events = [("loop:read", conn.read_seconds),
                      ("loop:write", write_seconds)]
            if conn.queue_seconds is not None:
                events.insert(1, ("loop:queue", conn.queue_seconds))
            TRACER.annotate(trace_id, events, lane=conn.lane)
        if conn.routed_request is not None:
            # Routed reads never pass through execute(): feed the slow-query
            # log here with the full queue + worker + write duration.
            request = conn.routed_request
            conn.routed_request = None
            self.service.record_slow(
                conn.op, max(0.0, now - conn.routed_started),
                request, request.get("plan"), trace_id)
        if conn.close_after_write:
            self._close_connection(conn)
            return
        _EVENT_KEEPALIVE.inc()
        conn.reset_request()
        conn.reading = True
        self._set_interest(conn)
        if conn.buffer:
            # A pipelined request is already buffered.  Whoever is pumping
            # this connection parses it next; if nobody is (the response
            # came from a worker, the executor or a slow write), queue it —
            # never recurse, a long pipeline would exhaust the stack.
            conn.request_started = now
            if not conn.queued:
                conn.queued = True
                self._ready.append(conn)

    # ------------------------------------------------------------------
    # Heartbeat: timeouts, gauges, channel health
    # ------------------------------------------------------------------
    def _heartbeat(self, now: float, lag: float) -> None:
        LOOP_LAG.set(round(lag, 6))
        LOOP_OPEN_CONNECTIONS.set(len(self._connections))
        LOOP_ACTIVE_REQUESTS.set(self._active_requests)
        for conn in list(self._connections.values()):
            if conn.closed or conn.in_flight:
                continue
            if conn.request_started is not None:
                # Partial request (slow-loris): bounded patience, then 408.
                if now - conn.request_started > self.header_timeout:
                    LOOP_EVENTS.inc(("timeout",))
                    self._respond_error(
                        conn, 408, "timeout",
                        "timed out waiting for the complete request",
                        close=True)
            elif not conn.out and now - conn.last_activity > self.idle_timeout:
                self._close_connection(conn)
        # Worker channels: a respawned or dead worker leaves pending frames
        # behind — fail them over to the inline path.
        pool = getattr(self.service, "pool", None)
        timeout = getattr(pool, "request_timeout", 30.0) if pool else 30.0
        for channel in list(self._channels.values()):
            worker = channel.worker
            if not worker.alive or worker.serve_sock is not channel.sock:
                self._drop_channel(channel)
                continue
            expired = [seq for seq, (_c, _r, at) in channel.pending.items()
                       if now - at > timeout]
            for seq in expired:
                conn, request, _at = channel.pending.pop(seq)
                LOOP_EVENTS.inc(("worker_fallback",))
                if pool is not None:
                    pool.note_dispatched(worker.index, "failed")
                if conn.closed:
                    self._abandon_request(conn)
                else:
                    conn.routed_request = None
                    self._submit(conn, self._job_execute, request)


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_body: int = _MAX_BODY,
    reuse_port: bool = False,
    header_timeout: float = 30.0,
    max_connections: int = 1024,
) -> EventLoopHTTPServer:
    """Bind (but do not run) a server; ``port=0`` picks a free port.

    The bound port is ``server.server_address[1]`` — tests and scripts can
    start the server on an ephemeral port and discover it afterwards.
    ``reuse_port`` sets ``SO_REUSEPORT`` before binding, so several
    independent ``repro serve`` processes can share one port and let the
    kernel spread connections (see the README's multi-process section for
    the caveats versus ``--workers``).
    """
    return EventLoopHTTPServer(
        (host, port), service, max_body=max_body, reuse_port=reuse_port,
        max_connections=max_connections, header_timeout=header_timeout,
    )


def run_server(server: EventLoopHTTPServer) -> None:
    """Run a bound server until interrupted, then close it cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
