"""The event-loop HTTP front-end: parity, keep-alive, adversarial clients.

A real :class:`EventLoopHTTPServer` runs on an ephemeral port and is driven
both through the polite path (:class:`HTTPSession` keep-alive JSON clients)
and through raw sockets that misbehave on purpose: pipelined bursts,
slow-loris header dribbles, oversized bodies, and mid-request disconnects.
Every document the server answers must equal what in-process
:meth:`QueryService.execute` answers for the same request (traces aside) —
that identity is asserted here too.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro import Database, Relation
from repro.obs import LOOP_EVENTS
from repro.service import HTTPSession, QueryService, make_server
from repro.service.dispatch import LOOP_LANE_MAX_ANSWERS
from repro.service.pool import WorkerPool, pool_supported

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"


def demo_database():
    return Database(
        [
            Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2)]),
            Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5)]),
        ]
    )


def make_service():
    service = QueryService(max_plans=8)
    service.register_database("demo", demo_database())
    return service


class running_server:
    """Start a server on an ephemeral port; stop and join on exit."""

    def __init__(self, service, **kwargs):
        self.server = make_server(service, "127.0.0.1", 0, **kwargs)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def __enter__(self):
        return self.server

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


@pytest.fixture()
def service():
    service = make_service()
    yield service
    service.close()


@pytest.fixture()
def server(service):
    with running_server(service) as server:
        yield server


def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def connect(server, timeout=5.0):
    sock = socket.create_connection(server.server_address[:2], timeout=timeout)
    return sock


def raw_post(path, payload, extra_headers=(), version="HTTP/1.1"):
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"POST {path} {version}",
        "Host: test",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *extra_headers,
    ]
    return "\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + body


def read_response(sock):
    """One HTTP response off a raw socket: (status, headers, body)."""
    reader = sock.makefile("rb")
    try:
        status_line = reader.readline()
        if not status_line:
            return None, {}, b""
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = reader.read(length) if length else b""
        return status, headers, body
    finally:
        reader.detach()


def read_full_response(sock):
    status, headers, body = read_response(sock)
    return status, headers, json.loads(body) if body else None


def read_responses(sock, count):
    """``count`` pipelined responses off one socket: (status, document) each.

    One buffered reader for the whole sequence — :func:`read_response`
    detaches its reader per call and would drop what it had read ahead.
    """
    reader = sock.makefile("rb")
    try:
        for _ in range(count):
            status_line = reader.readline()
            if not status_line:
                return
            length = 0
            while True:
                line = reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            yield int(status_line.split()[1]), json.loads(reader.read(length))
    finally:
        reader.detach()


def over_threshold_ranks(count):
    """One more rank than the loop lane takes: the request a worker serves."""
    return [k % count for k in range(LOOP_LANE_MAX_ANSWERS + 1)]


# ----------------------------------------------------------------------
# Endpoint parity and identity with in-process execution
# ----------------------------------------------------------------------
class TestParity:
    def test_healthz_and_metrics(self, server):
        with HTTPSession(base_url(server)) as session:
            assert session.get_json("/healthz") == (200, {"status": "ok"})
            text = session.get_text("/metrics")
        assert "repro_loop_open_connections" in text
        assert "repro_loop_lag_seconds" in text

    def test_prepare_access_and_errors(self, server):
        with HTTPSession(base_url(server)) as session:
            status, prepared = session.post_json(
                "/v1/prepare", {"db": "demo", "query": QUERY_TEXT, "order": "x, y, z"}
            )
            assert status == 200 and prepared["ok"]
            status, answer = session.post_json(
                "/v1/access", {"plan": prepared["plan"], "k": 0}
            )
            assert status == 200 and answer["answer"] == [1, 2, 5]
            status, document = session.post_json(
                "/v1/access", {"plan": prepared["plan"], "k": 999}
            )
            assert status == 404
            assert document["error"]["code"] == "out_of_bounds"
            status, document = session.get_json("/nope")
            assert status == 404
            status, document = session.post_json("/v1/query", {"op": "nope"})
            assert status == 400 and "unknown op" in document["error"]["message"]

    def test_answers_identical_to_in_process_execute(self):
        requests = [
            {"op": "prepare", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z"},
            {"op": "access", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z",
             "k": 1},
            {"op": "batch_access", "db": "demo", "query": QUERY_TEXT,
             "order": "x, y, z", "ks": [0, 2, 1]},
            {"op": "range", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z",
             "lo": 0, "hi": 2},
            {"op": "count", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z"},
            {"op": "access", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z",
             "k": 99},
            {"op": "nope"},
        ]

        def canonical(document):
            document.pop("trace", None)
            return json.dumps(document, sort_keys=True)

        def over_http():
            service = make_service()
            try:
                with running_server(service) as server:
                    with HTTPSession(base_url(server)) as session:
                        return [canonical(session.post_json("/v1/query", dict(payload))[1])
                                for payload in requests]
            finally:
                service.close()

        def in_process():
            service = make_service()
            try:
                return [canonical(service.execute(dict(payload)))
                        for payload in requests]
            finally:
                service.close()

        assert over_http() == in_process()


# ----------------------------------------------------------------------
# Keep-alive and pipelining
# ----------------------------------------------------------------------
class TestKeepAlive:
    def test_many_requests_one_connection(self, server):
        sock = connect(server)
        try:
            for k in range(5):
                sock.sendall(raw_post("/v1/query", {
                    "op": "access", "db": "demo", "query": QUERY_TEXT,
                    "order": "x, y, z", "k": k % 3,
                }))
                status, headers, document = read_full_response(sock)
                assert status == 200 and document["ok"]
                assert headers.get("connection") != "close"
        finally:
            sock.close()

    def test_pipelined_requests_answered_in_order(self, server):
        first = raw_post("/v1/query", {"op": "access", "db": "demo",
                                       "query": QUERY_TEXT, "order": "x, y, z",
                                       "k": 0})
        second = raw_post("/v1/query", {"op": "access", "db": "demo",
                                        "query": QUERY_TEXT, "order": "x, y, z",
                                        "k": 2})
        sock = connect(server)
        try:
            sock.sendall(first + second)
            (status, one), (status_two, two) = read_responses(sock, 2)
            assert status == 200 and one["answer"] == [1, 2, 5]
            assert status_two == 200 and two["answer"] == [1, 5, 4]
        finally:
            sock.close()

    @pytest.mark.parametrize("kind", ["loop-answered 404", "loop-lane access"])
    def test_long_pipeline_is_drained_without_recursion(self, server, kind):
        """2 000 pipelined requests on one connection (8 stack frames each
        when they were drained by recursion: the loop died after 124) are
        all answered, in order, while a second connection keeps being
        served; the server still accepts afterwards."""
        total = 2000
        with HTTPSession(base_url(server)) as session:
            _status, prepared = session.post_json("/v1/prepare", {
                "db": "demo", "query": QUERY_TEXT, "order": "x, y, z"})
            count = prepared["count"]
            expected = [
                session.post_json(
                    "/v1/access", {"plan": prepared["plan"], "k": k})[1]["answer"]
                for k in range(count)
            ]
            if kind == "loop-answered 404":
                payload = b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n" * total
            else:
                payload = b"".join(
                    raw_post("/v1/access", {"plan": prepared["plan"], "k": k % count})
                    for k in range(total))
            sock = connect(server, timeout=20.0)
            sender = threading.Thread(target=sock.sendall, args=(payload,))
            sender.start()
            try:
                neighbour_rounds = 0
                for index, (status, document) in enumerate(
                        read_responses(sock, total)):
                    if kind == "loop-answered 404":
                        assert status == 404
                    else:
                        assert status == 200
                        assert document["answer"] == expected[index % count]
                    if index % 250 == 0:
                        assert session.get_json("/healthz")[0] == 200
                        neighbour_rounds += 1
                assert index == total - 1
                assert neighbour_rounds == total // 250
            finally:
                sender.join(timeout=20)
                sock.close()
            assert not sender.is_alive()
        with HTTPSession(base_url(server)) as session:  # still accepting
            assert session.get_json("/healthz")[0] == 200

    def test_handler_exception_costs_one_connection_not_the_loop(
            self, server, monkeypatch):
        dispatch = server._dispatch

        def failing(conn, body, now):
            if conn.path == "/boom":
                raise RuntimeError("injected handler failure")
            dispatch(conn, body, now)

        monkeypatch.setattr(server, "_dispatch", failing)
        before = LOOP_EVENTS.value(("handler_error",))
        with HTTPSession(base_url(server)) as neighbour:
            assert neighbour.get_json("/healthz")[0] == 200
            sock = connect(server)
            try:
                sock.sendall(b"GET /boom HTTP/1.1\r\nHost: t\r\n\r\n")
                assert read_response(sock)[0] is None  # closed, not answered
            finally:
                sock.close()
            assert LOOP_EVENTS.value(("handler_error",)) == before + 1
            assert server.inflight == 0
            assert neighbour.get_json("/healthz")[0] == 200

    def test_keepalive_rounds_never_rearm_the_selector(self, server, monkeypatch):
        """With no backpressure the registered mask never changes, so 100
        request/response rounds make no ``selector.modify`` (``epoll_ctl``)."""
        with HTTPSession(base_url(server)) as session:
            _status, prepared = session.post_json("/v1/prepare", {
                "db": "demo", "query": QUERY_TEXT, "order": "x, y, z"})
            modify = server._selector.modify
            calls = []
            monkeypatch.setattr(
                server._selector, "modify",
                lambda *args: (calls.append(args), modify(*args))[1])
            for k in range(100):
                status, _document = session.post_json(
                    "/v1/access", {"plan": prepared["plan"], "k": k % 3})
                assert status == 200
            assert session.get_json("/healthz")[0] == 200  # executor lane too
        assert calls == []

    def test_http_1_0_closes_after_response(self, server):
        sock = connect(server)
        try:
            sock.sendall(raw_post("/healthz", None, version="HTTP/1.0")
                         .replace(b"POST", b"GET"))
            status, headers, _body = read_full_response(sock)
            assert status == 200
            assert headers.get("connection") == "close"
            assert read_response(sock)[0] is None  # server closed
        finally:
            sock.close()


# ----------------------------------------------------------------------
# Protocol edges: chunked, missing length, oversized, malformed, loris
# ----------------------------------------------------------------------
class TestProtocolEdges:
    def test_chunked_transfer_encoding_answers_501(self, server):
        sock = connect(server)
        try:
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n")
            status, headers, document = read_full_response(sock)
            assert status == 501
            assert document["error"]["code"] == "not_implemented"
            assert headers.get("connection") == "close"
        finally:
            sock.close()

    def test_post_without_content_length_answers_411(self, server):
        sock = connect(server)
        try:
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _headers, document = read_full_response(sock)
            assert status == 411
            assert document["error"]["code"] == "length_required"
        finally:
            sock.close()

    @pytest.mark.parametrize("lengths, status", [
        (["1_9"], 400),        # int() would accept it
        (["+19"], 400),        # ... and this
        (["999", "19"], 400),  # the last value must not win
        (["19", "999"], 400),
        (["19", "19"], 200),   # repeated, but one value
    ], ids=["underscore", "plus-sign", "conflict", "conflict-reversed", "repeated"])
    def test_content_length_must_be_one_run_of_digits(self, server, lengths, status):
        """RFC 9112 §6.3: a Content-Length that is not ``1*DIGIT``, or several
        that differ, leave the message framing unknowable: 400, then close."""
        body = b'{"op": "databases"}'
        assert len(body) == 19
        sock = connect(server)
        try:
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                         + b"".join(b"Content-Length: " + value.encode() + b"\r\n"
                                    for value in lengths)
                         + b"\r\n" + body)
            got, headers, document = read_full_response(sock)
            assert got == status
            if status == 400:
                assert document["error"]["code"] == "bad_request"
                assert headers.get("connection") == "close"
                assert sock.recv(1) == b""
            else:
                assert document["ok"]
        finally:
            sock.close()

    def test_oversized_body_mid_stream_answers_413_and_closes(self, service):
        with running_server(service, max_body=2048) as server:
            sock = connect(server)
            try:
                # Announce far more than max_body, deliver only a prefix:
                # the 413 must arrive off the headers alone.
                sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Type: application/json\r\n"
                             b"Content-Length: 1000000\r\n\r\n" + b"x" * 512)
                status, headers, document = read_full_response(sock)
                assert status == 413
                assert document["error"]["code"] == "payload_too_large"
                assert headers.get("connection") == "close"
            finally:
                sock.close()

    def test_malformed_request_line_answers_400(self, server):
        sock = connect(server)
        try:
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, _headers, _document = read_full_response(sock)
            assert status == 400
        finally:
            sock.close()

    def test_slow_loris_times_out_with_408(self, service):
        with running_server(service, header_timeout=0.3) as server:
            sock = connect(server)
            try:
                sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Ty")  # ...and stall mid-header
                status, headers, document = read_full_response(sock)
                assert status == 408
                assert document["error"]["code"] == "timeout"
                assert headers.get("connection") == "close"
            finally:
                sock.close()

    def test_polite_clients_survive_a_loris_next_door(self, service):
        with running_server(service, header_timeout=0.3) as server:
            loris = connect(server)
            try:
                loris.sendall(b"GET /healthz HTT")
                with HTTPSession(base_url(server)) as session:
                    for _ in range(3):
                        assert session.get_json("/healthz")[0] == 200
                status, _headers, _document = read_full_response(loris)
                assert status == 408
            finally:
                loris.close()


# ----------------------------------------------------------------------
# Abrupt disconnects: no FD leaks, the loop keeps serving
# ----------------------------------------------------------------------
def _fd_count():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc fd accounting")
class TestAbruptDisconnect:
    def test_disconnect_storm_leaks_no_fds(self, server):
        session = HTTPSession(base_url(server))
        assert session.get_json("/healthz")[0] == 200
        baseline = _fd_count()
        for _ in range(20):
            sock = connect(server)
            sock.sendall(raw_post("/v1/query", {
                "op": "access", "db": "demo", "query": QUERY_TEXT,
                "order": "x, y, z", "k": 0,
            }))
            sock.close()  # vanish before (or while) the response lands
        deadline = time.monotonic() + 5.0
        while _fd_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _fd_count() <= baseline
        # The loop is still healthy for polite clients.
        assert session.get_json("/healthz")[0] == 200
        session.close()

    def test_reset_while_response_in_flight(self, server):
        for _ in range(5):
            sock = connect(server)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")  # RST on close
            sock.sendall(raw_post("/v1/query", {
                "op": "count", "db": "demo", "query": QUERY_TEXT,
                "order": "x, y, z",
            }))
            sock.close()
        with HTTPSession(base_url(server)) as session:
            assert session.get_json("/healthz")[0] == 200


# ----------------------------------------------------------------------
# Worker pool integration: routed zero-copy responses, traces, leaks
# ----------------------------------------------------------------------
@pytest.mark.skipif(not pool_supported(), reason="worker pool unavailable")
class TestWithWorkers:
    @pytest.fixture()
    def pooled_service(self):
        service = make_service()
        pool = WorkerPool(workers=2)
        service.attach_pool(pool)
        assert pool.start()
        yield service
        service.close()

    def _prepare(self, session):
        status, prepared = session.post_json("/v1/prepare", {
            "db": "demo", "query": QUERY_TEXT, "order": "x, y, z",
        })
        assert status == 200 and prepared["ok"]
        return prepared["plan"]

    def _await_routed(self, session, fingerprint, tries=50):
        """Spin until a request actually routes (export is asynchronous).

        The request is a ``batch_access`` one rank over the loop lane's
        threshold — a smaller read never reaches a worker.  Returns
        ``(document, trace_header)`` of the routed response — routed bodies
        pass through the loop untouched, so their trace id only exists in
        the ``X-Repro-Trace`` header (an inline body embeds ``trace``).
        """
        for _ in range(tries):
            status, document = session.post_json("/v1/query", {
                "op": "batch_access", "plan": fingerprint,
                "ks": over_threshold_ranks(3),
            })
            assert status == 200 and document["ok"]
            trace_header = session.last_headers.get("x-repro-trace")
            if trace_header and "trace" not in document:
                return document, trace_header
            time.sleep(0.05)
        pytest.fail("no request ever routed to a worker")

    def test_routed_answers_and_trace_spans(self, pooled_service):
        with running_server(pooled_service) as server:
            with HTTPSession(base_url(server)) as session:
                fingerprint = self._prepare(session)
                document, trace_id = self._await_routed(session, fingerprint)
                assert document["answers"][:3] == [[1, 2, 5], [1, 5, 3], [1, 5, 4]]
                assert self._trace_shape(session, trace_id) == (
                    "worker", ["loop:read", "loop:queue", "worker:serve",
                               "loop:write"])

    @staticmethod
    def _trace_shape(session, trace_id):
        status, traced = session.post_json("/v1/query", {
            "op": "trace", "id": trace_id})
        assert status == 200
        root = traced["traced"]["root"]
        return root["attrs"].get("lane"), [
            child["name"] for child in root.get("children", ())
            if child["name"].startswith(("loop:", "worker:serve"))]

    def test_inline_traces_name_their_lane_and_loop_spans(self, pooled_service):
        """The loop attaches what it measured to an inline response's trace
        (it used to leave every inline trace a bare root)."""
        with running_server(pooled_service) as server:
            with HTTPSession(base_url(server)) as session:
                fingerprint = self._prepare(session)
                _status, document = session.post_json(
                    "/v1/access", {"plan": fingerprint, "k": 0})
                assert self._trace_shape(session, document["trace"]) == (
                    "loop", ["loop:read", "loop:write"])
                # An inline spec may have to build: never the loop lane.
                _status, document = session.post_json("/v1/access", {
                    "db": "demo", "query": QUERY_TEXT, "order": "x, y, z", "k": 0})
                assert self._trace_shape(session, document["trace"]) == (
                    "executor", ["loop:read", "loop:queue", "loop:write"])

    def test_disconnect_with_worker_response_in_flight(self, pooled_service):
        with running_server(pooled_service) as server:
            with HTTPSession(base_url(server)) as session:
                fingerprint = self._prepare(session)
                self._await_routed(session, fingerprint)
                baseline = _fd_count() if os.path.isdir("/proc/self/fd") else None
                for _ in range(10):
                    sock = connect(server)
                    sock.sendall(raw_post("/v1/query", {
                        "op": "batch_access", "plan": fingerprint,
                        "ks": over_threshold_ranks(3),
                    }))
                    sock.close()  # gone before the worker frame returns
                deadline = time.monotonic() + 5.0
                if baseline is not None:
                    while _fd_count() > baseline and time.monotonic() < deadline:
                        time.sleep(0.05)
                    assert _fd_count() <= baseline
                status, document = session.post_json("/v1/query", {
                    "op": "access", "plan": fingerprint, "k": 0,
                })
                assert status == 200 and document["answer"] == [1, 2, 5]


# ----------------------------------------------------------------------
# Connection cap and graceful shutdown
# ----------------------------------------------------------------------
class TestLimitsAndShutdown:
    def test_connection_cap_answers_503(self, service):
        with running_server(service, max_connections=2) as server:
            keepers = [connect(server) for _ in range(2)]
            try:
                for keeper in keepers:
                    keeper.sendall(raw_post("/healthz", None).replace(b"POST", b"GET"))
                    assert read_full_response(keeper)[0] == 200
                excess = connect(server)
                try:
                    status, headers, document = read_full_response(excess)
                    assert status == 503
                    assert document["error"]["code"] == "overloaded"
                    assert "retry-after" in headers
                finally:
                    excess.close()
            finally:
                for keeper in keepers:
                    keeper.close()

    def test_shutdown_drains_in_flight_requests(self, service):
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with HTTPSession(base_url(server)) as session:
                assert session.get_json("/healthz")[0] == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert server.drain(timeout=1.0)
