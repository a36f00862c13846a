"""The HTTP front-end and the `repro client` runner: JSON round-trips.

A real ``ThreadingHTTPServer`` is started on an ephemeral port and exercised
with ``urllib`` — the same wire path ``repro serve`` exposes — including
concurrent batch requests, error statuses, runtime database registration,
and the request-file runner in both in-process and ``--url`` modes.
"""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Database, Relation
from repro.service import QueryService, make_server

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"


def demo_database():
    return Database(
        [
            Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2)]),
            Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5)]),
        ]
    )


@pytest.fixture()
def server():
    service = QueryService(max_plans=8)
    service.register_database("demo", demo_database())
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def url_of(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def get(server, path):
    try:
        with urllib.request.urlopen(url_of(server, path), timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post(server, path, payload):
    request = urllib.request.Request(
        url_of(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, server):
        assert get(server, "/healthz") == (200, {"status": "ok"})

    def test_prepare_then_batch_and_inverted(self, server):
        status, prepared = post(
            server, "/v1/prepare", {"db": "demo", "query": QUERY_TEXT, "order": "x, y, z"}
        )
        assert status == 200 and prepared["count"] == 5
        plan = prepared["plan"]

        status, batch = post(server, "/v1/batch_access", {"plan": plan, "ks": [0, 4, 2]})
        assert status == 200
        assert batch["answers"] == [[1, 2, 5], [6, 2, 5], [1, 5, 4]]

        # JSON round-trip: feed a served answer back through inverted access.
        status, inverted = post(
            server, "/v1/inverted_access", {"plan": plan, "answer": batch["answers"][2]}
        )
        assert status == 200 and inverted["k"] == 2

    def test_generic_query_endpoint(self, server):
        status, response = post(
            server,
            "/v1/query",
            {"op": "range", "db": "demo", "query": QUERY_TEXT, "lo": 0, "hi": 2},
        )
        assert status == 200
        assert response["answers"] == [[1, 2, 5], [1, 5, 3]]

    def test_error_statuses(self, server):
        status, body = post(
            server, "/v1/access", {"db": "demo", "query": QUERY_TEXT, "k": 999}
        )
        assert status == 404 and body["error"]["code"] == "out_of_bounds"

        status, body = post(server, "/v1/access", {"db": "ghost", "query": QUERY_TEXT, "k": 0})
        assert status == 404 and body["error"]["code"] == "unknown_database"

        status, body = post(
            server, "/v1/prepare", {"db": "demo", "query": "Q(x, z) :- R(x, y), S(y, z)"}
        )
        assert status == 422 and body["error"]["code"] == "intractable_query"

        status, body = post(server, "/v1/frobnicate", {})
        assert status == 400

        status, _ = get(server, "/nothing/here")
        assert status == 404

    def test_oversized_body_closes_the_connection(self, server):
        # An undrained body would desync the keep-alive stream: the server
        # must answer 413 AND close the connection instead of reading the
        # pending bytes as the next request line.
        import socket

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: 99999999999\r\n"
                b"Content-Type: application/json\r\n"
                b"\r\n"
            )
            sock.settimeout(5)
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
            assert b"413" in response.split(b"\r\n", 1)[0]
            assert b"connection: close" in response.lower()
        # The server is still healthy for new connections.
        assert get(server, "/healthz") == (200, {"status": "ok"})

    def _raw_exchange(self, server, request_bytes, timeout=5):
        import socket

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(request_bytes)
            sock.settimeout(timeout)
            response = b""
            while True:  # every response here closes the connection
                try:
                    chunk = sock.recv(4096)
                except socket.timeout:
                    break
                if not chunk:
                    break
                response += chunk
        return response

    def test_chunked_transfer_encoding_answers_501(self, server):
        response = self._raw_exchange(
            server,
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
        )
        assert b"501" in response.split(b"\r\n", 1)[0]
        assert b"not_implemented" in response
        assert b"connection: close" in response.lower()
        assert get(server, "/healthz") == (200, {"status": "ok"})

    def test_post_without_content_length_answers_411(self, server):
        response = self._raw_exchange(
            server, b"POST /v1/query HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert b"411" in response.split(b"\r\n", 1)[0]
        assert b"length_required" in response

    def test_slow_loris_headers_answer_408(self):
        # The timeout only fires once the request line completed (a stalled
        # request line is invisible inside the buffered reader), so the
        # loris sends the full line and then dribbles headers.
        service = QueryService(max_plans=8)
        service.register_database("demo", demo_database())
        server = make_server(service, "127.0.0.1", 0, header_timeout=0.3)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            response = self._raw_exchange(
                server,
                b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Ty",
                timeout=5,
            )
            assert b"408" in response.split(b"\r\n", 1)[0]
            assert b"timeout" in response
            assert b"connection: close" in response.lower()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_invalid_json_body(self, server):
        request = urllib.request.Request(
            url_of(server, "/v1/query"),
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "body",
        [
            b'{"mappings": {"y": [[5, "x"]]}}',
            b'{"mappings": {"y": [[5, true]]}}',
            b'{"mappings": {"y": [[5, NaN]]}}',
            b'{"mappings": {"y": [[5, 1]]}, "default": Infinity}',
        ],
        ids=["string", "bool", "nan", "infinite-default"],
    )
    def test_prepare_rejects_unrankable_weights(self, server, body):
        # Raw bytes: json.loads accepts the NaN / Infinity tokens a client
        # may send, and those weights would leave the SUM order undefined.
        request = urllib.request.Request(
            url_of(server, "/v1/prepare"),
            data=b'{"db": "demo", "query": "Q(x, y) :- R(x, y)", "mode": "sum", '
                 b'"weights": ' + body + b'}',
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "bad_request"

    def test_runtime_registration(self, server):
        status, registered = post(
            server,
            "/v1/databases",
            {
                "name": "live",
                "relations": {
                    "R": {"attributes": ["x", "y"], "rows": [[1, 2], [3, 4]]}
                },
            },
        )
        assert status == 200 and registered["generation"] == 1
        status, listing = get(server, "/v1/databases")
        assert status == 200 and "live" in listing["databases"]
        status, response = post(
            server,
            "/v1/count",
            {"db": "live", "query": "Q(x, y) :- R(x, y)"},
        )
        assert status == 200 and response["count"] == 2

    def test_stats_endpoint(self, server):
        post(server, "/v1/prepare", {"db": "demo", "query": QUERY_TEXT})
        status, body = get(server, "/v1/stats")
        assert status == 200
        assert body["stats"]["databases"]["demo"]["tuples"] == 7

    def test_concurrent_clients(self, server):
        status, prepared = post(
            server, "/v1/prepare", {"db": "demo", "query": QUERY_TEXT, "order": "x, y, z"}
        )
        plan = prepared["plan"]

        def hit(k):
            return post(server, "/v1/batch_access", {"plan": plan, "ks": [k, (k + 1) % 5]})

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(hit, [k % 5 for k in range(32)]))
        assert all(status == 200 for status, _ in outcomes)
        expected = post(server, "/v1/batch_access", {"plan": plan, "ks": [0, 1]})[1]
        assert outcomes[0][1]["answers"] == expected["answers"]


class TestClientRunner:
    REQUESTS = "\n".join(
        [
            "# comment",
            json.dumps({"op": "prepare", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z"}),
            json.dumps({"op": "batch_access", "db": "demo", "query": QUERY_TEXT,
                        "order": "x, y, z", "ks": [0, 1]}),
            json.dumps({"op": "inverted_access", "db": "demo", "query": QUERY_TEXT,
                        "order": "x, y, z", "answer": [1, 2, 5]}),
        ]
    )

    @pytest.fixture()
    def db_file(self, tmp_path):
        from repro.service import database_to_json

        path = tmp_path / "demo.json"
        path.write_text(json.dumps(database_to_json(demo_database())))
        return str(path)

    @pytest.fixture()
    def request_file(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(self.REQUESTS + "\n")
        return str(path)

    def _run_client(self, argv, capsys):
        from repro.cli import main

        exit_code = main(argv)
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        return exit_code, [json.loads(line) for line in lines]

    def test_in_process_runner(self, db_file, request_file, capsys):
        exit_code, responses = self._run_client(
            ["client", request_file, "--db", f"demo={db_file}"], capsys
        )
        assert exit_code == 0
        assert [r["ok"] for r in responses] == [True, True, True]
        assert responses[1]["answers"] == [[1, 2, 5], [1, 5, 3]]
        assert responses[2]["k"] == 0

    def test_url_runner(self, server, request_file, capsys):
        host, port = server.server_address[:2]
        exit_code, responses = self._run_client(
            ["client", request_file, "--url", f"http://{host}:{port}"], capsys
        )
        assert exit_code == 0
        assert [r["ok"] for r in responses] == [True, True, True]

    def test_unreachable_server_reports_connection_error(self, request_file, capsys):
        exit_code, responses = self._run_client(
            ["client", request_file, "--url", "http://127.0.0.1:9"], capsys
        )
        assert exit_code == 1
        assert all(r["error"]["code"] == "connection_error" for r in responses)

    @pytest.mark.parametrize("command", [
        ["metrics"], ["metrics", "--prometheus"], ["trace"], ["trace", "abc"],
        ["profile", "--seconds", "0"],
    ])
    def test_unreachable_server_fails_observability_tools_alike(self, command, capsys):
        exit_code, responses = self._run_client(
            command + ["--url", "http://127.0.0.1:9"], capsys
        )
        assert exit_code == 1
        assert [r["error"]["code"] for r in responses] == ["connection_error"]

    def test_failed_request_sets_exit_code(self, db_file, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"op": "access", "db": "demo", "query": QUERY_TEXT, "k": 999}) + "\n")
        exit_code, responses = self._run_client(
            ["client", str(bad), "--db", f"demo={db_file}"], capsys
        )
        assert exit_code == 1
        assert responses[0]["error"]["code"] == "out_of_bounds"
