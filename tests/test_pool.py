"""The prefork worker pool: routing, identity, swaps, respawn, HTTP wiring.

Everything here runs real forked worker processes attached to real
shared-memory snapshot images — the same machinery ``repro serve --workers N``
uses.  The invariants: routed responses are byte-identical to the inline
path (minus the master-only ``trace`` id), epoch swaps rebind workers before
the old buffers retire, dead workers respawn and re-attach, eviction and
shutdown leave no shared-memory blocks behind.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from decimal import Decimal

import pytest

from repro import Database, Relation
from repro.service import (
    AdmissionGate,
    QueryService,
    WorkerPool,
    make_server,
    pool_supported,
)
from repro.service.dispatch import LOOP_LANE_MAX_ANSWERS, ROUTABLE_OPS
from repro.service.protocol import error_response

if not pool_supported():
    pytest.skip("worker pool needs NumPy + shared memory", allow_module_level=True)

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"


def demo_database():
    return Database([
        Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2), (3, 2)]),
        Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5), (2, 9)]),
    ])


def canonical(response):
    if isinstance(response, (bytes, bytearray)):
        response = json.loads(bytes(response))
    return {k: v for k, v in response.items() if k != "trace"}


def worker_pages(pool, encoder):
    """``repro_pool_worker_pages_total{encoder=...}`` summed over the workers."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in pool.render_worker_metrics().splitlines()
        if line.startswith("repro_pool_worker_pages_total{")
        and f'encoder="{encoder}"' in line)


@pytest.fixture()
def pooled():
    service = QueryService(max_plans=4)
    service.register_database("demo", demo_database())
    pool = WorkerPool(workers=2)
    service.attach_pool(pool)
    pool.start()
    try:
        yield service
    finally:
        service.close()


@pytest.fixture()
def plan(pooled):
    return pooled.prepare("demo", QUERY_TEXT, order="x, y, z")


class TestRoutedIdentity:
    def read_requests(self, fingerprint, count):
        return [
            {"op": "access", "plan": fingerprint, "k": 0},
            {"op": "access", "plan": fingerprint, "k": count - 1},
            {"op": "access", "plan": fingerprint, "k": count},  # out of bounds
            {"op": "batch_access", "plan": fingerprint, "ks": list(range(count))},
            {"op": "range", "plan": fingerprint, "lo": 0, "hi": count},
            {"op": "count", "plan": fingerprint},
            {"op": "inverted_access", "plan": fingerprint, "t": [1, 2, 5]},
            {"op": "inverted_access", "plan": fingerprint, "t": [0, 0, 0]},
        ]

    def test_routed_matches_inline_including_errors(self, pooled, plan):
        reference = QueryService(max_plans=4)
        reference.register_database("demo", demo_database())
        reference.prepare("demo", QUERY_TEXT, order="x, y, z")
        routed = 0
        for request in self.read_requests(plan.fingerprint, plan.count):
            assert request["op"] in ROUTABLE_OPS
            expected = canonical(reference.execute(dict(request)))
            raw = pooled.dispatch_raw(request)
            if raw is not None:
                routed += 1
                assert canonical(raw[1]) == expected
        assert routed == 8  # every read op actually took the worker path

    def test_non_routable_ops_stay_inline(self, pooled, plan):
        assert pooled.dispatch_raw({"op": "stats"}) is None
        assert pooled.dispatch_raw({"op": "prepare", "db": "demo"}) is None
        assert pooled.dispatch_raw({"op": "access", "plan": "nope", "k": 0}) is None


class TestEpochSwap:
    def test_mutation_falls_back_then_reroutes_after_compact(self, pooled, plan):
        fingerprint = plan.fingerprint
        request = {"op": "access", "plan": fingerprint, "k": 0}
        assert pooled.dispatch_raw(request) is not None

        pooled.insert("demo", "R", [(0, 5)])
        # Dirty plan: merged-delta reads must be served inline by the master.
        assert pooled.dispatch_raw(request) is None
        merged = canonical(pooled.execute(dict(request)))
        assert merged["answer"] == [0, 5, 3]

        pooled.compact("demo")
        pooled.plan_for_spec(plan.spec)  # re-export at the new epoch
        deadline = time.monotonic() + 5.0
        raw = None
        while raw is None and time.monotonic() < deadline:
            raw = pooled.dispatch_raw(request)
        assert raw is not None, "workers never re-attached after the swap"
        assert canonical(raw[1]) == merged

        exports = pooled.pool.stats()["exports"]
        export = next(iter(exports.values()))
        assert export["epoch"] >= 1
        assert sorted(export["ready_workers"]) == [0, 1]

    def test_old_epoch_blocks_are_unlinked_after_swap(self, pooled, plan):
        from repro.core.snapshot import InstanceSnapshot, shm_name

        publisher_fp = plan.engine.plan.fingerprint
        pooled.insert("demo", "R", [(7, 5)])
        pooled.compact("demo")
        pooled.plan_for_spec(plan.spec)
        with pytest.raises(FileNotFoundError):
            InstanceSnapshot.attach(shm_name(publisher_fp, 0))


class TestHealthAndRespawn:
    def test_killed_worker_respawns_and_serves(self, pooled, plan):
        request = {"op": "access", "plan": plan.fingerprint, "k": 0}
        expected = canonical(pooled.dispatch_raw(request)[1])
        victim = pooled.pool.stats()["workers"][0]
        os.kill(victim["pid"], signal.SIGKILL)
        time.sleep(0.2)
        health = pooled.pool.check_health()
        assert health["alive"] == 2
        assert health["restarts"] >= 1
        deadline = time.monotonic() + 5.0
        served = None
        while served is None and time.monotonic() < deadline:
            raw = pooled.dispatch_raw(request)
            served = canonical(raw[1]) if raw is not None else None
        assert served == expected
        workers = pooled.pool.stats()["workers"]
        assert all(entry["alive"] for entry in workers)
        assert workers[0]["pid"] != victim["pid"]


class TestObservability:
    def test_worker_metrics_carry_worker_labels(self, pooled, plan):
        for k in range(plan.count):
            pooled.dispatch_raw({"op": "access", "plan": plan.fingerprint, "k": k})
        text = pooled.pool.render_worker_metrics()
        assert 'worker="0"' in text or 'worker="1"' in text
        assert "repro_pool_worker_requests_total" in text
        assert "repro_pool_worker_request_seconds" in text

    def test_pages_are_counted_by_encoder(self, pooled, plan):
        fingerprint = plan.fingerprint
        for request in ({"op": "batch_access", "plan": fingerprint, "ks": [3, 0, 3]},
                        {"op": "batch_access", "plan": fingerprint, "ks": []},
                        {"op": "range", "plan": fingerprint, "lo": 1, "hi": 4},
                        {"op": "access", "plan": fingerprint, "k": 0},  # no page
                        {"op": "range", "plan": fingerprint, "lo": 4, "hi": 1}):
            assert pooled.dispatch_raw(request) is not None
        assert worker_pages(pooled.pool, "fragments") == 3
        assert worker_pages(pooled.pool, "json") == 0

    def test_stats_report_per_worker_attachments(self, pooled, plan):
        pooled.dispatch_raw({"op": "count", "plan": plan.fingerprint})
        stats = pooled.stats()
        entry = next(
            e for e in stats["plans"] if e["plan"] == plan.fingerprint
        )
        workers = entry["workers"]
        assert {info["worker"] for info in workers} == {0, 1}
        for info in workers:
            assert info["carrier"] == "shm"
            assert info["seconds"] >= 0
            assert info["count"] == plan.count
        assert stats["pool"]["dispatched"] >= 1


class TestUnencodableValues:
    def test_a_value_json_cannot_encode_answers_500_and_keeps_the_worker(self):
        """``Decimal`` enters through the Python API and survives capture and
        publish; ``json`` cannot write it.  The worker must answer the same
        structured 500 the event loop's executor lane does — not die."""
        service = QueryService(max_plans=4)
        service.register_database("demo", Database([
            Relation("R", ("x", "y"), [(1, Decimal("2.5")), (2, Decimal("3.5"))]),
            Relation("S", ("y", "z"), [(Decimal("2.5"), 7), (Decimal("3.5"), 8)]),
        ]))
        pool = WorkerPool(workers=2)
        service.attach_pool(pool)
        pool.start()
        try:
            plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
            fingerprint = plan.fingerprint
            for request in ({"op": "access", "plan": fingerprint, "k": 0},
                            {"op": "batch_access", "plan": fingerprint, "ks": [1, 0]},
                            {"op": "range", "plan": fingerprint, "lo": 0, "hi": 2}):
                with pytest.raises(TypeError) as unencodable:
                    json.dumps(service.execute(dict(request)))
                routed = service.dispatch_raw(request)
                assert routed is not None, "the worker died"
                status, body, _trace = routed
                assert status == 500
                assert body == json.dumps(error_response(
                    "internal",
                    f"response not JSON-representable: {unencodable.value}",
                )).encode("utf-8")
            assert pool.check_health()["restarts"] == 0
            assert worker_pages(pool, "json") == 2
            assert worker_pages(pool, "fragments") == 0
            # Reads that carry no such value still succeed on the same workers.
            status, body, _trace = service.dispatch_raw(
                {"op": "count", "plan": fingerprint})
            assert (status, canonical(body)["count"]) == (200, plan.count)
        finally:
            service.close()


class TestLifecycle:
    def test_eviction_detaches_export(self, pooled, plan):
        fingerprint = plan.fingerprint
        assert fingerprint in {
            fp for fp in pooled.pool.stats()["exports"]
        }
        # Roll the tiny LRU over with distinct sharded specs.
        for shards in (2, 3, 4, 5):
            pooled.prepare("demo", QUERY_TEXT, order="x, y, z", shards=shards)
        assert fingerprint not in pooled.pool.stats()["exports"]

    def test_close_unlinks_all_blocks(self):
        from repro.core.snapshot import InstanceSnapshot, shm_name

        service = QueryService(max_plans=4)
        service.register_database("demo", demo_database())
        pool = WorkerPool(workers=2)
        service.attach_pool(pool)
        pool.start()
        plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
        publisher_fp = plan.engine.plan.fingerprint
        service.close()
        assert not pool.running
        with pytest.raises(FileNotFoundError):
            InstanceSnapshot.attach(shm_name(publisher_fp, 0))


class TestHTTPFrontend:
    @pytest.fixture()
    def server(self, pooled):
        server = make_server(pooled, "127.0.0.1", 0, max_body=4096)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def post(self, server, path, payload, raw=None):
        request = urllib.request.Request(
            self.url(server, path),
            data=raw if raw is not None else json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=5) as response:
                return response.status, dict(response.headers), json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    def test_healthz_reports_pool(self, server, pooled):
        with urllib.request.urlopen(self.url(server, "/healthz"), timeout=5) as r:
            body = json.loads(r.read())
        assert body["status"] == "ok"
        assert body["pool"]["workers"] == 2

    def test_oversized_body_answers_413(self, server):
        status, _, body = self.post(server, "/v1/query", None, raw=b"x" * 8192)
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"

    def test_shed_build_answers_503_with_retry_after(self, server, pooled):
        pooled.gate = AdmissionGate(max_concurrent=1, max_queue=0, retry_after=2.0)
        held = threading.Event()
        release = threading.Event()

        def holder():
            with pooled.gate.admit(None):
                held.set()
                release.wait(10.0)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert held.wait(5.0)
        try:
            status, headers, body = self.post(
                server, "/v1/query",
                {"op": "prepare", "db": "demo", "query": QUERY_TEXT,
                 "order": "z, y, x"},
            )
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            assert headers.get("Retry-After") == "2"
        finally:
            release.set()
            thread.join(5.0)

    def test_metrics_exposition_includes_worker_series(self, server, pooled):
        plan = pooled.prepare("demo", QUERY_TEXT, order="x, y, z")
        # One rank over the loop lane's threshold: a smaller read is answered
        # by the handler thread and never reaches a worker.
        ks = [k % plan.count for k in range(LOOP_LANE_MAX_ANSWERS + 1)]
        self.post(server, "/v1/query",
                  {"op": "batch_access", "plan": plan.fingerprint, "ks": ks})
        with urllib.request.urlopen(self.url(server, "/metrics"), timeout=5) as r:
            text = r.read().decode()
        assert 'repro_pool_worker_requests_total{worker="' in text
        assert 'op="batch_access",status="ok"' in text
        assert "repro_pool_workers" in text

    def test_drain_waits_for_inflight(self, server):
        server.request_started()
        done = []

        def finish():
            time.sleep(0.2)
            server.request_finished()
            done.append(True)

        threading.Thread(target=finish, daemon=True).start()
        assert server.drain(5.0) is True
        assert done == [True]
