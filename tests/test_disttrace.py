"""Distributed tracing across the worker pool + the sampling profiler.

Real forked workers, real shared-memory images: routed requests must come
back with the worker's span subtree stitched under the master's request
trace (labelled with worker id and pid), the stitching must survive a
worker being SIGKILLed and respawned, an oversize subtree must be dropped
with a counter — never by corrupting the response — and a traced run must
answer bit-identically to an untraced one across backends and shard counts,
in-process and over HTTP.  The stdlib sampling profiler and the tracemalloc
build-memory attribution are unit-tested at the bottom.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro import Database, Relation
from repro.obs import METRICS, TRACER, obs_enabled, set_enabled
from repro.service import HTTPSession, QueryService, WorkerPool, make_server
from repro.service.dispatch import LOOP_LANE_MAX_ANSWERS
from repro.service.pool import pool_supported

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"

needs_pool = pytest.mark.skipif(
    not pool_supported(), reason="worker pool needs NumPy + shared memory"
)


def demo_database():
    return Database([
        Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2), (3, 2)]),
        Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5), (2, 9)]),
    ])


def canonical(response):
    if isinstance(response, (bytes, bytearray)):
        response = json.loads(bytes(response))
    return {k: v for k, v in response.items() if k != "trace"}


def find_spans(document, name):
    """Every span named ``name`` anywhere in a span-tree document."""
    found = []
    if document.get("name") == name:
        found.append(document)
    for child in document.get("children", []):
        found.extend(find_spans(child, name))
    return found


def counter_value(name):
    family = METRICS.get(name)
    return family.value(()) if family is not None else 0.0


@pytest.fixture(autouse=True)
def obs_on():
    was = obs_enabled()
    set_enabled(True)
    yield
    set_enabled(was)


@pytest.fixture()
def pooled():
    if not pool_supported():
        pytest.skip("worker pool needs NumPy + shared memory")
    service = QueryService(max_plans=4)
    service.register_database("demo", demo_database())
    pool = WorkerPool(workers=2)
    service.attach_pool(pool)
    assert pool.start()
    try:
        yield service
    finally:
        service.close()


@pytest.fixture()
def plan(pooled):
    return pooled.prepare("demo", QUERY_TEXT, order="x, y, z")


@needs_pool
class TestStitchedTraces:
    def routed_trace(self, pooled, request, tries=100):
        """Dispatch until routed; returns (canonical body, trace document)."""
        deadline = time.monotonic() + 5.0
        for _ in range(tries):
            raw = pooled.dispatch_raw(dict(request))
            if raw is not None:
                status, body, trace_id = raw
                assert trace_id is not None
                traced = pooled.execute({"op": "trace", "id": trace_id})
                assert traced.get("ok"), traced
                return canonical(body), traced["traced"]
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        pytest.fail("no request ever routed to a worker")

    def test_worker_subtree_stitched_with_worker_and_pid(self, pooled, plan):
        request = {"op": "access", "plan": plan.fingerprint, "k": 0}
        body, document = self.routed_trace(pooled, request)
        assert body["ok"] and body["answer"] == [1, 2, 5]
        assert document["name"] == "op:access"
        serves = find_spans(document["root"], "worker:serve")
        assert serves, f"no worker:serve span in {json.dumps(document)}"
        span = serves[0]
        attrs = span.get("attrs", {})
        pids = {w["pid"] for w in pooled.pool.stats()["workers"]}
        assert int(attrs["worker"]) in (0, 1)
        assert int(attrs["pid"]) in pids
        assert attrs["op"] == "access"
        children = {child["name"] for child in span.get("children", [])}
        assert {"worker:execute", "worker:encode"} <= children

    def test_remote_spans_count_as_shipped(self, pooled, plan):
        before = counter_value("repro_trace_spans_shipped_total")
        self.routed_trace(
            pooled, {"op": "count", "plan": plan.fingerprint}
        )
        assert counter_value("repro_trace_spans_shipped_total") > before

    def test_trace_list_reports_op_and_status(self, pooled, plan):
        _, document = self.routed_trace(
            pooled, {"op": "access", "plan": plan.fingerprint, "k": 1}
        )
        listed = pooled.execute({"op": "trace", "limit": 50})
        assert listed.get("ok")
        entries = listed["traces"]
        assert entries
        # The ring is shared process-wide, so pick out the trace we just
        # created rather than relying on position in the listing.
        ours = [e for e in entries if e["id"] == document["id"]]
        assert ours, f"trace {document['id']} missing from listing"
        entry = ours[0]
        assert set(entry) >= {"id", "name", "op", "status", "seconds", "when"}
        assert entry["op"] == "access"
        assert entry["status"] == "200"

    def test_stitching_survives_worker_respawn(self, pooled, plan):
        request = {"op": "access", "plan": plan.fingerprint, "k": 0}
        body, _ = self.routed_trace(pooled, request)
        victims = {w["pid"] for w in pooled.pool.stats()["workers"]}
        for pid in victims:
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.2)
        health = pooled.pool.check_health()
        assert health["alive"] == 2

        deadline = time.monotonic() + 10.0
        stitched = None
        while stitched is None and time.monotonic() < deadline:
            raw = pooled.dispatch_raw(dict(request))
            if raw is None:
                time.sleep(0.05)
                continue
            status, raw_body, trace_id = raw
            assert canonical(raw_body) == body  # respawned answers identical
            traced = pooled.execute({"op": "trace", "id": trace_id})
            serves = find_spans(traced["traced"]["root"], "worker:serve")
            if serves:
                stitched = serves[0]
        assert stitched is not None, "respawned workers never stitched a span"
        new_pids = {w["pid"] for w in pooled.pool.stats()["workers"]}
        assert int(stitched["attrs"]["pid"]) in new_pids
        assert int(stitched["attrs"]["pid"]) not in victims


@needs_pool
class TestSpanOverflow:
    def test_oversize_subtree_dropped_without_corrupting_body(
        self, monkeypatch
    ):
        # Workers read the limit at start: 1 byte rejects every subtree.
        monkeypatch.setenv("REPRO_TRACE_SPAN_LIMIT", "1")
        service = QueryService(max_plans=4)
        service.register_database("demo", demo_database())
        pool = WorkerPool(workers=1)
        service.attach_pool(pool)
        assert pool.start()
        try:
            plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
            reference = canonical(service.execute({
                "op": "batch_access", "plan": plan.fingerprint,
                "ks": list(range(plan.count)),
            }))
            before = counter_value("repro_trace_spans_dropped_total")
            deadline = time.monotonic() + 5.0
            raw = None
            while raw is None and time.monotonic() < deadline:
                raw = service.dispatch_raw({
                    "op": "batch_access", "plan": plan.fingerprint,
                    "ks": list(range(plan.count)),
                })
            assert raw is not None
            status, body, trace_id = raw
            assert status == 200
            assert canonical(body) == reference
            assert counter_value("repro_trace_spans_dropped_total") > before
            # The master's trace survives with the local event fallback.
            traced = service.execute({"op": "trace", "id": trace_id})
            assert traced.get("ok")
            serves = find_spans(traced["traced"]["root"], "worker:serve")
            assert serves  # the fallback event, not the dropped subtree
            assert not serves[0].get("children")
        finally:
            service.close()


@needs_pool
class TestTracedUntracedIdentity:
    """Tracing must never change an answer: property-checked across
    backends × shard counts, over HTTP."""

    def _read_requests(self, fingerprint, count):
        return [
            {"op": "access", "plan": fingerprint, "k": 0},
            {"op": "access", "plan": fingerprint, "k": count - 1},
            {"op": "access", "plan": fingerprint, "k": count},  # out of bounds
            {"op": "batch_access", "plan": fingerprint,
             "ks": list(range(count))},
            # One rank over the loop lane's threshold: the worker-served one.
            {"op": "batch_access", "plan": fingerprint,
             "ks": [k % count for k in range(LOOP_LANE_MAX_ANSWERS + 1)]},
            {"op": "range", "plan": fingerprint, "lo": 0, "hi": count},
            {"op": "count", "plan": fingerprint},
            {"op": "inverted_access", "plan": fingerprint, "t": [1, 2, 5]},
        ]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_traced_equals_untraced_over_http(self, shards):
        from repro.engine.backends import available_backends

        for backend in available_backends():
            service = QueryService(max_plans=8, backend=backend)
            service.register_database("demo", demo_database())
            pool = WorkerPool(workers=2)
            service.attach_pool(pool)
            assert pool.start()
            server = make_server(service, "127.0.0.1", 0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                plan = service.prepare(
                    "demo", QUERY_TEXT, order="x, y, z",
                    shards=shards if shards > 1 else None,
                )
                requests = self._read_requests(plan.fingerprint, plan.count)
                host, port = server.server_address[:2]
                with HTTPSession(f"http://{host}:{port}") as session:
                    # Warm the route so both passes exercise the worker path
                    # (a routed body carries its trace id in the header only).
                    deadline = time.monotonic() + 5.0
                    while time.monotonic() < deadline:
                        _status, document = session.post_json(
                            "/v1/query", requests[4])
                        if "trace" not in document:
                            break
                        time.sleep(0.05)
                    else:
                        pytest.fail("no request ever routed to a worker")
                    streams = {}
                    for flag in (False, True):
                        set_enabled(flag)
                        streams[flag] = [
                            (status, canonical(document))
                            for status, document in (
                                session.post_json("/v1/query", request)
                                for request in requests
                            )
                        ]
                assert streams[True] == streams[False], (
                    f"tracing changed an answer "
                    f"({backend}, shards={shards})"
                )
            finally:
                set_enabled(True)
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
                service.close()


class TestSamplingProfiler:
    def test_sample_once_records_this_stack(self):
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler()
        taken = profiler.sample_once()

        def other_thread():
            time.sleep(0.5)

        thread = threading.Thread(target=other_thread, daemon=True)
        thread.start()
        try:
            taken = profiler.sample_once()
            assert taken >= 1
        finally:
            thread.join()
        snapshot = profiler.snapshot()
        assert snapshot["pid"] == os.getpid()
        assert snapshot["samples"] >= 1
        assert snapshot["stacks"]
        text = json.dumps(snapshot["stacks"])
        assert "other_thread" in text or "sleep" in text

    def test_start_stop_and_running_window(self):
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler()
        assert not profiler.running
        assert profiler.start(hz=200)
        try:
            assert profiler.running
            assert not profiler.start(hz=50)  # already running
            deadline = time.monotonic() + 5.0
            while (profiler.snapshot()["samples"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            profiler.stop()
        assert not profiler.running
        snapshot = profiler.snapshot()
        assert snapshot["samples"] > 0  # counts survive stop()
        profiler.reset()
        assert profiler.snapshot()["samples"] == 0

    def test_merge_and_render_folded(self):
        from repro.obs.profile import merge_folded, render_folded

        merged = merge_folded([
            {"stacks": {"a;b": 3, "c": 1}},
            {"stacks": {"a;b": 2, "d": 5}},
            {"not_stacks": True},
        ])
        assert merged == {"a;b": 5, "c": 1, "d": 5}
        text = render_folded(merged)
        lines = text.splitlines()
        assert lines[0] == "a;b 5" or lines[0] == "d 5"  # heaviest first
        assert text.endswith("\n")
        assert set(lines) == {"a;b 5", "d 5", "c 1"}

    def test_zero_hz_never_starts(self, monkeypatch):
        from repro.obs.profile import SamplingProfiler, hz_from_env

        monkeypatch.setenv("REPRO_PROFILE_HZ", "0")
        assert hz_from_env() == 0.0
        monkeypatch.setenv("REPRO_PROFILE_HZ", "nonsense")
        assert hz_from_env() == 0.0
        profiler = SamplingProfiler()
        assert not profiler.start(hz=0)
        assert not profiler.running


class TestBuildMemoryAttribution:
    def test_stage_memory_recorded_when_enabled(self, monkeypatch):
        from repro import plan as make_plan
        from repro.planner import PlanExecutor

        monkeypatch.setenv("REPRO_BUILD_MEMORY", "1")
        p = make_plan(QUERY_TEXT, "x, y, z")
        database = demo_database()
        PlanExecutor(p, database).build_lex()
        assert p.stats is not None
        with_memory = [s for s in p.stats.stages if s.mem_bytes is not None]
        assert with_memory, "no stage recorded a memory delta"
        for stage in with_memory:
            assert stage.mem_peak is not None
            assert stage.mem_peak >= 0
        document = p.stats.to_dict()
        assert any("mem_bytes" in stage for stage in document["stages"])

    def test_stage_memory_absent_by_default(self, monkeypatch):
        from repro import plan as make_plan
        from repro.planner import PlanExecutor

        monkeypatch.delenv("REPRO_BUILD_MEMORY", raising=False)
        p = make_plan(QUERY_TEXT, "x, y, z")
        PlanExecutor(p, demo_database()).build_lex()
        assert p.stats is not None
        assert all(s.mem_bytes is None for s in p.stats.stages)
        document = p.stats.to_dict()
        assert all("mem_bytes" not in stage for stage in document["stages"])


@needs_pool
class TestProfileService:
    def test_profile_op_reports_master_and_workers(self, pooled, plan):
        for k in range(plan.count):
            pooled.dispatch_raw(
                {"op": "access", "plan": plan.fingerprint, "k": k}
            )
        response = pooled.execute({"op": "profile", "seconds": 0.3})
        assert response.get("ok"), response
        profile = response["profile"]
        assert profile["master"]["pid"] == os.getpid()
        assert len(profile["workers"]) == 2
        worker_pids = {w["pid"] for w in pooled.pool.stats()["workers"]}
        assert {w["pid"] for w in profile["workers"]} == worker_pids
        assert profile["samples"] > 0
        assert profile["folded"].strip()
        for line in profile["folded"].strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_profile_op_validates_window(self, pooled):
        response = pooled.execute({"op": "profile", "seconds": -1})
        assert not response.get("ok")
        response = pooled.execute({"op": "profile", "seconds": 10_000})
        assert not response.get("ok")
        response = pooled.execute({"op": "profile", "hz": 0})
        assert not response.get("ok")

    def test_readiness_and_debug_profile_endpoints(self, pooled, plan):
        server = make_server(pooled, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            import urllib.request

            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/readyz", timeout=10
            ) as response:
                assert response.status == 200
                document = json.loads(response.read())
            assert document["ready"] is True
            assert len(document["pool"]["workers"]) == 2
            for entry in document["pool"]["workers"]:
                assert entry["alive"]

            pooled.execute({"op": "profile", "seconds": 0.2})
            with urllib.request.urlopen(
                f"http://{host}:{port}/debug/profile", timeout=10
            ) as response:
                assert response.status == 200
                folded = response.read().decode("utf-8")
            assert folded.strip()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
