"""Observability through the service and HTTP layers, end to end.

These tests drive real requests through :meth:`QueryService.execute` and a
real :class:`ThreadingHTTPServer` and then read the telemetry back out the
same ways an operator would: the ``metrics``/``trace``/``slowlog`` ops, the
``GET /metrics`` Prometheus endpoint, and the trace ids echoed in responses.
The obs singletons are process-global, so every test runs against a reset,
enabled registry and restores the previous state afterwards.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import Database, Relation
from repro.engine.backends import HAS_NUMPY
from repro.obs import METRICS, TRACER, obs_enabled, set_enabled
from repro.service import QueryService, make_server

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"


def small_database():
    return Database(
        [
            Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2)]),
            Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5)]),
        ]
    )


@pytest.fixture(autouse=True)
def clean_obs():
    was_enabled = obs_enabled()
    set_enabled(True)
    METRICS.reset()
    TRACER.reset()
    yield
    METRICS.reset()
    TRACER.reset()
    set_enabled(was_enabled)


@pytest.fixture()
def service():
    service = QueryService()
    service.register_database("db", small_database())
    return service


def prepare(service):
    response = service.execute(
        {"op": "prepare", "db": "db", "query": QUERY_TEXT, "order": "x, y, z"}
    )
    assert response["ok"]
    return response["plan"]


# ----------------------------------------------------------------------
# Middleware: counters, trace echo, slow-query log
# ----------------------------------------------------------------------
class TestServiceMiddleware:
    def test_requests_counted_by_op_and_status(self, service):
        plan = prepare(service)
        service.execute({"op": "access", "plan": plan, "k": 0})
        service.execute({"op": "access", "plan": plan, "k": 10_000})
        snapshot = METRICS.snapshot()["repro_requests_total"]
        by_labels = {
            (v["labels"]["op"], v["labels"]["status"]): v["value"]
            for v in snapshot["values"]
        }
        assert by_labels[("access", "ok")] == 1
        assert by_labels[("access", "out_of_bounds")] == 1
        assert by_labels[("prepare", "ok")] == 1

    def test_success_and_error_responses_echo_a_trace_id(self, service):
        plan = prepare(service)
        ok = service.execute({"op": "access", "plan": plan, "k": 0})
        error = service.execute({"op": "access", "plan": plan, "k": 10_000})
        for response in (ok, error):
            assert isinstance(response["trace"], str) and response["trace"]
        assert ok["ok"] and not error["ok"]
        # Both ids resolve to retained traces.
        for response in (ok, error):
            assert service.execute({"op": "trace", "id": response["trace"]})["ok"]

    def test_no_trace_field_when_disabled(self, service):
        set_enabled(False)
        plan = prepare(service)
        response = service.execute({"op": "access", "plan": plan, "k": 0})
        assert response["ok"]
        assert "trace" not in response

    def test_invalid_op_counts_under_invalid_label(self, service):
        service.execute({"op": "nonsense"})
        values = METRICS.snapshot()["repro_requests_total"]["values"]
        labels = {(v["labels"]["op"], v["labels"]["status"]) for v in values}
        assert ("invalid", "bad_request") in labels

    def test_request_latency_histogram_by_op(self, service):
        plan = prepare(service)
        service.execute({"op": "access", "plan": plan, "k": 0})
        entries = METRICS.snapshot()["repro_request_seconds"]["values"]
        by_op = {entry["labels"]["op"]: entry for entry in entries}
        assert by_op["access"]["count"] == 1
        assert by_op["access"]["sum"] > 0

    def test_slowlog_threshold_zero_records_everything(self):
        service = QueryService(slow_query_seconds=0.0)
        service.register_database("db", small_database())
        plan = prepare(service)
        service.execute({"op": "access", "plan": plan, "k": 0})
        response = service.execute({"op": "slowlog"})
        assert response["ok"]
        assert response["threshold_seconds"] == 0.0
        ops = [entry["op"] for entry in response["slow_queries"]]
        assert "access" in ops and "prepare" in ops
        entry = next(e for e in response["slow_queries"] if e["op"] == "access")
        assert entry["plan"] == plan
        assert entry["rank_span"] == "k=0"
        assert entry["trace"]
        assert METRICS.snapshot()["repro_slow_queries_total"]["values"]

    def test_default_threshold_records_nothing_for_fast_requests(self, service):
        plan = prepare(service)
        service.execute({"op": "access", "plan": plan, "k": 0})
        assert service.execute({"op": "slowlog"})["slow_queries"] == []

    def test_trace_op_returns_span_tree_for_prepare(self, service):
        response = service.execute(
            {"op": "prepare", "db": "db", "query": QUERY_TEXT, "order": "x, y, z"}
        )
        document = service.execute({"op": "trace", "id": response["trace"]})
        assert document["ok"]
        root = document["traced"]["root"]
        assert root["name"] == "op:prepare"
        names = [child["name"] for child in root["children"]]
        assert any(name.startswith("build:") for name in names)

    def test_trace_op_lists_recent_without_id(self, service):
        prepare(service)
        response = service.execute({"op": "trace"})
        assert response["ok"]
        assert response["traces"][0]["name"] == "op:prepare"

    def test_trace_op_unknown_id_is_structured_error(self, service):
        response = service.execute({"op": "trace", "id": "doesnotexist00ff"})
        assert not response["ok"]
        assert response["error"]["code"] == "unknown_trace"

    def test_metrics_op_snapshot_includes_answers_and_cache(self, service):
        plan = prepare(service)
        service.execute({"op": "batch_access", "plan": plan, "ks": [0, 1, 2]})
        service.execute({"op": "access", "plan": plan, "k": 0})
        response = service.execute({"op": "metrics"})
        assert response["ok"] and response["enabled"]
        metrics = response["metrics"]
        answers = {
            v["labels"]["op"]: v["value"]
            for v in metrics["repro_answers_total"]["values"]
        }
        assert answers["batch_access"] == 3
        cache_events = {
            v["labels"]["event"]: v["value"]
            for v in metrics["repro_plan_cache_events_total"]["values"]
        }
        assert cache_events.get("miss", 0) >= 1
        assert cache_events.get("hit", 0) >= 1

    def test_epoch_lag_gauge_tracks_live_mutations(self, service):
        plan = prepare(service)
        service.execute(
            {"op": "insert", "db": "db", "relation": "R", "rows": [[9, 5]]}
        )
        service.update_gauges()
        metrics = METRICS.snapshot()
        lag = {
            v["labels"]["plan"]: v["value"]
            for v in metrics["repro_epoch_lag"]["values"]
        }
        assert lag[plan] == 1
        live = {
            v["labels"]["db"]: v["value"]
            for v in metrics["repro_live_epoch"]["values"]
        }
        assert live["db"] == 1
        # Reading through the plan re-binds it to the new epoch.
        service.execute({"op": "access", "plan": plan, "k": 0})
        service.update_gauges()
        lag = {
            v["labels"]["plan"]: v["value"]
            for v in METRICS.snapshot()["repro_epoch_lag"]["values"]
        }
        assert lag[plan] == 0

    def test_mutation_counters(self, service):
        service.execute(
            {"op": "insert", "db": "db", "relation": "R", "rows": [[9, 5], [8, 5]]}
        )
        metrics = METRICS.snapshot()
        mutations = {
            v["labels"]["op"]: v["value"]
            for v in metrics["repro_mutations_total"]["values"]
        }
        rows = {
            v["labels"]["op"]: v["value"]
            for v in metrics["repro_mutation_rows_total"]["values"]
        }
        assert mutations["insert"] == 1
        assert rows["insert"] == 2

    def test_access_kernel_counter_labels_dispatch(self, service):
        plan = prepare(service)
        service.execute({"op": "access", "plan": plan, "k": 0})
        kernels = {
            (v["labels"]["op"], v["labels"]["kernel"]): v["value"]
            for v in METRICS.snapshot()["repro_access_total"]["values"]
        }
        assert sum(
            count for (op, _), count in kernels.items() if op == "access"
        ) >= 1
        # A built plan reads through its image when NumPy can hold one, and
        # through the object walk otherwise — never both, never another kernel.
        served, other = ("snapshot", "object") if HAS_NUMPY else ("object", "snapshot")
        assert kernels[("access", served)] >= 1
        assert ("access", other) not in kernels
        assert {kernel for _, kernel in kernels} <= {"snapshot", "object"}


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
@pytest.fixture()
def http_server(service):
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", service
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()


def http_post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHTTPExposition:
    def test_prometheus_endpoint_serves_key_series(self, http_server):
        base, service = http_server
        plan = prepare(service)
        http_post(base, "/v1/access", {"plan": plan, "k": 0})
        with urllib.request.urlopen(base + "/metrics") as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "# TYPE repro_requests_total counter" in body
        assert "# TYPE repro_request_seconds histogram" in body
        assert 'repro_request_seconds_bucket{op="access",le="+Inf"}' in body
        assert 'repro_requests_total{op="access",status="ok"} 1' in body
        assert "# TYPE repro_plan_cache_events_total counter" in body
        assert "# TYPE repro_epoch_lag gauge" in body
        assert f'repro_epoch_lag{{plan="{plan}"}} 0' in body
        assert "repro_plans_cached 1" in body

    def test_v1_metrics_is_json_snapshot(self, http_server):
        base, service = http_server
        prepare(service)
        with urllib.request.urlopen(base + "/v1/metrics") as response:
            document = json.loads(response.read())
        assert document["ok"] and document["enabled"]
        assert "repro_requests_total" in document["metrics"]
        assert "slow_queries" in document

    def test_http_error_payload_carries_trace_and_counts(self, http_server):
        base, service = http_server
        plan = prepare(service)
        status, payload = http_post(base, "/v1/access", {"plan": plan, "k": 99})
        assert status == 404
        assert payload["error"]["code"] == "out_of_bounds"
        assert payload["trace"]
        # The span tree for the failed request is retrievable by that id.
        status, traced = http_post(base, "/v1/trace", {"id": payload["trace"]})
        assert status == 200 and traced["traced"]["id"] == payload["trace"]
        errors = {
            (v["labels"]["op"], v["labels"]["status"]): v["value"]
            for v in METRICS.snapshot()["repro_http_errors_total"]["values"]
        }
        assert errors[("access", "404")] == 1

    def test_pre_dispatch_errors_count_as_invalid(self, http_server):
        base, _ = http_server
        status, _ = http_post(base, "/nope", {})
        assert status == 404
        errors = {
            (v["labels"]["op"], v["labels"]["status"]): v["value"]
            for v in METRICS.snapshot()["repro_http_errors_total"]["values"]
        }
        assert errors[("invalid", "404")] == 1


# ----------------------------------------------------------------------
# Equivalence: obs on/off answers
# ----------------------------------------------------------------------
class TestDisabledEquivalence:
    def test_disabling_obs_changes_no_answers(self, service):
        plan = prepare(service)
        requests = [
            {"op": "access", "plan": plan, "k": k} for k in range(4)
        ] + [
            {"op": "batch_access", "plan": plan, "ks": [0, 3, 1]},
            {"op": "range", "plan": plan, "lo": 0, "hi": 4},
        ]

        def serve():
            out = []
            for request in requests:
                response = dict(service.execute(request))
                response.pop("trace", None)
                out.append(response)
            return out

        enabled_answers = serve()
        set_enabled(False)
        disabled_answers = serve()
        assert enabled_answers == disabled_answers
