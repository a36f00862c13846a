"""The service's mutation API: ops, plan re-binding, validation, HTTP 400s.

Pins the live-update contract at the protocol boundary: ``insert`` /
``delete`` / ``compact`` ops, prepared plans re-binding to new epochs while
keeping their fingerprints (no invalidation), SUM/enum engines rebuilding
lazily, and — the validation satellite — every malformed-mutation shape
(unknown relation, wrong arity, unhashable value, bad rows payload, unknown
database) answering a structured error with the right code, over the HTTP
front-end a 400/404, never a 500.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import Database, Relation
from repro.core.preprocessing import Bucket
from repro.engine.backends import available_backends
from repro.service import QueryService, make_server

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"


def demo_database():
    return Database(
        [
            Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2)]),
            Relation("S", ("y", "z"), [(5, 3), (5, 4), (2, 5)]),
        ]
    )


@pytest.fixture()
def service():
    svc = QueryService(max_plans=8)
    svc.register_database("demo", demo_database())
    return svc


class TestMutationOps:
    def test_insert_reports_applied_and_epoch(self, service):
        response = service.execute(
            {"op": "insert", "db": "demo", "relation": "R", "rows": [[0, 5], [1, 5]]}
        )
        assert response["ok"]
        assert response["applied"] == 1  # (1, 5) already present
        assert response["epoch"] == 1

    def test_delete_reports_removed_and_epoch(self, service):
        response = service.execute(
            {"op": "delete", "db": "demo", "relation": "S", "rows": [[5, 3], [9, 9]]}
        )
        assert response["ok"]
        assert response["removed"] == 1
        assert response["epoch"] == 1

    def test_noop_mutation_keeps_epoch(self, service):
        response = service.execute(
            {"op": "insert", "db": "demo", "relation": "R", "rows": [[1, 5]]}
        )
        assert response["ok"] and response["applied"] == 0 and response["epoch"] == 0

    def test_ops_counted_in_stats(self, service):
        service.execute({"op": "insert", "db": "demo", "relation": "R", "rows": [[0, 5]]})
        stats = service.execute({"op": "stats"})["stats"]
        assert stats["ops"]["insert"] == 1
        live = stats["databases"]["demo"]["live"]
        assert live["epoch"] == 1 and live["pending_inserted"] == 1


class TestPlanRebinding:
    def test_lex_plan_rebinds_without_invalidation(self, service):
        prepared = service.execute(
            {"op": "prepare", "db": "demo", "query": QUERY_TEXT}
        )
        fingerprint = prepared["plan"]
        count = prepared["count"]
        assert prepared["epoch"] == 0
        invalidations_before = service.stats()["cache"]["invalidations"]

        service.execute(
            {"op": "insert", "db": "demo", "relation": "R", "rows": [[0, 5]]}
        )
        again = service.execute({"op": "prepare", "db": "demo", "query": QUERY_TEXT})
        assert again["plan"] == fingerprint
        assert again["count"] == count + 2  # (0,5,3) and (0,5,4)
        assert again["epoch"] == 1
        assert service.stats()["cache"]["invalidations"] == invalidations_before

    def test_lex_answers_follow_mutations(self, service):
        prepared = service.execute({"op": "prepare", "db": "demo", "query": QUERY_TEXT})
        service.execute(
            {"op": "delete", "db": "demo", "relation": "R", "rows": [[1, 5]]}
        )
        batch = service.execute(
            {"op": "batch_access", "plan": prepared["plan"], "ks": [0]}
        )
        assert batch["ok"]
        assert batch["answers"][0] == [1, 2, 5]

    def test_sum_plan_rebuilds_lazily(self, service):
        prepared = service.execute(
            {"op": "prepare", "db": "demo", "query": "Q(x, y) :- R(x, y)", "mode": "sum"}
        )
        service.execute(
            {"op": "insert", "db": "demo", "relation": "R", "rows": [[9, 9]]}
        )
        count = service.execute({"op": "count", "plan": prepared["plan"]})
        assert count["count"] == 4

    def test_topk_follows_mutations(self, service):
        prepared = service.execute(
            {"op": "prepare", "db": "demo", "query": "Q(x, y) :- R(x, y)",
             "mode": "enum"}
        )
        first = service.execute({"op": "topk", "plan": prepared["plan"], "k": 10})
        service.execute(
            {"op": "insert", "db": "demo", "relation": "R", "rows": [[0, 0]]}
        )
        second = service.execute({"op": "topk", "plan": prepared["plan"], "k": 10})
        assert len(second["answers"]) == len(first["answers"]) + 1

    def test_selection_sees_live_state(self, service):
        service.execute(
            {"op": "delete", "db": "demo", "relation": "R",
             "rows": [[1, 5], [1, 2]]}
        )
        response = service.execute(
            {"op": "selection", "db": "demo", "query": QUERY_TEXT,
             "order": "x, y, z", "k": 0}
        )
        assert response["answer"] == [6, 2, 5]

    def test_compact_rebases_plans_and_trims_log(self, service):
        prepared = service.execute({"op": "prepare", "db": "demo", "query": QUERY_TEXT})
        service.execute(
            {"op": "insert", "db": "demo", "relation": "R", "rows": [[0, 5]]}
        )
        response = service.execute({"op": "compact", "db": "demo"})
        assert response["ok"]
        assert response["plans_compacted"] == 1
        assert response["compactions"][0]["plan"] == prepared["plan"]
        assert response["log_trimmed"] >= 1
        live = service.live("demo")
        assert live.stats()["log_entries"] == 0

    def test_reregistration_still_invalidates(self, service):
        service.execute({"op": "prepare", "db": "demo", "query": QUERY_TEXT})
        before = service.stats()["cache"]["invalidations"]
        service.register_database("demo", demo_database())
        assert service.stats()["cache"]["invalidations"] == before + 1

    def test_explain_records_live_epoch(self, service):
        service.execute(
            {"op": "insert", "db": "demo", "relation": "R", "rows": [[0, 5]]}
        )
        response = service.execute(
            {"op": "explain", "db": "demo", "query": QUERY_TEXT}
        )
        assert response["ok"]
        assert response["live"]["epoch"] == 1


@pytest.mark.skipif("columnar" not in available_backends(), reason="needs NumPy")
class TestServedReadsBuildNoBuckets:
    """A columnar LEX plan serves from its image: no served op — prepare,
    the read ops, a mutation and its refresh, a compaction — may decode a
    layer's buckets."""

    @pytest.fixture()
    def built(self, monkeypatch):
        built = []
        init = Bucket.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Bucket, "__init__", counted)
        return built

    @pytest.mark.parametrize("shards", [1, 2])
    def test_no_served_op_builds_a_bucket(self, built, shards):
        service = QueryService(max_plans=8)
        rows_r = [(x, y) for x in range(12) for y in (x % 4, (x + 1) % 4)]
        rows_s = [(y, z) for y in range(4) for z in (y, y + 2)]
        service.register_database("demo", Database(
            [Relation("R", ("x", "y"), rows_r), Relation("S", ("y", "z"), rows_s)],
            backend="columnar",
        ))

        def ok(request):
            response = service.execute(request)
            assert response["ok"], response
            return response

        try:
            plan = ok({"op": "prepare", "db": "demo", "query": QUERY_TEXT,
                       "order": "x, y, z", "backend": "columnar",
                       "shards": shards})["plan"]

            def read_everything():
                count = ok({"op": "count", "plan": plan})["count"]
                answer = ok({"op": "access", "plan": plan, "k": count // 2})["answer"]
                ok({"op": "batch_access", "plan": plan, "ks": [0, count - 1, 3]})
                ok({"op": "range", "plan": plan, "lo": 1, "hi": count})
                assert ok({"op": "inverted_access", "plan": plan,
                           "answer": answer})["k"] == count // 2
                engine = service.plan(plan).engine
                assert engine.next_answer_index(answer) == count // 2

            read_everything()
            ok({"op": "insert", "db": "demo", "relation": "R", "rows": [[0, 3]]})
            read_everything()
            ok({"op": "compact", "db": "demo"})
            read_everything()
        finally:
            service.close()
        assert built == []


@pytest.mark.skipif("columnar" not in available_backends(), reason="needs NumPy")
class TestServedWritesDecodeNoRows:
    """On a columnar base the write path stays on codes: an insert, a
    delete, the first read after each and a compaction decode no relation's
    rows (no ``ColumnarStorage.materialize`` call)."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("query", [QUERY_TEXT, "Q(x, y) :- R(x, y), S(y, z)"])
    def test_no_write_path_op_materializes(self, monkeypatch, shards, query):
        from repro.engine.backends.columnar import ColumnarStorage

        service = QueryService(max_plans=8)
        rows_r = [(x, y) for x in range(40) for y in (x % 4, (x + 1) % 4)]
        rows_s = [(y, z) for y in range(4) for z in (y, y + 2)]
        service.register_database("demo", Database(
            [Relation("R", ("x", "y"), rows_r), Relation("S", ("y", "z"), rows_s)],
            backend="columnar",
        ))

        def ok(request):
            response = service.execute(request)
            assert response["ok"], response
            return response

        decoded = []
        materialize = ColumnarStorage.materialize

        def counted(self):
            decoded.append(len(self))
            return materialize(self)

        try:
            plan = ok({"op": "prepare", "db": "demo", "query": query,
                       "backend": "columnar", "shards": shards})["plan"]
            ok({"op": "count", "plan": plan})
            monkeypatch.setattr(ColumnarStorage, "materialize", counted)
            ok({"op": "insert", "db": "demo", "relation": "R",
                "rows": [[0, 3], [1000, 1], [7, 2]]})
            ok({"op": "batch_access", "plan": plan, "ks": [0, 1, 2]})
            ok({"op": "delete", "db": "demo", "relation": "R",
                "rows": [[1, 1], [2, 2], [1000, 1]]})
            ok({"op": "batch_access", "plan": plan, "ks": [0, 1, 2]})
            assert ok({"op": "compact", "db": "demo"})["plans_compacted"] == 1
            ok({"op": "batch_access", "plan": plan, "ks": [0, 1, 2]})
        finally:
            service.close()
        assert decoded == []


class TestMutationValidation:
    CASES = [
        ({"op": "insert", "db": "demo", "relation": "Nope", "rows": [[1, 2]]},
         "bad_request", "unknown relation"),
        ({"op": "insert", "db": "demo", "relation": "R", "rows": [[1, 2, 3]]},
         "bad_request", "arity"),
        ({"op": "insert", "db": "demo", "relation": "R", "rows": [[1, [2]]]},
         "bad_request", "unhashable"),
        ({"op": "delete", "db": "demo", "relation": "R", "rows": [[1, {"a": 1}]]},
         "bad_request", "unhashable"),
        ({"op": "insert", "db": "demo", "relation": "R", "rows": "nope"},
         "bad_request", "array of row arrays"),
        ({"op": "insert", "db": "demo", "relation": "R", "rows": [7]},
         "bad_request", "must be arrays"),
        ({"op": "insert", "db": "demo", "relation": "R"},
         "bad_request", "rows"),
        ({"op": "insert", "db": "demo", "rows": [[1, 2]]},
         "bad_request", "relation"),
        ({"op": "insert", "relation": "R", "rows": [[1, 2]]},
         "bad_request", "db"),
        ({"op": "insert", "db": "ghost", "relation": "R", "rows": [[1, 2]]},
         "unknown_database", "ghost"),
        ({"op": "compact"}, "bad_request", "db"),
    ]

    @pytest.mark.parametrize("request_obj,code,fragment", CASES)
    def test_malformed_mutation_is_structured(self, service, request_obj, code, fragment):
        response = service.execute(request_obj)
        assert response["ok"] is False
        assert response["error"]["code"] == code
        assert fragment in response["error"]["message"]

    def test_invalid_batch_applies_nothing(self, service):
        response = service.execute(
            {"op": "insert", "db": "demo", "relation": "R",
             "rows": [[0, 5], [1, 2, 3]]}
        )
        assert not response["ok"]
        assert service.live("demo").epoch == 0


class TestMutationsOverHTTP:
    @pytest.fixture()
    def server(self, service):
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def post(self, server, path, payload):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=5) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_insert_query_compact_round_trip(self, server):
        status, prepared = self.post(
            server, "/v1/prepare", {"db": "demo", "query": QUERY_TEXT}
        )
        assert status == 200
        status, inserted = self.post(
            server, "/v1/insert",
            {"db": "demo", "relation": "R", "rows": [[0, 5]]},
        )
        assert status == 200 and inserted["applied"] == 1
        status, batch = self.post(
            server, "/v1/batch_access", {"plan": prepared["plan"], "ks": [0, 1]}
        )
        assert status == 200
        assert batch["answers"] == [[0, 5, 3], [0, 5, 4]]
        status, compacted = self.post(server, "/v1/compact", {"db": "demo"})
        assert status == 200 and compacted["plans_compacted"] == 1

    @pytest.mark.parametrize(
        "payload,status",
        [
            ({"db": "demo", "relation": "Nope", "rows": [[1, 2]]}, 400),
            ({"db": "demo", "relation": "R", "rows": [[1, 2, 3]]}, 400),
            ({"db": "demo", "relation": "R", "rows": [[1, [2]]]}, 400),
            ({"db": "demo", "relation": "R", "rows": "nope"}, 400),
            ({"db": "ghost", "relation": "R", "rows": [[1, 2]]}, 404),
        ],
    )
    def test_malformed_mutations_are_4xx_never_500(self, server, payload, status):
        got, body = self.post(server, "/v1/insert", payload)
        assert got == status
        assert body["ok"] is False
        assert body["error"]["code"] in ("bad_request", "unknown_database")
