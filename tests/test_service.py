"""QueryService: prepared plans, request ops, invalidation, protocol execute.

The service is the serving-system face of the paper's preprocessing/access
split; these tests pin its contracts: canonicalized plan fingerprints (one
cache entry per *meaning*, not per spelling), correct answers through every
op, invalidation on database re-registration, build coalescing under
concurrent prepare, and the error envelope of the request interface.
"""

import threading

import pytest

from repro import Database, LexOrder, Relation, parse_query
from repro.engine.backends import available_backends
from repro.service import PlanSpec, QueryService, ServiceError, run_requests

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"


def small_database():
    return Database(
        [
            Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2)]),
            Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5)]),
        ]
    )


@pytest.fixture()
def service():
    svc = QueryService(max_plans=8)
    svc.register_database("demo", small_database())
    return svc


class TestPlanSpecs:
    def test_equivalent_spellings_share_a_fingerprint(self):
        text = PlanSpec.create("demo", "Q(x,y,z) :- R(x , y), S(y,z)", order="x, y, z")
        objects = PlanSpec.create(
            "demo", parse_query(QUERY_TEXT), order=LexOrder(("x", "y", "z"))
        )
        assert text.fingerprint == objects.fingerprint

    def test_different_orders_differ(self):
        a = PlanSpec.create("demo", QUERY_TEXT, order="x, y, z")
        b = PlanSpec.create("demo", QUERY_TEXT, order="x, y desc, z")
        assert a.fingerprint != b.fingerprint

    def test_default_order_spelled_out_shares_the_fingerprint(self):
        # The ascending head order is what an omitted order defaults to, so
        # both spellings must mean the same plan (one cache entry).
        explicit = PlanSpec.create("demo", QUERY_TEXT, order="x, y, z")
        omitted = PlanSpec.create("demo", QUERY_TEXT)
        assert explicit.fingerprint == omitted.fingerprint
        non_default = PlanSpec.create("demo", QUERY_TEXT, order="y, x, z")
        assert non_default.fingerprint != omitted.fingerprint

    def test_fd_sets_are_order_insensitive(self):
        a = PlanSpec.create("demo", QUERY_TEXT, fds=["R: x -> y", "S: y -> z"])
        b = PlanSpec.create("demo", QUERY_TEXT, fds=["S: y -> z", "R: x -> y"])
        assert a.fingerprint == b.fingerprint

    def test_unknown_mode_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            PlanSpec.create("demo", QUERY_TEXT, mode="mystery")
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "enum", "fds": ["R: x -> y"]},
            {"mode": "sum", "order": "x, y, z"},
            {"mode": "enum", "order": "x, y, z"},
            {"mode": "lex", "weights": {"mappings": {}}},
        ],
    )
    def test_mode_irrelevant_fields_rejected(self, kwargs):
        # Fields a mode would silently ignore must be refused, not fingerprinted.
        with pytest.raises(ServiceError) as excinfo:
            PlanSpec.create("demo", QUERY_TEXT, **kwargs)
        assert excinfo.value.code == "bad_request"


class TestOperations:
    def test_lex_plan_round_trip(self, service):
        plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
        assert plan.count == 5
        answers = [plan.access(k) for k in range(plan.count)]
        assert plan.batch_access(list(range(plan.count))) == answers
        assert plan.range(1, 4) == answers[1:4]
        assert plan.topk(3) == answers[:3]
        for k, answer in enumerate(answers):
            assert plan.inverted_access(answer) == k

    def test_sum_plan(self, service):
        plan = service.prepare("demo", "Q(x, y) :- R(x, y)", mode="sum")
        assert plan.count == 3
        assert plan.batch_access([0, 1, 2]) == [plan.access(k) for k in range(3)]

    def test_enum_plan_topk_is_stable_and_growable(self, service):
        plan = service.prepare("demo", QUERY_TEXT, mode="enum")
        first = plan.topk(2)
        assert plan.topk(2) == first          # cached prefix, same answers
        assert plan.topk(4)[:2] == first      # growing keeps the prefix
        assert plan.topk(100) == plan.topk(100)  # exhaustion is sticky

    def test_enum_plan_refuses_direct_access(self, service):
        plan = service.prepare("demo", QUERY_TEXT, mode="enum")
        with pytest.raises(ServiceError) as excinfo:
            plan.access(0)
        assert excinfo.value.code == "unsupported"

    def test_selection(self, service):
        lex = service.prepare("demo", QUERY_TEXT, order="z, y, x")
        for k in range(lex.count):
            assert service.selection("demo", QUERY_TEXT, k, order="z, y, x") == lex.access(k)

    def test_selection_rejects_order_and_weights_together(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.selection(
                "demo", QUERY_TEXT, 0, order="z, y, x", weights={"mappings": {}}
            )
        assert excinfo.value.code == "bad_request"

    def test_selection_validates_rank_type(self, service):
        for bad in (True, 2.5):
            with pytest.raises(TypeError):
                service.selection("demo", QUERY_TEXT, bad, order="z, y, x")
            response = service.execute(
                {"op": "selection", "db": "demo", "query": QUERY_TEXT,
                 "order": "z, y, x", "k": bad}
            )
            assert response["error"]["code"] == "bad_request"

    def test_unknown_database(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.prepare("nope", QUERY_TEXT)
        assert excinfo.value.code == "unknown_database"

    def test_unknown_plan_fingerprint(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.plan("feedfacefeedface")
        assert excinfo.value.code == "unknown_plan"

    def test_unknown_database_does_not_record_the_spec(self, service):
        from repro.service import PlanSpec

        spec = PlanSpec.create("ghost", QUERY_TEXT)
        with pytest.raises(ServiceError):
            service.plan_for_spec(spec)
        with pytest.raises(ServiceError) as excinfo:
            service.plan(spec.fingerprint)
        assert excinfo.value.code == "unknown_plan"

    def test_spec_table_is_bounded(self, service):
        service._max_specs = 5
        for i in range(12):
            service.prepare("demo", f"Q{i}(x, y) :- R(x, y)")
        assert len(service._specs) <= 5

    def test_hot_fingerprint_survives_spec_churn(self, service):
        service._max_specs = 4
        plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
        for i in range(10):
            service.prepare("demo", f"Q{i}(x, y) :- R(x, y)")
            service.plan(plan.fingerprint)    # every use refreshes recency
        assert service.plan(plan.fingerprint).fingerprint == plan.fingerprint


class TestCachingAndInvalidation:
    def test_prepare_is_cached(self, service):
        a = service.prepare("demo", QUERY_TEXT, order="x, y, z")
        b = service.prepare("demo", " Q(x, y, z)  :-  R(x, y), S(y, z) ", order="x, y, z")
        assert a is b
        assert service.stats()["cache"]["misses"] == 1
        assert service.stats()["cache"]["hits"] == 1

    def test_reregistration_invalidates_and_reprepares(self, service):
        plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
        assert plan.count == 5
        fingerprint = plan.fingerprint

        bigger = small_database().with_relation(
            Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5), (2, 8)])
        )
        generation = service.register_database("demo", bigger)
        assert generation == 2
        assert service.stats()["cache"]["invalidations"] >= 1

        fresh = service.plan(fingerprint)       # same id, new data
        assert fresh is not plan
        assert fresh.generation == 2
        assert fresh.count == 7
        # The old handle still answers from the old snapshot (immutable plans).
        assert plan.count == 5

    def test_unrelated_database_keeps_its_plans(self, service):
        service.register_database("other", small_database())
        other_plan = service.prepare("other", QUERY_TEXT, order="x, y, z")
        service.register_database("demo", small_database())
        assert service.prepare("other", QUERY_TEXT, order="x, y, z") is other_plan

    def test_eviction_reprepares_transparently(self):
        service = QueryService(max_plans=1)
        service.register_database("demo", small_database())
        a = service.prepare("demo", QUERY_TEXT, order="x, y, z")
        service.prepare("demo", QUERY_TEXT, order="z, y, x")   # evicts a
        again = service.plan(a.fingerprint)
        assert again is not a
        assert [again.access(k) for k in range(again.count)] == [
            a.access(k) for k in range(a.count)
        ]

    def test_concurrent_prepare_of_same_key_builds_once(self, service):
        plans = []
        barrier = threading.Barrier(6, timeout=5)

        def worker():
            barrier.wait()
            plans.append(service.prepare("demo", QUERY_TEXT, order="x, y, z"))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert len(plans) == 6
        assert all(plan is plans[0] for plan in plans)
        stats = service.stats()["cache"]
        assert stats["misses"] == 1
        assert stats["hits"] + stats["coalesced"] == 5

    def test_concurrent_mixed_requests(self, service):
        plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
        answers = [plan.access(k) for k in range(plan.count)]
        failures = []

        def worker(offset):
            try:
                for _ in range(50):
                    assert plan.batch_access([offset, (offset + 1) % 5]) == [
                        answers[offset], answers[(offset + 1) % 5]
                    ]
                    assert plan.inverted_access(answers[offset]) == offset
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(i % 5,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures


class TestUnorderableInvertedAccess:
    """An answer holding a value its column cannot order (a string, ``None``
    or a list among ints) is simply not an answer — on every backend, shard
    count and walk — rather than an internal error."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize(
        "answer", [["a", 1, 2], [None, 1, 2], [[1], 1, 2], [1, "b", 2]],
        ids=["str", "null", "list", "str-second"])
    def test_is_not_an_answer(self, service, backend, shards, answer):
        response = service.execute({
            "op": "inverted_access", "db": "demo", "query": QUERY_TEXT,
            "order": "x, y, z", "backend": backend, "shards": shards,
            "answer": answer,
        })
        assert response["ok"] is False
        assert response["error"]["code"] == "not_an_answer"


class TestSumUnmatchableInvertedAccess:
    """The SUM counterpart: an answer holding an unhashable value (a list, an
    object) or a value its weights cannot weigh (a string under identity
    weights) matches no answer, so it is ``not_an_answer`` on every backend
    rather than an internal error — while an alias Python equality accepts
    (``True`` for ``1``) still resolves to the answer it equals."""

    SUM_QUERY = "Q(x, y) :- R(x, y)"
    WEIGHTS = {
        "identity": None,
        "mapped": {"mappings": {"x": [[1, 3], [6, 1]]}, "default": 0},
    }

    def _request(self, backend, weights, answer):
        request = {"op": "inverted_access", "db": "demo", "query": self.SUM_QUERY,
                   "mode": "sum", "backend": backend, "answer": answer}
        if self.WEIGHTS[weights] is not None:
            request["weights"] = self.WEIGHTS[weights]
        return request

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize(
        "answer", [[[1], 2], [{"a": 1}, 2], [1, [2]], ["a", 5], [None, 2]],
        ids=["list", "object", "list-second", "str", "null"])
    def test_is_not_an_answer(self, service, backend, weights, answer):
        response = service.execute(self._request(backend, weights, answer))
        assert response["ok"] is False
        assert response["error"]["code"] == "not_an_answer"

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    def test_every_answer_and_its_alias_resolve(self, service, backend, weights):
        request = self._request(backend, weights, None)
        answers = service.execute({**request, "op": "topk", "k": 10})["answers"]
        assert sorted(map(tuple, answers)) == [(1, 2), (1, 5), (6, 2)]
        for k, answer in enumerate(answers):
            assert service.execute({**request, "answer": answer})["k"] == k
            if answer[0] == 1:
                alias = service.execute({**request, "answer": [True, answer[1]]})
                assert alias["k"] == k


class TestExecuteProtocol:
    def test_inline_spec_requests(self, service):
        base = {"db": "demo", "query": QUERY_TEXT, "order": "x, y, z"}
        prepare = service.execute({**base, "op": "prepare"})
        assert prepare["ok"] and prepare["count"] == 5
        plan_id = prepare["plan"]

        access = service.execute({"op": "access", "plan": plan_id, "k": 0})
        trace_id = access.pop("trace", None)
        if trace_id is not None:  # tracing on: the echoed id must be retained
            assert isinstance(trace_id, str) and trace_id
        assert access == {
            "ok": True, "op": "access", "plan": plan_id, "k": 0,
            "answer": [1, 2, 5],
        }
        batch = service.execute({"op": "batch_access", "plan": plan_id, "ks": [2, 0]})
        assert batch["answers"] == [[1, 5, 4], [1, 2, 5]]
        ranged = service.execute({"op": "range", "plan": plan_id, "lo": 0, "hi": 2})
        assert ranged["answers"] == [[1, 2, 5], [1, 5, 3]]
        inverted = service.execute(
            {"op": "inverted_access", "plan": plan_id, "answer": [1, 5, 3]}
        )
        assert inverted["k"] == 1

    def test_error_envelope(self, service):
        base = {"db": "demo", "query": QUERY_TEXT, "order": "x, y, z"}
        oob = service.execute({**base, "op": "access", "k": 999})
        assert oob["ok"] is False
        assert oob["error"]["code"] == "out_of_bounds"
        assert "999" in oob["error"]["message"]
        assert "5 answers" in oob["error"]["message"]

        bad_type = service.execute({**base, "op": "access", "k": True})
        assert bad_type["error"]["code"] == "bad_request"

        not_answer = service.execute(
            {**base, "op": "inverted_access", "answer": [7, 7, 7]}
        )
        assert not_answer["error"]["code"] == "not_an_answer"

        unknown_op = service.execute({"op": "frobnicate"})
        assert unknown_op["error"]["code"] == "bad_request"

        unknown_db = service.execute({"op": "count", "db": "nope", "query": QUERY_TEXT})
        assert unknown_db["error"]["code"] == "unknown_database"

        bad_backend = service.execute(
            {**base, "op": "prepare", "backend": "bogus"}
        )
        assert bad_backend["error"]["code"] == "bad_request"
        assert "bogus" in bad_backend["error"]["message"]

        intractable = service.execute(
            {"op": "prepare", "db": "demo", "query": "Q(x, z) :- R(x, y), S(y, z)"}
        )
        assert intractable["error"]["code"] == "intractable_query"

    def test_register_and_stats_ops(self, service):
        response = service.execute(
            {
                "op": "register",
                "name": "tiny",
                "relations": {"R": {"attributes": ["x"], "rows": [[1], [2]]}},
            }
        )
        assert response["ok"] and response["generation"] == 1 and response["tuples"] == 2
        assert "tiny" in service.database_names
        stats = service.execute({"op": "stats"})["stats"]
        assert stats["databases"]["tiny"]["tuples"] == 2
        assert stats["ops"]["register"] == 1

    def test_run_requests_runner(self, service):
        responses = run_requests(
            service,
            [
                {"op": "prepare", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z"},
                {"op": "access", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z", "k": 4},
                {"op": "access", "db": "demo", "query": QUERY_TEXT, "order": "x, y, z", "k": 99},
            ],
        )
        assert [r["ok"] for r in responses] == [True, True, False]
        assert responses[1]["answer"] == [6, 2, 5]
