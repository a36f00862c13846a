"""The SUM build (Lemma 5.9): weight validation and the per-value guard.

Weights are validated where they enter — a weight that cannot rank answers
(a string, a bool, NaN, ±inf) raises :class:`WeightError` in ``Weights`` and
``bad_request`` at the service's ``prepare``.  The build itself weighs each
distinct value that occurs once, never once per answer row, and a served
plan keeps flat columns, never a Python object per answer.
"""

import gc
import math
import random
import tracemalloc

import pytest

from repro import Database, Relation, SumDirectAccess, Weights, parse_query
from repro.engine.backends import available_backends
from repro.exceptions import WeightError
from repro.service import QueryService

UNRANKABLE = ["x", True, False, float("nan"), float("inf"), -math.inf, None, [1]]


class TestWeightValidation:
    @pytest.mark.parametrize("weight", UNRANKABLE)
    def test_set_weight_rejects(self, weight):
        with pytest.raises(WeightError):
            Weights().set_weight("x", 0, weight)

    @pytest.mark.parametrize("weight", UNRANKABLE)
    def test_constructor_rejects_mapped_weight(self, weight):
        with pytest.raises(WeightError):
            Weights({"x": {0: 1, 1: weight}})

    @pytest.mark.parametrize("weight", [w for w in UNRANKABLE if w is not None])
    def test_constructor_rejects_default(self, weight):
        with pytest.raises(WeightError):
            Weights(default=weight)

    def test_identity_rejects_nan_and_bool_values(self):
        weights = Weights.identity()
        for value in (float("nan"), True, "text"):
            with pytest.raises(WeightError):
                weights.weight("x", value)

    @pytest.mark.parametrize("weight", [0, -3, 2 ** 80, 0.5, -0.0, 1e300])
    def test_finite_numbers_are_accepted(self, weight):
        weights = Weights({"x": {0: weight}}, default=weight)
        assert weights.weight("x", 0) == weight
        assert weights.weight("x", 1) == weight

    def test_no_default_is_still_allowed(self):
        weights = Weights({"x": {0: 1}}, default=None)
        with pytest.raises(WeightError):
            weights.weight("x", 1)


class TestValueWeights:
    def test_matches_weight_per_value(self):
        weights = Weights({"x": {1: 5, 2: 7.5}}, default=0)
        assert weights.value_weights("x", [1, 2, 3]) == [5, 7.5, 0]

    def test_unmapped_variable_is_the_constant_default(self, monkeypatch):
        weights = Weights({"x": {1: 5}}, default=3)
        monkeypatch.setattr(Weights, "weight", pytest.fail)
        assert weights.value_weights("y", ["a", "b"]) == [3, 3]

    def test_unmapped_variable_without_default_raises(self):
        weights = Weights({"x": {1: 5}}, default=None)
        assert weights.value_weights("y", []) == []
        with pytest.raises(WeightError):
            weights.value_weights("y", ["a"])

    def test_identity_variables_are_looked_up(self):
        weights = Weights.identity(["x"])
        assert weights.value_weights("x", [4, 2.5]) == [4, 2.5]
        assert weights.value_weights("y", ["s"]) == [0.0]


# ----------------------------------------------------------------------
# The service rejects unrankable weights at prepare
# ----------------------------------------------------------------------
SCORE_QUERY = "Q(a, b) :- R(a, b)"


@pytest.fixture()
def service():
    svc = QueryService(max_plans=4)
    svc.register_database(
        "scores", Database([Relation("R", ("a", "b"), [(0, 1), (1, 2), (2, 0), (3, 1)])])
    )
    return svc


@pytest.mark.parametrize(
    "weights",
    [
        {"mappings": {"b": [[0, "x"]]}},
        {"mappings": {"b": [[0, True]]}},
        {"mappings": {"b": [[0, float("nan")]]}},
        {"mappings": {"b": [[0, 1]]}, "default": "zero"},
        {"mappings": {"b": [[0, 1]]}, "default": float("inf")},
    ],
)
def test_prepare_rejects_unrankable_weights(service, weights):
    response = service.execute(
        {"op": "prepare", "db": "scores", "query": SCORE_QUERY, "mode": "sum",
         "weights": weights}
    )
    assert response["ok"] is False
    assert response["error"]["code"] == "bad_request"


def test_prepare_accepts_rankable_weights(service):
    response = service.execute(
        {"op": "range", "db": "scores", "query": SCORE_QUERY, "mode": "sum",
         "weights": {"mappings": {"b": [[0, 10], [2, 0.5]]}, "default": 1},
         "lo": 0, "hi": 4}
    )
    assert response["ok"] is True
    assert response["answers"] == [[1, 2], [0, 1], [3, 1], [2, 0]]


# ----------------------------------------------------------------------
# Guard: one weight lookup per distinct value, never one per row
# ----------------------------------------------------------------------
@pytest.mark.skipif("columnar" not in available_backends(), reason="needs NumPy")
def test_build_weighs_each_distinct_value_once(monkeypatch):
    rows = [(i, (i * 7) % 50, (i * 13) % 50) for i in range(2000)]
    database = Database([Relation("R", ("id", "c", "n"), rows, backend="columnar")])
    weights = Weights(
        {"c": {v: 5 * v for v in range(50)}, "n": {v: 2 * v for v in range(50)}},
        default=0,
    )
    lookups = {}
    original = Weights.weight

    def counting(self, variable, value):
        lookups[variable] = lookups.get(variable, 0) + 1
        return original(self, variable, value)

    monkeypatch.setattr(Weights, "weight", counting)
    access = SumDirectAccess(
        parse_query("Q(id, c, n) :- R(id, c, n)"), database, weights=weights,
        backend="columnar",
    )
    assert access.count == 2000
    assert lookups.get("c", 0) <= 50 and lookups.get("n", 0) <= 50
    assert lookups.get("id", 0) == 0  # unmapped: the constant default
    assert "score_and_sort" in [stage.name for stage in access.report.stages]
    weights_sorted = [access.answer_weight(k) for k in range(access.count)]
    assert weights_sorted == sorted(5 * c + 2 * n for _, c, n in rows)

    service = QueryService(max_plans=4)
    service.register_database("scores", database)
    prepared = service.execute(
        {"op": "prepare", "db": "scores", "query": "Q(id, c, n) :- R(id, c, n)",
         "mode": "sum", "weights": {"mappings": {"c": [[v, 5 * v] for v in range(50)]}}}
    )
    assert prepared["ok"] is True
    stats = service.execute({"op": "stats"})["stats"]
    (entry,) = [plan for plan in stats["plans"] if plan["plan"] == prepared["plan"]]
    assert "score_and_sort" in [stage["name"] for stage in entry["build"]["stages"]]


# ----------------------------------------------------------------------
# Guard: a served SUM plan keeps flat columns, no Python object per answer
# ----------------------------------------------------------------------
@pytest.mark.skipif("columnar" not in available_backends(), reason="needs NumPy")
class TestServedSumPlanKeepsNoPerAnswerObjects:
    """After prepare and every read op — ``inverted_access`` and ``topk``
    included — a SUM engine holds its answers as one object matrix and one
    weight column: no list, tuple or dict as long as its answer count, and
    far fewer retained bytes per answer than boxed tuples plus an index dict
    (~165 B each) took."""

    ROWS = 20_000
    QUERY = "Q(id, c, n, e) :- Results(id, c, n, e)"
    WEIGHTS = {
        "mappings": {variable: [[value, factor * value] for value in range(101)]
                     for variable, factor in (("c", 5), ("n", 2), ("e", 3))},
        "default": 0,
    }

    @pytest.mark.parametrize("backend", ["row", "columnar"])
    def test_prepare_and_reads_keep_flat_columns(self, backend):
        rng = random.Random(7)
        rows = [(i, rng.randrange(101), rng.randrange(101), rng.randrange(101))
                for i in range(self.ROWS)]
        service = QueryService(max_plans=4)
        service.register_database("scores", Database(
            [Relation("Results", ("id", "c", "n", "e"), rows)], backend=backend))
        spec = {"db": "scores", "query": self.QUERY, "mode": "sum",
                "weights": self.WEIGHTS}

        def ok(request):
            response = service.execute(request)
            assert response["ok"], response
            return response

        # A first, smaller plan settles imports and caches outside the window.
        ok({"op": "prepare", "db": "scores", "mode": "sum",
            "query": "Q(id, c) :- Results(id, c, n, e)"})
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prepared = ok({**spec, "op": "prepare"})
            plan, count = prepared["plan"], prepared["count"]
            answer = ok({"op": "access", "plan": plan, "k": count // 2})["answer"]
            ok({"op": "batch_access", "plan": plan, "ks": [0, count - 1, 3]})
            ok({"op": "range", "plan": plan, "lo": 10, "hi": 60})
            assert len(ok({"op": "topk", "plan": plan, "k": 100})["answers"]) == 100
            assert ok({"op": "inverted_access", "plan": plan,
                       "answer": answer})["k"] == count // 2
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert count == self.ROWS
        engine = service.plan(plan).engine
        boxed = {name: len(value) for name, value in vars(engine).items()
                 if isinstance(value, (list, tuple, dict)) and len(value) >= count}
        assert boxed == {}
        # 4 object cells + 1 int64 weight = 40 B per answer, plus plan overhead.
        assert retained / count < 64, retained / count
