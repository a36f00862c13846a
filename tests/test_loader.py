"""The database loader: the row shapes it accepts, the GC state it leaves
behind, and what a loaded columnar database keeps resident."""

import gc
import json
import random

import pytest

from repro.engine.backends import available_backends
from repro.service import QueryService, ServiceError, load_database

#: Row payloads that are not arrays of row arrays; ``decode_rows`` (the
#: mutation ops) rejects each, and so must the loader.
NOT_ROW_ARRAYS = {
    "string-row": {"R": {"attributes": ["x", "y"], "rows": ["ab"]}},
    "string-rows": {"R": {"attributes": ["x"], "rows": "abc"}},
    "object-row": {"R": {"attributes": ["x"], "rows": [{"a": 1}]}},
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("shape", sorted(NOT_ROW_ARRAYS))
def test_register_rejects_rows_that_are_not_arrays(backend, shape):
    service = QueryService()
    response = service.execute({
        "op": "register", "name": "bad", "backend": backend,
        "relations": NOT_ROW_ARRAYS[shape],
    })
    assert response["ok"] is False
    assert response["error"]["code"] == "bad_request"
    assert "'R'" in response["error"]["message"]
    assert "bad" not in service.database_names


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("valid", [True, False], ids=["loaded", "rejected"])
def test_load_database_restores_the_gc_state(tmp_path, restore_gc, enabled, valid):
    rows = [[1, 2], [3, 4]] if valid else "abc"
    path = tmp_path / "db.json"
    path.write_text(json.dumps({"relations": {"R": {"attributes": ["x", "y"], "rows": rows}}}))
    (gc.enable if enabled else gc.disable)()
    if valid:
        assert load_database(str(path)).size() == 2
    else:
        with pytest.raises(ServiceError):
            load_database(str(path))
    assert gc.isenabled() is enabled


def e2e_shaped_document(rows: int, seed: int = 7):
    """The benchmark's two databases in one document: the 2-path ``R``/``S``
    and the Relay-style ``Results`` table, all exact ints."""
    rng = random.Random(seed)
    domain = max(8, rows // 8)
    path = {name: sorted({(rng.randrange(domain), rng.randrange(domain))
                          for _ in range(rows)}) for name in ("R", "S")}
    results = [(i, rng.randrange(101), rng.randrange(101), rng.randrange(101))
               for i in range(rows)]
    return {"relations": {
        "R": {"attributes": ["x", "y"], "rows": path["R"]},
        "S": {"attributes": ["y", "z"], "rows": path["S"]},
        "Results": {"attributes": ["id", "c", "n", "e"], "rows": results},
    }}


@pytest.mark.skipif("columnar" not in available_backends(), reason="needs NumPy")
def test_a_served_columnar_database_pins_no_rows(tmp_path):
    document = e2e_shaped_document(600)
    path = tmp_path / "db.json"
    path.write_text(json.dumps(document))
    database = load_database(str(path), backend="columnar")
    service = QueryService()
    service.register_database("d", database)

    weights = {"mappings": {variable: [[value, factor * value] for value in range(101)]
                            for variable, factor in (("c", 5), ("n", 2), ("e", 3))}}
    prepares = [
        {"query": "Q(x, y, z) :- R(x, y), S(y, z)", "order": "x, y, z", "shards": 1},
        {"query": "Q(x, y, z) :- R(x, y), S(y, z)", "order": "x, y, z", "shards": 2},
        {"query": "Q(id, c, n, e) :- Results(id, c, n, e)", "mode": "sum",
         "weights": weights},
    ]
    for prepare in prepares:
        prepared = service.execute({"op": "prepare", "db": "d", **prepare})
        assert prepared["ok"], prepared
        plan, count = prepared["plan"], prepared["count"]
        answer = service.execute({"op": "access", "plan": plan, "k": count // 2})["answer"]
        for read in ({"op": "batch_access", "ks": [0, count - 1]},
                     {"op": "range", "lo": 0, "hi": 16},
                     {"op": "inverted_access", "answer": answer},
                     {"op": "topk", "k": 8},
                     {"op": "count"}):
            response = service.execute({**read, "plan": plan})
            assert response["ok"], response

    for relation in database:
        assert relation.backend == "columnar"
        assert relation.storage._materialized is None, relation.name
    # Rows stay available on demand, decoded from the codes.
    assert database.relation("Results").rows[:2] == tuple(
        document["relations"]["Results"]["rows"][:2])
