"""Unit tests for the sharding layer: partitioner, ShardedInstance, plan
threading and the service/CLI surface."""

import json

import pytest

from repro import (
    Atom,
    ConjunctiveQuery,
    Database,
    LexDirectAccess,
    LexOrder,
    Relation,
    selection_lex,
)
from repro.engine.backends import available_backends
from repro.engine.partition import range_partition
from repro.exceptions import NotAnAnswerError, OutOfBoundsError
from repro.planner import plan
from repro.service import QueryService

BACKENDS = [None] + (["columnar"] if "columnar" in available_backends() else [])

PATH_QUERY = ConjunctiveQuery(
    ("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))], name="Q"
)
ORDER = LexOrder(("x", "y", "z"))


def path_database(backend=None):
    rows_r = [(x, y) for x in range(8) for y in range(4) if (x + y) % 3 != 1]
    rows_s = [(y, z) for y in range(4) for z in range(5) if (y * z) % 4 != 2]
    return Database([
        Relation("R", ("x", "y"), rows_r, backend=backend),
        Relation("S", ("y", "z"), rows_s, backend=backend),
    ])


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
class TestRangePartition:
    def test_contiguous_balanced_ranges(self):
        database = path_database()
        partition = range_partition(database, "x", 3)
        assert partition.shard_count == 3
        assert partition.co_partitioned == ("R",)
        assert partition.replicated == ("S",)
        # Shard of a value is monotone in the sorted leading domain.
        values = sorted(partition.value_to_shard)
        shards_in_order = [partition.value_to_shard[v] for v in values]
        assert shards_in_order == sorted(shards_in_order)
        assert set(shards_in_order) == {0, 1, 2}
        # Every R row lands in exactly one shard; S is shared untouched.
        total = sum(len(db.relation("R")) for db in partition.shard_databases)
        assert total == len(database.relation("R"))
        for shard_db in partition.shard_databases:
            assert shard_db.relation("S") is database.relation("S")

    def test_descending_reverses_shard_order(self):
        database = path_database()
        partition = range_partition(database, "x", 2, descending=True)
        # Under a descending leading component, shard 0 owns the largest values.
        assert partition.value_to_shard[7] == 0
        assert partition.value_to_shard[0] == 1

    def test_more_shards_than_values_leaves_empty_shards(self):
        database = path_database()
        partition = range_partition(database, "x", 50)
        sizes = [len(db.relation("R")) for db in partition.shard_databases]
        assert sum(sizes) == len(database.relation("R"))
        assert sizes.count(0) == 50 - 8  # 8 distinct x values

    def test_unseen_value_routes_nowhere(self):
        partition = range_partition(path_database(), "x", 2)
        assert partition.shard_of_value(999) is None
        assert partition.shard_of_value([]) is None  # unhashable probe

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            range_partition(path_database(), "x", 0)


# ----------------------------------------------------------------------
# Sharded direct access (facade level)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", [1, 2, 7, 64])
class TestShardedEquivalence:
    def test_all_access_operations_match_monolith(self, backend, shards):
        database = path_database(backend)
        mono = LexDirectAccess(PATH_QUERY, database, ORDER, backend=backend)
        sharded = LexDirectAccess(
            PATH_QUERY, database, ORDER, backend=backend, shards=shards
        )
        assert sharded.count == mono.count
        ranks = range(mono.count)
        assert sharded.batch_access(ranks) == mono.batch_access(ranks)
        assert [sharded.access(k) for k in ranks] == mono.batch_access(ranks)
        assert sharded.range_access(2, mono.count - 1) == mono.range_access(2, mono.count - 1)
        for k in range(0, mono.count, 5):
            answer = mono.access(k)
            assert sharded.inverted_access(answer) == k
            assert sharded.next_answer_index(answer) == k

    def test_out_of_bounds_and_not_an_answer(self, backend, shards):
        database = path_database(backend)
        sharded = LexDirectAccess(
            PATH_QUERY, database, ORDER, backend=backend, shards=shards
        )
        with pytest.raises(OutOfBoundsError):
            sharded.access(sharded.count)
        with pytest.raises(OutOfBoundsError):
            sharded.batch_access([0, sharded.count])
        with pytest.raises(TypeError):
            sharded.access(True)
        with pytest.raises(NotAnAnswerError):
            sharded.inverted_access((999, 999, 999))


class TestShardedEdgeCases:
    def test_single_leading_value_skew(self):
        # Every tuple shares one leading value: one shard serves everything.
        database = Database([
            Relation("R", ("x", "y"), [(1, y) for y in range(6)]),
            Relation("S", ("y", "z"), [(y, z) for y in range(6) for z in range(3)]),
        ])
        mono = LexDirectAccess(PATH_QUERY, database, ORDER)
        sharded = LexDirectAccess(PATH_QUERY, database, ORDER, shards=4)
        assert list(sharded) == list(mono)
        assert sharded.inverted_access(mono.access(3)) == 3

    def test_empty_result(self):
        database = Database([
            Relation("R", ("x", "y"), [(0, 1)]),
            Relation("S", ("y", "z"), [(2, 3)]),  # no join partner
        ])
        sharded = LexDirectAccess(PATH_QUERY, database, ORDER, shards=3)
        assert sharded.count == 0
        assert sharded.batch_access([]) == []
        with pytest.raises(NotAnAnswerError):
            sharded.inverted_access((0, 1, 3))

    def test_descending_leading_variable(self):
        database = path_database()
        order = LexOrder(("x", "y", "z"), descending=("x",))
        mono = LexDirectAccess(PATH_QUERY, database, order)
        sharded = LexDirectAccess(PATH_QUERY, database, order, shards=3)
        assert list(sharded) == list(mono)
        for k in range(0, mono.count, 7):
            assert sharded.inverted_access(mono.access(k)) == k

    def test_shard_offsets_cover_count(self):
        database = path_database()
        sharded = LexDirectAccess(PATH_QUERY, database, ORDER, shards=5)
        instance = sharded._instance
        assert instance.offsets[0] == 0
        assert instance.offsets[-1] == instance.count
        assert list(instance.offsets) == sorted(instance.offsets)


# ----------------------------------------------------------------------
# Planner threading
# ----------------------------------------------------------------------
class TestPlanSharding:
    def test_partition_stage_in_lex_plan(self):
        sharded_plan = plan(PATH_QUERY, ORDER, shards=4)
        assert sharded_plan.shards == 4
        assert sharded_plan.partition["strategy"] == "range"
        assert sharded_plan.partition["variable"] == "x"
        stage = sharded_plan.stage("partition")
        assert stage is not None and "4 shards" in stage.description
        assert sharded_plan.stage("project_nodes").depends_on == ("partition",)
        assert "partition: range on x into 4 shards" in sharded_plan.describe()

    def test_shards_split_fingerprints(self):
        fingerprints = {
            plan(PATH_QUERY, ORDER).fingerprint,
            plan(PATH_QUERY, ORDER, shards=2).fingerprint,
            plan(PATH_QUERY, ORDER, shards=4).fingerprint,
        }
        assert len(fingerprints) == 3
        assert plan(PATH_QUERY, ORDER, shards=1).fingerprint == plan(PATH_QUERY, ORDER).fingerprint

    def test_sum_mode_falls_back_with_reason(self):
        single = ConjunctiveQuery(("x", "y"), [Atom("R", ("x", "y"))], name="Qs")
        fallback = plan(single, mode="sum", shards=4)
        assert fallback.shards == 1
        assert fallback.partition["requested"] == 4
        assert "SUM" in fallback.partition["reason"]
        assert "using 1" in fallback.describe()
        assert fallback.stage("partition") is None

    def test_orderless_selection_falls_back(self):
        fallback = plan(PATH_QUERY, None, mode="selection_lex", shards=4)
        assert fallback.shards == 1
        assert "orderless" in fallback.partition["reason"]

    def test_ordered_selection_gets_partition_stage(self):
        sel = plan(PATH_QUERY, LexOrder(("y",)), mode="selection_lex", shards=3)
        assert sel.shards == 3
        assert sel.partition["variable"] == "y"
        assert sel.stage("partition") is not None

    def test_boolean_falls_back(self):
        boolean = ConjunctiveQuery((), [Atom("R", ("x", "y"))], name="Qb")
        fallback = plan(boolean, shards=2)
        assert fallback.shards == 1 and "Boolean" in fallback.partition["reason"]

    def test_invalid_shard_counts(self):
        with pytest.raises(ValueError):
            plan(PATH_QUERY, ORDER, shards=0)
        with pytest.raises(TypeError):
            plan(PATH_QUERY, ORDER, shards=2.5)
        with pytest.raises(TypeError):
            plan(PATH_QUERY, ORDER, shards=True)

    def test_explain_json_carries_partition(self):
        from repro.planner import explain

        document = explain(PATH_QUERY, ORDER, shards=2)
        assert document["shards"] == 2
        assert document["partition"]["strategy"] == "range"
        assert any(stage["name"] == "partition" for stage in document["stages"])

    def test_sharded_selection_matches_unsharded(self):
        database = path_database()
        mono = LexDirectAccess(PATH_QUERY, database, ORDER)
        for k in range(0, mono.count, 6):
            assert selection_lex(PATH_QUERY, database, ORDER, k, shards=3) == mono[k]
        with pytest.raises(OutOfBoundsError):
            selection_lex(PATH_QUERY, database, ORDER, mono.count, shards=3)

    def test_sharded_build_report_stages(self):
        database = path_database()
        sharded = LexDirectAccess(PATH_QUERY, database, ORDER, shards=3)
        names = [stage.name for stage in sharded.report.stages]
        assert "partition" in names
        assert any(name.startswith("shard:") for name in names)
        # S has no x: its layer is built once, shared by all shards.
        assert any(name.startswith("shared_layer:") for name in names)


# ----------------------------------------------------------------------
# Service + CLI surface
# ----------------------------------------------------------------------
class TestServiceSharding:
    def make_service(self, **kwargs):
        service = QueryService(max_plans=8, **kwargs)
        service.register_database("db", path_database())
        return service

    def test_prepare_with_shards_serves_identically(self):
        service = self.make_service()
        spec = {"db": "db", "query": "Q(x, y, z) :- R(x, y), S(y, z)", "order": "x, y, z"}
        mono = service.execute({"op": "prepare", **spec})
        sharded = service.execute({"op": "prepare", **spec, "shards": 3})
        assert mono["ok"] and sharded["ok"]
        assert mono["count"] == sharded["count"]
        assert mono["plan"] != sharded["plan"]
        ks = list(range(mono["count"]))
        a = service.execute({"op": "batch_access", "plan": mono["plan"], "ks": ks})
        b = service.execute({"op": "batch_access", "plan": sharded["plan"], "ks": ks})
        assert a["answers"] == b["answers"]

    def test_explicit_shards_one_opts_out_of_service_default(self):
        service = self.make_service(shards=4)
        spec = {"db": "db", "query": "Q(x, y, z) :- R(x, y), S(y, z)"}
        explicit = service.execute({"op": "prepare", **spec, "shards": 1})
        implicit = service.execute({"op": "prepare", **spec})
        assert explicit["ok"] and implicit["ok"]
        # An explicit 1 wins over the service-level default of 4.
        assert service.plan(explicit["plan"]).query_plan.shards == 1
        assert service.plan(implicit["plan"]).query_plan.shards == 4

    def test_bad_shards_rejected(self):
        service = self.make_service()
        spec = {"db": "db", "query": "Q(x, y, z) :- R(x, y), S(y, z)"}
        for bad in (0, -1, 1.5, "two", True):
            response = service.execute({"op": "prepare", **spec, "shards": bad})
            assert not response["ok"] and response["error"]["code"] == "bad_request"

    def test_enum_mode_rejects_shards(self):
        service = self.make_service()
        response = service.execute({
            "op": "prepare", "db": "db", "query": "Q(x, y) :- R(x, y)",
            "mode": "enum", "shards": 2,
        })
        assert not response["ok"] and "enum" in response["error"]["message"]

    def test_service_default_shards(self):
        service = self.make_service(shards=2)
        baseline = self.make_service()
        spec = {"db": "db", "query": "Q(x, y, z) :- R(x, y), S(y, z)", "order": "x, y, z"}
        prepared = service.execute({"op": "prepare", **spec})
        expected = baseline.execute({"op": "prepare", **spec})
        assert prepared["count"] == expected["count"]
        ks = list(range(prepared["count"]))
        a = service.execute({"op": "batch_access", "plan": prepared["plan"], "ks": ks})
        b = baseline.execute({"op": "batch_access", "plan": expected["plan"], "ks": ks})
        assert a["answers"] == b["answers"]
        # The sharded default actually sharded the build.
        cached = service.plan(prepared["plan"])
        assert cached.query_plan.shards == 2

    def test_explain_op_carries_shards(self):
        service = self.make_service()
        response = service.execute({
            "op": "explain", "query": "Q(x, y, z) :- R(x, y), S(y, z)",
            "order": "x, y, z", "shards": 4,
        })
        assert response["ok"] and response["explain"]["shards"] == 4


class TestCliSharding:
    def test_explain_shards_flag(self, capsys):
        from repro.cli import main

        assert main([
            "explain", "Q(x, y, z) :- R(x, y), S(y, z)",
            "--order", "x, y, z", "--shards", "4", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["shards"] == 4
        assert any(stage["name"] == "partition" for stage in document["stages"])

    def test_client_shards_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.protocol import database_to_json

        db_path = tmp_path / "db.json"
        db_path.write_text(json.dumps(database_to_json(path_database())))
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({
                "op": "batch_access", "db": "demo",
                "query": "Q(x, y, z) :- R(x, y), S(y, z)",
                "order": "x, y, z", "shards": 2, "ks": [0, 3, 1],
            }) + "\n"
        )
        assert main(["client", str(requests), "--db", f"demo={db_path}"]) == 0
        response = json.loads(capsys.readouterr().out.strip())
        assert response["ok"] and len(response["answers"]) == 3

    def test_serve_parser_accepts_shards(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(["--shards", "4"])
        assert args.shards == 4
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--shards", "0"])
