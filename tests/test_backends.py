"""Unit tests for the pluggable storage backends and backend selection."""

from decimal import Decimal

import pytest

from repro import Database, LexDirectAccess, LexOrder, Relation
from repro.engine.backends import (
    BackendUnavailableError,
    available_backends,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.engine.operators import cross_product, group_counts, hash_join, semijoin
from repro.workloads import paper_queries as pq

HAS_COLUMNAR = "columnar" in available_backends()
needs_columnar = pytest.mark.skipif(not HAS_COLUMNAR, reason="requires NumPy")

R_ROWS = [(1, 5), (1, 2), (6, 2), (3, 3), (1, 5)]
S_ROWS = [(5, 3), (5, 4), (2, 5), (9, 9)]


def make_pair(backend):
    return (
        Relation("R", ("x", "y"), R_ROWS, backend=backend),
        Relation("S", ("y", "z"), S_ROWS, backend=backend),
    )


class TestSelection:
    def test_default_backend_honours_environment(self):
        import os

        expected = os.environ.get("REPRO_BACKEND", "").strip().lower() or "row"
        if expected not in available_backends():
            expected = "row"
        assert get_default_backend() == expected
        assert Relation("R", ("x",), [(1,)]).backend == expected

    def test_resolve_unknown_backend_raises(self):
        with pytest.raises(BackendUnavailableError):
            resolve_backend("arrow")

    @needs_columnar
    def test_set_default_backend_round_trip(self):
        previous = set_default_backend("columnar")
        try:
            assert get_default_backend() == "columnar"
            assert Relation("R", ("x",), [(1,)]).backend == "columnar"
        finally:
            set_default_backend(previous)

    @needs_columnar
    def test_to_backend_round_trip(self):
        relation = Relation("R", ("x", "y"), R_ROWS)
        columnar = relation.to_backend("columnar")
        assert columnar.backend == "columnar"
        assert columnar.rows == relation.rows
        assert columnar.to_backend("row").rows == relation.rows

    @needs_columnar
    def test_database_backend_conversion(self):
        database = Database(make_pair("row"))
        assert database.backend == "row"
        converted = database.to_backend("columnar")
        assert converted.backend == "columnar"
        assert converted["R"].rows == database["R"].rows

    @needs_columnar
    def test_algorithm_backend_kwarg(self):
        database = Database(make_pair("row"))
        access = LexDirectAccess(
            pq.TWO_PATH, database, LexOrder(("x", "y", "z")), backend="columnar"
        )
        reference = LexDirectAccess(pq.TWO_PATH, database, LexOrder(("x", "y", "z")))
        assert list(access) == list(reference)

    @needs_columnar
    def test_unencodable_columns_fall_back_to_row(self):
        # Mixed int/str columns cannot be sorted into a dictionary domain;
        # the columnar builder silently keeps row storage (same semantics).
        relation = Relation("R", ("x",), [(1,), ("a",)], backend="columnar")
        assert relation.backend == "row"
        assert set(relation.rows) == {(1,), ("a",)}


@needs_columnar
class TestColumnarRelationOps:
    """Every Relation operation matches the row backend, order included."""

    def pair(self):
        return Relation("R", ("x", "y"), R_ROWS, backend="row"), Relation(
            "R", ("x", "y"), R_ROWS, backend="columnar"
        )

    def test_rows_and_iteration(self):
        row, columnar = self.pair()
        assert columnar.rows == row.rows
        assert list(columnar) == list(row)
        assert len(columnar) == len(row)

    def test_project_distinct_first_seen_order(self):
        row, columnar = self.pair()
        assert columnar.project(("x",)).rows == row.project(("x",)).rows
        assert columnar.project(("y", "x"), distinct=False).rows == row.project(
            ("y", "x"), distinct=False
        ).rows

    def test_distinct(self):
        row, columnar = self.pair()
        assert columnar.distinct().rows == row.distinct().rows

    def test_select_equals(self):
        row, columnar = self.pair()
        assert columnar.select_equals({"x": 1}).rows == row.select_equals({"x": 1}).rows
        assert columnar.select_equals({"x": 777}).rows == ()

    def test_sorted_by(self):
        row, columnar = self.pair()
        assert columnar.sorted_by(("y", "x")).rows == row.sorted_by(("y", "x")).rows

    def test_active_domain_and_values(self):
        row, columnar = self.pair()
        assert columnar.active_domain("x") == row.active_domain("x")
        assert columnar.values_of("y") == row.values_of("y")

    def test_values_decode_to_original_python_objects(self):
        columnar = Relation("R", ("x",), [(1,), (2,)], backend="columnar")
        value = columnar.rows[0][0]
        assert type(value) is int  # no np.int64 leakage into answers


@needs_columnar
class TestColumnarMembership:
    """``row in relation`` on a columnar relation probes codes: it never
    decodes the rows, and it answers exactly like the row backend's set."""

    ROWS = [(1, "a"), (2, "b"), (3.5, "c"), (2, "d")]
    PROBES = [
        (1, "a"), (True, "a"), (1.0, "a"), (2.0, "b"), (3.5, "c"), (2, "d"),
        (2, "a"), (4, "a"), (0, "zz"), ("a", 1), (None, None), (False, "a"),
        (1,), (1, "a", 1), [1, "a"],
    ]

    def test_matches_the_row_backend_without_materializing(self, monkeypatch):
        from repro.engine.backends.columnar import ColumnarStorage

        row = Relation("R", ("x", "y"), self.ROWS, backend="row")
        columnar = Relation("R", ("x", "y"), self.ROWS, backend="columnar")
        assert columnar.backend == "columnar"

        def materialize(self):
            raise AssertionError("membership decoded the rows")

        monkeypatch.setattr(ColumnarStorage, "materialize", materialize)
        for probe in self.PROBES:
            assert (probe in columnar) == (probe in row), probe

    def test_unhashable_row_raises_like_the_row_backend(self):
        row = Relation("R", ("x", "y"), self.ROWS, backend="row")
        columnar = Relation("R", ("x", "y"), self.ROWS, backend="columnar")
        for relation in (row, columnar):
            with pytest.raises(TypeError):
                ([1], "a") in relation
            with pytest.raises(TypeError):
                (404, ["absent"]) in relation

    def test_nullary_relation(self):
        for backend in ("row", "columnar"):
            assert () in Relation("T", (), [()], backend=backend)
            assert () not in Relation("T", (), [], backend=backend)


@needs_columnar
class TestColumnarApplyDelta:
    """``apply_delta`` equals re-encoding the row list, code for code, also
    where it must take that path itself."""

    @staticmethod
    def assert_same_storage(got, want):
        assert got.backend_name == want.backend_name
        if want.backend_name == "columnar":
            assert [c.dtype for c in got.codes] == [c.dtype for c in want.codes]
            assert [c.tolist() for c in got.codes] == [c.tolist() for c in want.codes]
            assert [d.tolist() for d in got.domains] == [d.tolist() for d in want.domains]
        assert got.materialize() == want.materialize()

    def check(self, rows, deleted, inserted):
        relation = Relation("W", tuple(f"a{i}" for i in range(len(rows[0]))), rows,
                            backend="columnar")
        doomed = set(deleted)
        want = relation.with_rows([row for row in rows if row not in doomed] + inserted)
        self.assert_same_storage(relation.storage.apply_delta(deleted, inserted), want.storage)

    def test_unpackable_key_space(self):
        # Seven columns of 600 distinct values: 600**7 > 2**62 keys.
        rows = [tuple(i + 1000 * column for column in range(7)) for i in range(600)]
        new_row = tuple(-1 - column for column in range(7))
        self.check(rows, deleted=[rows[3], rows[599]], inserted=[new_row])
        self.check(rows, deleted=[], inserted=[new_row])
        wide = Relation("W", tuple(f"a{i}" for i in range(7)), rows, backend="columnar")
        assert rows[5] in wide and new_row not in wide
        assert (1,) + rows[5][1:] not in wide  # every value present, the row is not

    def test_deleting_every_row_and_values_leaving_the_domain(self):
        rows = [(1, "a"), (2, "b"), (3, "a")]
        self.check(rows, deleted=rows, inserted=[])
        self.check(rows, deleted=[(2, "b")], inserted=[(5, "c")])

    def test_rejected_insert_falls_back_to_row_storage(self):
        rows = [(1, 0.5), (2, 1.5)]
        self.check(rows, deleted=[], inserted=[(True, 2.5)])  # 1 vs True: row storage
        self.check(rows, deleted=[], inserted=[(3, "x")])      # float vs str: unorderable
        self.check(rows, deleted=[(2, 1.5)], inserted=[(True, 2.5)])
        # Decimal vs NaN raises decimal.InvalidOperation, not TypeError.
        self.check([(Decimal("1.0"), 0.5)], deleted=[], inserted=[(float("nan"), 2.5)])
        self.check([(1, Decimal("1.0"))], deleted=[], inserted=[(2, Decimal("NaN"))])
        mixed = Relation("R", ("x",), [(Decimal("1.0"),), (float("nan"),)], backend="columnar")
        assert mixed.backend == "row"

    def test_nullary_relation(self):
        for rows, deleted, inserted in (([()], [()], []), ([], [], [()]), ([()], [], [])):
            relation = Relation("T", (), rows, backend="columnar")
            doomed = set(deleted)
            want = relation.with_rows([row for row in rows if row not in doomed] + inserted)
            got = relation.storage.apply_delta(deleted, inserted)
            assert got.materialize() == want.storage.materialize()

    def test_derived_storage_reuses_the_domain_indexes(self):
        # A filtered neighbour keeps the base's full domains: applying a
        # delta to it must not rebuild a value -> code dict per refresh.
        storage = Relation("W", ("a", "b"), [(1, "a"), (2, "b"), (3, "c")],
                           backend="columnar").storage
        index_b = storage.domain_index(1)
        taken = storage.take([0, 2])
        assert taken.domain_index(1) is index_b
        assert taken.domain_index(0) is storage.domain_index(0)
        assert storage.project([1]).domain_index(0) is index_b
        self.assert_same_storage(
            taken.apply_delta([(3, "c")], [(4, "b")]),
            Relation("W", ("a", "b"), [(1, "a"), (4, "b")], backend="columnar").storage,
        )


@needs_columnar
class TestColumnarOperators:
    def test_hash_join_matches_row_backend(self):
        row = hash_join(*make_pair("row"))
        columnar = hash_join(*make_pair("columnar"))
        assert columnar.backend == "columnar"
        assert columnar.attributes == row.attributes
        assert columnar.rows == row.rows  # identical order, not just set-equal

    def test_semijoin_matches_row_backend(self):
        row = semijoin(*make_pair("row"))
        columnar = semijoin(*make_pair("columnar"))
        assert columnar.rows == row.rows

    def test_semijoin_disjoint_schemas(self):
        left = Relation("L", ("a",), [(1,), (2,)], backend="columnar")
        right_empty = Relation("E", ("b",), [], backend="columnar")
        right_full = Relation("F", ("b",), [(9,)], backend="columnar")
        assert semijoin(left, right_full).rows == left.rows
        assert semijoin(left, right_empty).rows == ()

    def test_group_counts_matches_row_backend(self):
        row_rel, _ = make_pair("row")
        col_rel, _ = make_pair("columnar")
        assert group_counts(col_rel, ("x",)) == group_counts(row_rel, ("x",))

    def test_cross_product_matches_row_backend(self):
        left_r = Relation("L", ("a",), [(1,), (2,)], backend="row")
        right_r = Relation("Rt", ("b",), [(7,), (8,)], backend="row")
        row = cross_product(left_r, right_r)
        columnar = cross_product(
            left_r.to_backend("columnar"), right_r.to_backend("columnar")
        )
        assert columnar.rows == row.rows

    def test_mixed_backends_still_work(self):
        left = Relation("R", ("x", "y"), R_ROWS, backend="columnar")
        right = Relation("S", ("y", "z"), S_ROWS, backend="row")
        assert hash_join(left, right).rows == hash_join(*make_pair("row")).rows


class TestCliBackendFlag:
    def test_backend_flag_prints_backend(self, capsys):
        from repro.cli import main

        code = main(["Q(x, y) :- R(x, y)", "--order", "x, y", "--backend", "row"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: row" in out

    @needs_columnar
    def test_backend_flag_sets_process_default(self):
        from repro.cli import main

        previous = get_default_backend()
        try:
            main(["Q(x, y) :- R(x, y)", "--backend", "columnar"])
            assert get_default_backend() == "columnar"
        finally:
            set_default_backend(previous)


@needs_columnar
class TestInt32CodeDowncast:
    def test_small_domains_store_int32_codes(self):
        import numpy as np

        relation = Relation("R", ("x", "y"), [(i, str(i % 7)) for i in range(50)],
                            backend="columnar")
        for codes in relation.storage.codes:
            assert codes.dtype == np.int32

    def test_code_dtype_promotes_on_overflow(self):
        import numpy as np

        from repro.engine.backends.columnar import _INT32_LIMIT, code_dtype

        assert code_dtype(10) == np.int32
        assert code_dtype(_INT32_LIMIT - 1) == np.int32
        assert code_dtype(_INT32_LIMIT) == np.int64
        assert code_dtype(2 ** 40) == np.int64

    def test_pack_codes_promotes_int32_inputs_to_int64(self):
        import numpy as np

        from repro.engine.backends.columnar import pack_codes

        # Combined key space exceeds int32: packing int32 inputs must not wrap.
        left = np.array([100_000, 0], dtype=np.int32)
        right = np.array([99_999, 1], dtype=np.int32)
        packed = pack_codes([left, right], [100_001, 100_000])
        assert packed.dtype == np.int64
        assert packed.tolist() == [100_000 * 100_000 + 99_999, 1]

    def test_int32_relations_serve_identical_answers(self):
        database = Database([
            Relation("R", ("x", "y"), [(i % 9, i % 5) for i in range(40)]),
            Relation("S", ("y", "z"), [(i % 5, i % 6) for i in range(40)]),
        ])
        order = LexOrder(("x", "y", "z"))
        row_access = LexDirectAccess(pq.TWO_PATH, database, order, backend="row")
        col_access = LexDirectAccess(pq.TWO_PATH, database, order, backend="columnar")
        assert list(col_access) == list(row_access)
