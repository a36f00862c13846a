"""Batched direct access: equivalence with looped access, rank validation.

``batch_access`` must be observationally identical to a loop of single
``access`` calls — same answers, same order, same exceptions — whether it
reads through the plan's image (NumPy present, counts fitting int64) or takes
the object walk.  Rank validation (the satellite): bools and floats are
``TypeError``s everywhere a rank is accepted, and out-of-bounds messages name
the requested rank and the answer count.
"""

import pytest

from repro import (
    Atom,
    ConjunctiveQuery,
    Database,
    LexDirectAccess,
    LexOrder,
    OutOfBoundsError,
    Relation,
    SumDirectAccess,
    parse_query,
)
from repro.core import access as access_module
from repro.engine.backends import available_backends
from repro.obs import ACCESS_KERNELS, obs_enabled
from repro.workloads import paper_queries as pq
from repro.workloads.generators import generate_path_database, generate_star_database

BACKENDS = list(available_backends())


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def make_two_path(backend, n=400, domain=24, seed=11):
    return generate_path_database(n, domain, seed=seed, backend=backend)


class TestBatchEquivalence:
    def test_matches_looped_access_two_path(self, backend):
        database = make_two_path(backend)
        access = LexDirectAccess(pq.TWO_PATH, database, LexOrder(("x", "y", "z")))
        ks = list(range(access.count))
        assert access.batch_access(ks) == [access.access(k) for k in ks]

    def test_matches_looped_access_descending(self, backend):
        database = make_two_path(backend)
        order = LexOrder(("z", "y", "x"), descending=("y",))
        access = LexDirectAccess(pq.TWO_PATH, database, order)
        ks = list(range(0, access.count, 3))
        assert access.batch_access(ks) == [access.access(k) for k in ks]

    def test_matches_looped_access_star(self, backend):
        database = generate_star_database(150, 10, seed=4, backend=backend)
        query = parse_query("Q(c, x1, x2, x3) :- R1(c, x1), R2(c, x2), R3(c, x3)")
        access = LexDirectAccess(query, database, LexOrder(("c", "x1", "x2", "x3")))
        ks = list(range(access.count))
        assert access.batch_access(ks) == [access.access(k) for k in ks]

    def test_matches_looped_access_projection(self, backend):
        database = make_two_path(backend)
        query = parse_query("Q(x, y) :- R(x, y), S(y, z)")
        access = LexDirectAccess(query, database, LexOrder(("y", "x")))
        ks = list(range(access.count))
        assert access.batch_access(ks) == [access.access(k) for k in ks]

    def test_duplicate_and_unsorted_ranks_preserve_request_order(self, backend):
        database = make_two_path(backend)
        access = LexDirectAccess(pq.TWO_PATH, database, LexOrder(("x", "y", "z")))
        ks = [5, 0, 5, access.count - 1, 1, 0]
        assert access.batch_access(ks) == [access.access(k) for k in ks]

    def test_empty_batch(self, backend):
        database = make_two_path(backend)
        access = LexDirectAccess(pq.TWO_PATH, database, LexOrder(("x", "y", "z")))
        assert access.batch_access([]) == []

    def test_scalar_fallback_matches_vectorized(self, backend):
        database = make_two_path(backend)
        access = LexDirectAccess(pq.TWO_PATH, database, LexOrder(("x", "y", "z")))
        ks = list(range(0, access.count, 2))
        vectorized = access.batch_access(ks)
        # The object walk over the raw instance (the facade reads its image).
        before = ACCESS_KERNELS.value(("access", "object"))
        assert access_module.batch_access(access._instance, ks) == vectorized
        moved = ACCESS_KERNELS.value(("access", "object")) - before
        assert not obs_enabled() or moved >= len(ks)

    def test_range_access(self, backend):
        database = make_two_path(backend)
        access = LexDirectAccess(pq.TWO_PATH, database, LexOrder(("x", "y", "z")))
        assert access.range_access(3, 11) == [access.access(k) for k in range(3, 11)]
        assert access.range_access(0, 0) == []
        assert access.range_access(access.count, access.count) == []
        with pytest.raises(OutOfBoundsError):
            access.range_access(0, access.count + 1)
        with pytest.raises(OutOfBoundsError):
            access.range_access(-1, 2)
        with pytest.raises(OutOfBoundsError):
            access.range_access(5, 2)

    def test_sum_batch_and_range(self, backend):
        database = make_two_path(backend)
        query = ConjunctiveQuery(("x", "y"), [Atom("R", ("x", "y"))])
        access = SumDirectAccess(query, database.restrict(["R"]))
        ks = [0, access.count - 1, 2, 2]
        assert access.batch_access(ks) == [access.access(k) for k in ks]
        assert access.range_access(1, 4) == [access.access(k) for k in range(1, 4)]
        with pytest.raises(OutOfBoundsError):
            access.batch_access([0, access.count])

    def test_out_of_bounds_rank_fails_whole_batch(self, backend):
        database = make_two_path(backend)
        access = LexDirectAccess(pq.TWO_PATH, database, LexOrder(("x", "y", "z")))
        with pytest.raises(OutOfBoundsError):
            access.batch_access([0, access.count, 1])
        with pytest.raises(OutOfBoundsError):
            access.batch_access([-1])


class TestCallerArrayUntouched:
    """The batched walks consume their working array in place, so they walk a
    copy: an int64 ndarray of ranks must come back unchanged, and a second call
    with the same array must agree with the first."""

    @pytest.mark.parametrize(
        "serving", ["facade", "image", "sharded_image"])
    def test_int64_array_of_ranks_is_not_consumed(self, backend, serving):
        numpy = pytest.importorskip("numpy", exc_type=ImportError)
        from repro.core.snapshot import capture

        shards = 2 if serving == "sharded_image" else None
        access = LexDirectAccess(
            pq.TWO_PATH, make_two_path(backend), LexOrder(("x", "y", "z")),
            shards=shards)
        reader = access
        if serving != "facade":
            reader = capture(access._instance).instance()
            assert len(reader.shards) == (shards or 1)
        ks = numpy.array([5, 0, 5, access.count - 1, 1, 0], dtype=numpy.int64)
        before = ks.copy()
        expected = [access.access(int(k)) for k in before]
        assert reader.batch_access(ks) == expected
        assert (ks == before).all()
        assert reader.batch_access(ks) == expected


class TestRankValidation:
    @pytest.fixture()
    def access(self):
        database = Database(
            [
                Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2)]),
                Relation("S", ("y", "z"), [(5, 3), (5, 4), (2, 5)]),
            ]
        )
        return LexDirectAccess(pq.TWO_PATH, database, LexOrder(("x", "y", "z")))

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "3", None, [1]])
    def test_non_integer_ranks_rejected(self, access, bad):
        with pytest.raises(TypeError):
            access.access(bad)
        with pytest.raises(TypeError):
            access.batch_access([0, bad])
        with pytest.raises(TypeError):
            access.range_access(bad, 2)

    def test_sum_access_rejects_non_integer_ranks(self):
        database = Database([Relation("R", ("x", "y"), [(1, 5), (2, 2)])])
        query = ConjunctiveQuery(("x", "y"), [Atom("R", ("x", "y"))])
        access = SumDirectAccess(query, database)
        with pytest.raises(TypeError):
            access.access(0.5)
        with pytest.raises(TypeError):
            access.access(True)
        with pytest.raises(TypeError):
            access.batch_access([False])

    def test_error_message_names_type(self, access):
        with pytest.raises(TypeError, match="not bool"):
            access.access(True)
        with pytest.raises(TypeError, match="not float"):
            access.access(0.0)
        with pytest.raises(TypeError, match="not str"):
            access.access("0")

    def test_index_like_ranks_accepted(self, access):
        numpy = pytest.importorskip("numpy", exc_type=ImportError)
        assert access.access(numpy.int64(0)) == access.access(0)
        assert access.batch_access([numpy.int32(1), 0]) == [
            access.access(1),
            access.access(0),
        ]

    def test_boolean_query_rank_validation(self):
        database = Database([Relation("R", ("x", "y"), [(1, 2)])])
        boolean = parse_query("Q() :- R(x, y)")
        access = LexDirectAccess(boolean, database, LexOrder(()))
        with pytest.raises(TypeError):
            access.access(True)
        assert access.batch_access([0]) == [()]

    def test_out_of_bounds_message_has_rank_and_count(self, access):
        count = access.count
        with pytest.raises(OutOfBoundsError, match=rf"index 99 .* {count} answers"):
            access.access(99)
        with pytest.raises(OutOfBoundsError, match=rf"index -1 .* {count} answers"):
            access.access(-1)
        with pytest.raises(OutOfBoundsError, match=rf"index 42 .* {count} answers"):
            access.batch_access([0, 42])

    def test_sum_out_of_bounds_message_has_rank_and_count(self):
        database = Database([Relation("R", ("x", "y"), [(1, 5), (2, 2)])])
        query = ConjunctiveQuery(("x", "y"), [Atom("R", ("x", "y"))])
        access = SumDirectAccess(query, database)
        with pytest.raises(OutOfBoundsError, match=r"index 7 .* 2 answers"):
            access.access(7)
        with pytest.raises(OutOfBoundsError, match=r"index 7 .* 2 answers"):
            access.answer_weight(7)

    def test_first_offending_rank_is_named_whatever_the_container(self, access):
        count = access.count
        bad = [1, count + 3, -2]
        containers = [list, tuple]
        try:
            import numpy
            containers.append(lambda ks: numpy.array(ks, dtype=numpy.int64))
        except ImportError:
            pass
        for container in containers:
            with pytest.raises(OutOfBoundsError, match=rf"index {count + 3} "):
                access.batch_access(container(bad))
        with pytest.raises(OutOfBoundsError, match=rf"index {2**70} "):
            access.batch_access([0, 2**70, -1])

    def test_core_access_validates_too(self, access):
        instance = access._instance
        with pytest.raises(TypeError):
            access_module.access(instance, 1.5)
        with pytest.raises(TypeError):
            access_module.batch_access(instance, [True])
