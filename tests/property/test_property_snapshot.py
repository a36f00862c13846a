"""Property tests: snapshot images ≡ the object walk, across every carrier.

The flat snapshot format and its fused kernels are pure accelerators — for
randomized databases, orders (ascending and descending components), backends,
shard counts, and non-numeric domains, a :class:`SnapshotInstance` built from
a captured image must agree with the object walk on every access operation,
whether the image is served in-process, reloaded from an mmap'd file, or
attached to a shared-memory block.  A final suite swaps epochs under a
publishing :class:`~repro.live.instance.LiveInstance` and checks that a
reader attached to the *retired* buffer set still serves the old epoch's
answers bit-identically (unlink removes the name, not the mapping).
"""

import itertools
import os
import tempfile

import pytest

from hypothesis import given, settings, strategies as st

from repro import (
    Atom,
    ConjunctiveQuery,
    Database,
    IntractableQueryError,
    LexDirectAccess,
    LexOrder,
    Relation,
)
from repro.core.snapshot import InstanceSnapshot, capture, _destroy_block
from repro.engine.backends import HAS_NUMPY, available_backends
from repro.exceptions import NotAnAnswerError, OutOfBoundsError
from tests.helpers import object_walk_answers

if not HAS_NUMPY:
    pytest.skip("snapshot images require NumPy", allow_module_level=True)

BACKENDS = [None] + (["columnar"] if "columnar" in available_backends() else [])
SHARD_COUNTS = [1, 2, 7]
CARRIERS = ["memory", "file", "shm"]

PATH_QUERY = ConjunctiveQuery(
    ("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))], name="Qpath"
)
STAR_QUERY = ConjunctiveQuery(
    ("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("x", "z"))], name="Qstar"
)

_SHM_COUNTER = itertools.count()


def relation_rows(arity, max_rows=14, domain=5):
    cell = st.integers(0, domain - 1)
    return st.lists(st.tuples(*[cell] * arity), max_size=max_rows).map(
        lambda rows: sorted(set(rows))
    )


def string_relation_rows(arity, max_rows=12):
    cell = st.sampled_from(["", "a", "b", "ab", "ba", "β"])
    return st.lists(st.tuples(*[cell] * arity), max_size=max_rows).map(
        lambda rows: sorted(set(rows))
    )


@st.composite
def order_for(draw, variables=("x", "y", "z")):
    chosen = draw(st.sampled_from([
        ("x", "y", "z"), ("y", "x", "z"), ("y", "z", "x"), ("z", "x", "y"),
    ]))
    descending = draw(st.sets(st.sampled_from(chosen)).map(tuple))
    return LexOrder(chosen, descending)


def carried(snapshot, carrier):
    """Round-trip ``snapshot`` through the carrier; returns (image, cleanup)."""
    if carrier == "memory":
        return snapshot, lambda: None
    if carrier == "file":
        fd, path = tempfile.mkstemp(suffix=".rsnp")
        os.close(fd)
        snapshot.save(path)
        loaded = InstanceSnapshot.load(path)

        def cleanup():
            loaded.close()
            os.unlink(path)

        return loaded, cleanup
    block = snapshot.publish(name=f"repro-test-{os.getpid()}-{next(_SHM_COUNTER)}")
    attached = InstanceSnapshot.attach(block.name)

    def cleanup():
        attached.close()
        _destroy_block(block)

    return attached, cleanup


def assert_snapshot_equivalent(
    query, database, order, shards, backend, carrier, missing=10 ** 6
):
    try:
        access = LexDirectAccess(
            query, database, order, backend=backend, shards=shards
        )
    except IntractableQueryError:
        return
    snapshot = capture(access._instance, fingerprint="prop", epoch=0)
    if access.count == 0:
        assert snapshot is None  # empty results have no image by design
        return
    assert snapshot is not None
    expected = object_walk_answers(access)
    image, cleanup = carried(snapshot, carrier)
    try:
        served = image.instance()
        assert served.count == access.count
        assert served.batch_access(range(served.count)) == expected
        assert served.range_access(0, served.count) == expected
        step = max(1, served.count // 7)
        for k in range(0, served.count, step):
            assert served.access(k) == expected[k]
            assert served.inverted_access(expected[k]) == k
        with pytest.raises(OutOfBoundsError):
            served.access(served.count)
        with pytest.raises(NotAnAnswerError):
            served.inverted_access((missing,) * len(query.free_variables))
        if not order.descending:
            for k in range(0, served.count, step):
                assert served.next_answer_index(expected[k]) == k
    finally:
        cleanup()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestSnapshotEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(r_rows=relation_rows(2), s_rows=relation_rows(2), order=order_for())
    def test_path_query_memory(self, backend, shards, r_rows, s_rows, order):
        database = Database([
            Relation("R", ("x", "y"), r_rows),
            Relation("S", ("y", "z"), s_rows),
        ])
        assert_snapshot_equivalent(
            PATH_QUERY, database, order, shards, backend, "memory"
        )

    @settings(max_examples=15, deadline=None)
    @given(r_rows=relation_rows(2), s_rows=relation_rows(2), order=order_for())
    def test_star_query_memory(self, backend, shards, r_rows, s_rows, order):
        database = Database([
            Relation("R", ("x", "y"), r_rows),
            Relation("S", ("x", "z"), s_rows),
        ])
        assert_snapshot_equivalent(
            STAR_QUERY, database, order, shards, backend, "memory"
        )

    @settings(max_examples=10, deadline=None)
    @given(
        r_rows=string_relation_rows(2), s_rows=string_relation_rows(2),
        order=order_for(),
    )
    def test_non_numeric_domains(self, backend, shards, r_rows, s_rows, order):
        database = Database([
            Relation("R", ("x", "y"), r_rows),
            Relation("S", ("y", "z"), s_rows),
        ])
        assert_snapshot_equivalent(
            PATH_QUERY, database, order, shards, backend, "memory",
            missing="\uffff",
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("carrier", ["file", "shm"])
class TestSnapshotCarriers:
    """The serialized carriers (fewer examples — each does real I/O)."""

    @settings(max_examples=6, deadline=None)
    @given(
        r_rows=relation_rows(2), s_rows=relation_rows(2), order=order_for(),
        shards=st.sampled_from(SHARD_COUNTS),
    )
    def test_round_trip(self, backend, carrier, r_rows, s_rows, order, shards):
        database = Database([
            Relation("R", ("x", "y"), r_rows),
            Relation("S", ("y", "z"), s_rows),
        ])
        assert_snapshot_equivalent(
            PATH_QUERY, database, order, shards, backend, carrier
        )

    @settings(max_examples=4, deadline=None)
    @given(
        r_rows=string_relation_rows(2), s_rows=string_relation_rows(2),
        order=order_for(),
    )
    def test_round_trip_non_numeric(self, backend, carrier, r_rows, s_rows, order):
        database = Database([
            Relation("R", ("x", "y"), r_rows),
            Relation("S", ("y", "z"), s_rows),
        ])
        assert_snapshot_equivalent(
            PATH_QUERY, database, order, 2, backend, carrier, missing="\uffff"
        )


PATH3_QUERY = ConjunctiveQuery(
    ("x", "y", "z", "w"),
    [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "w"))],
    name="Qpath3",
)

# Value kinds the columnar backend accepts as a column (a column mixing
# ``==``-equal representations such as 0.0 / -0.0 falls back to row storage,
# which then takes the bucket walk on both sides — still a valid example).
VALUE_KINDS = {
    "int": st.integers(-(2 ** 64), 2 ** 64) | st.sampled_from([2 ** 53 + 1, -5]),
    "str": st.text(max_size=3),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "decimal": st.decimals(allow_nan=False, allow_infinity=False, places=2,
                           min_value=-100, max_value=100),
    "bool": st.booleans(),
    "none": st.none(),
}


@st.composite
def typed_database(draw, atoms):
    """Relations over per-variable value pools of one kind each."""
    variables = sorted({v for _, schema in atoms for v in schema})
    pools = {}
    for variable in variables:
        kind = draw(st.sampled_from(sorted(VALUE_KINDS)))
        pools[variable] = draw(st.lists(VALUE_KINDS[kind], min_size=1, max_size=3))
    relations = []
    for name, schema in atoms:
        rows = draw(st.lists(
            st.tuples(*[st.sampled_from(pools[v]) for v in schema]),
            min_size=1, max_size=10,
        ))
        relations.append(Relation(name, schema, list(dict.fromkeys(rows))))
    return Database(relations)


@st.composite
def shuffled_order(draw, variables):
    chosen = tuple(draw(st.permutations(variables)))
    descending = draw(st.sets(st.sampled_from(chosen)).map(tuple))
    return LexOrder(chosen, descending)


def bucket_walk_only(instance):
    """Hide every layer's columnar arrays, so capture walks the buckets;
    returns the undo."""
    parts = instance.shards if getattr(instance, "is_sharded", False) else [instance]
    layers = {id(layer): layer for part in parts for layer in part.layers.values()}
    saved = [(layer, layer.columnar) for layer in layers.values()]
    for layer, _ in saved:
        layer.columnar = None

    def undo():
        for layer, index in saved:
            layer.columnar = index

    return undo


def assert_producers_identical(query, database, order, shards):
    try:
        access = LexDirectAccess(
            query, database, order, backend="columnar", shards=shards
        )
    except IntractableQueryError:
        return
    columnar = capture(access._instance, fingerprint="prop", epoch=1)
    undo = bucket_walk_only(access._instance)
    try:
        walked = capture(access._instance, fingerprint="prop", epoch=1)
    finally:
        undo()
    if columnar is None:
        assert walked is None
        return
    assert columnar.to_bytes() == walked.to_bytes()
    reference = LexDirectAccess(query, database, order, shards=shards)
    expected = [tuple(map(repr, answer))
                for answer in reference.range_access(0, reference.count)]
    ranks = list(range(access.count))[::-1]
    rows = []
    for image in (columnar, walked):
        served = image.instance()
        page = served.range_page(0, served.count)
        assert [tuple(map(repr, answer)) for answer in page.tuples()] == expected
        assert served.page(ranks).tuples() == page.tuples()[::-1]
        rows.append(page.json_rows())
    assert rows[0] == rows[1]


@pytest.mark.skipif("columnar" not in BACKENDS, reason="columnar backend unavailable")
class TestProducerByteIdentity:
    """Capture from the columnar build's arrays ≡ capture by bucket walk.

    The two producers must lay out the very same bytes — codes, domains,
    child ids and manifest — and both images must serve the pages the
    row-backend build serves, for every value mix the columnar backend
    accepts, ascending and descending orders and 1–3 shards.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        database=typed_database((("R", ("x", "y")), ("S", ("y", "z")))),
        order=shuffled_order(("x", "y", "z")),
        shards=st.integers(1, 3),
    )
    def test_path_query(self, database, order, shards):
        assert_producers_identical(PATH_QUERY, database, order, shards)

    @settings(max_examples=15, deadline=None)
    @given(
        database=typed_database(
            (("R", ("x", "y")), ("S", ("y", "z")), ("T", ("z", "w")))
        ),
        descending=st.sets(st.sampled_from(("x", "y", "z", "w"))).map(tuple),
        shards=st.integers(1, 3),
    )
    def test_three_atom_query_with_shared_layers(self, database, descending, shards):
        # Leading x: the z and w layers lack it, so every shard shares them.
        order = LexOrder(("x", "y", "z", "w"), descending)
        assert_producers_identical(PATH3_QUERY, database, order, shards)


def assert_writers_identical(query, database, order, shards, backend):
    try:
        access = LexDirectAccess(query, database, order, backend=backend, shards=shards)
    except IntractableQueryError:
        return
    snapshot = capture(access._instance, fingerprint="prop", epoch=3)
    if snapshot is None:
        return
    data = snapshot.to_bytes()
    assert snapshot.nbytes == len(data)
    block = snapshot.publish(name=f"repro-test-{os.getpid()}-{next(_SHM_COUNTER)}")
    try:
        assert bytes(block.buf[:len(data)]) == data
    finally:
        _destroy_block(block)
    fd, path = tempfile.mkstemp(suffix=".rsnp")
    os.close(fd)
    try:
        assert snapshot.save(path) == len(data)
        with open(path, "rb") as handle:
            assert handle.read() == data
    finally:
        os.unlink(path)


@pytest.mark.parametrize("backend", BACKENDS)
class TestWriterByteIdentity:
    """``publish`` and ``save`` write the image in place; the shm block (up to
    the image length) and the file hold exactly ``to_bytes()``, and
    ``nbytes`` is its length without serializing."""

    @settings(max_examples=10, deadline=None)
    @given(
        r_rows=relation_rows(2), s_rows=relation_rows(2), order=order_for(),
        shards=st.sampled_from(SHARD_COUNTS),
    )
    def test_path_query(self, backend, r_rows, s_rows, order, shards):
        database = Database([
            Relation("R", ("x", "y"), r_rows),
            Relation("S", ("y", "z"), s_rows),
        ])
        assert_writers_identical(PATH_QUERY, database, order, shards, backend)

    @settings(max_examples=10, deadline=None)
    @given(
        database=typed_database((("R", ("x", "y")), ("S", ("y", "z")))),
        order=shuffled_order(("x", "y", "z")),
        shards=st.integers(1, 3),
    )
    def test_typed_values(self, backend, database, order, shards):
        assert_writers_identical(PATH_QUERY, database, order, shards, backend)


class TestPoolEpochChurn:
    """Mutate→compact→query loops with pool workers attached never tear.

    A :class:`~repro.service.QueryService` with a live
    :class:`~repro.service.pool.WorkerPool` and a plain single-process
    twin receive identical mutation streams.  After every phase — fresh,
    dirty (pending delta, reads fall back inline to the merged view),
    and compacted (epoch swapped, workers re-attached) — every read op
    must agree between the pooled and plain services, and nothing may
    crash on a retired buffer: the cross-process epoch barrier only
    retires old blocks after the workers have moved off them.
    """

    @settings(max_examples=5, deadline=None)
    @given(
        r_rows=relation_rows(2, max_rows=12),
        s_rows=relation_rows(2, max_rows=12),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.sampled_from(["R", "S"]),
                relation_rows(2, max_rows=4, domain=7),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_pooled_reads_identical_across_churn(self, r_rows, s_rows, mutations):
        from repro.service import QueryService, WorkerPool, pool_supported

        if not pool_supported():
            pytest.skip("worker pool unavailable")

        def fresh_database():
            return Database([
                Relation("R", ("x", "y"), list(r_rows)),
                Relation("S", ("y", "z"), list(s_rows)),
            ])

        pooled = QueryService(max_plans=4)
        plain = QueryService(max_plans=4)
        pooled.register_database("bench", fresh_database())
        plain.register_database("bench", fresh_database())
        pool = WorkerPool(workers=2)
        pooled.attach_pool(pool)
        pool.start()
        try:
            order = LexOrder(("x", "y", "z"))
            fingerprint = pooled.prepare(
                "bench", PATH_QUERY, order=order
            ).fingerprint
            assert plain.prepare(
                "bench", PATH_QUERY, order=order
            ).fingerprint == fingerprint

            def read_requests():
                count = plain.execute(
                    {"op": "count", "plan": fingerprint}
                )["count"]
                requests = [{"op": "count", "plan": fingerprint}]
                for k in range(count):
                    requests.append(
                        {"op": "access", "plan": fingerprint, "k": k}
                    )
                if count:
                    requests.append({
                        "op": "batch_access", "plan": fingerprint,
                        "ks": list(range(count)),
                    })
                    requests.append({
                        "op": "range", "plan": fingerprint,
                        "lo": 0, "hi": count,
                    })
                requests.append(  # out-of-bounds must also agree
                    {"op": "access", "plan": fingerprint, "k": count}
                )
                return requests

            def canonical(response):
                if isinstance(response, (bytes, bytearray)):
                    import json as _json

                    response = _json.loads(bytes(response))
                return {
                    key: value for key, value in response.items()
                    if key != "trace"
                }

            def assert_phase_identical():
                for request in read_requests():
                    expected = canonical(plain.execute(dict(request)))
                    raw = pooled.dispatch_raw(request)
                    if raw is not None:
                        assert canonical(raw[1]) == expected
                    assert canonical(pooled.execute(dict(request))) == expected

            assert_phase_identical()
            for op, relation, rows in mutations:
                for service in (pooled, plain):
                    if op == "insert":
                        service.insert("bench", relation, rows)
                    else:
                        service.delete("bench", relation, rows)
                assert_phase_identical()  # dirty: inline merged fallback
                for service in (pooled, plain):
                    service.compact("bench")
                assert_phase_identical()  # compacted: routed at new epoch
        finally:
            pooled.close()
            plain.close()


class TestLiveEpochSwap:
    """Old readers stay correct on the retired buffer set across a swap."""

    @settings(max_examples=8, deadline=None)
    @given(
        r_rows=relation_rows(2, max_rows=10), s_rows=relation_rows(2, max_rows=10),
        new_rows=relation_rows(2, max_rows=6, domain=7),
    )
    def test_retired_buffer_still_serves_old_epoch(self, r_rows, s_rows, new_rows):
        from repro.live import LiveDatabase, LiveInstance

        database = Database([
            Relation("R", ("x", "y"), r_rows),
            Relation("S", ("y", "z"), s_rows),
        ])
        live = LiveDatabase(database)
        instance = LiveInstance(
            PATH_QUERY, live, LexOrder(("x", "y", "z")), publish_snapshots=True
        )
        try:
            if instance._publisher is None or not instance._publisher.epochs:
                return  # empty result: nothing published, nothing to swap
            old_epoch = instance._publisher.epochs[-1]
            from repro.core.snapshot import shm_name

            old_name = shm_name(instance.plan.fingerprint, old_epoch)
            old_reader = InstanceSnapshot.attach(old_name)
            old_expected = [
                instance.access(k) for k in range(instance.count)
            ]

            live.insert("R", new_rows)
            live.delete("R", r_rows[: len(r_rows) // 2])
            instance.compact(reason="test swap")
            new_expected = [instance.access(k) for k in range(instance.count)]

            # The retired buffer set still serves the OLD answers.
            old_served = old_reader.instance()
            assert [
                old_served.access(k) for k in range(old_served.count)
            ] == old_expected
            old_reader.close()

            # The new epoch (if published) serves the new answers.
            if instance._publisher.epochs and instance.count:
                new_epoch = instance._publisher.epochs[-1]
                if new_epoch != old_epoch:
                    new_reader = InstanceSnapshot.attach(
                        shm_name(instance.plan.fingerprint, new_epoch)
                    )
                    new_served = new_reader.instance()
                    assert [
                        new_served.access(k) for k in range(new_served.count)
                    ] == new_expected
                    new_reader.close()
        finally:
            instance.close()
