"""Property: a columnar layer's lazily decoded buckets ≡ the row build's.

A columnar LEX build keeps each layer as flat index arrays and decodes its
buckets only when something reads ``LayerData.buckets``.  Those decoded
buckets must equal, field for field, the buckets the reference
row-at-a-time build makes from the same database — for ascending and descending orders, 1 and 2 shards (whose shard-independent
layers are built once and shared), every value kind the columnar backend
encodes, and layers whose bucket keys cannot be packed into int64, which
decode eagerly at build time instead.
"""

from unittest import mock

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
from repro.core import preprocessing
from repro.engine.backends import available_backends

if "columnar" not in available_backends():
    pytest.skip("the columnar backend requires NumPy", allow_module_level=True)

PATH_QUERY = ConjunctiveQuery(
    ("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))], name="Qpath"
)
PATH3_QUERY = ConjunctiveQuery(
    ("x", "y", "z", "w"),
    [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "w"))],
    name="Qpath3",
)

VALUE_KINDS = {
    "int": st.integers(-(2 ** 64), 2 ** 64),
    "str": st.text(max_size=3),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "decimal": st.decimals(allow_nan=False, allow_infinity=False, places=2,
                           min_value=-100, max_value=100),
    "bool": st.booleans(),
    "none": st.none(),
}


@st.composite
def typed_database(draw, query):
    """One relation per atom over per-variable value pools of one kind each."""
    pools = {}
    for variable in sorted({v for atom in query.atoms for v in atom.variables}):
        kind = draw(st.sampled_from(sorted(VALUE_KINDS)))
        pools[variable] = draw(st.lists(VALUE_KINDS[kind], min_size=1, max_size=4))
    relations = []
    for atom in query.atoms:
        rows = draw(st.lists(
            st.tuples(*[st.sampled_from(pools[v]) for v in atom.variables]),
            min_size=1, max_size=12,
        ))
        relations.append(Relation(atom.relation, atom.variables, list(dict.fromkeys(rows))))
    return Database(relations)


@st.composite
def shuffled_order(draw, variables):
    chosen = tuple(draw(st.permutations(variables)))
    descending = draw(st.sets(st.sampled_from(chosen)).map(tuple))
    return LexOrder(chosen, descending)


def shard_parts(access):
    instance = access._instance
    return instance.shards if getattr(instance, "is_sharded", False) else [instance]


def assert_buckets_equal(decoded, reference, from_arrays):
    if from_arrays:
        # Buckets decoded from the arrays come in ascending key order (the
        # packed-key order parents probe); the row build keeps the order of
        # first appearance.
        assert list(decoded) == sorted(reference)
    assert decoded.keys() == reference.keys()
    for key, bucket in decoded.items():
        expected = reference[key]
        assert bucket.key == expected.key
        assert [tuple(map(repr, row)) for row in bucket.tuples] == [
            tuple(map(repr, row)) for row in expected.tuples
        ]
        assert bucket.weights == expected.weights
        assert bucket.starts == expected.starts
        assert bucket.ends == expected.ends
        assert bucket.layer_values == expected.layer_values
        assert bucket.total == expected.total


def columnar_build(query, database, order, shards):
    try:
        return LexDirectAccess(query, database, order, backend="columnar",
                               shards=shards)
    except IntractableQueryError:
        return None


def assert_like_row_build(columnar, query, database, order, shards, eager=()):
    """Every layer's buckets equal the row build's; ``eager`` lists the
    bucket dicts ``columnar`` decoded at build time."""
    # The same columnar database through the row path on every layer, so
    # both builds see the same shard partition and node relations.
    with mock.patch.object(preprocessing, "_build_layer_columnar", lambda *_: None):
        reference = columnar_build(query, database, order, shards)
    assert columnar.count == reference.count
    for part, reference_part in zip(shard_parts(columnar), shard_parts(reference)):
        assert part.count == reference_part.count
        for index, layer in part.layers.items():
            from_arrays = layer.columnar is not None or any(
                layer.buckets is buckets for buckets in eager
            )
            assert_buckets_equal(
                layer.buckets, reference_part.layers[index].buckets, from_arrays
            )


class TestLazyBucketsEqualRowBuckets:
    @settings(max_examples=40, deadline=None)
    @given(
        database=typed_database(PATH_QUERY),
        order=shuffled_order(("x", "y", "z")),
        shards=st.integers(1, 2),
    )
    def test_path_query(self, database, order, shards):
        columnar = columnar_build(PATH_QUERY, database, order, shards)
        if columnar is not None:
            assert_like_row_build(columnar, PATH_QUERY, database, order, shards)

    @settings(max_examples=25, deadline=None)
    @given(
        database=typed_database(PATH3_QUERY),
        descending=st.sets(st.sampled_from(("x", "y", "z", "w"))).map(tuple),
        shards=st.integers(1, 2),
    )
    def test_three_atom_query_with_shared_layers(self, database, descending, shards):
        # Leading x: the z and w layers lack it, so both shards share them.
        order = LexOrder(("x", "y", "z", "w"), descending)
        columnar = columnar_build(PATH3_QUERY, database, order, shards)
        assert_like_row_build(columnar, PATH3_QUERY, database, order, shards)

    @settings(max_examples=25, deadline=None)
    @given(
        database=typed_database(PATH_QUERY),
        descending=st.sets(st.sampled_from(("x", "y", "z"))).map(tuple),
        shards=st.integers(1, 2),
    )
    def test_unpackable_keys_decode_eagerly(self, database, descending, shards):
        # Without packed bucket keys a layer has no index to be lazy over:
        # the z layer (keyed by y) decodes at build time, and its parents
        # fall back to the row build.
        order = LexOrder(("x", "y", "z"), descending)
        decode_buckets = preprocessing._decode_buckets
        eager = []

        def decode(*args):
            eager.append(decode_buckets(*args))
            return eager[-1]

        with mock.patch.object(preprocessing, "pack_codes", lambda *_: None), \
                mock.patch.object(preprocessing, "_decode_buckets", decode):
            columnar = columnar_build(PATH_QUERY, database, order, shards)
        assert_like_row_build(columnar, PATH_QUERY, database, order, shards, eager)
        for part in shard_parts(columnar):
            assert all(layer.columnar is None for layer in part.layers.values()
                       if len(layer.key_positions) and part.count)
        encoded = isinstance(
            database.relation("S").to_backend("columnar").storage,
            preprocessing.ColumnarStorage,
        )
        assert bool(eager) == bool(columnar.count and encoded)
