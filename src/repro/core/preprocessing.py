"""Preprocessing phase of lexicographic direct access (Section 3.1).

Given a layered join tree, the preprocessing phase

1. creates a relation for every tree node (a distinct projection of a base
   relation of the full query),
2. removes dangling tuples by fully semi-join-reducing over the tree,
3. sorts each node relation,
4. partitions it into *buckets* keyed by the assignment of the node's
   variables that precede its layer variable, and
5. computes, by a bottom-up dynamic program, for every tuple the number of
   answers it participates in when joining only its subtree (``weight``) and
   the running prefix sums within its bucket (``start`` / ``end``).

The resulting :class:`PreprocessedInstance` is the data structure that both the
access and the inverted-access routines of :mod:`repro.core.access` operate on.
All counts are exact Python integers, so answer sets far larger than 2^53 are
handled without loss.

Steps 3–5 have two implementations.  The reference path loops over Python
tuples.  When a node relation lives on the columnar backend, a vectorized path
runs instead: grouping and sorting collapse into one ``np.lexsort`` over the
dictionary codes, the per-tuple child-weight lookups become ``searchsorted``
probes into the child layer's packed bucket-key array, and the prefix sums are
a single ``np.cumsum``.  The vectorized path bails out (to the reference path)
whenever exactness would be at risk — in particular when the worst-case bucket
totals could exceed int64, so answer counts beyond 2^62 still use exact Python
integers.  Both paths produce identical buckets.

The vectorized path builds no :class:`Bucket` and does no per-row Python: it
keeps the sorted codes, the bucket-local prefix sums, the bucket sizes and
totals and each row's child-bucket index on the layer's
:class:`_ColumnarLayerIndex`.  :func:`repro.core.snapshot.capture` assembles
the layer's image from those arrays, and the answer count is the root's
total.  The buckets are decoded from the same arrays only when something
reads ``LayerData.buckets`` — the object walk, a row-built parent, or
capture's bucket walk of a row-built parent.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.atoms import ConjunctiveQuery
from repro.core.layered_tree import LayeredJoinTree
from repro.core.orders import LexOrder, ReversedValue, order_key
from repro.engine.backends import HAS_NUMPY, ColumnarStorage
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.yannakakis import full_reducer

if HAS_NUMPY:
    import numpy as np

    from repro.engine.backends.columnar import pack_codes, translation_table

#: Vectorized bucket totals stay below this bound; larger counts take the
#: exact Python-int path.
_INT64_SAFE = 2 ** 62


# Backward-compatible aliases: the descending-order comparator now lives in
# :mod:`repro.core.orders` so every consumer (bucket sort, columnar decoding,
# materialise-and-sort baseline) shares one implementation.
_ReversedValue = ReversedValue
_order_key = order_key


@dataclass
class Bucket:
    """One bucket of a layer's relation.

    ``key`` is the assignment (tuple of values aligned with the layer's
    ``key_variables``); ``tuples`` are the node tuples of the bucket sorted by
    the layer variable; ``weights``/``starts``/``ends`` align with ``tuples``;
    ``total`` is the bucket weight (sum of tuple weights); ``layer_values`` are
    the layer-variable values of the sorted tuples (for binary search in
    inverted access).
    """

    key: Tuple
    tuples: List[Tuple]
    weights: List[int] = field(default_factory=list)
    starts: List[int] = field(default_factory=list)
    ends: List[int] = field(default_factory=list)
    layer_values: List[object] = field(default_factory=list)
    total: int = 0

    def find_by_value(self, value) -> Optional[int]:
        """Index of the tuple whose layer value equals ``value`` (binary search)."""
        lo = bisect_left(self.layer_values, value)
        if lo < len(self.layer_values) and self.layer_values[lo] == value:
            return lo
        return None

    def first_index_at_least(self, value) -> int:
        """Index of the first tuple whose layer value is ≥ ``value``."""
        return bisect_left(self.layer_values, value)


@dataclass
class _ColumnarLayerIndex:
    """Vectorized bucket lookup data of one layer (columnar path only).

    ``packed_keys`` holds the packed key codes of the layer's buckets sorted
    ascending; ``totals`` the matching bucket totals (int64); ``key_indexes``
    the per-key-column ``value -> code`` dictionaries of the layer relation's
    own encoding; ``bases`` the packing bases.  Parents translate their rows
    into this code space and ``searchsorted`` into ``packed_keys`` to fetch
    all child-bucket totals in one shot.

    The remaining fields are what :func:`repro.core.snapshot.capture`
    flattens the layer from, all in flat row order (buckets in key order,
    rows sorted within each bucket): ``codes``/``domains`` the sorted storage
    codes and value domains of every column, ``starts`` the bucket-local
    prefix sums, ``sizes`` the bucket row counts, and ``child_ids`` — per
    child layer index — the bucket each row points into.  With
    ``descending`` (the layer variable's sort direction) they are also what
    the layer's buckets are decoded from on first read.
    """

    key_indexes: List[Dict[object, int]]
    bases: Tuple[int, ...]
    packed_keys: "np.ndarray"
    totals: "np.ndarray"
    max_total: int
    codes: List["np.ndarray"]
    domains: List["np.ndarray"]
    starts: "np.ndarray"
    sizes: "np.ndarray"
    child_ids: Dict[int, "np.ndarray"]
    descending: bool


def _decode_buckets(
    codes: List["np.ndarray"],
    domains: List["np.ndarray"],
    starts: "np.ndarray",
    sizes: "np.ndarray",
    totals: "np.ndarray",
    descending: bool,
    value_position: int,
    key_positions: Tuple[int, ...],
) -> Dict[Tuple, Bucket]:
    """The buckets of a columnar-built layer, decoded from its flat arrays.

    A row's ``end`` is the next row's ``start``, or the bucket total for
    the last row of a bucket; its ``weight`` is ``end - start``.
    """
    decoded = [domain[column].tolist() for column, domain in zip(codes, domains)]
    rows: List[Tuple] = list(zip(*decoded))
    values = decoded[value_position]
    if descending:
        values = [_order_key(v, True) for v in values]
    all_starts = starts.tolist()
    buckets: Dict[Tuple, Bucket] = {}
    s = 0
    for size, total in zip(sizes.tolist(), totals.tolist()):
        e = s + size
        bucket_starts = all_starts[s:e]
        ends = bucket_starts[1:] + [total]
        key = tuple(rows[s][p] for p in key_positions)
        buckets[key] = Bucket(
            key=key,
            tuples=rows[s:e],
            weights=[end - start for start, end in zip(bucket_starts, ends)],
            starts=bucket_starts,
            ends=ends,
            layer_values=values[s:e],
            total=total,
        )
        s = e
    return buckets


class LayerData:
    """Preprocessed data of one layer: its buckets and schema bookkeeping.

    A row-built layer is given its ``buckets``.  A columnar-built layer is
    given only its ``columnar`` index and builds no :class:`Bucket` until
    something reads ``buckets`` — the object walk, a row-built parent, or
    capture's bucket walk; the first read decodes them from the index arrays
    and caches them.
    """

    def __init__(
        self,
        index: int,
        variable: str,
        variables: Tuple[str, ...],         # node schema (column order of tuples)
        key_variables: Tuple[str, ...],
        parent: Optional[int],
        children: Tuple[int, ...],
        value_position: int,                # column of the layer variable
        key_positions: Tuple[int, ...],     # columns of the key variables
        buckets: Optional[Dict[Tuple, Bucket]] = None,
        columnar: Optional[_ColumnarLayerIndex] = None,
    ) -> None:
        self.index = index
        self.variable = variable
        self.variables = variables
        self.key_variables = key_variables
        self.parent = parent
        self.children = children
        self.value_position = value_position
        self.key_positions = key_positions
        self.columnar = columnar
        # What the lazy buckets decode from, held apart from ``columnar`` so
        # the view does not depend on the probe index staying attached.
        self._source = columnar if buckets is None else None
        self._buckets = buckets

    @property
    def buckets(self) -> Dict[Tuple, Bucket]:
        buckets = self._buckets
        if buckets is None:
            # Racing first reads decode equal dicts; either may win.
            source = self._source
            buckets = self._buckets = _decode_buckets(
                source.codes, source.domains, source.starts, source.sizes,
                source.totals, source.descending,
                self.value_position, self.key_positions,
            )
        return buckets

    def bucket(self, key: Tuple) -> Optional[Bucket]:
        return self.buckets.get(key)


class PreprocessedInstance:
    """The direct-access data structure for one (query, order, database) triple."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        order: LexOrder,
        tree: LayeredJoinTree,
        layers: Dict[int, LayerData],
    ) -> None:
        self.query = query
        self.order = order
        self.tree = tree
        self.layers = layers
        self._count = _root_total(layers[1]) if 1 in layers else 0

    @property
    def count(self) -> int:
        """The total number of answers ``|Q(I)|``."""
        return self._count

    def layer(self, index: int) -> LayerData:
        return self.layers[index]

    def __len__(self) -> int:
        return self._count


def _root_total(root: LayerData) -> int:
    """The root layer's single bucket total, read without decoding buckets."""
    if root.columnar is not None:
        totals = root.columnar.totals
        return int(totals[0]) if len(totals) else 0
    bucket = root.bucket(())
    return bucket.total if bucket is not None else 0


# ----------------------------------------------------------------------
# Steps 3-5, reference (row-at-a-time) implementation
# ----------------------------------------------------------------------
def _build_layer_rowwise(
    relation: Relation,
    value_position: int,
    key_positions: Tuple[int, ...],
    descending: bool,
    child_layers: Sequence[LayerData],
    child_key_positions: Sequence[Tuple[int, ...]],
) -> Dict[Tuple, Bucket]:
    buckets: Dict[Tuple, Bucket] = {}
    grouped: Dict[Tuple, List[Tuple]] = {}
    for row in relation:
        key = tuple(row[p] for p in key_positions)
        grouped.setdefault(key, []).append(row)

    for key, rows in grouped.items():
        rows.sort(key=lambda r: _order_key(r[value_position], descending))
        bucket = Bucket(key=key, tuples=rows)
        running = 0
        for row in rows:
            weight = 1
            for child, positions in zip(child_layers, child_key_positions):
                child_key = tuple(row[p] for p in positions)
                child_bucket = child.bucket(child_key)
                weight *= child_bucket.total if child_bucket is not None else 0
            bucket.weights.append(weight)
            bucket.starts.append(running)
            running += weight
            bucket.ends.append(running)
            bucket.layer_values.append(_order_key(row[value_position], descending))
        bucket.total = running
        buckets[key] = bucket
    return buckets


# ----------------------------------------------------------------------
# Steps 3-5, vectorized (columnar) implementation
# ----------------------------------------------------------------------
def _child_totals_vectorized(
    child_index: _ColumnarLayerIndex,
    parent_storage: ColumnarStorage,
    sorted_codes: List["np.ndarray"],
    positions: Tuple[int, ...],
) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
    """Per-row totals of the child buckets each parent row points into, and
    each row's child-bucket index (its slot in ``packed_keys``)."""
    mapped: List[np.ndarray] = []
    valid = np.ones(len(sorted_codes[0]) if sorted_codes else 0, dtype=bool)
    for position, key_index in zip(positions, child_index.key_indexes):
        table = translation_table(parent_storage.domains[position], key_index)
        codes = table[sorted_codes[position]]
        valid &= codes >= 0
        mapped.append(np.maximum(codes, 0))

    if mapped:
        packed = pack_codes(mapped, child_index.bases)
        if packed is None:
            return None
    else:
        packed = np.zeros(len(valid), dtype=np.int64)

    keys = child_index.packed_keys
    if len(keys) == 0:
        zeros = np.zeros(len(valid), dtype=np.int64)
        return zeros, zeros
    slots = np.minimum(np.searchsorted(keys, packed), len(keys) - 1).astype(
        np.int64, copy=False
    )
    found = valid & (keys[slots] == packed)
    return np.where(found, child_index.totals[slots], 0), slots


def _build_layer_columnar(
    relation: Relation,
    value_position: int,
    key_positions: Tuple[int, ...],
    descending: bool,
    child_layers: Sequence[LayerData],
    child_key_positions: Sequence[Tuple[int, ...]],
) -> Optional[Tuple[Optional[Dict[Tuple, Bucket]], Optional[_ColumnarLayerIndex]]]:
    """Vectorized steps 3–5 for one layer; ``None`` means "use the row path".

    Normally returns ``(None, index)``: the layer's buckets stay undecoded
    until something reads them.  Only when the bucket keys cannot be packed
    into int64 is there no index; the buckets are then decoded at once and
    ``(buckets, None)`` is returned.

    Requires every child layer to carry a columnar index and the worst-case
    totals to fit comfortably in int64 (otherwise exactness demands Python
    integers and the reference path takes over).
    """
    storage = relation.storage
    if not isinstance(storage, ColumnarStorage):
        return None
    child_indexes: List[_ColumnarLayerIndex] = []
    for child in child_layers:
        if child.columnar is None:
            return None
        child_indexes.append(child.columnar)

    n = len(storage)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        empty_index = _ColumnarLayerIndex(
            key_indexes=[storage.domain_index(p) for p in key_positions],
            bases=tuple(max(1, len(storage.domains[p])) for p in key_positions),
            packed_keys=empty,
            totals=empty,
            max_total=0,
            codes=list(storage.codes),
            domains=list(storage.domains),
            starts=empty,
            sizes=empty,
            child_ids={child.index: empty for child in child_layers},
            descending=descending,
        )
        return None, empty_index

    # Exactness guard: bound every bucket total by n · Π (child max totals).
    weight_bound = 1
    for child_index in child_indexes:
        weight_bound *= child_index.max_total
    if n * weight_bound >= _INT64_SAFE:
        return None

    # Step 3+4 fused: one stable lexsort by (key columns, layer value).
    value_codes = storage.codes[value_position]
    sort_columns = (-value_codes if descending else value_codes,) + tuple(
        storage.codes[p] for p in reversed(key_positions)
    )
    order = np.lexsort(sort_columns)
    sorted_codes = [column[order] for column in storage.codes]

    # Group boundaries: a new bucket starts where any key column changes.
    if key_positions:
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for p in key_positions:
            column = sorted_codes[p]
            change[1:] |= column[1:] != column[:-1]
        group_starts = np.flatnonzero(change)
    else:
        group_starts = np.zeros(1, dtype=np.int64)
    group_ends = np.append(group_starts[1:], n)

    # Step 5: vectorized counting DP (weights, prefix sums, bucket totals).
    weights = np.ones(n, dtype=np.int64)
    child_ids: Dict[int, np.ndarray] = {}
    for child, child_index, positions in zip(
        child_layers, child_indexes, child_key_positions
    ):
        probed = _child_totals_vectorized(child_index, storage, sorted_codes, positions)
        if probed is None:
            return None
        totals, child_ids[child.index] = probed
        weights *= totals
    ends_global = np.cumsum(weights)
    starts_global = ends_global - weights
    sizes = group_ends - group_starts
    local_starts = starts_global - np.repeat(starts_global[group_starts], sizes)
    totals = ends_global[group_ends - 1] - starts_global[group_starts]

    # Lookup index for the parent layer: packed bucket keys are ascending
    # because rows are key-sorted and the packing is order-preserving.
    bases = tuple(max(1, len(storage.domains[p])) for p in key_positions)
    if key_positions:
        packed = pack_codes([sorted_codes[p][group_starts] for p in key_positions], bases)
    else:
        packed = np.zeros(1, dtype=np.int64)
    domains = list(storage.domains)
    if packed is None:
        # No index to be lazy over: decode the buckets now.
        buckets = _decode_buckets(
            sorted_codes, domains, local_starts, sizes, totals,
            descending, value_position, key_positions,
        )
        return buckets, None
    return None, _ColumnarLayerIndex(
        key_indexes=[storage.domain_index(p) for p in key_positions],
        bases=bases,
        packed_keys=packed,
        totals=totals,
        max_total=int(totals.max()),
        codes=sorted_codes,
        domains=domains,
        starts=local_starts,
        sizes=sizes,
        child_ids=child_ids,
        descending=descending,
    )


def _build_layer(
    relation: Relation,
    value_position: int,
    key_positions: Tuple[int, ...],
    descending: bool,
    child_layers: Sequence[LayerData],
    child_key_positions: Sequence[Tuple[int, ...]],
) -> Tuple[Optional[Dict[Tuple, Bucket]], Optional[_ColumnarLayerIndex]]:
    """Steps 3–5 for one layer: columnar fast path with row-wise fallback.

    Exactly one of the returned buckets and columnar index is set.
    """
    if HAS_NUMPY:
        built = _build_layer_columnar(
            relation, value_position, key_positions, descending,
            child_layers, child_key_positions,
        )
        if built is not None:
            return built
    buckets = _build_layer_rowwise(
        relation, value_position, key_positions, descending,
        child_layers, child_key_positions,
    )
    return buckets, None


def _layer_data(layer, schema, relation, order, children, built) -> LayerData:
    """Steps 3–5 for one layer whose children are already in ``built``."""
    value_position = schema.index(layer.variable)
    key_positions = tuple(schema.index(v) for v in layer.key_variables)
    child_layers = [built[c] for c in children]
    # For each child, the positions (in *this* node's schema) of the child's
    # key variables: those variables are always contained in this node.
    child_key_positions = [
        tuple(schema.index(v) for v in child.key_variables) for child in child_layers
    ]
    buckets, columnar_index = _build_layer(
        relation, value_position, key_positions,
        order.is_descending(layer.variable), child_layers, child_key_positions,
    )
    return LayerData(
        index=layer.index,
        variable=layer.variable,
        variables=schema,
        key_variables=layer.key_variables,
        parent=layer.parent,
        children=children,
        buckets=buckets,
        value_position=value_position,
        key_positions=key_positions,
        columnar=columnar_index,
    )


def preprocess(
    tree: LayeredJoinTree,
    database: Database,
    on_stage=None,
    assume_reduced: bool = False,
    prebuilt_layers: Optional[Dict[int, LayerData]] = None,
) -> PreprocessedInstance:
    """Run the preprocessing phase over a layered join tree and a database.

    ``database`` must contain a relation per atom of ``tree.query`` whose
    attributes are the atom's variables (this is what
    :func:`repro.core.reduction.eliminate_projections` produces).

    Layers build one at a time, largest index first, so every child is
    built before its parent (Sec. 3.1's bottom-up pass).  ``on_stage`` (if
    given) receives one ``(name, seconds, rows)`` call per pipeline stage —
    the hook the planner's execution report uses.

    ``assume_reduced`` promises the database is distinct and fully reduced
    (every tuple participates in an answer) — true for
    :func:`~repro.core.reduction.eliminate_projections` output.  The planner's
    executor passes it to elide step 2 entirely (a semi-join pass that cannot
    remove anything from reduced input) and the dedup of permutation-only node
    projections.

    ``prebuilt_layers`` injects already-built :class:`LayerData` (keyed by
    layer index) adopted as-is instead of being rebuilt — the sharding layer
    passes the shard-independent subtrees it built once via
    :func:`build_partial_layers`, so every shard shares them.  The set must be
    closed downward (all descendants of a prebuilt layer prebuilt too) and
    requires ``assume_reduced`` — the elided semi-join pass would otherwise
    need node relations for the prebuilt layers as well.
    """
    import time as _time

    query = tree.query
    order = tree.order
    prebuilt_layers = prebuilt_layers or {}
    if prebuilt_layers and not assume_reduced:
        raise ValueError("prebuilt_layers requires assume_reduced=True")

    def _record(name: str, started: float, rows: Optional[int]) -> None:
        if on_stage is not None:
            on_stage(name, _time.perf_counter() - started, rows)

    # ------------------------------------------------------------------
    # Step 1: a relation per node (distinct projection of its source atom).
    # ------------------------------------------------------------------
    started = _time.perf_counter()
    node_relations: Dict[int, Relation] = {}
    node_schemas: Dict[int, Tuple[str, ...]] = {}
    for layer in tree.layers:
        if layer.index in prebuilt_layers:
            continue
        schema, projected = _project_node(layer, database, order, assume_reduced)
        node_relations[layer.index] = projected
        node_schemas[layer.index] = schema
    _record("project_nodes", started, sum(len(r) for r in node_relations.values()))

    # ------------------------------------------------------------------
    # Step 2: remove dangling tuples (full reduction over the layered tree).
    # Elided for reduced input: projections of fully reduced relations are
    # fully reduced over the layered tree (every node tuple extends to an
    # answer), so the semi-joins cannot remove anything.
    # ------------------------------------------------------------------
    if assume_reduced:
        reduced = node_relations
    else:
        started = _time.perf_counter()
        join_tree = tree.as_join_tree()          # node ids are layer-1 offsets
        reduced_list = full_reducer(
            join_tree, [node_relations[layer.index] for layer in tree.layers]
        )
        reduced = {
            layer.index: relation
            for layer, relation in zip(tree.layers, reduced_list)
        }
        _record("semi_join_reduce", started, sum(len(r) for r in reduced.values()))

    # ------------------------------------------------------------------
    # Steps 3-5: buckets, sorting, and the counting DP (bottom-up).
    # ------------------------------------------------------------------
    # Largest index down, so children are built before their parents.
    layer_data: Dict[int, LayerData] = dict(prebuilt_layers)
    for layer in reversed(tree.layers):
        if layer.index in prebuilt_layers:
            continue
        started = _time.perf_counter()
        relation = reduced[layer.index]
        layer_data[layer.index] = _layer_data(
            layer, node_schemas[layer.index], relation, order,
            tree.children(layer.index), layer_data,
        )
        _record(f"layer:{layer.index}", started, len(relation))

    return PreprocessedInstance(query, order, tree, layer_data)


def _project_node(layer, database: Database, order, assume_reduced: bool):
    """Step 1 for one layer: the distinct projection of its source atom."""
    schema = tuple(v for v in order.variables if v in layer.node_variables)
    source = database.relation(layer.source_atom.relation)
    permutation = assume_reduced and frozenset(schema) == frozenset(source.attributes)
    projected = source.project(
        schema, distinct=not permutation, name=f"node{layer.index}"
    )
    return schema, projected


def build_partial_layers(
    tree: LayeredJoinTree,
    database: Database,
    only: Sequence[int],
    on_stage=None,
) -> Dict[int, LayerData]:
    """Build just the given layers (steps 1 and 3–5), assuming reduced input.

    ``only`` must be closed downward (every child of a listed layer listed
    too) — the counting DP of a layer reads its children's totals.  The
    sharding layer uses this to build the shard-independent subtrees — the
    layers whose node schema does not contain the partitioning variable —
    exactly once, sharing the resulting :class:`LayerData` across shards via
    the ``prebuilt_layers`` hook of :func:`preprocess`.
    """
    import time as _time

    wanted = set(only)
    order = tree.order
    layer_data: Dict[int, LayerData] = {}
    for layer in reversed(tree.layers):
        if layer.index not in wanted:
            continue
        children = tree.children(layer.index)
        missing = [c for c in children if c not in wanted]
        if missing:
            raise ValueError(
                f"layer set is not downward closed: layer {layer.index} "
                f"needs children {missing}"
            )
        started = _time.perf_counter()
        schema, relation = _project_node(layer, database, order, assume_reduced=True)
        layer_data[layer.index] = _layer_data(
            layer, schema, relation, order, children, layer_data
        )
        if on_stage is not None:
            on_stage(f"shared_layer:{layer.index}",
                     _time.perf_counter() - started, len(relation))
    return layer_data
