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

The vectorized path also hands its flat arrays to capture: it keeps the
sorted codes, the bucket-local prefix sums, the bucket sizes and totals and
each row's child-bucket index on the layer's :class:`_ColumnarLayerIndex`,
and :func:`repro.core.snapshot.capture` assembles the layer's image from them
instead of walking the buckets and re-encoding every value.
"""

from __future__ import annotations

import threading
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
    child layer index — the bucket each row points into.
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


@dataclass
class LayerData:
    """Preprocessed data of one layer: its buckets and schema bookkeeping."""

    index: int
    variable: str
    variables: Tuple[str, ...]          # node schema (column order of tuples)
    key_variables: Tuple[str, ...]
    parent: Optional[int]
    children: Tuple[int, ...]
    buckets: Dict[Tuple, Bucket]
    value_position: int                 # column of the layer variable
    key_positions: Tuple[int, ...]      # columns of the key variables
    columnar: Optional[_ColumnarLayerIndex] = None

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
        root_bucket = layers[1].bucket(()) if 1 in layers else None
        self._count = root_bucket.total if root_bucket is not None else 0
        # Guards the lazy build of the batched-access index (see
        # repro.core.access._batch_index): concurrent serving threads must
        # agree on one index instead of racing to build it twice.
        self._batch_lock = threading.Lock()

    def __getstate__(self):
        # Locks don't pickle, the batch index is a lazily rebuilt cache, and
        # the snapshot image (its kernels and its installed handle) may view
        # shared-memory/mmap buffers; drop them so instances cross
        # process-pool boundaries cleanly.
        state = self.__dict__.copy()
        state.pop("_batch_lock", None)
        state.pop("_batch_index", None)
        state.pop("_snapshot_image", None)
        state.pop("_installed_snapshot", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._batch_lock = threading.Lock()

    @property
    def count(self) -> int:
        """The total number of answers ``|Q(I)|``."""
        return self._count

    def layer(self, index: int) -> LayerData:
        return self.layers[index]

    def __len__(self) -> int:
        return self._count


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
) -> Optional[Tuple[Dict[Tuple, Bucket], Optional[_ColumnarLayerIndex]]]:
    """Vectorized steps 3–5 for one layer; ``None`` means "use the row path".

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

    arity = len(relation.attributes)
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
        )
        return {}, empty_index

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
    base = np.repeat(starts_global[group_starts], sizes)
    local_starts = starts_global - base
    starts = local_starts.tolist()
    ends = (ends_global - base).tolist()
    weights_list = weights.tolist()

    # Decode once, column-wise, back to the original Python values.
    decoded = [
        storage.domains[j][sorted_codes[j]] for j in range(arity)
    ]
    rows_all: List[Tuple] = list(zip(*decoded)) if arity else [()] * n
    if descending:
        layer_values_all = [_order_key(v, True) for v in decoded[value_position].tolist()]
    else:
        layer_values_all = decoded[value_position].tolist()

    buckets: Dict[Tuple, Bucket] = {}
    totals_per_bucket: List[int] = []
    max_total = 0
    for s, e in zip(group_starts.tolist(), group_ends.tolist()):
        first = rows_all[s]
        key = tuple(first[p] for p in key_positions)
        total = ends[e - 1]
        buckets[key] = Bucket(
            key=key,
            tuples=rows_all[s:e],
            weights=weights_list[s:e],
            starts=starts[s:e],
            ends=ends[s:e],
            layer_values=layer_values_all[s:e],
            total=total,
        )
        totals_per_bucket.append(total)
        if total > max_total:
            max_total = total

    # Lookup index for the parent layer: packed bucket keys are ascending
    # because rows are key-sorted and the packing is order-preserving.
    bases = tuple(max(1, len(storage.domains[p])) for p in key_positions)
    if key_positions:
        packed = pack_codes([sorted_codes[p][group_starts] for p in key_positions], bases)
    else:
        packed = np.zeros(1, dtype=np.int64)
    if packed is None:
        columnar_index = None
    else:
        columnar_index = _ColumnarLayerIndex(
            key_indexes=[storage.domain_index(p) for p in key_positions],
            bases=bases,
            packed_keys=packed,
            totals=np.asarray(totals_per_bucket, dtype=np.int64),
            max_total=max_total,
            codes=sorted_codes,
            domains=list(storage.domains),
            starts=local_starts,
            sizes=sizes,
            child_ids=child_ids,
        )
    return buckets, columnar_index


def _build_layer(
    relation: Relation,
    value_position: int,
    key_positions: Tuple[int, ...],
    descending: bool,
    child_layers: Sequence[LayerData],
    child_key_positions: Sequence[Tuple[int, ...]],
) -> Tuple[Dict[Tuple, Bucket], Optional[_ColumnarLayerIndex]]:
    """Steps 3–5 for one layer: columnar fast path with row-wise fallback."""
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


def _layer_build_task(payload):
    """Worker-pool entry point for one layer build (must be picklable).

    The elapsed time is measured *inside* the task so recorded stage stats
    reflect build work only, not time spent queued for a free worker.
    """
    import time as _time

    (index, relation, value_position, key_positions, descending,
     child_layers, child_key_positions) = payload
    started = _time.perf_counter()
    buckets, columnar_index = _build_layer(
        relation, value_position, key_positions, descending,
        child_layers, child_key_positions,
    )
    return index, buckets, columnar_index, _time.perf_counter() - started


def preprocess(
    tree: LayeredJoinTree,
    database: Database,
    workers: Optional[int] = None,
    use_processes: bool = False,
    on_stage=None,
    assume_reduced: bool = False,
    prebuilt_layers: Optional[Dict[int, LayerData]] = None,
) -> PreprocessedInstance:
    """Run the preprocessing phase over a layered join tree and a database.

    ``database`` must contain a relation per atom of ``tree.query`` whose
    attributes are the atom's variables (this is what
    :func:`repro.core.reduction.eliminate_projections` produces).

    ``workers`` > 1 builds independent layers (sibling subtrees of the layered
    join tree) concurrently on a thread pool — or a process pool when
    ``use_processes`` is set, which is worthwhile only for the columnar
    backend, where per-layer work is large enough to amortise pickling.  The
    result is bucket-for-bucket identical to the serial build: every layer is
    built by exactly one task from exactly the same inputs, only the schedule
    changes.  ``on_stage`` (if given) receives one ``(name, seconds, rows)``
    call per pipeline stage — the hook the planner's execution report uses.

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

    def _record_elapsed(name: str, seconds: float, rows: Optional[int]) -> None:
        if on_stage is not None:
            on_stage(name, seconds, rows)

    def _record(name: str, started: float, rows: Optional[int]) -> None:
        _record_elapsed(name, _time.perf_counter() - started, rows)

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
    children: Dict[int, Tuple[int, ...]] = {
        layer.index: tree.children(layer.index) for layer in tree.layers
    }
    layer_data: Dict[int, LayerData] = dict(prebuilt_layers)

    def layer_inputs(layer):
        schema = node_schemas[layer.index]
        relation = reduced[layer.index]
        value_position = schema.index(layer.variable)
        key_positions = tuple(schema.index(v) for v in layer.key_variables)
        descending = order.is_descending(layer.variable)
        child_layers = [layer_data[c] for c in children[layer.index]]
        # For each child, the positions (in *this* node's schema) of the child's
        # key variables: those variables are always contained in this node.
        child_key_positions = [
            tuple(schema.index(v) for v in child.key_variables) for child in child_layers
        ]
        return (schema, relation, value_position, key_positions, descending,
                child_layers, child_key_positions)

    def finish_layer(layer, schema, value_position, key_positions, buckets, columnar_index):
        layer_data[layer.index] = LayerData(
            index=layer.index,
            variable=layer.variable,
            variables=schema,
            key_variables=layer.key_variables,
            parent=layer.parent,
            children=children[layer.index],
            buckets=buckets,
            value_position=value_position,
            key_positions=key_positions,
            columnar=columnar_index,
        )

    if workers is None or workers <= 1 or len(tree.layers) <= 1:
        # Serial reference schedule: largest index down, children before parents.
        for layer in reversed(tree.layers):
            if layer.index in prebuilt_layers:
                continue
            started = _time.perf_counter()
            (schema, relation, value_position, key_positions, descending,
             child_layers, child_key_positions) = layer_inputs(layer)
            buckets, columnar_index = _build_layer(
                relation, value_position, key_positions, descending,
                child_layers, child_key_positions,
            )
            finish_layer(layer, schema, value_position, key_positions, buckets, columnar_index)
            _record(f"layer:{layer.index}", started, len(relation))
    else:
        _build_layers_parallel(
            tree, children, layer_inputs, finish_layer,
            workers=workers, use_processes=use_processes, record=_record_elapsed,
            prebuilt=set(prebuilt_layers),
        )

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
    children = {layer.index: tree.children(layer.index) for layer in tree.layers}
    layer_data: Dict[int, LayerData] = {}
    for layer in reversed(tree.layers):
        if layer.index not in wanted:
            continue
        missing = [c for c in children[layer.index] if c not in wanted]
        if missing:
            raise ValueError(
                f"layer set is not downward closed: layer {layer.index} "
                f"needs children {missing}"
            )
        started = _time.perf_counter()
        schema, relation = _project_node(layer, database, order, assume_reduced=True)
        value_position = schema.index(layer.variable)
        key_positions = tuple(schema.index(v) for v in layer.key_variables)
        child_layers = [layer_data[c] for c in children[layer.index]]
        child_key_positions = [
            tuple(schema.index(v) for v in child.key_variables) for child in child_layers
        ]
        buckets, columnar_index = _build_layer(
            relation, value_position, key_positions,
            order.is_descending(layer.variable), child_layers, child_key_positions,
        )
        layer_data[layer.index] = LayerData(
            index=layer.index,
            variable=layer.variable,
            variables=schema,
            key_variables=layer.key_variables,
            parent=layer.parent,
            children=children[layer.index],
            buckets=buckets,
            value_position=value_position,
            key_positions=key_positions,
            columnar=columnar_index,
        )
        if on_stage is not None:
            on_stage(f"shared_layer:{layer.index}",
                     _time.perf_counter() - started, len(relation))
    return layer_data


def _build_layers_parallel(tree, children, layer_inputs, finish_layer,
                           workers: int, use_processes: bool, record,
                           prebuilt=frozenset()) -> None:
    """Topologically scheduled concurrent layer builds (children before parents).

    A layer becomes ready the moment its last child finishes, so sibling
    subtrees build concurrently while the dependency chain stays intact.  The
    built structures are identical to the serial schedule's because each layer
    is a pure function of its reduced relation and its children's data.
    ``prebuilt`` layers count as already finished: they are never submitted
    and do not block their parents.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait

    pool_cls = ProcessPoolExecutor if use_processes else ThreadPoolExecutor
    pending_children: Dict[int, int] = {
        layer.index: sum(1 for c in children[layer.index] if c not in prebuilt)
        for layer in tree.layers
        if layer.index not in prebuilt
    }
    by_index = {layer.index: layer for layer in tree.layers}
    rows_of: Dict[int, int] = {}

    with pool_cls(max_workers=workers) as pool:
        futures = {}

        def submit(index: int) -> None:
            layer = by_index[index]
            (schema, relation, value_position, key_positions, descending,
             child_layers, child_key_positions) = layer_inputs(layer)
            rows_of[index] = len(relation)
            payload = (index, relation, value_position, key_positions, descending,
                       child_layers, child_key_positions)
            future = pool.submit(_layer_build_task, payload)
            futures[future] = (layer, schema, value_position, key_positions)

        for index, pending in pending_children.items():
            if pending == 0:
                submit(index)

        while futures:
            done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
            for future in done:
                layer, schema, value_position, key_positions = futures.pop(future)
                index, buckets, columnar_index, seconds = future.result()
                finish_layer(layer, schema, value_position, key_positions,
                             buckets, columnar_index)
                # The task measured its own build time, so the recorded
                # stage cost excludes worker-queue wait.
                record(f"layer:{index}", seconds, rows_of[index])
                parent = layer.parent
                if parent is not None:
                    pending_children[parent] -= 1
                    if pending_children[parent] == 0:
                        submit(parent)
