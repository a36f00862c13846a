"""Access routines over the preprocessed structure (Algorithms 1 and 2).

Three operations are provided on a :class:`~repro.core.preprocessing.PreprocessedInstance`:

* :func:`access` — Algorithm 1: return the answer at index ``k`` of the
  lexicographically sorted answer array, in time logarithmic in the database
  size (one binary search per layer).
* :func:`inverted_access` — Algorithm 2: given an answer, return its index (or
  raise :class:`~repro.exceptions.NotAnAnswerError`), in constant time per
  layer.
* :func:`next_answer_index` — the Remark 3 variant: given an arbitrary
  assignment of the order variables (not necessarily an answer), return the
  index of the first answer that is lexicographically ≥ it.

All three walk the layers in order, maintain the current bucket per layer and
the running ``factor`` (product of the weights of the other root buckets), and
use exact integer arithmetic.

A fourth operation, :func:`batch_access`, serves a whole batch of ranks at
once.  With NumPy available it runs the layer walk *vectorized*: per layer,
one :class:`~repro.engine.backends.columnar.SegmentedSearcher` probe locates
the chosen tuple of every request simultaneously, and the factor/remainder
bookkeeping is elementwise int64 arithmetic.  The vectorized path is gated on
the answer count fitting comfortably in int64 (the same ``2^62`` bound the
preprocessing uses); otherwise — and without NumPy — it degrades to a loop of
scalar :func:`access` calls with identical results.
"""

from __future__ import annotations

import operator
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.orders import order_key
from repro.core.preprocessing import _INT64_SAFE, Bucket, PreprocessedInstance
from repro.engine.backends import HAS_NUMPY
from repro.exceptions import NotAnAnswerError, OutOfBoundsError
from repro.obs import ACCESS_KERNELS

if HAS_NUMPY:
    import numpy as np

    from repro.engine.backends.columnar import SegmentedSearcher


def validate_rank(k) -> int:
    """Coerce ``k`` to a plain ``int`` rank, rejecting bools and floats.

    Accepts anything implementing ``__index__`` (so NumPy integers work) but
    refuses ``bool`` — ``True`` silently indexing as 1 hides caller bugs —
    and non-integral types such as floats and strings, with a ``TypeError``
    naming the offending type.
    """
    if isinstance(k, bool):
        raise TypeError("answer rank must be an integer, not bool")
    try:
        return operator.index(k)
    except TypeError:
        raise TypeError(
            f"answer rank must be an integer, not {type(k).__name__}"
        ) from None


def plain_ints(ks) -> bool:
    """Whether ``ks`` is a ``list`` of exact ``int`` objects — ranks that need no
    per-element coercion (``bool`` is not ``int`` here).  One C-speed pass; the
    service's ``read_op`` and :func:`validate_ranks` share it, so a JSON array
    of ranks is type-checked without a Python-level loop."""
    return type(ks) is list and set(map(type, ks)) <= {int}


def validate_ranks(ks: Sequence[int], count: int) -> Sequence[int]:
    """Validate a whole batch of ranks against ``count`` before serving any.

    Returns the coerced ranks; the first non-integer raises ``TypeError``, the
    first out-of-bounds rank raises :class:`OutOfBoundsError` naming the rank
    and the answer count.  A ``range`` input is validated by its endpoints
    alone (its elements are ints by construction), so validating a large
    contiguous batch costs O(1) instead of O(m).  A NumPy integer array is
    validated by its dtype and a list of plain ints (:func:`plain_ints`) as
    it is; both are returned uncopied.  Bounds are one ``min``/``max`` — the
    element scan that names the first offending rank runs only on failure.
    """
    if isinstance(ks, range):
        if len(ks) == 0:
            return ks
        for k in (ks[0], ks[-1]):
            if k < 0 or k >= count:
                raise OutOfBoundsError(f"index {k} is out of bounds for {count} answers")
        return ks
    if HAS_NUMPY and isinstance(ks, np.ndarray):
        if ks.dtype == np.bool_:
            raise TypeError("answer rank must be an integer, not bool")
        if not np.issubdtype(ks.dtype, np.integer):
            raise TypeError(
                f"answer rank must be an integer, not {ks.dtype.name}"
            )
        if ks.size and (int(ks.min()) < 0 or int(ks.max()) >= count):
            _raise_first_out_of_bounds(ks.ravel().tolist(), count)
        return ks
    ranks = ks if plain_ints(ks) else [validate_rank(k) for k in ks]
    if ranks and (min(ranks) < 0 or max(ranks) >= count):
        _raise_first_out_of_bounds(ranks, count)
    return ranks


def _raise_first_out_of_bounds(ranks: Sequence[int], count: int) -> None:
    for k in ranks:
        if k < 0 or k >= count:
            raise OutOfBoundsError(f"index {k} is out of bounds for {count} answers")


def validate_range(lo: int, hi: int, count: int) -> Tuple[int, int]:
    """Validate a half-open rank range ``[lo, hi)`` against ``count``.

    Unlike slicing, out-of-range bounds raise instead of clamping — a serving
    front-end should reject a request for answers that do not exist.
    """
    lo = validate_rank(lo)
    hi = validate_rank(hi)
    if lo < 0 or hi < lo or hi > count:
        raise OutOfBoundsError(
            f"range [{lo}, {hi}) is out of bounds for {count} answers"
        )
    return lo, hi


def _locate_tuple(bucket: Bucket, factor: int, k: int) -> int:
    """Index of the tuple ``t`` of ``bucket`` with ``start(t)·factor ≤ k < end(t)·factor``.

    Binary search over the monotone ``starts`` array (weights are positive, so
    ``starts`` is strictly increasing once scaled by ``factor``).
    """
    # bisect_right over starts*factor: find rightmost tuple with start*factor <= k
    lo, hi = 0, len(bucket.starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if bucket.starts[mid] * factor <= k:
            lo = mid
        else:
            hi = mid - 1
    return lo


def access(instance, k: int) -> Tuple:
    """Return the ``k``-th answer (0-based) in the instance's lexicographic order.

    Raises :class:`OutOfBoundsError` when ``k`` is negative or at least the
    number of answers, mirroring the paper's "out-of-bound" result, and
    :class:`TypeError` when ``k`` is not an integer (bools included).

    A :class:`~repro.core.sharding.ShardedInstance` routes the rank to its
    owning shard first (one binary search over the shard offsets).
    """
    if getattr(instance, "is_sharded", False):
        return instance.access(k)
    k = validate_rank(k)
    if k < 0 or k >= instance.count:
        raise OutOfBoundsError(
            f"index {k} is out of bounds for {instance.count} answers"
        )
    image = getattr(instance, "_snapshot_image", None)
    if image is not None:
        ACCESS_KERNELS.inc(("access", "snapshot"))
        return image.access(k)
    ACCESS_KERNELS.inc(("access", "object"))

    layers = instance.layers
    num_layers = len(layers)
    selected_rows: Dict[int, Tuple] = {}
    current_buckets: Dict[int, Bucket] = {1: layers[1].bucket(())}
    factor = current_buckets[1].total
    remaining = k

    for i in range(1, num_layers + 1):
        layer = layers[i]
        bucket = current_buckets[i]
        factor //= bucket.total
        index = _locate_tuple(bucket, factor, remaining)
        row = bucket.tuples[index]
        selected_rows[i] = row
        remaining -= bucket.starts[index] * factor

        for child_index in layer.children:
            child = layers[child_index]
            key = tuple(
                row[layer.variables.index(v)] for v in child.key_variables
            )
            child_bucket = child.bucket(key)
            if child_bucket is None:  # pragma: no cover - impossible after reduction
                raise OutOfBoundsError("inconsistent preprocessing state")
            current_buckets[child_index] = child_bucket
            factor *= child_bucket.total

    return _assemble_answer(instance, selected_rows)


def _assemble_answer(instance: PreprocessedInstance, selected_rows: Dict[int, Tuple]) -> Tuple:
    """Combine the selected per-layer tuples into an answer in head order."""
    assignment: Dict[str, object] = {}
    for index, row in selected_rows.items():
        layer = instance.layers[index]
        for variable, value in zip(layer.variables, row):
            assignment[variable] = value
    return tuple(assignment[v] for v in instance.query.free_variables)


def _answer_assignment(instance: PreprocessedInstance, answer: Sequence) -> Dict[str, object]:
    free = instance.query.free_variables
    if len(answer) != len(free):
        raise NotAnAnswerError(
            f"answer {tuple(answer)!r} does not match the head arity {len(free)}"
        )
    return dict(zip(free, answer))


def inverted_access(instance, answer: Sequence) -> int:
    """Return the index of ``answer`` in the lexicographic order (Algorithm 2).

    Raises :class:`NotAnAnswerError` if the tuple is not an answer of the query
    on the preprocessed database.  Sharded instances route by the answer's
    leading value and offset the shard-local index.
    """
    if getattr(instance, "is_sharded", False):
        return instance.inverted_access(answer)
    if instance.count == 0:
        raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer (empty result)")
    assignment = _answer_assignment(instance, answer)
    image = getattr(instance, "_snapshot_image", None)
    if image is not None:
        ACCESS_KERNELS.inc(("inverted", "snapshot"))
        return image.inverted(tuple(answer))
    ACCESS_KERNELS.inc(("inverted", "object"))

    layers = instance.layers
    num_layers = len(layers)
    current_buckets: Dict[int, Bucket] = {1: layers[1].bucket(())}
    factor = current_buckets[1].total
    k = 0

    for i in range(1, num_layers + 1):
        layer = layers[i]
        bucket = current_buckets[i]
        factor //= bucket.total

        value = assignment[layer.variable]
        # ``layer_values`` store order keys (raw values when ascending, the
        # transformed key when descending), so one binary search covers both
        # directions — no linear scan over the bucket.
        index = bucket.find_by_value(
            order_key(value, instance.order.is_descending(layer.variable))
        )
        if index is None:
            raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer")
        row = bucket.tuples[index]
        # The node may contain several variables; all must agree with the answer.
        for variable, val in zip(layer.variables, row):
            if assignment.get(variable, val) != val:
                raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer")
        k += bucket.starts[index] * factor

        for child_index in layer.children:
            child = layers[child_index]
            key = tuple(row[layer.variables.index(v)] for v in child.key_variables)
            child_bucket = child.bucket(key)
            if child_bucket is None:
                raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer")
            current_buckets[child_index] = child_bucket
            factor *= child_bucket.total

    return k


def next_answer_index(instance, target: Sequence) -> int:
    """Index of the first answer lexicographically ≥ ``target`` (Remark 3).

    ``target`` assigns a value to every variable of the order (aligned with the
    query head).  If every answer is smaller than ``target``, the total number
    of answers is returned (i.e. the index one past the last answer), which is
    the natural "out of bound" sentinel for enumeration use cases.

    Only ascending orders are supported (the Remark 3 construction binary
    searches on raw values).
    """
    if getattr(instance, "is_sharded", False):
        return instance.next_answer_index(target)
    if any(instance.order.is_descending(v) for v in instance.order.variables):
        raise NotAnAnswerError("next_answer_index supports ascending orders only")
    if instance.count == 0:
        return 0
    assignment = _answer_assignment(instance, target)
    image = getattr(instance, "_snapshot_image", None)
    if image is not None:
        ACCESS_KERNELS.inc(("next_index", "snapshot"))
        return image.next_index(tuple(target))
    ACCESS_KERNELS.inc(("next_index", "object"))

    layers = instance.layers
    num_layers = len(layers)

    # State for the walk: buckets chosen so far and the accumulated index.
    current_buckets: Dict[int, Bucket] = {1: layers[1].bucket(())}
    factor = instance.count
    k = 0
    # Trail of (layer, bucket, chosen tuple index, factor_before, k_before, buckets_snapshot)
    trail: List[Tuple[int, Bucket, int, int, int, Dict[int, Bucket]]] = []

    i = 1
    exact = True
    while i <= num_layers:
        layer = layers[i]
        bucket = current_buckets[i]
        factor_before = factor
        factor //= bucket.total

        if exact:
            value = assignment[layer.variable]
            index = bucket.first_index_at_least(value)
        else:
            index = 0

        if index >= len(bucket.tuples):
            # Every tuple in this bucket is smaller: backtrack to the previous
            # layer and advance its choice by one.
            while trail:
                i_prev, bucket_prev, idx_prev, factor_prev, k_prev, buckets_prev = trail.pop()
                if idx_prev + 1 < len(bucket_prev.tuples):
                    current_buckets = dict(buckets_prev)
                    factor = factor_prev // bucket_prev.total
                    k = k_prev
                    i = i_prev
                    layer = layers[i]
                    bucket = bucket_prev
                    index = idx_prev + 1
                    exact = False
                    break
            else:
                return instance.count
        else:
            exact = exact and bucket.tuples[index][layer.value_position] == assignment[layer.variable]

        trail.append((i, bucket, index, factor_before, k, dict(current_buckets)))
        row = bucket.tuples[index]
        k += bucket.starts[index] * factor

        for child_index in layer.children:
            child = layers[child_index]
            key = tuple(row[layer.variables.index(v)] for v in child.key_variables)
            child_bucket = child.bucket(key)
            current_buckets[child_index] = child_bucket
            factor *= child_bucket.total
        i += 1

    return k


# ----------------------------------------------------------------------
# Batched access (vectorized layer walk)
# ----------------------------------------------------------------------
class _BatchLayer:
    """Flattened, array-backed view of one layer for the batched walk.

    All buckets of the layer are concatenated in a fixed order; requests then
    carry *bucket ids* instead of bucket objects, and every per-layer step of
    Algorithm 1 becomes one array operation over the whole batch.
    """

    __slots__ = ("searcher", "starts_flat", "totals", "rows", "head_map", "child_ids")

    def __init__(
        self,
        searcher: "SegmentedSearcher",
        starts_flat: "np.ndarray",
        totals: "np.ndarray",
        rows: "np.ndarray",
        head_map: Tuple[Tuple[int, int], ...],
        child_ids: Dict[int, "np.ndarray"],
    ) -> None:
        self.searcher = searcher
        self.starts_flat = starts_flat
        self.totals = totals              # per bucket id
        self.rows = rows                  # object array of tuples, flat order
        self.head_map = head_map          # (head position, row column) pairs
        self.child_ids = child_ids        # child layer -> bucket id per flat row


class _BatchIndex:
    """Per-instance arrays that turn the access walk into one probe per layer."""

    def __init__(self, instance: PreprocessedInstance, layers: Dict[int, _BatchLayer]) -> None:
        self._instance = instance
        self._layers = layers
        self._width = len(instance.query.free_variables)

    def gather(self, ranks: Sequence[int]) -> List[Tuple]:
        instance = self._instance
        m = len(ranks)
        # A copy: the walk consumes ``remaining`` in place, and ``asarray``
        # would alias (and zero) a caller's int64 array.
        remaining = np.array(ranks, dtype=np.int64)
        factor = np.full(m, instance.count, dtype=np.int64)
        bucket_ids: Dict[int, np.ndarray] = {1: np.zeros(m, dtype=np.int64)}
        gathered: List[Tuple[Tuple[Tuple[int, int], ...], List[Tuple]]] = []

        for i in sorted(self._layers):
            layer = self._layers[i]
            segment = bucket_ids.pop(i)
            factor //= layer.totals[segment]
            # starts[r]·factor ≤ k  ⇔  starts[r] ≤ k // factor for positive ints.
            chosen = layer.searcher.probe_flat(segment, remaining // factor)
            remaining -= layer.starts_flat[chosen] * factor
            gathered.append((layer.head_map, layer.rows[chosen].tolist()))
            for child, ids in layer.child_ids.items():
                child_buckets = ids[chosen]
                bucket_ids[child] = child_buckets
                factor *= self._layers[child].totals[child_buckets]

        answers: List[Tuple] = []
        width = self._width
        for j in range(m):
            answer = [None] * width
            for head_map, rows in gathered:
                row = rows[j]
                for position, column in head_map:
                    answer[position] = row[column]
            answers.append(tuple(answer))
        return answers


def _build_batch_index(instance: PreprocessedInstance) -> Optional[_BatchIndex]:
    """Build the batched-walk arrays, or ``None`` when exactness forbids int64."""
    if not HAS_NUMPY or instance.count == 0 or instance.count >= _INT64_SAFE:
        return None
    free = instance.query.free_variables
    head_position = {variable: position for position, variable in enumerate(free)}

    batch_layers: Dict[int, _BatchLayer] = {}
    bucket_id_maps: Dict[int, Dict[Tuple, int]] = {}
    # Children first (higher indices), so their bucket-id maps exist when the
    # parent resolves its per-row child buckets.
    for i in sorted(instance.layers, reverse=True):
        layer = instance.layers[i]
        buckets = list(layer.buckets.values())
        sizes = [len(bucket.tuples) for bucket in buckets]
        total_rows = sum(sizes)
        starts_flat = np.fromiter(
            (start for bucket in buckets for start in bucket.starts),
            dtype=np.int64,
            count=total_rows,
        )
        totals = np.fromiter(
            (bucket.total for bucket in buckets), dtype=np.int64, count=len(buckets)
        )
        try:
            # Queries at this layer are < the request's bucket total, so the
            # largest bucket total is the query bound the embedding must cover.
            searcher = SegmentedSearcher(
                starts_flat, sizes, stride=int(totals.max()) if len(totals) else 1
            )
        except OverflowError:
            return None
        rows = np.empty(total_rows, dtype=object)
        position = 0
        for bucket in buckets:
            rows[position:position + len(bucket.tuples)] = bucket.tuples
            position += len(bucket.tuples)

        child_ids: Dict[int, np.ndarray] = {}
        for child in layer.children:
            child_map = bucket_id_maps[child]
            key_positions = tuple(
                layer.variables.index(v) for v in instance.layers[child].key_variables
            )
            child_ids[child] = np.fromiter(
                (
                    child_map[tuple(row[p] for p in key_positions)]
                    for bucket in buckets
                    for row in bucket.tuples
                ),
                dtype=np.int64,
                count=total_rows,
            )

        head_map = tuple(
            (head_position[variable], column)
            for column, variable in enumerate(layer.variables)
            if variable in head_position
        )
        bucket_id_maps[i] = {bucket.key: j for j, bucket in enumerate(buckets)}
        batch_layers[i] = _BatchLayer(searcher, starts_flat, totals, rows, head_map, child_ids)
    return _BatchIndex(instance, batch_layers)


_UNBUILT = object()

#: Fallback for instances predating the per-instance lock (unpickled old state).
_FALLBACK_BATCH_LOCK = threading.Lock()


def _batch_index(instance: PreprocessedInstance) -> Optional[_BatchIndex]:
    """The instance's cached batch index (built on first use, ``None`` if impossible).

    The lazy build is guarded by the instance's own lock: two serving threads
    batching concurrently must share one index rather than each building (and
    one of them publishing) its own copy.  The fast path stays lock-free —
    attribute publication is atomic under the GIL, so a non-sentinel read is
    always a fully built index.
    """
    cached = getattr(instance, "_batch_index", _UNBUILT)
    if cached is not _UNBUILT:
        return cached
    lock = getattr(instance, "_batch_lock", None) or _FALLBACK_BATCH_LOCK
    with lock:
        cached = getattr(instance, "_batch_index", _UNBUILT)
        if cached is _UNBUILT:
            cached = _build_batch_index(instance)
            instance._batch_index = cached
    return cached


def batch_access(instance, ks: Sequence[int]) -> List[Tuple]:
    """The answers at the given ranks, in the order the ranks were given.

    Semantically identical to ``[access(instance, k) for k in ks]`` — the
    whole batch is validated up front (so either every rank is served or the
    first bad one raises), then served by the vectorized layer walk when
    NumPy is available and the counts fit in int64, by the scalar loop
    otherwise.  A sharded instance buckets the ranks by shard (one
    ``searchsorted`` over the offset table) and issues one vectorized gather
    per touched shard.
    """
    if getattr(instance, "is_sharded", False):
        return instance.batch_access(ks)
    ranks = validate_ranks(ks, instance.count)
    if len(ranks) == 0:
        return []
    image = getattr(instance, "_snapshot_image", None)
    if image is not None:
        ACCESS_KERNELS.inc(("batch", "snapshot"))
        return image.gather(ranks)
    index = _batch_index(instance)
    if index is None:
        # The scalar fallback truly dispatches the scalar kernel per rank, so
        # the inner ``access`` calls count themselves; this records the batch.
        ACCESS_KERNELS.inc(("batch", "scalar_loop"))
        return [access(instance, k) for k in ranks]
    ACCESS_KERNELS.inc(("batch", "vectorized"))
    return index.gather(ranks)
