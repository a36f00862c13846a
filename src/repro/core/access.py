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

A fourth operation, :func:`batch_access`, validates a whole batch of ranks
once and then serves each rank by :func:`access`.

These functions are the *object walk* over ``Bucket`` objects: the exact-int
reference, and what serves plans that have no flat image (no NumPy, or counts
beyond the int64-safe bound).  Readers carrying the ``is_sharded`` marker —
:class:`~repro.core.sharding.ShardedInstance` and
:class:`~repro.core.snapshot.SnapshotInstance`, which a built
:class:`~repro.core.direct_access.LexDirectAccess` reads through — are handed
straight to their own methods.  The walk here counts itself in
``repro_access_total`` under the ``object`` kernel.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Sequence, Tuple

from repro.core.orders import order_key
from repro.core.preprocessing import Bucket, PreprocessedInstance
from repro.engine.backends import HAS_NUMPY
from repro.exceptions import NotAnAnswerError, OutOfBoundsError
from repro.obs import ACCESS_KERNELS

if HAS_NUMPY:
    import numpy as np


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
        try:
            index = bucket.find_by_value(
                order_key(value, instance.order.is_descending(layer.variable))
            )
        except TypeError:  # a value the column cannot order is no answer
            index = None
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


def batch_access(instance, ks: Sequence[int]) -> List[Tuple]:
    """The answers at the given ranks, in the order the ranks were given.

    Semantically identical to ``[access(instance, k) for k in ks]``, except
    that the whole batch is validated up front: either every rank is served
    or the first bad one raises.
    """
    if getattr(instance, "is_sharded", False):
        return instance.batch_access(ks)
    ranks = validate_ranks(ks, instance.count)
    return [access(instance, k) for k in ranks]
