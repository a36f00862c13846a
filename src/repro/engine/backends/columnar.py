"""The columnar backend: dictionary-encoded NumPy arrays.

Every column of a relation is stored as

* ``codes`` — an integer array of dictionary codes, one entry per row
  (``int32`` while the column's domain fits, promoted to ``int64`` when it
  does not — codes are dense indices into the domain, so the downcast halves
  index memory and improves probe locality without changing any value), and
* ``domain`` — an object-dtype array of the distinct column values, sorted
  ascending with Python's own comparison semantics.

All *derived* quantities that combine codes (packed multi-column keys, the
counting DP, segmented-search embeddings) are computed in ``int64``
regardless of the storage dtype, so the downcast can never overflow.

Because the domain is sorted, *code order equals value order*: sorting,
grouping and binary searching can run entirely on the integer codes and still
agree byte-for-byte with the row backend's tuple comparisons.  Decoding is a
single fancy-indexing pass per column, and it returns values identical to the
originals: a column of exact ``int`` values is encoded by NumPy and its
domain holds Python ints equal to the inputs (same type, same repr), and
every other column's domain holds references to the input objects
themselves.  So answers produced through this backend are identical to the
row backend's.  A storage keeps nothing but codes and domains; rows are
decoded on demand.  Membership (:meth:`ColumnarStorage.contains`) and a live
delta (:meth:`ColumnarStorage.apply_delta`: deletions by ``np.isin`` over
packed row keys, insertions merged into the sorted domains under the same
representation guards as encoding) never decode a row.

The module also hosts the vectorized relational kernels used by
:mod:`repro.engine.operators` (semi-join, natural join, grouping) and by the
preprocessing fast path.  Each kernel returns ``None`` when it cannot handle
an input (cross-backend operands, unencodable values, key spaces too large to
pack); callers then fall back to the row implementation, so the kernels are
pure accelerators, never semantic forks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.backends.base import Row, Storage, register_backend

try:  # NumPy is an optional dependency (the `[columnar]` extra).
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

HAS_NUMPY = _np is not None

#: Packed multi-column keys must stay below this bound to live in int64.
_PACK_LIMIT = 2 ** 62

#: Largest domain whose codes fit int32 (codes are indices < domain size).
_INT32_LIMIT = 2 ** 31


def code_dtype(domain_size: int):
    """The storage dtype for a column of ``domain_size`` distinct values.

    ``int32`` while the codes fit (the common case by a wide margin),
    ``int64`` beyond — the promotion path that keeps huge domains correct.
    """
    return _np.int32 if domain_size < _INT32_LIMIT else _np.int64


class ColumnEncodingError(ValueError):
    """Raised when a column cannot be dictionary-encoded (builder falls back)."""


def _encode_int_column(values: Sequence) -> Optional[Tuple["_np.ndarray", "_np.ndarray"]]:
    """NumPy encoding of a column of exact ``int`` values, or ``None``.

    Applies only when every value's type is ``int`` itself (``bool`` stays
    out) and the column fits int64.  Equal ints share one repr, so the
    representation checks of the general path hold by construction, and
    int64 order is Python's order.
    """
    if set(map(type, values)) != {int}:
        return None
    try:
        column = _np.array(values, dtype=_np.int64)
    except OverflowError:  # beyond int64: the general path keeps Python ints
        return None
    domain, inverse = _np.unique(column, return_inverse=True)
    domain_array = _np.empty(len(domain), dtype=object)
    domain_array[:] = domain.tolist()
    return inverse.astype(code_dtype(len(domain)), copy=False), domain_array


#: For these types, same-type equality implies an identical repr — except
#: float signed zero, which gets its own check — so decoding the set's
#: representative cannot change the value's observable representation.
_EXACT_TYPES = (int, str, float, bool, bytes)


def _check_representative(representative, value) -> None:
    """Reject decoding ``representative`` in place of the ``==``-equal ``value``
    when the two are distinguishable; raises :class:`ColumnEncodingError`."""
    value_type = type(value)
    if value_type is not type(representative):
        raise ColumnEncodingError(
            "mixed representations of equal values: "
            f"{representative!r} vs {value!r}"
        )
    if value_type is float:
        if value == 0.0 and str(representative) != str(value):
            raise ColumnEncodingError("column mixes -0.0 and 0.0")
    elif value_type not in _EXACT_TYPES and repr(representative) != repr(value):
        # e.g. Decimal('1.0') vs Decimal('1.00'): == holds but the
        # representative is distinguishable from the original.
        raise ColumnEncodingError(
            "equal values with distinguishable representations: "
            f"{representative!r} vs {value!r}"
        )


def _encode_column(values: Sequence) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Dictionary-encode one column; raises :class:`ColumnEncodingError`.

    The domain is sorted with Python comparisons so that code order equals
    value order.  A column of exact ints takes :func:`_encode_int_column`,
    whose domain holds Python ints equal to the inputs; every other column
    takes the general path below, whose domain holds the input objects.
    Rejected (the relation then falls back to row storage): unhashable or
    mutually incomparable values (a comparison raising ``TypeError``, or an
    ``ArithmeticError`` such as ``Decimal`` against NaN), and columns mixing
    distinct representations of ``==``-equal values (``True`` vs ``1``,
    ``1`` vs ``1.0``, ``-0.0`` vs ``0.0``) — decoding those would
    canonicalize values and break the byte-identical-answers contract.
    """
    encoded = _encode_int_column(values)
    if encoded is not None:
        return encoded
    try:
        domain = sorted(set(values))
    except (TypeError, ArithmeticError) as exc:
        raise ColumnEncodingError(str(exc)) from None
    for value in domain:
        if value != value:  # NaN: comparisons return False instead of raising,
            # so sorted() cannot order the domain — fall back to row storage.
            raise ColumnEncodingError("column contains NaN (no total order)")
    index = {value: code for code, value in enumerate(domain)}

    def codes_checked():
        for value in values:
            code = index[value]
            representative = domain[code]
            if representative is not value:
                _check_representative(representative, value)
            yield code

    codes = _np.fromiter(codes_checked(), dtype=code_dtype(len(domain)), count=len(values))
    domain_array = _np.empty(len(domain), dtype=object)
    domain_array[:] = domain
    return codes, domain_array


def _merge_domain(
    domain: "_np.ndarray", index: Dict[object, int], values: Sequence
) -> Tuple[Optional["_np.ndarray"], "_np.ndarray", "_np.ndarray"]:
    """Encode ``values`` against a sorted ``domain``, adding the values it lacks.

    Returns ``(slots, merged, codes)``: ``merged`` is the sorted domain with
    the new values inserted, ``slots[c]`` the merged code of old code ``c``
    (``None`` when no value is new, so ``merged`` is ``domain`` itself) and
    ``codes`` the merged codes of ``values``.  Raises
    :class:`ColumnEncodingError` for whatever :func:`_encode_column` would
    reject: a value equal to but distinguishable from its representative,
    NaN, or a new value that does not order strictly between its neighbours.
    """
    fresh: Dict[object, object] = {}
    found: List[Optional[int]] = []
    try:
        for value in values:
            code = index.get(value)
            if code is None:
                if value != value:
                    raise ColumnEncodingError("column contains NaN (no total order)")
                representative = fresh.setdefault(value, value)
            else:
                representative = domain[code]
            if representative is not value:
                _check_representative(representative, value)
            found.append(code)
        if not fresh:
            return None, domain, _np.array(found, dtype=_np.int64)
        ordered = sorted(fresh)
        positions = [bisect_left(domain, value) for value in ordered]
        size = len(domain)
        ordered_strictly = all(a < b for a, b in zip(ordered, ordered[1:])) and all(
            (p == 0 or domain[p - 1] < value) and (p == size or value < domain[p])
            for value, p in zip(ordered, positions)
        )
    except (TypeError, ArithmeticError) as exc:  # unhashable or unorderable values
        raise ColumnEncodingError(str(exc)) from None
    if not ordered_strictly:
        raise ColumnEncodingError("new values do not order against the domain")
    positions = _np.array(positions, dtype=_np.int64)
    fresh_slots = positions + _np.arange(len(ordered), dtype=_np.int64)
    old_codes = _np.arange(size, dtype=_np.int64)
    slots = old_codes + _np.searchsorted(positions, old_codes, side="right")
    merged = _np.empty(size + len(ordered), dtype=object)
    merged[slots] = domain
    for slot, value in zip(fresh_slots.tolist(), ordered):
        merged[slot] = value
    rank = {value: i for i, value in enumerate(ordered)}
    codes = _np.fromiter(
        (
            slots[code] if code is not None else fresh_slots[rank[value]]
            for code, value in zip(found, values)
        ),
        dtype=_np.int64,
        count=len(found),
    )
    return slots, merged, codes


class ColumnarStorage(Storage):
    """Dictionary-encoded columnar storage of one relation."""

    backend_name = "columnar"

    __slots__ = (
        "codes", "domains", "length", "_materialized", "_domain_indexes", "_member_keys",
    )

    def __init__(
        self,
        codes: List["_np.ndarray"],
        domains: List["_np.ndarray"],
        length: int,
    ) -> None:
        self.codes = codes
        self.domains = domains
        self.length = length
        self._materialized: Optional[List[Row]] = None
        self._domain_indexes: List[Optional[Dict[object, int]]] = [None] * len(codes)
        self._member_keys: Optional["_np.ndarray"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: List[Row], arity: int) -> Storage:
        """Encode materialized rows; falls back to row storage when impossible."""
        from repro.engine.backends.row import RowStorage

        if _np is None:
            return RowStorage(rows)
        columns = list(zip(*rows)) if rows else [() for _ in range(arity)]
        codes: List[_np.ndarray] = []
        domains: List[_np.ndarray] = []
        try:
            for values in columns:
                column_codes, domain = _encode_column(values)
                codes.append(column_codes)
                domains.append(domain)
        except ColumnEncodingError:
            return RowStorage(rows)
        return cls(codes, domains, len(rows))

    # ------------------------------------------------------------------
    # Storage interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def column_count(self) -> int:
        return len(self.codes)

    def materialize(self) -> List[Row]:
        """The rows, decoded from codes and domains on first call and cached.

        Nothing is pinned at construction, so a storage that is only ever
        read through its codes (every built plan) never holds row tuples.
        """
        if self._materialized is None:
            self._materialized = self._decode()
        return self._materialized

    def _decode(self) -> List[Row]:
        if not self.codes:  # nullary relation: rows are empty tuples
            return [()] * self.length
        decoded = [domain[col] for domain, col in zip(self.domains, self.codes)]
        return list(zip(*decoded)) if self.length else []

    def contains(self, row: Row) -> bool:
        """Membership by codes: one ``domain_index`` probe per value, then a
        binary search of the sorted row keys (built on first call)."""
        hash(row)  # an unhashable row raises TypeError, as a set probe would
        codes = self._row_codes(row)
        if codes is None:
            return False
        if not codes:  # nullary relation: () is a row iff there are rows
            return self.length > 0
        positions = range(len(self.codes))
        if self._member_keys is None:
            self._member_keys = _np.sort(self.row_keys(positions))
        keys = self._member_keys
        sizes = self._key_sizes(positions)
        if keys.dtype == _np.int64:
            # Packed: a Python-int probe and ``bisect`` skip the small arrays
            # a NumPy probe allocates (about 3 vs 10 us a probe on a
            # 10^5-row relation).
            probe = 0
            for code, size in zip(codes, sizes):
                probe = probe * size + code
            at = bisect_left(keys, probe)
        else:
            probe = _row_keys(
                [_np.array([code], dtype=column.dtype)
                 for code, column in zip(codes, self.codes)],
                sizes,
            )[0]
            at = int(keys.searchsorted(probe))
        return at < len(keys) and bool(keys[at] == probe)

    def apply_delta(self, deleted: Sequence[Row], inserted: Sequence[Row]) -> Storage:
        """The rows minus ``deleted`` plus ``inserted``, without decoding a row.

        Deletions are one ``np.isin`` over packed row keys; inserted values
        are encoded against the existing domains (:func:`_merge_domain`),
        then unused domain values are dropped — so the result equals
        ``from_rows(kept rows + inserted)`` code for code.  What the merge
        cannot take exactly (a value the encoding guards reject, deletions
        from a key space too large to pack, a nullary relation) is
        re-encoded from rows, row-storage fallback included.
        """
        merged = self._merged_delta(deleted, inserted) if self.codes else None
        if merged is not None:
            return merged
        doomed = set(deleted)
        rows = [row for row in (self._materialized or self._decode()) if row not in doomed]
        rows.extend(inserted)
        return ColumnarStorage.from_rows(rows, len(self.codes))

    def _merged_delta(
        self, deleted: Sequence[Row], inserted: Sequence[Row]
    ) -> Optional["ColumnarStorage"]:
        keep = None
        doomed = [codes for codes in map(self._row_codes, deleted) if codes is not None]
        if doomed:
            sizes = self._key_sizes(range(len(self.codes)))
            keys = pack_codes(self.codes, sizes)
            if keys is None:
                return None
            doomed_keys = pack_codes(
                [_np.array(column, dtype=_np.int64) for column in zip(*doomed)], sizes
            )
            keep = ~_np.isin(keys, doomed_keys)
        if not inserted:
            columns = [(None, domain, _np.empty(0, dtype=_np.int64)) for domain in self.domains]
        else:
            try:
                columns = [
                    _merge_domain(domain, self.domain_index(p), [row[p] for row in inserted])
                    for p, domain in enumerate(self.domains)
                ]
            except ColumnEncodingError:
                return None
        codes: List[_np.ndarray] = []
        domains: List[_np.ndarray] = []
        for old, (slots, domain, added) in zip(self.codes, columns):
            kept = old if keep is None else old[keep]
            if slots is not None:
                kept = slots[kept]
            column = _np.concatenate((kept.astype(_np.int64, copy=False), added))
            used = _np.zeros(len(domain), dtype=bool)
            used[column] = True
            if not used.all():  # values only deleted rows held leave the domain
                column = (_np.cumsum(used) - 1)[column]
                domain = domain[used]
            codes.append(column.astype(code_dtype(len(domain)), copy=False))
            domains.append(domain)
        return ColumnarStorage(codes, domains, len(codes[0]))

    def _row_codes(self, row: Row) -> Optional[List[int]]:
        """Per-column codes of ``row``; ``None`` when it cannot be a row here."""
        if len(row) != len(self.codes):
            return None
        codes = []
        for position, value in enumerate(row):
            code = self.domain_index(position).get(value)
            if code is None:
                return None
            codes.append(code)
        return codes

    def take(self, indices) -> "ColumnarStorage":
        idx = _np.asarray(indices, dtype=_np.int64)
        taken = ColumnarStorage([col[idx] for col in self.codes], list(self.domains), len(idx))
        # Same domain arrays, so the ``value -> code`` indexes stay valid:
        # share the cache rather than rebuild it per derived storage.
        taken._domain_indexes = self._domain_indexes
        return taken

    def project(self, positions: Sequence[int]) -> "ColumnarStorage":
        positions = list(positions)
        projected = ColumnarStorage(
            [self.codes[p] for p in positions],
            [self.domains[p] for p in positions],
            self.length,
        )
        projected._domain_indexes = [self._domain_indexes[p] for p in positions]
        return projected

    def distinct(self) -> "ColumnarStorage":
        if self.length == 0 or not self.codes:
            if not self.codes and self.length > 0:
                return ColumnarStorage([], [], 1)
            return self
        keys = self.row_keys(range(len(self.codes)))
        _, first = _np.unique(keys, return_index=True)
        first.sort()
        return self.take(first)

    def select_equals(self, conditions: Sequence[Tuple[int, object]]) -> "ColumnarStorage":
        mask = _np.ones(self.length, dtype=bool)
        for position, value in conditions:
            try:
                code = self.domain_index(position).get(value)
            except TypeError:  # unhashable comparison value: matches nothing
                code = None
            if code is None:
                mask[:] = False
                break
            mask &= self.codes[position] == code
        return self.take(_np.flatnonzero(mask))

    def sort_lex(self, positions: Sequence[int]) -> "ColumnarStorage":
        positions = list(positions)
        if not positions or self.length == 0:
            return self
        order = _np.lexsort(tuple(self.codes[p] for p in reversed(positions)))
        return self.take(order)

    # ------------------------------------------------------------------
    # Columnar-specific helpers
    # ------------------------------------------------------------------
    def domain_index(self, position: int) -> Dict[object, int]:
        """Cached ``value -> code`` mapping for one column."""
        index = self._domain_indexes[position]
        if index is None:
            index = {value: code for code, value in enumerate(self.domains[position].tolist())}
            self._domain_indexes[position] = index
        return index

    def row_keys(self, positions: Sequence[int]) -> "_np.ndarray":
        """A 1D array identifying each row by its values at ``positions``.

        Prefers order-preserving int64 packing; when the combined key space
        does not fit, falls back to a byte-view key that is equality-correct
        but not order-correct (fine for dedup/semi-join/grouping-by-hash).
        """
        positions = list(positions)
        if not positions:
            return _np.zeros(self.length, dtype=_np.int64)
        return _row_keys([self.codes[p] for p in positions], self._key_sizes(positions))

    def _key_sizes(self, positions: Sequence[int]) -> List[int]:
        return [max(1, len(self.domains[p])) for p in positions]


def _row_keys(columns: Sequence["_np.ndarray"], sizes: Sequence[int]) -> "_np.ndarray":
    """Packed int64 keys of the rows, or byte-view keys when they do not pack."""
    packed = pack_codes(columns, sizes)
    if packed is not None:
        return packed
    stacked = _np.ascontiguousarray(_np.stack(columns, axis=1))
    return stacked.view([("", stacked.dtype)] * stacked.shape[1]).ravel()


def pack_codes(
    columns: Sequence["_np.ndarray"], sizes: Sequence[int]
) -> Optional["_np.ndarray"]:
    """Pack per-column codes into one int64 key, preserving lexicographic order.

    ``sizes[i]`` must exceed every code in ``columns[i]``.  Returns ``None``
    when the combined key space does not fit in an int64.
    """
    space = 1
    for size in sizes:
        space *= max(1, size)
    if space >= _PACK_LIMIT:
        return None
    # Always pack in int64: the inputs may be int32 storage codes whose
    # combined key space exceeds int32 even though each column fits.
    packed = columns[0].astype(_np.int64, copy=True)
    for column, size in zip(columns[1:], sizes[1:]):
        packed *= size
        packed += column
    return packed


def translation_table(
    source_domain: "_np.ndarray", target_index: Dict[object, int]
) -> "_np.ndarray":
    """Per-source-code target codes (``-1`` where the value is absent)."""
    return _np.fromiter(
        (target_index.get(value, -1) for value in source_domain.tolist()),
        dtype=_np.int64,
        count=len(source_domain),
    )


class SegmentedSearcher:
    """Batched rightmost-``≤`` probes into many sorted segments at once.

    The input is one flat int64 array that concatenates many individually
    sorted, non-negative segments (e.g. the ``starts`` arrays of all buckets
    of one layer).  A single :func:`numpy.searchsorted` call then answers, for
    a whole batch of ``(segment, query)`` pairs, "the last position in my
    segment whose value is ≤ my query" — the probe the batched direct-access
    walk issues once per layer instead of one Python binary search per
    request.

    The trick is an order-preserving embedding: every segment is shifted by
    ``segment_id · stride`` where ``stride`` exceeds every stored value, so
    the augmented flat array is globally sorted and queries shifted the same
    way land inside their own segment.  Construction raises
    :class:`OverflowError` when the embedding does not fit in int64; callers
    treat that as "fall back to scalar probes".
    """

    __slots__ = ("stride", "offsets", "_augmented")

    def __init__(
        self,
        flat_values: "_np.ndarray",
        segment_sizes: Sequence[int],
        stride: Optional[int] = None,
    ) -> None:
        sizes = _np.asarray(segment_sizes, dtype=_np.int64)
        if int(sizes.sum()) != len(flat_values):
            raise ValueError("segment sizes do not cover the flat array")
        value_bound = int(flat_values.max()) + 1 if len(flat_values) else 1
        # The stride must exceed every stored value AND every future query,
        # or shifted queries would leak into the next segment's key range.
        stride = max(value_bound, stride or 1)
        if len(sizes) and (len(sizes) - 1) * stride + stride - 1 >= _PACK_LIMIT:
            raise OverflowError("segmented key space exceeds int64")
        self.stride = stride
        self.offsets = _np.concatenate(
            (_np.zeros(1, dtype=_np.int64), _np.cumsum(sizes))
        )
        segment_of_row = _np.repeat(
            _np.arange(len(sizes), dtype=_np.int64), sizes
        )
        self._augmented = flat_values + segment_of_row * stride

    @classmethod
    def from_parts(
        cls,
        stride: int,
        offsets: "_np.ndarray",
        augmented: "_np.ndarray",
    ) -> "SegmentedSearcher":
        """Rehydrate a searcher from its stored arrays without recomputation.

        Snapshot images persist the pre-augmented array and the segment
        offsets, so attaching a snapshot rebuilds the searcher in O(1) —
        no cumsum, no repeat, no embedding pass over ``n`` rows.
        """
        searcher = cls.__new__(cls)
        searcher.stride = int(stride)
        searcher.offsets = offsets
        searcher._augmented = augmented
        return searcher

    def probe_flat(
        self, segment_ids: "_np.ndarray", queries: "_np.ndarray"
    ) -> "_np.ndarray":
        """Flat index of the rightmost value ≤ ``queries[i]`` in segment ``segment_ids[i]``.

        Every query must be ≥ its segment's first value and < the stride
        (true for the access walk: queries are non-negative, segments start
        at 0, and the stride covers every bucket total); otherwise the
        returned position points outside the segment.
        """
        keys = queries + segment_ids * self.stride
        return _np.searchsorted(self._augmented, keys, side="right") - 1


def _joint_keys(
    left: ColumnarStorage,
    left_positions: Sequence[int],
    right: ColumnarStorage,
    right_positions: Sequence[int],
) -> Optional[Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]]:
    """Join keys of both sides in the *left* code space.

    Returns ``(left_keys, right_keys, right_rows)`` where ``right_rows`` are
    the indices of the right rows whose key values all exist in the left
    domains (other rows cannot join).  ``None`` when packing is impossible.
    """
    if not left_positions:
        zeros_left = _np.zeros(len(left), dtype=_np.int64)
        zeros_right = _np.zeros(len(right), dtype=_np.int64)
        return zeros_left, zeros_right, _np.arange(len(right), dtype=_np.int64)

    translated: List[_np.ndarray] = []
    valid = _np.ones(len(right), dtype=bool)
    for lp, rp in zip(left_positions, right_positions):
        table = translation_table(right.domains[rp], left.domain_index(lp))
        mapped = table[right.codes[rp]]
        valid &= mapped >= 0
        translated.append(_np.maximum(mapped, 0))
    right_rows = _np.flatnonzero(valid)

    sizes = [max(1, len(left.domains[p])) for p in left_positions]
    left_keys = pack_codes([left.codes[p] for p in left_positions], sizes)
    right_keys = pack_codes([col[right_rows] for col in translated], sizes)
    if left_keys is None or right_keys is None:
        return None
    return left_keys, right_keys, right_rows


def semijoin_indices(
    left: ColumnarStorage,
    left_positions: Sequence[int],
    right: ColumnarStorage,
    right_positions: Sequence[int],
) -> Optional["_np.ndarray"]:
    """Indices of left rows with a join partner in ``right`` (left order)."""
    keys = _joint_keys(left, left_positions, right, right_positions)
    if keys is None:
        return None
    left_keys, right_keys, _ = keys
    return _np.flatnonzero(_np.isin(left_keys, right_keys))


def join_indices(
    left: ColumnarStorage,
    left_positions: Sequence[int],
    right: ColumnarStorage,
    right_positions: Sequence[int],
) -> Optional[Tuple["_np.ndarray", "_np.ndarray"]]:
    """Matching row-index pairs of a natural join, in the row backend's order.

    The result enumerates, for each left row in order, its right matches in
    right-row order — exactly the order the row backend's hash join emits.
    """
    keys = _joint_keys(left, left_positions, right, right_positions)
    if keys is None:
        return None
    left_keys, right_keys, right_rows = keys

    order = _np.argsort(right_keys, kind="stable")
    sorted_right_keys = right_keys[order]
    lo = _np.searchsorted(sorted_right_keys, left_keys, side="left")
    hi = _np.searchsorted(sorted_right_keys, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_index = _np.repeat(_np.arange(len(left), dtype=_np.int64), counts)
    group_offsets = _np.repeat(_np.cumsum(counts) - counts, counts)
    within = _np.arange(total, dtype=_np.int64) - group_offsets
    right_index = right_rows[order[_np.repeat(lo, counts) + within]]
    return left_index, right_index


def group_first_and_counts(
    storage: ColumnarStorage, positions: Sequence[int]
) -> Optional[Tuple["_np.ndarray", "_np.ndarray"]]:
    """First-occurrence row index and multiplicity of each distinct key."""
    if len(storage) == 0:
        empty = _np.zeros(0, dtype=_np.int64)
        return empty, empty
    keys = storage.row_keys(positions)
    _, first, counts = _np.unique(keys, return_index=True, return_counts=True)
    seen_order = _np.argsort(first, kind="stable")
    return first[seen_order], counts[seen_order]


if HAS_NUMPY:
    register_backend("columnar", ColumnarStorage.from_rows, available=lambda: True)
else:  # registered but unavailable: requesting it raises a clear error
    register_backend(
        "columnar",
        lambda rows, arity: (_ for _ in ()).throw(RuntimeError("NumPy missing")),
        available=lambda: False,
    )
