"""Flat, array-backed snapshots of preprocessed instances (zero-copy serving).

A :class:`~repro.core.preprocessing.PreprocessedInstance` is a tree of Python
``Bucket`` objects — ideal for the exact-integer reference walk, wasteful for
serving: every scalar ``access`` allocates dicts, and a worker process
cannot share any of it without copying each tuple.  This module flattens a
preprocessed instance (monolithic or sharded) into a *complete instance
image*:

* per layer: the concatenated bucket ``starts`` (and their pre-augmented
  :class:`~repro.engine.backends.columnar.SegmentedSearcher` embedding),
  per-bucket ``totals``, segment offsets, and per-child bucket ids;
* per layer column: dictionary-encoded row values — ``int32``/``int64`` codes
  plus a per-column *value dictionary* of the distinct Python objects.  Codes
  live in the flat buffer; only the dictionaries are pickled (never a
  per-tuple array), so the serialized footprint and the attach cost scale
  with the number of *distinct* values, not the number of tuples;
* a small JSON manifest: layer schema, head map, order, plan fingerprint,
  epoch, shard offset table, and the byte layout of every array.

The image has three interchangeable carriers:

* **memory** — plain NumPy arrays in-process (what the executor installs on
  every built instance; its facade reads through it);
* **shm** — one POSIX shared-memory block per image (:class:`ShmBlock`:
  ``shm_open`` + ``mmap``, the calls ``multiprocessing.shared_memory`` makes
  minus its resource-tracker registration, so no tracker process is ever
  started), named by publisher pid + plan fingerprint + epoch
  (:func:`shm_name`); publishing computes the layout once, creates the block
  at its final size and writes the header, manifest, pickled dictionaries
  and arrays straight into it (no serialized copy in between); attaching is
  an O(1) map plus a manifest parse, and :class:`SnapshotPublisher`
  refcounts each epoch so a ``LiveInstance`` swap publishes the new buffer
  set atomically and unlinks the retired one only when released
  (already-attached readers keep serving from their mapping — POSIX unlink
  removes the name, not the memory).  The owner's pid in the name keeps two
  publishers of one plan on one host apart, and replaces the tracker as the
  crash cleanup: a publisher that dies without unlinking leaves blocks
  whose pid is gone, and :func:`sweep_orphans` (run once when a worker pool
  starts) unlinks exactly those;
* **file** — the same byte layout mmap'd from disk (``repro snapshot
  save``/``load``; ``save`` writes through a mapping of the file, by the
  same writer as ``publish`` and ``to_bytes``): a restart re-maps instead of
  re-preprocessing.

On top of the same arrays, :class:`FlatShard` is the *fused scalar kernel*:
``access``/``inverted_access``/``next_answer_index`` walk the layers with
binary searches over precomputed per-bucket slices — no ``Bucket`` objects,
no dict of current buckets, no per-answer assignment dict; head values are
gathered by precomputed ``(head position, flat column)`` index pairs.
:class:`SnapshotInstance` is the one reader over an image: a built
:class:`~repro.core.direct_access.LexDirectAccess` binds it once, and a pool
worker serves its attached image through it.  The object walk in
:mod:`repro.core.access` serves only plans without an image (no NumPy,
exact-int counts) and is the reference the image is property-tested against.

Batched reads are one *monotone* walk (:meth:`SnapshotInstance.page` /
``range_page``): the ranks are validated once, stable-argsorted once (a range
is sorted already) and cut into per-shard slices by one ``searchsorted``
against the offset table; :meth:`FlatShard.walk` then issues one
segmented-searcher probe per layer over ascending ranks and records each head
position once, at the first layer that binds it, as dictionary codes.  The
result is an :class:`AnswerPage` — shard pieces plus the permutation — that
stays columnar until someone needs rows: ``tuples()`` decodes each column by
one fancy index into its value dictionary (the public ``batch_access`` /
``range_access``), ``json_rows()`` by one fancy index into the dictionary's
``json.dumps`` *fragments* and joins them with the encoder's own separators
(a pool worker's response body).  Fragments are rendered per (layer, column)
on first use, in the process that encodes — never at capture, publish or
attach — and are not part of the image.

Capture has two producers of the same per-layer arrays and one assembly
routine that lays them out.  A layer the columnar build produced hands over
the arrays that build already holds (sorted codes, bucket-local prefix sums,
bucket sizes and totals, each row's child-bucket index): its codes are
re-encoded in first-occurrence order by one ``np.unique`` and each domain
keeps the storage's own representative objects.  A layer built row-wise (row
backend, exact-int builds) takes the *bucket walk*, which dictionary-encodes
every value.  Both yield byte-identical images (property-tested).  The
executor captures once per build and installs the image; publishing and
``repro snapshot save`` reuse that installed image (:func:`installed`)
rather than flattening the instance a second time.

Capture is a pure accelerator: any value the dictionary encoding cannot
represent exactly (unhashable, or ``==``-equal to a distinguishable
representative — the same guards as the columnar backend, which is why the
columnar producer needs no check of its own) makes :func:`capture` return
``None`` and serving stays on the object walk.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import pickle
import struct
import time
from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.access import validate_range, validate_rank, validate_ranks
from repro.core.orders import LexOrder, order_key
from repro.core.preprocessing import _INT64_SAFE, PreprocessedInstance
from repro.engine.backends import HAS_NUMPY
from repro.exceptions import NotAnAnswerError, OutOfBoundsError
from repro.obs import ACCESS_KERNELS

try:
    import _posixshmem
except ImportError:  # pragma: no cover - no POSIX shared memory here
    _posixshmem = None

if HAS_NUMPY:
    import numpy as np

    from repro.engine.backends.columnar import SegmentedSearcher, code_dtype

#: Layout magic + version (bump on any incompatible layout change).
_MAGIC = b"RSNP0001"
_HEADER = struct.Struct("<QQ")  # manifest bytes, domain-blob bytes
_ALIGN = 16

SNAPSHOT_VERSION = 1


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class _Layout(NamedTuple):
    """The byte layout of one image (see :meth:`InstanceSnapshot.to_bytes`)."""

    manifest: bytes                # manifest JSON, array table included
    domains: bytes                 # pickled value dictionaries
    table: List[Dict[str, object]]  # per array: name, dtype, size, offset
    domains_at: int                # where the dictionaries start
    base: int                      # where the aligned arrays start
    size: int                      # total bytes


# ----------------------------------------------------------------------
# Exactness-preserving dictionary encoding
# ----------------------------------------------------------------------
def _exact_key(value):
    """A dict key under which only indistinguishable values collide.

    Mirrors the columnar backend's encoding guards: ``True`` vs ``1``,
    ``-0.0`` vs ``0.0`` and equal-but-distinguishable values (e.g.
    ``Decimal('1.0')`` vs ``Decimal('1.00')``) must NOT share a code, or
    decoding would canonicalize them and break byte-identical answers.
    """
    cls = type(value)
    if cls is bool or cls is int or cls is str or cls is bytes:
        return (cls, value)
    if cls is float:
        return (cls, value, str(value))  # distinguishes -0.0 from 0.0
    return (cls, value, repr(value))


def _encode_values(values: List) -> Tuple["np.ndarray", List]:
    """First-occurrence dictionary encoding of one flat column.

    Returns ``(codes, domain)`` where ``domain[codes[i]] is values[i]``-level
    exact (the domain holds the first occurrence of each distinct value).
    Raises ``TypeError`` for unhashable values — the caller falls back.
    """
    index: Dict[object, int] = {}
    domain: List = []
    codes = np.empty(len(values), dtype=np.int64)
    for position, value in enumerate(values):
        key = _exact_key(value)
        code = index.get(key)
        if code is None:
            code = len(domain)
            index[key] = code
            domain.append(value)
        codes[position] = code
    return codes.astype(code_dtype(len(domain)), copy=False), domain


# ----------------------------------------------------------------------
# The flat serving structures
# ----------------------------------------------------------------------
def _int_seq(array):
    """A buffer view of ``array`` whose ``__getitem__`` yields plain ints.

    The scalar kernels walk these instead of the ndarrays: a memoryview
    index is a C attribute fetch returning an unboxed ``int``, where an
    ndarray index allocates a NumPy scalar (and ``np.searchsorted`` pays
    ufunc dispatch on every call).  Creation is O(1) — just an exported
    buffer — so attach stays a map, not a copy.
    """
    try:
        return memoryview(array)
    except (TypeError, ValueError, BufferError):  # pragma: no cover
        return array


class FlatLayer:
    """Array view of one layer of one shard (buckets concatenated flat)."""

    __slots__ = (
        "index", "variable", "value_position", "descending",
        "starts", "totals", "seg_offsets", "searcher",
        "child_ids", "codes", "domains", "head_cols", "value_head_position",
        "starts_seq", "totals_seq", "offsets_seq", "head_seq", "value_seq",
        "children", "page_cols", "_fragments",
    )

    def __init__(
        self,
        index: int,
        variable: str,
        value_position: int,
        descending: bool,
        starts: "np.ndarray",
        totals: "np.ndarray",
        seg_offsets: "np.ndarray",
        searcher: "SegmentedSearcher",
        child_ids: Dict[int, "np.ndarray"],
        codes: List["np.ndarray"],
        domains: List["np.ndarray"],
        head_cols: Tuple[Tuple[int, int], ...],
        value_head_position: int,
    ) -> None:
        self.index = index
        self.variable = variable
        self.value_position = value_position
        self.descending = descending
        self.starts = starts
        self.totals = totals
        self.seg_offsets = seg_offsets
        self.searcher = searcher
        self.child_ids = child_ids
        self.codes = codes
        self.domains = domains
        #: (head position, layer column) per head variable of this layer —
        #: the precomputed gather index of the fused kernels.
        self.head_cols = head_cols
        self.value_head_position = value_head_position
        # Scalar-kernel views (plain-int __getitem__, O(1) to create).
        self.starts_seq = _int_seq(starts)
        self.totals_seq = _int_seq(totals)
        self.offsets_seq = _int_seq(seg_offsets)
        self.value_seq = _int_seq(codes[value_position])
        self.head_seq = tuple(
            (position, _int_seq(codes[column]), domains[column])
            for position, column in head_cols
        )
        self.children = ()  # (child index, ids seq, child totals seq); FlatShard fills
        #: The ``head_cols`` no earlier layer binds (the join makes a later
        #: layer's copy of a variable equal the first); FlatShard fills.
        self.page_cols = head_cols
        self._fragments: Dict[int, Optional["np.ndarray"]] = {}

    def fragments(self, column: int) -> Optional["np.ndarray"]:
        """``json.dumps`` of each domain value of ``column``, aligned with the
        domain; ``None`` when some value is not JSON-representable.

        Rendered on first use and cached here, i.e. in the process that
        encodes pages (a pool worker) — never at capture, publish or attach,
        and never part of the image.
        """
        try:
            return self._fragments[column]
        except KeyError:
            pass
        values = self.domains[column].tolist()
        try:
            if set(map(type, values)) <= {int}:
                rendered = list(map(repr, values))  # what json writes for an int
            else:
                rendered = list(map(json.dumps, values))
        except (TypeError, ValueError):
            table = None
        else:
            table = np.empty(len(rendered), dtype=object)
            table[:] = rendered
        self._fragments[column] = table
        return table

    def decode_value(self, position: int):
        """The layer-variable value of flat row ``position``."""
        return self.domains[self.value_position][self.value_seq[position]]

    def first_at_least(self, lo: int, hi: int, target_key) -> int:
        """First row in ``[lo, hi)`` whose order key is ≥ ``target_key``."""
        codes = self.value_seq
        domain = self.domains[self.value_position]
        descending = self.descending
        while lo < hi:
            mid = (lo + hi) // 2
            if order_key(domain[codes[mid]], descending) < target_key:
                lo = mid + 1
            else:
                hi = mid
        return lo


class FlatShard:
    """Fused kernels of one (monolithic) instance image.

    Every operation assumes a validated, in-bounds input — validation stays
    in :class:`SnapshotInstance`, the one reader over these kernels.
    ``carrier``/``seconds`` describe how this image came to be (capture vs
    attach) for the serving stats.
    """

    def __init__(self, count: int, width: int, layers: Dict[int, FlatLayer]) -> None:
        self.count = count
        self.width = width
        self.layers = layers
        self._ordered: Tuple[Tuple[int, FlatLayer], ...] = tuple(
            (i, layers[i]) for i in sorted(layers)
        )
        # Resolve each layer's child hop once: (child, ids seq, totals seq),
        # and which head positions it is the first to bind.
        bound: set = set()
        for _, layer in self._ordered:
            layer.children = tuple(
                (child, _int_seq(ids), layers[child].totals_seq)
                for child, ids in sorted(layer.child_ids.items())
            )
            layer.page_cols = tuple(
                pair for pair in layer.head_cols if pair[0] not in bound
            )
            bound.update(position for position, _ in layer.head_cols)
        self.carrier = "memory"
        self.seconds = 0.0

    # -- Algorithm 1, fused ---------------------------------------------
    def access(self, k: int) -> Tuple:
        remaining = k
        factor = self.count
        segments = {1: 0}
        out: List = [None] * self.width
        for index, layer in self._ordered:
            segment = segments.pop(index)
            factor //= layer.totals_seq[segment]
            offsets = layer.offsets_seq
            starts = layer.starts_seq
            row = bisect_right(
                starts, remaining // factor,
                offsets[segment], offsets[segment + 1],
            ) - 1
            remaining -= starts[row] * factor
            for position, codes, domain in layer.head_seq:
                out[position] = domain[codes[row]]
            for child, ids, child_totals in layer.children:
                child_segment = ids[row]
                segments[child] = child_segment
                factor *= child_totals[child_segment]
        return tuple(out)

    # -- Algorithm 2, fused ---------------------------------------------
    def inverted(self, answer: Sequence) -> int:
        factor = self.count
        segments = {1: 0}
        k = 0
        for index, layer in self._ordered:
            segment = segments.pop(index)
            factor //= layer.totals_seq[segment]
            lo = layer.offsets_seq[segment]
            hi = layer.offsets_seq[segment + 1]
            value = answer[layer.value_head_position]
            try:
                row = layer.first_at_least(lo, hi, order_key(value, layer.descending))
                found = row < hi and layer.decode_value(row) == value
            except TypeError:  # a value the column cannot order is no answer
                found = False
            if not found:
                raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer")
            # The node may hold several variables; all must agree.
            for position, codes, domain in layer.head_seq:
                if domain[codes[row]] != answer[position]:
                    raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer")
            k += layer.starts_seq[row] * factor
            for child, ids, child_totals in layer.children:
                child_segment = ids[row]
                segments[child] = child_segment
                factor *= child_totals[child_segment]
        return k

    # -- Remark 3, fused -------------------------------------------------
    def next_index(self, target: Sequence) -> int:
        if self.count == 0:
            return 0
        ordered = self._ordered
        segments = {1: 0}
        factor = self.count
        k = 0
        trail: List[Tuple[int, int, int, int, int, Dict[int, int]]] = []
        position = 0
        exact = True
        while position < len(ordered):
            index, layer = ordered[position]
            segment = segments[index]
            lo = layer.offsets_seq[segment]
            hi = layer.offsets_seq[segment + 1]
            factor_before = factor
            factor //= layer.totals_seq[segment]

            if exact:
                row = layer.first_at_least(
                    lo, hi, target[layer.value_head_position]
                )
            else:
                row = lo

            if row >= hi:
                # Everything in this bucket is smaller: backtrack and advance.
                while trail:
                    (position_prev, segment_prev, row_prev, factor_prev,
                     k_prev, segments_prev) = trail.pop()
                    _, layer_prev = ordered[position_prev]
                    hi_prev = layer_prev.offsets_seq[segment_prev + 1]
                    if row_prev + 1 < hi_prev:
                        segments = dict(segments_prev)
                        factor = factor_prev // layer_prev.totals_seq[segment_prev]
                        k = k_prev
                        position = position_prev
                        index, layer = ordered[position]
                        segment = segment_prev
                        factor_before = factor_prev
                        row = row_prev + 1
                        exact = False
                        break
                else:
                    return self.count
            elif exact:
                exact = layer.decode_value(row) == target[layer.value_head_position]

            trail.append((position, segment, row, factor_before, k, dict(segments)))
            k += layer.starts_seq[row] * factor
            for child, ids, child_totals in layer.children:
                child_segment = ids[row]
                segments[child] = child_segment
                factor *= child_totals[child_segment]
            position += 1
        return k

    # -- batched walk (one probe per layer) -----------------------------
    def walk(self, remaining: "np.ndarray") -> List[Tuple[FlatLayer, int, "np.ndarray"]]:
        """Algorithm 1 for a whole batch: one segmented probe per layer.

        ``remaining`` holds the shard-local ranks as an int64 array the walk
        owns (it is consumed in place).  Returns, per head position, the
        ``(layer, column, codes)`` of the first layer that binds it — the
        answers stay dictionary-coded; :class:`AnswerPage` decodes them.
        """
        m = len(remaining)
        factor = np.full(m, self.count, dtype=np.int64)
        segment_ids: Dict[int, np.ndarray] = {1: np.zeros(m, dtype=np.int64)}
        columns: List[Optional[Tuple[FlatLayer, int, np.ndarray]]] = [None] * self.width
        for index, layer in self._ordered:
            segment = segment_ids.pop(index)
            factor //= layer.totals[segment]
            chosen = layer.searcher.probe_flat(segment, remaining // factor)
            remaining -= layer.starts[chosen] * factor
            for position, column in layer.page_cols:
                columns[position] = (layer, column, layer.codes[column][chosen])
            for child, ids in layer.child_ids.items():
                child_segments = ids[chosen]
                segment_ids[child] = child_segments
                factor *= self.layers[child].totals[child_segments]
        return columns  # type: ignore[return-value]


class AnswerPage:
    """A page of answers kept columnar and dictionary-coded.

    ``pieces`` are :meth:`FlatShard.walk` results, one per touched shard in
    rank order; ``order`` is the stable argsort that sorted the requested
    ranks for the walk (``None`` when they were ascending already), so answer
    ``i`` of the concatenated pieces is the answer to request ``order[i]``.
    A page renders itself either as the public ``List[Tuple]``
    (:meth:`tuples`) or as the text of the JSON rows (:meth:`json_rows`);
    either way each column is decoded once, by one fancy index.
    """

    __slots__ = ("width", "pieces", "order", "encoder")

    def __init__(self, width: int, pieces: List, order: Optional["np.ndarray"] = None) -> None:
        self.width = width
        self.pieces = pieces
        self.order = order
        #: Which encoder wrote this page's rows on the wire: ``"fragments"``
        #: once :meth:`json_rows` succeeded, ``"json"`` otherwise.
        self.encoder = "json"

    def __len__(self) -> int:
        return sum(len(piece[0][2]) for piece in self.pieces)

    def _columns(self, table) -> Optional[List[List]]:
        """Every head column, decoded through ``table(layer, column)`` (the
        value domain or its JSON fragments) and put back in request order;
        ``None`` when a table is missing."""
        columns: List[List] = []
        for position in range(self.width):
            parts = []
            for piece in self.pieces:
                layer, column, codes = piece[position]
                values = table(layer, column)
                if values is None:
                    return None
                parts.append(values[codes])
            decoded = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if self.order is not None:
                placed = np.empty_like(decoded)
                placed[self.order] = decoded
                decoded = placed
            columns.append(decoded.tolist())
        return columns

    def tuples(self) -> List[Tuple]:
        if not self.pieces:
            return []
        return list(zip(*self._columns(lambda layer, column: layer.domains[column])))

    def json_rows(self) -> Optional[str]:
        """The rows as ``json.dumps`` writes a list of lists, without the
        outer brackets: per-value fragments joined by the encoder's own
        separators.  ``None`` when a value has no fragment (the caller
        falls back to ``json.dumps`` of :meth:`tuples`)."""
        rows = ""
        if self.pieces:
            columns = self._columns(FlatLayer.fragments)
            if columns is None:
                return None
            rows = "[" + "], [".join(map(", ".join, zip(*columns))) + "]"
        self.encoder = "fragments"
        return rows


# ----------------------------------------------------------------------
# Capture (instance -> image)
# ----------------------------------------------------------------------
def _first_occurrence(codes: "np.ndarray", domain: "np.ndarray") -> Tuple["np.ndarray", List]:
    """Re-encode storage ``codes`` (indices into ``domain``) exactly as
    :func:`_encode_values` encodes the decoded column: code ``j`` is the
    ``j``-th distinct value in row order.  The domain lists the storage's own
    representative objects — the very objects the decoded rows hold — and
    the storage's encoding guards already keep distinguishable values apart,
    so no value is hashed again.
    """
    present, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(present), dtype=np.int64)
    rank[by_first] = np.arange(len(present))
    values = domain[present[by_first]].tolist()
    return rank[inverse].astype(code_dtype(len(values)), copy=False), values


def _columnar_layer(index) -> Tuple:
    """The capture arrays of a columnar-built layer, as its build left them."""
    columns = [
        _first_occurrence(codes, domain)
        for codes, domain in zip(index.codes, index.domains)
    ]
    return index.starts, index.sizes, index.totals, columns, index.child_ids


def _walked_layer(instance: PreprocessedInstance, layer, bucket_ids) -> Tuple:
    """The same arrays for a row-built layer (row backend, exact-int builds):
    walk the buckets and dictionary-encode every value.  ``bucket_ids(child)``
    maps a child layer's bucket keys to bucket indexes."""
    buckets = list(layer.buckets.values())
    sizes = [len(bucket.tuples) for bucket in buckets]
    total_rows = sum(sizes)
    starts = np.fromiter(
        (start for bucket in buckets for start in bucket.starts),
        dtype=np.int64, count=total_rows,
    )
    totals = np.fromiter(
        (bucket.total for bucket in buckets), dtype=np.int64, count=len(buckets)
    )
    rows = [row for bucket in buckets for row in bucket.tuples]
    columns = [
        _encode_values([row[column] for row in rows])
        for column in range(len(layer.variables))
    ]
    child_ids: Dict[int, np.ndarray] = {}
    for child in layer.children:
        child_map = bucket_ids(child)
        key_positions = tuple(
            layer.variables.index(v) for v in instance.layers[child].key_variables
        )
        child_ids[child] = np.fromiter(
            (child_map[tuple(row[p] for p in key_positions)] for row in rows),
            dtype=np.int64, count=total_rows,
        )
    return starts, sizes, totals, columns, child_ids


def _assemble_layer(
    prefix: str,
    produced: Tuple,
    arrays: Dict[str, "np.ndarray"],
    domains: Dict[str, List],
) -> Dict[str, int]:
    """Lay one layer's produced arrays out under ``prefix``; returns the
    layer's manifest entry.  Both producers feed this one routine, which is
    what keeps their images byte-identical."""
    starts, sizes, totals, columns, child_ids = produced
    stride = int(totals.max()) if len(totals) else 1
    # May raise OverflowError: the caller treats that as "no snapshot".
    searcher = SegmentedSearcher(starts, sizes, stride=stride)
    arrays[prefix + "starts"] = starts
    arrays[prefix + "aug"] = searcher._augmented
    arrays[prefix + "seg_offsets"] = searcher.offsets
    arrays[prefix + "totals"] = totals
    for column, (codes, domain) in enumerate(columns):
        arrays[prefix + f"codes{column}"] = codes
        domains[prefix + f"dom{column}"] = domain
    for child, ids in child_ids.items():
        arrays[prefix + f"child{child}"] = ids
    return {"rows": len(starts), "segments": len(totals), "stride": searcher.stride}


def _capture_shard(
    instance: PreprocessedInstance,
    shard: int,
    arrays: Dict[str, "np.ndarray"],
    domains: Dict[str, List],
) -> Dict[str, Dict[str, int]]:
    """Flatten one ``PreprocessedInstance`` into the named-array dicts;
    returns its per-layer manifest entries."""
    bucket_ids: Dict[int, Dict[Tuple, int]] = {}

    def ids_of(child: int) -> Dict[Tuple, int]:
        if child not in bucket_ids:
            bucket_ids[child] = {
                key: j for j, key in enumerate(instance.layers[child].buckets)
            }
        return bucket_ids[child]

    shard_meta: Dict[str, Dict[str, int]] = {}
    # Descending layer order fixes the pickled domains' order in the image.
    for i in sorted(instance.layers, reverse=True):
        layer = instance.layers[i]
        if layer.columnar is not None:
            produced = _columnar_layer(layer.columnar)
        else:
            produced = _walked_layer(instance, layer, ids_of)
        shard_meta[str(i)] = _assemble_layer(f"s{shard}/L{i}/", produced, arrays, domains)
    return shard_meta


def capture(instance, fingerprint: str = "", epoch: int = 0) -> Optional["InstanceSnapshot"]:
    """Flatten a (monolithic or sharded) instance into an in-memory image.

    Returns ``None`` when the image cannot represent the instance exactly —
    no NumPy, empty result, counts beyond the int64-safe bound, a segmented
    embedding that does not fit, or values the dictionary encoding cannot
    keep distinguishable.  Callers then simply keep the object walk.
    """
    if not HAS_NUMPY:
        return None
    if getattr(instance, "is_sharded", False):
        shard_instances = list(instance.shards)
    else:
        shard_instances = [instance]
    query = instance.query
    order = instance.order
    head = tuple(query.free_variables)
    count = instance.count
    if not head or count == 0 or count >= _INT64_SAFE:
        return None

    started = time.perf_counter()
    arrays: Dict[str, np.ndarray] = {}
    domains: Dict[str, List] = {}
    shards_meta: List[Dict[str, object]] = []
    layer_schema: List[Dict[str, object]] = []
    schema_source = max(
        (inst for inst in shard_instances if inst.layers),
        key=lambda inst: len(inst.layers), default=None,
    )
    if schema_source is None:
        return None
    for i in sorted(schema_source.layers):
        layer = schema_source.layers[i]
        layer_schema.append({
            "index": i,
            "variable": layer.variable,
            "variables": list(layer.variables),
            "key_variables": list(layer.key_variables),
            "parent": layer.parent,
            "children": list(layer.children),
            "value_position": layer.value_position,
        })
    try:
        for shard, shard_instance in enumerate(shard_instances):
            shard_meta = _capture_shard(shard_instance, shard, arrays, domains)
            shards_meta.append({"count": shard_instance.count, "layers": shard_meta})
    except (OverflowError, TypeError):
        return None

    manifest = {
        "version": SNAPSHOT_VERSION,
        "fingerprint": fingerprint,
        "epoch": int(epoch),
        "count": count,
        "head": list(head),
        "order": {
            "variables": list(order.variables),
            "descending": list(order.descending),
        },
        "layers": layer_schema,
        "shards": shards_meta,
    }
    snapshot = InstanceSnapshot(manifest, arrays, domains, carrier="memory")
    snapshot.seconds = time.perf_counter() - started
    for image in snapshot.shards:
        image.seconds = snapshot.seconds
    return snapshot


def install(instance, fingerprint: str = "", epoch: int = 0) -> Optional["InstanceSnapshot"]:
    """Capture an image of the instance and install it there.

    The image is reachable through :func:`installed`; a facade binding the
    instance reads through its :class:`SnapshotInstance`.  Only the root
    instance is marked: shard instances stay untouched, so a partial rebuild
    that reuses them never changes what an older facade reads.
    """
    snapshot = capture(instance, fingerprint=fingerprint, epoch=epoch)
    if snapshot is None:
        return None
    snapshot.install(instance)
    return snapshot


def installed(instance) -> Optional["InstanceSnapshot"]:
    """The image :func:`install` captured for ``instance``, if any.

    Publishing and ``repro snapshot save`` take this one instead of
    capturing again: an instance never changes after its build, so its
    image never goes stale.
    """
    return getattr(instance, "_installed_snapshot", None)


# ----------------------------------------------------------------------
# The snapshot object (manifest + arrays + carriers)
# ----------------------------------------------------------------------
class InstanceSnapshot:
    """One instance image: manifest, named arrays, value dictionaries.

    ``shards`` holds one :class:`FlatShard` per shard section (one for a
    monolithic instance); :meth:`instance` wraps them into a serving
    :class:`SnapshotInstance`.  ``carrier`` is ``"memory"``, ``"shm"`` or
    ``"file"``; ``seconds`` is the capture (memory) or attach (shm/file)
    time of this image.
    """

    def __init__(
        self,
        manifest: Dict[str, object],
        arrays: Dict[str, "np.ndarray"],
        domains: Dict[str, List],
        carrier: str = "memory",
        keepalive: Tuple = (),
    ) -> None:
        self.manifest = manifest
        self._arrays = arrays
        self._domains = domains
        self.carrier = carrier
        self.seconds = 0.0
        #: Underlying buffers (mmap / ShmBlock) the arrays view into.
        self._keepalive = keepalive
        self.shards: List[FlatShard] = self._build_shards()
        for image in self.shards:
            image.carrier = carrier

    # -- assembly --------------------------------------------------------
    def _build_shards(self) -> List[FlatShard]:
        manifest = self.manifest
        head: List[str] = manifest["head"]
        head_position = {variable: position for position, variable in enumerate(head)}
        descending = set(manifest["order"]["descending"])
        shards: List[FlatShard] = []
        for shard, shard_meta in enumerate(manifest["shards"]):
            layers: Dict[int, FlatLayer] = {}
            for schema in manifest["layers"]:
                i = schema["index"]
                meta = shard_meta["layers"].get(str(i))
                if meta is None:  # defensive: schema/shard mismatch
                    continue
                prefix = f"s{shard}/L{i}/"
                starts = self._arrays[prefix + "starts"]
                seg_offsets = self._arrays[prefix + "seg_offsets"]
                searcher = SegmentedSearcher.from_parts(
                    meta["stride"], seg_offsets, self._arrays[prefix + "aug"]
                )
                variables = schema["variables"]
                codes = [
                    self._arrays[prefix + f"codes{column}"]
                    for column in range(len(variables))
                ]
                layer_domains = []
                for column in range(len(variables)):
                    values = self._domains[prefix + f"dom{column}"]
                    domain = np.empty(len(values), dtype=object)
                    domain[:] = values
                    layer_domains.append(domain)
                child_ids = {
                    child: self._arrays[prefix + f"child{child}"]
                    for child in schema["children"]
                }
                head_cols = tuple(
                    (head_position[variable], column)
                    for column, variable in enumerate(variables)
                    if variable in head_position
                )
                layers[i] = FlatLayer(
                    index=i,
                    variable=schema["variable"],
                    value_position=schema["value_position"],
                    descending=schema["variable"] in descending,
                    starts=starts,
                    totals=self._arrays[prefix + "totals"],
                    seg_offsets=seg_offsets,
                    searcher=searcher,
                    child_ids=child_ids,
                    codes=codes,
                    domains=layer_domains,
                    head_cols=head_cols,
                    value_head_position=head_position[schema["variable"]],
                )
            shards.append(FlatShard(shard_meta["count"], len(head), layers))
        return shards

    # -- introspection ---------------------------------------------------
    @property
    def count(self) -> int:
        return self.manifest["count"]

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    @property
    def epoch(self) -> int:
        return self.manifest["epoch"]

    @property
    def nbytes(self) -> int:
        """Serialized size (arrays + manifest + pickled dictionaries), taken
        from the layout: no array is copied to measure it."""
        return self._layout().size

    def install(self, instance) -> None:
        """Mark this image as ``instance``'s own (see :func:`installed`)."""
        instance._installed_snapshot = self

    def instance(self) -> "SnapshotInstance":
        """A serving facade over this image (no preprocessing required)."""
        return SnapshotInstance(self)

    # -- serialization ---------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the carrier-independent byte layout.

        ``[magic][manifest len][domains len][manifest JSON][domains pickle]
        [aligned raw arrays]`` — array offsets (relative to the aligned
        array base) are listed in the manifest, so loading is one parse plus
        ``np.frombuffer`` views.  :meth:`save` and :meth:`publish` write the
        same bytes straight into their file or block.
        """
        layout = self._layout()
        buffer = bytearray(layout.size)
        self._write(buffer, layout)
        return bytes(buffer)

    def _layout(self) -> "_Layout":
        """Where each part of the byte image goes; copies no array."""
        table: List[Dict[str, object]] = []
        offset = 0
        for name in sorted(self._arrays):
            array = self._arrays[name]
            offset = _align(offset)
            table.append({
                "name": name,
                "dtype": str(array.dtype),
                "size": int(array.size),
                "offset": offset,
            })
            offset += array.nbytes
        manifest = dict(self.manifest)
        manifest["arrays"] = table
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
        domain_blob = pickle.dumps(self._domains, protocol=4)
        domains_at = _align(len(_MAGIC) + _HEADER.size + len(manifest_bytes))
        base = _align(domains_at + len(domain_blob))
        return _Layout(manifest_bytes, domain_blob, table, domains_at, base, base + offset)

    def _write(self, buffer, layout: "_Layout") -> None:
        """Write the image into a zero-filled writable ``buffer`` of at least
        ``layout.size`` bytes (padding is left as found)."""
        view = memoryview(buffer)
        try:
            manifest_at = len(_MAGIC) + _HEADER.size
            view[:len(_MAGIC)] = _MAGIC
            _HEADER.pack_into(view, len(_MAGIC), len(layout.manifest), len(layout.domains))
            view[manifest_at:manifest_at + len(layout.manifest)] = layout.manifest
            view[layout.domains_at:layout.domains_at + len(layout.domains)] = layout.domains
            for entry in layout.table:
                if entry["size"]:
                    np.frombuffer(
                        view, dtype=np.dtype(entry["dtype"]), count=entry["size"],
                        offset=layout.base + entry["offset"],
                    )[...] = self._arrays[entry["name"]]
        finally:
            view.release()

    @classmethod
    def from_buffer(
        cls, buffer, carrier: str = "memory", keepalive: Tuple = ()
    ) -> "InstanceSnapshot":
        """Attach to a serialized image: parse the manifest, map the arrays.

        The arrays are zero-copy views into ``buffer`` (which ``keepalive``
        must keep alive — the mmap or shared-memory handle).
        """
        started = time.perf_counter()
        view = memoryview(buffer)
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise ValueError("not a repro snapshot (bad magic)")
        manifest_len, domain_len = _HEADER.unpack_from(view, len(_MAGIC))
        position = len(_MAGIC) + _HEADER.size
        manifest = json.loads(bytes(view[position:position + manifest_len]))
        if manifest.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {manifest.get('version')} is not supported"
            )
        position = _align(position + manifest_len)
        domains = pickle.loads(bytes(view[position:position + domain_len]))
        base = _align(position + domain_len)
        arrays: Dict[str, np.ndarray] = {}
        for entry in manifest.pop("arrays"):
            arrays[entry["name"]] = np.frombuffer(
                view, dtype=np.dtype(entry["dtype"]), count=entry["size"],
                offset=base + entry["offset"],
            )
        snapshot = cls(
            manifest, arrays, domains, carrier=carrier,
            keepalive=tuple(keepalive) + (view,),
        )
        snapshot.seconds = time.perf_counter() - started
        for image in snapshot.shards:
            image.seconds = snapshot.seconds
        return snapshot

    def close(self) -> None:
        """Release the image's buffers (arrays first, then the carriers).

        After ``close`` the snapshot (and any :class:`SnapshotInstance` over
        it) must not be used.  Handles that still have live array views are
        left for the garbage collector — closing is best-effort by design so
        a retired buffer set never yanks memory from an in-flight reader.
        """
        for shard in self.shards:
            # Clear in place: SnapshotInstances share these FlatShard
            # objects, and a dangling array view would keep the buffer
            # mapped (and make the handle's finalizer raise) until GC.
            shard.layers = {}
            shard._ordered = ()
        self.shards = []
        self._arrays = {}
        self._domains = {}
        keepalive, self._keepalive = self._keepalive, ()
        for handle in reversed(keepalive):
            try:
                if isinstance(handle, memoryview):
                    handle.release()
                else:
                    handle.close()
            except (BufferError, ValueError):  # views still alive: GC's job
                pass

    # -- file carrier ----------------------------------------------------
    def save(self, path: str) -> int:
        """Write the image to ``path`` through a mapping of the file sized
        up front; returns the byte size."""
        layout = self._layout()
        with open(path, "w+b") as handle:
            handle.truncate(layout.size)
            with _mmap.mmap(handle.fileno(), layout.size) as mapped:
                self._write(mapped, layout)
        return layout.size

    @classmethod
    def load(cls, path: str) -> "InstanceSnapshot":
        """mmap an on-disk image: a map plus a manifest parse, not a rebuild."""
        with open(path, "rb") as handle:
            mapped = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
        return cls.from_buffer(mapped, carrier="file", keepalive=(mapped,))

    # -- shared-memory carrier -------------------------------------------
    def publish(self, name: Optional[str] = None) -> "ShmBlock":
        """Write the image into a new named shared-memory block of its final
        size (no intermediate copy); returns the block.

        The caller owns the block (and must eventually ``unlink`` it —
        :class:`SnapshotPublisher` does the refcounting for live serving).
        """
        if name is None:
            name = shm_name(self.fingerprint, self.epoch)
        layout = self._layout()
        block = ShmBlock(name, create=True, size=layout.size)
        try:
            self._write(block.buf, layout)
        except BaseException:
            block.close()
            block.unlink()
            raise
        return block

    @classmethod
    def attach(cls, name: str) -> "InstanceSnapshot":
        """Attach to a published shared-memory image by name (O(1) map)."""
        block = ShmBlock(name)
        return cls.from_buffer(block.buf, carrier="shm", keepalive=(block,))


class ShmBlock:
    """One POSIX shared-memory block (``/dev/shm/<name>``) mapped read-write.

    The calls :class:`multiprocessing.shared_memory.SharedMemory` makes,
    minus its resource-tracker registration: no tracker process is started,
    and neither a publisher nor an attaching reader hands the name to one.
    ``create=True`` makes a new block of ``size`` bytes and fails with
    :class:`FileExistsError` if the name is taken.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str, create: bool = False, size: int = 0) -> None:
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            self._mmap = _mmap.mmap(fd, os.fstat(fd).st_size)
        except BaseException:
            if create:
                _posixshmem.shm_unlink("/" + name)
            raise
        finally:
            os.close(fd)  # the mapping keeps the memory
        self.name = name
        self.size = len(self._mmap)
        self.buf: Optional[memoryview] = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap; :class:`BufferError` while views of ``buf`` are alive."""
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        self._mmap.close()

    def unlink(self) -> None:
        """Remove the name; mappings (here and in readers) stay valid."""
        _posixshmem.shm_unlink("/" + self.name)


_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "repro-snap-"


def shm_name(fingerprint: str, epoch: int) -> str:
    """The shared-memory block name of one (plan fingerprint, epoch) image,
    tagged with the publishing process's pid (see :func:`sweep_orphans`)."""
    return f"{_SHM_PREFIX}{os.getpid()}-{fingerprint or 'anon'}-{int(epoch)}"


def _process_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


def sweep_orphans() -> List[str]:
    """Unlink the blocks of publishers that are gone; returns their names.

    A block named by :func:`shm_name` carries its publisher's pid; a
    publisher that crashed before unlinking leaves it behind.  Names whose
    pid field does not parse (not written by :func:`shm_name`) are left
    alone, and so is every block of a live pid.  The pid is read in this
    process's pid namespace: processes sharing ``/dev/shm`` must share it.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # no /dev/shm on this platform
        return []
    swept = []
    for name in names:
        if not name.startswith(_SHM_PREFIX):
            continue
        owner = name[len(_SHM_PREFIX):].partition("-")[0]
        if not (owner.isascii() and owner.isdigit()) or _process_alive(int(owner)):
            continue
        try:
            _posixshmem.shm_unlink("/" + name)
        except OSError:  # another sweeper got there first, or not ours
            continue
        swept.append(name)
    return swept


class SnapshotPublisher:
    """Refcounted shared-memory publication of one plan's epoch images.

    ``publish`` copies the epoch's image — the one installed at build time —
    into its named block with a publisher reference; readers ``acquire``/``release``
    epochs they serve from.  ``retire`` drops the publisher reference — the
    block is unlinked once nobody holds it, so a ``LiveInstance`` swap
    publishes the new epoch first and retires the old one without yanking
    memory from readers mid-batch (attached mappings survive the unlink; the
    *name* disappears, which is what makes the swap atomic for new readers).
    """

    def __init__(self, fingerprint: str = "") -> None:
        self.fingerprint = fingerprint
        self._blocks: Dict[int, Tuple[object, int]] = {}  # epoch -> (block, refs)

    def publish(self, source, epoch: int) -> Optional[str]:
        """Publish an instance (or prebuilt snapshot) under ``epoch``.

        An instance publishes the image installed at its build, stamped with
        the epoch, so the build's capture stays the only one.  ``None`` when
        the instance carries no image (capture declined at build time).
        """
        snapshot = source if isinstance(source, InstanceSnapshot) else installed(source)
        if snapshot is None:
            return None
        snapshot.manifest["epoch"] = int(epoch)
        block = snapshot.publish(shm_name(self.fingerprint, epoch))
        self._blocks[epoch] = (block, 1)
        return block.name

    def nbytes(self, epoch: int) -> int:
        """Size of the block published under ``epoch``."""
        return self._blocks[epoch][0].size

    def acquire(self, epoch: int) -> None:
        block, refs = self._blocks[epoch]
        self._blocks[epoch] = (block, refs + 1)

    def release(self, epoch: int) -> None:
        entry = self._blocks.get(epoch)
        if entry is None:
            return
        block, refs = entry
        if refs <= 1:
            del self._blocks[epoch]
            _destroy_block(block)
        else:
            self._blocks[epoch] = (block, refs - 1)

    def retire(self, epoch: int) -> None:
        """Drop the publisher's own reference (unlink when unreferenced)."""
        self.release(epoch)

    @property
    def epochs(self) -> Tuple[int, ...]:
        return tuple(sorted(self._blocks))

    def close(self) -> None:
        """Unlink every block still published (process shutdown path)."""
        for epoch in list(self._blocks):
            block, _ = self._blocks.pop(epoch)
            _destroy_block(block)


def _destroy_block(block) -> None:
    try:
        block.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
    try:
        block.close()
    except BufferError:  # local arrays still view the mapping; the OS
        pass             # reclaims it with the process.


# ----------------------------------------------------------------------
# The serving facade over an attached image
# ----------------------------------------------------------------------
_COUNT_ACCESS = ACCESS_KERNELS.bind(("access", "snapshot"))
_COUNT_BATCH = ACCESS_KERNELS.bind(("batch", "snapshot"))
_COUNT_INVERTED = ACCESS_KERNELS.bind(("inverted", "snapshot"))
_COUNT_NEXT = ACCESS_KERNELS.bind(("next_index", "snapshot"))


class SnapshotInstance:
    """Ranked direct access served purely from an instance image.

    Provides the four access operations of
    :class:`~repro.core.preprocessing.PreprocessedInstance` without any
    preprocessed objects — a worker that attached a published image serves
    correct answers without re-running preprocessing.  Sharded images route
    by rank through the manifest's offset table (and by leading value for
    inverted access), exactly like :class:`~repro.core.sharding.ShardedInstance`.
    """

    #: Routes the :mod:`repro.core.access` module functions to these methods.
    is_sharded = True

    def __init__(self, snapshot: InstanceSnapshot) -> None:
        self.snapshot = snapshot
        manifest = snapshot.manifest
        self.head: Tuple[str, ...] = tuple(manifest["head"])
        self.order = LexOrder(
            manifest["order"]["variables"], manifest["order"]["descending"]
        )
        self.shards: List[FlatShard] = snapshot.shards
        offsets = [0]
        for image in self.shards:
            offsets.append(offsets[-1] + image.count)
        self.offsets: Tuple[int, ...] = tuple(offsets)
        self._np_offsets = np.asarray(offsets, dtype=np.int64)
        self._count = offsets[-1]
        #: Single-shard fast path: scalar access skips rank routing.
        self._single = self.shards[0] if len(self.shards) == 1 else None
        leading = manifest["order"]["variables"][0] if manifest["order"]["variables"] else None
        self._leading_descending = leading in set(manifest["order"]["descending"])
        # Shards partition on the leading ORDER variable, which need not be
        # the first head variable — route by its position in the head.
        self._leading_position = (
            self.head.index(leading) if leading in self.head else 0
        )
        # Shard routing for inverted access: the first leading-value order
        # key of each non-empty shard (shard ranges are disjoint, ordered).
        route: List[Tuple[object, int]] = []
        for shard, image in enumerate(self.shards):
            if image.count == 0 or 1 not in image.layers:
                continue
            layer = image.layers[1]
            route.append(
                (order_key(layer.decode_value(0), layer.descending), shard)
            )
        self._route = route

    # -- introspection ---------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    @property
    def carrier(self) -> str:
        return self.snapshot.carrier

    # -- routing ---------------------------------------------------------
    def _shard_of_rank(self, k: int) -> int:
        return bisect_right(self.offsets, k) - 1

    def _shard_of_value(self, value) -> Optional[int]:
        if not self._route:
            return None
        if len(self._route) == 1:
            return self._route[0][1]
        key = order_key(value, self._leading_descending)
        chosen = None
        for first_key, shard in self._route:
            if first_key <= key:
                chosen = shard
            else:
                break
        return chosen if chosen is not None else self._route[0][1]

    # -- the four operations ---------------------------------------------
    def access(self, k: int) -> Tuple:
        k = validate_rank(k)
        if k < 0 or k >= self._count:
            raise OutOfBoundsError(
                f"index {k} is out of bounds for {self._count} answers"
            )
        _COUNT_ACCESS.inc()
        single = self._single
        if single is not None:
            return single.access(k)
        shard = self._shard_of_rank(k)
        return self.shards[shard].access(k - self.offsets[shard])

    def page(self, ks: Sequence[int]) -> AnswerPage:
        """The answers at ranks ``ks``, in the given order, as a columnar
        :class:`AnswerPage`: one validation, one stable argsort, one walk of
        ascending ranks per touched shard."""
        ranks = validate_ranks(ks, self._count)
        _COUNT_BATCH.inc()
        if len(ranks) == 0:
            return AnswerPage(len(self.head), [])
        array = np.asarray(ranks, dtype=np.int64)
        order = np.argsort(array, kind="stable")
        return self._walk_sorted(array[order], order)

    def range_page(self, lo: int, hi: int) -> AnswerPage:
        """:meth:`page` for the contiguous ranks ``lo ≤ k < hi``."""
        lo, hi = validate_range(lo, hi, self._count)
        _COUNT_BATCH.inc()
        if lo == hi:
            return AnswerPage(len(self.head), [])
        return self._walk_sorted(np.arange(lo, hi, dtype=np.int64), None)

    def _walk_sorted(self, ranks: "np.ndarray", order) -> AnswerPage:
        """Walk ascending ``ranks``: each shard gets (a shard-local copy of)
        the contiguous slice one ``searchsorted`` of the ranks against the
        offset table cuts for it."""
        cuts = np.searchsorted(ranks, self._np_offsets).tolist()
        pieces = [
            self.shards[shard].walk(ranks[begin:end] - self.offsets[shard])
            for shard, (begin, end) in enumerate(zip(cuts, cuts[1:]))
            if begin < end
        ]
        return AnswerPage(len(self.head), pieces, order)

    def batch_access(self, ks: Sequence[int]) -> List[Tuple]:
        return self.page(ks).tuples()

    def range_access(self, lo: int, hi: int) -> List[Tuple]:
        return self.range_page(lo, hi).tuples()

    def inverted_access(self, answer: Sequence) -> int:
        if self._count == 0:
            raise NotAnAnswerError(
                f"{tuple(answer)!r} is not an answer (empty result)"
            )
        if len(answer) != len(self.head):
            raise NotAnAnswerError(
                f"answer {tuple(answer)!r} does not match the head arity "
                f"{len(self.head)}"
            )
        answer = tuple(answer)
        _COUNT_INVERTED.inc()
        try:
            shard = (
                self._shard_of_value(answer[self._leading_position])
                if len(self.shards) > 1 else 0
            )
        except TypeError:
            raise NotAnAnswerError(f"{answer!r} is not an answer") from None
        if shard is None:
            raise NotAnAnswerError(f"{answer!r} is not an answer")
        return self.offsets[shard] + self.shards[shard].inverted(answer)

    def next_answer_index(self, target: Sequence) -> int:
        if any(self.order.is_descending(v) for v in self.order.variables):
            raise NotAnAnswerError("next_answer_index supports ascending orders only")
        target = tuple(target)
        if len(target) != len(self.head):
            raise NotAnAnswerError(
                f"answer {target!r} does not match the head arity {len(self.head)}"
            )
        _COUNT_NEXT.inc()
        for shard, image in enumerate(self.shards):
            local = image.next_index(target)
            if local < image.count:
                return self.offsets[shard] + local
        return self._count

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self.batch_access(range(*k.indices(self._count)))
        if k < 0:
            k += self._count
        return self.access(k)

    def __iter__(self):
        for k in range(self._count):
            yield self.access(k)


def serving_stats(instance) -> Optional[Dict[str, object]]:
    """The snapshot-serving descriptor of an instance tree (or ``None``).

    Reports the carrier and capture/attach seconds of the installed image —
    what the service surfaces per plan.
    """
    image = installed(instance)
    if image is None:
        return None
    return {"carrier": image.carrier, "seconds": round(image.seconds, 6)}
