"""Sharded preprocessing and rank-routed direct access.

A :class:`ShardedInstance` is the sharded counterpart of
:class:`~repro.core.preprocessing.PreprocessedInstance`: the reduced database
is range-partitioned on the leading variable of the completed order
(:mod:`repro.engine.partition`), one per-shard ``PreprocessedInstance`` is
built per range, and the shards are glued together by a prefix-sum *offset
table* over the shard answer counts.

Because the partition follows the leading component of the order, the global
lexicographic answer order is exactly shard ``0``'s answers, then shard
``1``'s, and so on.  Direct access therefore routes by rank:

* scalar ``access(k)`` binary-searches the offset table (one extra
  ``O(log shards)`` step, so the paper's logarithmic access bound is
  untouched) and delegates to the owning shard;
* ``batch_access(ks)`` validates the whole batch once, then serves each
  rank by ``access``;
* ``inverted_access(answer)`` routes by the answer's leading *value* through
  the partition's value map, then adds the shard offset to the local index;
* ``next_answer_index(target)`` walks the shards in order (their leading
  ranges are disjoint and ordered) and returns the first shard hit plus its
  offset.

These methods run the object walk, shard by shard.  They serve only plans
whose build captured no image (no NumPy, exact-int counts): a built facade
otherwise reads through the image's
:class:`~repro.core.snapshot.SnapshotInstance`, which routes ranks and values
over the same offset table.  The module-level functions of
:mod:`repro.core.access` dispatch to either via the ``is_sharded`` marker.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.core import access as access_module
from repro.core.layered_tree import LayeredJoinTree
from repro.core.preprocessing import (
    PreprocessedInstance,
    build_partial_layers,
    preprocess,
)
from repro.engine.database import Database
from repro.engine.partition import DatabasePartition, range_partition
from repro.exceptions import NotAnAnswerError, OutOfBoundsError


class ShardedInstance:
    """Per-shard direct-access structures behind one global rank space."""

    #: Marker for the dispatch in :mod:`repro.core.access`.
    is_sharded = True

    def __init__(
        self,
        tree: LayeredJoinTree,
        partition: DatabasePartition,
        shards: List[PreprocessedInstance],
    ) -> None:
        self.query = tree.query
        self.order = tree.order
        self.tree = tree
        self.partition = partition
        self.shards = shards
        offsets = [0]
        for instance in shards:
            offsets.append(offsets[-1] + instance.count)
        #: ``offsets[i]`` is the global rank of shard ``i``'s first answer.
        self.offsets: Tuple[int, ...] = tuple(offsets)
        self._count = offsets[-1]
        self._leading_position = self.query.free_variables.index(partition.variable)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """The total number of answers ``|Q(I)|`` across all shards."""
        return self._count

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def __len__(self) -> int:
        return self._count

    def shard_of_rank(self, k: int) -> int:
        """The shard serving global rank ``k`` (``k`` must be in bounds)."""
        return bisect_right(self.offsets, k) - 1

    # ------------------------------------------------------------------
    # The four access operations (rank/value routed)
    # ------------------------------------------------------------------
    def access(self, k: int) -> Tuple:
        k = access_module.validate_rank(k)
        if k < 0 or k >= self._count:
            raise OutOfBoundsError(
                f"index {k} is out of bounds for {self._count} answers"
            )
        shard = self.shard_of_rank(k)
        return access_module.access(self.shards[shard], k - self.offsets[shard])

    def batch_access(self, ks: Sequence[int]) -> List[Tuple]:
        ranks = access_module.validate_ranks(ks, self._count)
        return [self.access(k) for k in ranks]

    def inverted_access(self, answer: Sequence) -> int:
        if self._count == 0:
            raise NotAnAnswerError(
                f"{tuple(answer)!r} is not an answer (empty result)"
            )
        if len(answer) != len(self.query.free_variables):
            raise NotAnAnswerError(
                f"answer {tuple(answer)!r} does not match the head arity "
                f"{len(self.query.free_variables)}"
            )
        shard = self.partition.shard_of_value(answer[self._leading_position])
        if shard is None:
            raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer")
        return self.offsets[shard] + access_module.inverted_access(
            self.shards[shard], answer
        )

    def next_answer_index(self, target: Sequence) -> int:
        # Shard leading ranges are disjoint and ordered, so the first shard
        # holding an answer >= target decides the global index.
        for shard, instance in enumerate(self.shards):
            local = access_module.next_answer_index(instance, target)
            if local < instance.count:
                return self.offsets[shard] + local
        return self._count


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def build_sharded_instance(
    tree: LayeredJoinTree,
    database: Database,
    shards: int,
    on_stage=None,
) -> ShardedInstance:
    """Partition ``database`` on the leading order variable and build shards.

    ``database`` must be the reduced, atom-per-relation database the
    monolithic :func:`~repro.core.preprocessing.preprocess` would receive
    (the executor's ``eliminate_projections`` output).

    Layers whose node schema contains the leading variable build per shard
    from the co-partitioned relations; all other layers are *shard
    independent* and build exactly once, shared by every shard.  That split
    is sound by the running-intersection property of the layered join tree:
    a node without the leading variable cannot have a descendant with it
    (the variable would have to appear on the whole path up to the root),
    so shared subtrees read only replicated — globally reduced — relations
    and their counting DP is identical in every shard.  Conversely a
    co-partitioned node's bucket lookups carry the leading value of an
    in-range tuple, and the shard holds *all* tuples of that value, so
    per-shard builds skip the semi-join pass outright: every reachable
    bucket matches the monolithic build's exactly.

    Shards build one after another, each on :func:`preprocess`'s bottom-up
    schedule.  ``on_stage`` receives one
    ``("partition"|"shared_layer:<i>"|"shard:<i>", seconds, rows)`` call per
    stage.
    """
    def _record(name: str, seconds: float, rows: Optional[int]) -> None:
        if on_stage is not None:
            on_stage(name, seconds, rows)

    leading = tree.layers[0].variable
    started = time.perf_counter()
    partition = range_partition(
        database, leading, shards, descending=tree.order.is_descending(leading)
    )
    _record("partition", time.perf_counter() - started, database.size())

    shared_indexes = [
        layer.index for layer in tree.layers if leading not in layer.node_variables
    ]
    shared_layers = build_partial_layers(
        tree, database, shared_indexes, on_stage=on_stage
    )

    built: List[PreprocessedInstance] = []
    for index, shard_database in enumerate(partition.shard_databases):
        started = time.perf_counter()
        built.append(preprocess(
            tree, shard_database, assume_reduced=True, prebuilt_layers=shared_layers
        ))
        _record(f"shard:{index}", time.perf_counter() - started, shard_database.size())

    return ShardedInstance(tree, partition, built)
