"""``LiveInstance``: a versioned direct-access structure that follows mutations.

This is the live-update subsystem's centerpiece.  A :class:`LiveInstance`
binds one LEX plan (query, order, backend, shards) to one
:class:`~repro.live.delta.LiveDatabase` and keeps the answer sequence
correct as tuples are inserted and deleted, without rebuilding the expensive
preprocessed structure on every mutation:

* the **base** is an immutable :class:`~repro.core.direct_access.LexDirectAccess`
  (monolithic or sharded) built from a snapshot of the live database at some
  *base epoch*;
* reads go through an immutable per-epoch **snapshot** whose view is either
  the base itself (no pending delta) or a
  :class:`~repro.live.merged.MergedAccess` that merges the base with the
  answer delta computed by :mod:`repro.live.diff`;
* a :class:`CompactionPolicy` bounds how large the delta may grow (tuple
  count and answer ratio) before the base is rebuilt; :meth:`compact` forces
  a rebuild.  For sharded bases whose delta only touches relations carrying
  the leading order variable, compaction rebuilds **only the shards whose
  value range the delta touches** — untouched shards' preprocessed
  structures are adopted wholesale into the new epoch (sound because range
  partitioning follows the leading variable: neither join support nor
  answers of an untouched range can depend on tuples of other ranges, and
  the shard-independent shared layers are rebuilt from the freshly reduced
  database for the rebuilt shards).

Concurrency: snapshots are immutable and swapped with a single attribute
store (atomic under the GIL), so any number of reader threads serve
consistently from whatever snapshot they observed — a reader mid-batch keeps
its epoch even while a writer refreshes or compacts.  Writers (epoch syncs
and compactions) serialize on an internal lock.

Plans whose delta semantics are not covered — Boolean queries, plans with
functional dependencies (the FD extension re-keys the order), self-joins —
degrade to *rebuild mode*: every epoch change rebuilds the base.  The reason
is recorded in :meth:`stats`, so operators can see why a plan does not take
the fast path.

Known trade-off: each refresh recomputes the answer delta for the *whole*
window since the base epoch rather than extending the previous epoch's
merged view incrementally, so a drip of single-tuple mutations with a read
after each does O(window) work per refresh until the compaction policy
resets the base.  The policy bounds the window (``max_delta_tuples`` /
``answer_threshold``), and the candidate cap inside
:func:`~repro.live.diff.compute_answer_delta` bails to compaction before
the per-candidate corrections can blow up.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.direct_access import LexDirectAccess
from repro.core.orders import LexOrder
from repro.core.reduction import eliminate_projections
from repro.engine.heap import release_heap
from repro.live.delta import LiveDatabase
from repro.live.diff import compute_answer_delta
from repro.live.merged import MergedAccess
from repro.obs import COMPACTION_SECONDS, DELTA_REFRESHES, SNAPSHOT_PUBLISH_FAILURES
from repro.planner.executor import record_stage

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompactionPolicy:
    """When a :class:`LiveInstance` stops merging and rebuilds its base.

    ``max_delta_tuples`` bounds the *tuple* delta (checked before any
    differential evaluation); the answer-level bound is
    ``max(min_delta_answers, max_delta_ratio · base_count)`` — a ratio alone
    would thrash tiny instances, an absolute bound alone would never let
    large instances amortize.
    """

    max_delta_tuples: int = 4096
    max_delta_ratio: float = 0.25
    min_delta_answers: int = 256

    def answer_threshold(self, base_count: int) -> int:
        scaled = self.max_delta_ratio * base_count
        if not (scaled < 2 ** 62):  # inf (or nan from inf·0) = effectively unbounded
            scaled = 2 ** 62
        return max(self.min_delta_answers, int(scaled))


@dataclass(frozen=True)
class _Snapshot:
    """One immutable serving epoch: base structure + merged view."""

    epoch: int          # live epoch this snapshot reflects
    base_epoch: int     # epoch the base structure was built from
    base: LexDirectAccess
    base_db: object     # Database snapshot the base was built from
    view: object        # base itself, or a MergedAccess over it


class LiveInstance:
    """Mutation-following ranked direct access for one prepared LEX plan."""

    def __init__(
        self,
        query,
        live: LiveDatabase,
        order: Optional[LexOrder] = None,
        *,
        fds=None,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
        plan=None,
        policy: Optional[CompactionPolicy] = None,
        enforce_tractability: bool = True,
        publish_snapshots: bool = False,
    ) -> None:
        from repro.core.parser import parse_order, parse_query
        from repro.planner import plan as build_plan

        if isinstance(query, str):
            query = parse_query(query)
        if isinstance(order, str):
            order = parse_order(order)
        if order is None:
            order = LexOrder(query.free_variables)
        self.query = query
        self.order = order
        self.live = live
        self.policy = policy or CompactionPolicy()
        if plan is None:
            plan = build_plan(
                query, order, mode="lex", fds=fds, backend=backend, shards=shards,
                enforce_tractability=enforce_tractability,
            )
        self.plan = plan

        self._delta_reason = self._delta_gate()
        self._delta_plan = None
        if self._delta_reason is None:
            # Differential builds are tiny; a monolithic (1-shard) plan for
            # the same input avoids pointless partitioning of delta rows.
            self._delta_plan = build_plan(
                query, order, mode="lex", backend=plan.backend,
                enforce_tractability=False,
            )

        self._write_lock = threading.RLock()
        # Bounded history: rebuild-mode plans compact on every observed
        # epoch change, so an unbounded list would grow for the process
        # lifetime (and bloat every stats response with it).
        self._compactions: Deque[Dict[str, object]] = deque(maxlen=64)
        self._compaction_count = 0
        self._refreshes = 0
        free = set(query.free_variables)
        self._projection = any(
            v not in free for atom in query.atoms for v in atom.variables
        )

        epoch, database = live.state()
        base = LexDirectAccess(query, database, order, plan=plan)
        self.complete_order = base.complete_order
        self._key = (
            base.complete_order.sort_key(query.free_variables)
            if self._delta_reason is None
            else None
        )
        self._snapshot = _Snapshot(epoch, epoch, base, database, base)

        # Optional zero-copy publication: each compacted base is mirrored
        # into a shared-memory block named by plan fingerprint + epoch, so
        # worker processes attach instead of pickling.  The publisher
        # refcounts epochs — a swap publishes the new buffer set before
        # retiring the old one, and retirement unlinks only when no reader
        # holds the epoch.
        self._publisher = None
        self._publish_failed_epoch: Optional[int] = None
        # Optional epoch-swap hook: called as listener(self, new_epoch,
        # old_epoch) after a compaction publishes the new epoch's buffers,
        # INSTEAD of retiring the old epoch here.  The listener owns the
        # retirement — the worker pool uses this to re-attach every worker
        # process to the new buffers before the old ones are unlinked
        # (a cross-process epoch barrier).
        self.publish_listener = None
        if publish_snapshots:
            from repro.core.snapshot import SnapshotPublisher

            self._publisher = SnapshotPublisher(fingerprint=plan.fingerprint)
            self._publish_epoch(epoch, report=base.report)

    # ------------------------------------------------------------------
    # Capability gating
    # ------------------------------------------------------------------
    def _delta_gate(self) -> Optional[str]:
        """Why this plan cannot serve merged deltas (``None`` = it can)."""
        if self.plan.mode != "lex":
            return f"mode {self.plan.mode!r} has no merged-delta path"
        if self.plan.boolean:
            return "boolean queries re-evaluate on mutation"
        if self.plan.fds:
            return "FD-extended plans re-key the order on mutation"
        relations = [atom.relation for atom in self.query.atoms]
        if len(set(relations)) != len(relations):
            return "self-joins cannot isolate one atom occurrence per delta"
        return None

    @property
    def delta_capable(self) -> bool:
        return self._delta_reason is None

    # ------------------------------------------------------------------
    # Epoch synchronisation
    # ------------------------------------------------------------------
    def _view(self):
        snapshot = self._snapshot
        if snapshot.epoch == self.live.epoch:
            return snapshot.view
        return self._sync()

    def snapshot_view(self):
        """The current epoch's immutable view (synced first).

        Callers that must make several rank observations against *one*
        consistent epoch — e.g. ``count`` followed by a range read — capture
        this once instead of calling the instance-level operations, which
        each re-sync and may therefore observe different epochs.
        """
        return self._view()

    def _sync(self):
        with self._write_lock:
            snapshot = self._snapshot
            if snapshot.epoch == self.live.epoch:
                return snapshot.view
            if self._delta_reason is not None:
                return self._compact_locked(
                    f"rebuild-mode plan ({self._delta_reason})"
                ).view
            pulled = self.live.delta_since(snapshot.base_epoch)
            if pulled is None:
                return self._compact_locked("delta log trimmed past base epoch").view
            epoch, delta, current_db = pulled
            delta = self._filter_referenced(delta)
            if self._projection and any(
                deleted for _, deleted in delta.values()
            ):
                # Projected deletions need the witness-survival check against
                # the live state: re-pull so the epoch, delta and materialized
                # database form one atomic snapshot.  Insert-only refreshes —
                # the common case — never pay the materialization.
                pulled = self.live.delta_since(
                    snapshot.base_epoch, include_current=True
                )
                if pulled is None:
                    return self._compact_locked(
                        "delta log trimmed past base epoch"
                    ).view
                epoch, delta, current_db = pulled
                delta = self._filter_referenced(delta)
            if not delta:
                # The net delta since the base is empty (mutations cancelled
                # out, or touched relations this query never reads): the live
                # answers ARE the base answers, so serve the base directly —
                # a previously built merged view reflects an older, now-stale
                # delta window and must not be carried forward.
                self._snapshot = _Snapshot(
                    epoch, snapshot.base_epoch, snapshot.base,
                    snapshot.base_db, snapshot.base,
                )
                return snapshot.base
            delta_tuples = sum(
                len(inserted) + len(deleted) for inserted, deleted in delta.values()
            )
            if delta_tuples > self.policy.max_delta_tuples:
                return self._compact_locked(
                    f"delta tuples {delta_tuples} > {self.policy.max_delta_tuples}"
                ).view
            threshold = self.policy.answer_threshold(snapshot.base.count)
            computed = compute_answer_delta(
                self.query, self.order, snapshot.base, snapshot.base_db,
                delta, self._delta_plan, self._projection, current_db=current_db,
                max_candidates=threshold,
            )
            if computed is None:
                return self._compact_locked(
                    f"delta answer candidates > {threshold}"
                ).view
            added, removed_ranks = computed
            if len(added) + len(removed_ranks) > threshold:
                return self._compact_locked(
                    f"delta answers {len(added) + len(removed_ranks)} > {threshold}"
                ).view
            added.sort(key=self._key)
            view = MergedAccess(snapshot.base, added, removed_ranks, self._key)
            self._refreshes += 1
            DELTA_REFRESHES.inc()
            self._snapshot = _Snapshot(
                epoch, snapshot.base_epoch, snapshot.base, snapshot.base_db, view
            )
            return view

    def _filter_referenced(self, delta):
        """The delta restricted to relations this plan's query reads."""
        referenced = {atom.relation for atom in self.query.atoms}
        return {name: rows for name, rows in delta.items() if name in referenced}

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, reason: str = "manual") -> Dict[str, object]:
        """Rebuild the base at the current epoch; returns the compaction record."""
        with self._write_lock:
            self._compact_locked(reason)
            return self._compactions[-1]

    def _record_compaction(
        self, reason: str, mode: str, epoch: int, count: int, started: float,
        published: Tuple[float, int] = (0.0, 0),
    ) -> None:
        """Append the compaction record; ``seconds`` runs from ``started``
        to now, so it covers build, capture and ``published`` (the publish's
        ``(seconds, bytes)``) alike."""
        seconds = time.perf_counter() - started
        # Partial rebuilds carry a per-run "partial:rebuilt/total" mode; the
        # metric keeps the label set bounded by folding them into "partial".
        COMPACTION_SECONDS.observe(seconds, (mode.split(":", 1)[0],))
        self._compaction_count += 1
        self._compactions.append({
            "reason": reason,
            "mode": mode,
            "epoch": epoch,
            "count": count,
            "seconds": round(seconds, 6),
            "publish_seconds": round(published[0], 6),
            "publish_bytes": published[1],
        })

    def _adopt_base(self, old: _Snapshot, epoch: int) -> _Snapshot:
        """Tag the existing base as this epoch's view (no-op compaction)."""
        snapshot = _Snapshot(epoch, old.base_epoch, old.base, old.base_db, old.base)
        self._snapshot = snapshot
        return snapshot

    def _compact_locked(self, reason: str) -> _Snapshot:
        started = time.perf_counter()
        old = self._snapshot
        epoch, database = self.live.state()
        if epoch == old.base_epoch and old.view is old.base:
            # Already compacted to this epoch and serving the bare base:
            # nothing to rebuild (a repeated `compact` op must be free).
            snapshot = self._adopt_base(old, epoch)
            self._record_compaction(reason, "noop", epoch, old.base.count, started)
            return snapshot
        # The delta driving the partial rebuild is pulled HERE, atomically
        # with the epoch and database it describes — a delta observed by the
        # caller earlier may predate concurrent mutations, and building from
        # a newer state with an older touched-shard set would silently drop
        # them from the shards adopted as untouched.
        delta = None
        if self._delta_reason is None and epoch != old.base_epoch:
            pulled = self.live.delta_since(old.base_epoch, include_current=True)
            if pulled is not None:
                epoch, delta, database = pulled
                delta = self._filter_referenced(delta)
                if not delta:
                    # Mutations since the base netted out (or never touched
                    # this query): the base already equals the live answers.
                    snapshot = self._adopt_base(old, epoch)
                    self._record_compaction(
                        reason, "noop", epoch, old.base.count, started
                    )
                    return snapshot
        mode = "full"
        base = None
        if delta:
            partial = self._try_partial_rebuild(old, database, delta)
            if partial is not None:
                base, rebuilt, total = partial
                mode = f"partial:{rebuilt}/{total}"
        if base is None:
            base = LexDirectAccess(self.query, database, self.order, plan=self.plan)
        old_base_epoch = old.base_epoch
        snapshot = _Snapshot(epoch, epoch, base, database, base)
        self._snapshot = snapshot
        # Publish the new buffer set first, then retire the old epoch: new
        # readers atomically find the new name while already-attached
        # readers keep serving from the retired (still-mapped) buffers.  A
        # partial rebuild's facade carries its template's build report, so
        # only a full rebuild's report gains the publish stage.
        published = self._publish_epoch(
            epoch, report=base.report if mode == "full" else None
        )
        self._record_compaction(reason, mode, epoch, base.count, started, published)
        if self._publisher is not None:
            listener = self.publish_listener
            if listener is not None and old_base_epoch != epoch:
                # The listener owns retiring old_base_epoch (cross-process
                # barrier: worker re-attachment happens before the unlink).
                try:
                    listener(self, epoch, old_base_epoch)
                except Exception:
                    self._publisher.retire(old_base_epoch)
            elif old_base_epoch != epoch:
                self._publisher.retire(old_base_epoch)
        # Drop this frame's reference to the retired epoch, then return the
        # rebuild's transient heap (and the retired structure's) to the OS.
        del old
        release_heap()
        return snapshot

    def _publish_epoch(self, epoch: int, report=None) -> Tuple[float, int]:
        """Publish the current base's installed image under ``epoch``.

        Returns the publish's ``(seconds, bytes)`` — bytes 0 when nothing
        was published; ``report`` (the base's build report) also records
        the seconds as its ``publish`` stage.
        """
        instance = getattr(self._snapshot.base, "_instance", None)
        if instance is None or self._publisher is None:
            return 0.0, 0
        started = time.perf_counter()
        try:
            name = self._publisher.publish(instance, epoch)
        except OSError as error:  # name collision / shm exhausted
            # Inline answers stay correct, so readiness does not flip; the
            # counter and one log line per epoch say why workers sit idle.
            name = None
            SNAPSHOT_PUBLISH_FAILURES.inc()
            if self._publish_failed_epoch != epoch:
                self._publish_failed_epoch = epoch
                _LOG.warning(
                    "snapshot publish failed for plan %s epoch %d (%s); "
                    "serving inline", self.plan.fingerprint, epoch, error,
                )
        seconds = time.perf_counter() - started
        if name is None:
            return seconds, 0
        if report is not None:
            record_stage(report, "publish", seconds, instance.count)
        return seconds, self._publisher.nbytes(epoch)

    def close(self) -> None:
        """Unlink any shared-memory buffer sets this instance published."""
        if self._publisher is not None:
            self._publisher.close()

    def _try_partial_rebuild(self, old: _Snapshot, current_db, delta):
        """Rebuild only the shards whose leading range the delta touches.

        Returns ``(facade, shards_rebuilt, shard_count)`` or ``None`` when
        the partial path does not apply (monolithic base, delta touching a
        relation without the leading variable, repeated-variable atoms, or a
        delta spanning every shard anyway).
        """
        from repro.core.preprocessing import build_partial_layers, preprocess
        from repro.core.sharding import ShardedInstance
        from repro.core.snapshot import install as install_snapshot
        from repro.engine.partition import repartition

        instance = getattr(old.base, "_instance", None)
        if not isinstance(instance, ShardedInstance) or self._delta_reason is not None:
            return None
        objects = self.plan.objects
        projection = objects.projection_plan
        tree = objects.tree
        if projection is None or tree is None or objects.normalized_query is None:
            return None
        if any(atom.has_repeated_variables for atom in self.query.atoms):
            return None
        partition = instance.partition
        leading = partition.variable
        mutated = {
            name for name, (inserted, deleted) in delta.items() if inserted or deleted
        }
        # Every node relation sourced from a mutated relation must carry the
        # leading variable — otherwise the delta reaches replicated relations
        # shared by all shards and no shard can be skipped.
        normalized = objects.normalized_query
        for atom, source_index in zip(
            projection.full_query.atoms, projection.source_indexes
        ):
            source_relation = normalized.atoms[source_index].relation
            if source_relation in mutated and leading not in atom.variable_set:
                return None
        atoms_by_relation = {atom.relation: atom for atom in self.query.atoms}
        delta_values = set()
        for name in mutated:
            atom = atoms_by_relation.get(name)
            if atom is None:
                continue
            if leading not in atom.variable_set:
                return None
            position = atom.variables.index(leading)
            inserted, deleted = delta[name]
            delta_values.update(row[position] for row in inserted)
            delta_values.update(row[position] for row in deleted)

        # The front half the executor would run (no FDs here — gated above).
        database = current_db
        if self.plan.backend is not None:
            database = database.to_backend(self.plan.backend)
        _, database = objects.query.normalize(database)
        reduction = eliminate_projections(
            normalized, database, plan=projection, assume_distinct=True
        )
        new_partition = repartition(
            partition, reduction.database, extra_values=delta_values
        )
        if new_partition is None:
            return None
        touched = {new_partition.value_to_shard[value] for value in delta_values}
        if len(touched) >= instance.shard_count:
            return None

        shared_indexes = [
            layer.index for layer in tree.layers
            if leading not in layer.node_variables
        ]
        shared_layers = build_partial_layers(tree, reduction.database, shared_indexes)
        shards = [
            preprocess(
                tree, new_partition.shard_databases[index],
                assume_reduced=True, prebuilt_layers=shared_layers,
            )
            if index in touched
            else instance.shards[index]
            for index in range(instance.shard_count)
        ]
        # Partial rebuilds bypass the executor: capture the new shard set's
        # image here, before the facade binds it and chooses its reader.
        rebuilt = ShardedInstance(tree, new_partition, shards)
        install_snapshot(rebuilt, fingerprint=self.plan.fingerprint)
        rebound = LexDirectAccess._rebound(old.base, rebuilt)
        return rebound, len(touched), instance.shard_count

    # ------------------------------------------------------------------
    # The serving surface (same operations as the facade)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of answers of the live (merged) state."""
        return self._view().count

    def __len__(self) -> int:
        return self.count

    def access(self, k: int) -> Tuple:
        return self._view().access(k)

    def batch_access(self, ks: Sequence[int]) -> List[Tuple]:
        return self._view().batch_access(ks)

    def range_access(self, lo: int, hi: int) -> List[Tuple]:
        return self._view().range_access(lo, hi)

    def inverted_access(self, answer: Sequence) -> int:
        return self._view().inverted_access(answer)

    def next_answer_index(self, target: Sequence) -> int:
        return self._view().next_answer_index(target)

    def __iter__(self):
        view = self._view()
        for k in range(view.count):
            yield view.access(k)

    def __getitem__(self, k):
        return self._view()[k]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The live epoch the current snapshot reflects."""
        return self._snapshot.epoch

    @property
    def base_epoch(self) -> int:
        """The epoch the current base structure was built from."""
        return self._snapshot.base_epoch

    def stats(self) -> Dict[str, object]:
        """Serving-state counters: epochs, delta sizes, compaction history."""
        from repro.core.snapshot import serving_stats

        snapshot = self._snapshot
        merged = snapshot.view if isinstance(snapshot.view, MergedAccess) else None
        image = serving_stats(getattr(snapshot.base, "_instance", None))
        if image is not None and self._publisher is not None:
            image["published_epochs"] = list(self._publisher.epochs)
        return {
            "snapshot": image,
            "mode": "delta" if self._delta_reason is None
            else f"rebuild ({self._delta_reason})",
            "epoch": snapshot.epoch,
            "base_epoch": snapshot.base_epoch,
            "count": snapshot.view.count,
            "base_count": snapshot.base.count,
            "delta_added": len(merged.added) if merged else 0,
            "delta_removed": len(merged.removed_ranks) if merged else 0,
            "refreshes": self._refreshes,
            "shards": self.plan.shards,
            "compactions_total": self._compaction_count,
            "compactions": list(self._compactions),
        }
