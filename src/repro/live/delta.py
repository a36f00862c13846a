"""Epoch-tagged tuple deltas over an immutable base database.

The live-update subsystem keeps every registered database as a
:class:`LiveDatabase`: an immutable base :class:`~repro.engine.database.Database`
plus a *delta buffer* of inserted and deleted tuples, versioned by a
monotonically increasing **epoch** counter.  The base is never mutated —
readers that captured a snapshot keep serving it — and every mutation batch
that actually changes the net state bumps the epoch exactly once.

Three views of the state are exposed:

* :meth:`LiveDatabase.current` — the net database (base − deleted ∪ inserted)
  as a plain immutable :class:`Database`, cached per epoch, so one-shot
  consumers (selection, re-registration-free rebuilds) always see live data.
  Each mutated relation is built by its storage's ``apply_delta``: on the
  columnar backend an ``np.isin`` over packed row keys and a domain merge,
  with no base row decoded (the result equals re-encoding the row list);
* :meth:`LiveDatabase.state` — the ``(epoch, current database)`` pair read
  atomically, which is what builders use to tag the snapshot they build from;
* :meth:`LiveDatabase.delta_since` — the net tuple delta between an arbitrary
  past epoch and now, reconstructed from a **mutation log** of membership
  flips.  This is what lets every prepared plan re-bind its own snapshot to
  the newest epoch regardless of when it was built or last compacted.

The log can be trimmed after compaction (:meth:`trim_log`) and is capped at
``max_log_entries`` (the floor advances automatically past the overflow); a
reader whose snapshot predates the floor receives ``None`` from
``delta_since`` and falls back to a full rebuild — a deliberate self-healing
degradation rather than unbounded memory growth.

Mutations test a row's presence in the base with ``row in relation``, which
the storage answers itself (columnar: ``domain_index`` lookups plus a binary
search of sorted packed row keys), so no set of base tuples is ever built.
Every mutation runs the same consistency checks the registration path
applies: the relation must exist, rows must match its arity, and all values
must be hashable (set semantics).  Violations raise
:class:`~repro.exceptions.MutationError`, which front-ends surface as a
structured client error, never a traceback.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.obs import MUTATION_ROWS, MUTATIONS
from repro.exceptions import MutationError, SchemaError

Row = Tuple


def validate_rows(database: Database, relation: str, rows: Sequence) -> List[Row]:
    """Coerce and validate mutation rows against the relation's schema.

    Returns the rows as plain tuples.  Raises :class:`MutationError` when the
    relation does not exist, a row does not match the relation's arity, or a
    row contains an unhashable value.
    """
    try:
        target = database.relation(relation)
    except SchemaError:
        known = ", ".join(sorted(database.relation_names)) or "none"
        raise MutationError(
            f"unknown relation {relation!r}; registered relations: {known}"
        ) from None
    arity = target.arity
    validated: List[Row] = []
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise MutationError(
                f"relation {relation!r}: row {row!r} must be an array of values"
            )
        row = tuple(row)
        if len(row) != arity:
            raise MutationError(
                f"relation {relation!r}: row {row!r} does not match arity "
                f"{arity} of {target.attributes}"
            )
        try:
            hash(row)
        except TypeError:
            raise MutationError(
                f"relation {relation!r}: row {row!r} contains an unhashable "
                "value (relations have set semantics; values must be hashable)"
            ) from None
        validated.append(row)
    return validated


class LiveDatabase:
    """An immutable base database plus an epoch-tagged mutation delta.

    Thread-safe: mutations and snapshot reads serialize on one lock; readers
    that already hold a :class:`Database` snapshot are unaffected by later
    mutations (databases and relations are immutable value objects).
    """

    def __init__(self, base: Database, max_log_entries: int = 65536) -> None:
        if not isinstance(base, Database):
            raise MutationError("LiveDatabase needs a Database instance as its base")
        self._base = base
        self._lock = threading.RLock()
        self._epoch = 0
        #: Bound on the mutation log: beyond it the floor advances
        #: automatically, so memory and ``delta_since`` scans stay bounded
        #: even when no client ever compacts.  Readers whose base predates
        #: the advanced floor self-heal with a full rebuild.
        self._max_log_entries = max(1, max_log_entries)
        #: Net delta versus ``base`` (insertion-ordered sets).
        self._inserted: Dict[str, Dict[Row, None]] = {}
        self._deleted: Dict[str, Dict[Row, None]] = {}
        #: Membership-flip log: ``(epoch, op, relation, row)`` in apply order.
        self._log: List[Tuple[int, str, str, Row]] = []
        #: ``delta_since(e)`` is answerable for every ``e >= _log_floor``.
        self._log_floor = 0
        self._current: Optional[Tuple[int, Database]] = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def base(self) -> Database:
        """The immutable base the deltas are relative to."""
        return self._base

    @property
    def epoch(self) -> int:
        """The current epoch (bumped once per state-changing mutation batch).

        Lock-free on purpose: every read of every plan checks the epoch, and
        an ``int`` attribute read is atomic under the GIL — taking the
        mutation lock here would serialize all readers behind writers.
        """
        return self._epoch

    # -- materialization (the O(n) build happens OUTSIDE the lock) -------
    def _materialization_plan(self):
        """Per-relation ``(relation, deleted, inserted)`` work items.

        Caller holds the lock; only relations with a non-empty *net* delta
        are included — mutations that cancelled out leave empty entries
        behind, and applying an empty delta to a columnar relation would
        still be ``O(n)``.
        """
        return [
            (
                self._base.relation(name),
                list(self._deleted.get(name, ())),
                list(self._inserted.get(name, ())),
            )
            for name in set(self._inserted) | set(self._deleted)
            if self._inserted.get(name) or self._deleted.get(name)
        ]

    def _build_current(self, plan) -> Database:
        replaced = [
            relation.with_delta(deleted, inserted)
            for relation, deleted, inserted in plan
        ]
        return self._base.with_relations(replaced) if replaced else self._base

    def _snapshot_current(self) -> Tuple[int, Database]:
        """``(epoch, net database at that epoch)`` — a consistent pair.

        The relation rebuild runs outside the lock (``apply_delta`` is
        ``O(n)`` vectorized work on the columnar backend), so concurrent
        readers and writers are never stalled behind a materialization; the
        pair stays consistent because the work items were snapshotted under
        the lock at ``epoch``.
        """
        with self._lock:
            epoch = self._epoch
            if self._current is not None and self._current[0] == epoch:
                return epoch, self._current[1]
            plan = self._materialization_plan()
        database = self._build_current(plan)
        with self._lock:
            if self._epoch == epoch:
                self._current = (epoch, database)
        return epoch, database

    def current(self) -> Database:
        """The net database (base − deleted ∪ inserted), cached per epoch."""
        return self._snapshot_current()[1]

    def state(self) -> Tuple[int, Database]:
        """The ``(epoch, current database)`` pair, read consistently."""
        return self._snapshot_current()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, relation: str, rows: Sequence) -> int:
        """Insert tuples; returns how many actually changed the state.

        Set semantics: inserting a tuple that is already present is a no-op;
        re-inserting a previously deleted base tuple undoes the deletion.
        The epoch is bumped once iff at least one tuple was applied.
        """
        with self._lock:
            validated = validate_rows(self._base, relation, rows)
            base = self._base.relation(relation)
            inserted = self._inserted.setdefault(relation, {})
            deleted = self._deleted.setdefault(relation, {})
            applied: List[Row] = []
            for row in validated:
                if row in deleted:
                    del deleted[row]
                elif row in base or row in inserted:
                    continue
                else:
                    inserted[row] = None
                applied.append(row)
            return self._commit(relation, "insert", applied)

    def delete(self, relation: str, rows: Sequence) -> int:
        """Delete tuples; returns how many actually changed the state.

        Deleting a tuple that is not currently present is a no-op; deleting a
        tuple that was inserted since the base undoes the insertion.
        """
        with self._lock:
            validated = validate_rows(self._base, relation, rows)
            base = self._base.relation(relation)
            inserted = self._inserted.setdefault(relation, {})
            deleted = self._deleted.setdefault(relation, {})
            applied: List[Row] = []
            for row in validated:
                if row in inserted:
                    del inserted[row]
                elif row in base and row not in deleted:
                    deleted[row] = None
                else:
                    continue
                applied.append(row)
            return self._commit(relation, "delete", applied)

    def _commit(self, relation: str, op: str, applied: List[Row]) -> int:
        if not applied:
            return 0
        MUTATIONS.inc((op,))
        MUTATION_ROWS.inc((op,), len(applied))
        self._epoch += 1
        self._log.extend((self._epoch, op, relation, row) for row in applied)
        if len(self._log) > self._max_log_entries:
            # Advance the floor past the oldest overflowing entries (whole
            # epochs only — the floor contract is per-epoch).
            drop = len(self._log) - self._max_log_entries
            floor = self._log[drop - 1][0]
            self._log = [entry for entry in self._log if entry[0] > floor]
            self._log_floor = max(self._log_floor, floor)
        self._current = None
        return len(applied)

    # ------------------------------------------------------------------
    # Deltas between epochs
    # ------------------------------------------------------------------
    def delta_since(
        self, epoch: int, include_current: bool = False
    ) -> Optional[Tuple[int, Dict[str, Tuple[List[Row], List[Row]]], Optional[Database]]]:
        """The net ``(inserted, deleted)`` rows per relation since ``epoch``.

        Returns ``(current_epoch, delta, current_database)`` — one consistent
        snapshot as of ``current_epoch`` — or ``None`` when the log has been
        trimmed past ``epoch`` (the caller must fall back to a full rebuild
        from :meth:`current`).  The delta is *net*: a tuple inserted and
        later deleted within the window cancels out.  ``current_database``
        is only materialized when ``include_current`` is set (applying the
        delta to a columnar relation is ``O(n)``, and the build runs *outside*
        the lock from work items snapshotted with the delta; callers that
        can work from the base plus the delta overlay skip it entirely).
        """
        with self._lock:
            if epoch < self._log_floor:
                return None
            net: Dict[str, Tuple[Dict[Row, None], Dict[Row, None]]] = {}
            for entry_epoch, op, relation, row in self._log:
                if entry_epoch <= epoch:
                    continue
                inserted, deleted = net.setdefault(relation, ({}, {}))
                if op == "insert":
                    if row in deleted:
                        del deleted[row]
                    else:
                        inserted[row] = None
                else:
                    if row in inserted:
                        del inserted[row]
                    else:
                        deleted[row] = None
            delta = {
                relation: (list(inserted), list(deleted))
                for relation, (inserted, deleted) in net.items()
                if inserted or deleted
            }
            current_epoch = self._epoch
            if not include_current:
                return current_epoch, delta, None
            if self._current is not None and self._current[0] == current_epoch:
                return current_epoch, delta, self._current[1]
            plan = self._materialization_plan()
        database = self._build_current(plan)
        with self._lock:
            if self._epoch == current_epoch:
                self._current = (current_epoch, database)
        return current_epoch, delta, database

    def trim_log(self, floor: int) -> int:
        """Drop log entries at or below ``floor``; returns the entries dropped.

        After every live plan has compacted to epoch ``e``, entries ``<= e``
        can never be asked for again except by snapshots that will rebuild
        anyway, so the service trims to the minimum compacted epoch.
        """
        with self._lock:
            floor = min(floor, self._epoch)
            if floor <= self._log_floor:
                return 0
            before = len(self._log)
            self._log = [entry for entry in self._log if entry[0] > floor]
            self._log_floor = floor
            return before - len(self._log)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters describing the delta state (for the service's stats op)."""
        with self._lock:
            return {
                "epoch": self._epoch,
                "pending_inserted": sum(len(m) for m in self._inserted.values()),
                "pending_deleted": sum(len(m) for m in self._deleted.values()),
                "touched_relations": sorted(
                    name
                    for name in set(self._inserted) | set(self._deleted)
                    if self._inserted.get(name) or self._deleted.get(name)
                ),
                "log_entries": len(self._log),
                "log_floor": self._log_floor,
                "base_tuples": self._base.size(),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LiveDatabase(epoch={self._epoch}, base={self._base!r})"
