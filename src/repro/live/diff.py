"""Differential evaluation: which answers a tuple delta adds and removes.

Given a base snapshot ``D0``, the live state ``D1`` and the net tuple delta
between them, the merged view needs the **answer delta**: the answers of the
query present in ``Q(D1)`` but not ``Q(D0)`` (``added``) and vice versa
(``removed``).  Both are computed without touching the base structure's
layers, by running the *same* pipeline the base build used over small
differential databases:

* an answer is in ``Q(D1) \\ Q(D0)`` only if some witness uses an inserted
  tuple, so for every mutated relation ``R`` the query is evaluated over
  ``D1`` with ``R`` replaced by just its inserted tuples — through a
  :class:`~repro.core.direct_access.LexDirectAccess` built from the plan's
  own decision trace, so normalization, projection elimination, semi-join
  reduction and the order completion are byte-for-byte the ones the base
  build ran;
* symmetrically, candidates for ``Q(D0) \\ Q(D1)`` evaluate over ``D0`` with
  ``R`` replaced by its deleted tuples.

For *full* queries (every variable free) each answer has exactly one witness,
so the candidates are exact.  With projections an answer can have several
witnesses, so candidates are filtered: an added candidate already answered by
``D0`` (checked in ``O(log n)`` by the base's own inverted access) is not
new, and a removed candidate that still has a witness in ``D1`` (checked by
semi-join-reducing the ``D1`` relations restricted to the candidate's values)
is not gone.

Self-joins are out of scope here — the caller gates them to rebuild mode —
because replacing a relation wholesale cannot isolate one atom occurrence.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.direct_access import LexDirectAccess
from repro.core.reduction import reduce_database_over_query
from repro.engine.backends import HAS_NUMPY
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.exceptions import NotAnAnswerError

if HAS_NUMPY:
    import numpy as np

Row = Tuple


def _semi_filter(relation: Relation, conditions) -> Relation:
    """Rows of ``relation`` whose values at each position lie in the allowed set.

    ``conditions`` is a list of ``(position, allowed_values)`` pairs.  On the
    columnar backend membership is decided per *domain value* (``O(|domain|)``
    hash probes) and applied to all rows with one vectorized gather; the row
    backend scans.  Only a pre-filter: removing rows that cannot match any
    delta tuple is always sound, exactness comes from the reduction the
    differential build runs afterwards.
    """
    if not conditions:
        return relation
    storage = relation.storage
    if HAS_NUMPY and storage.backend_name == "columnar":
        mask = None
        for position, allowed in conditions:
            domain = storage.domains[position]
            member = np.fromiter(
                (value in allowed for value in domain.tolist()),
                dtype=bool,
                count=len(domain),
            )
            column_ok = member[storage.codes[position]]
            mask = column_ok if mask is None else (mask & column_ok)
        return Relation._from_storage(
            relation.name, relation.attributes, storage.take(np.flatnonzero(mask))
        )
    rows = [
        row
        for row in relation
        if all(row[position] in allowed for position, allowed in conditions)
    ]
    return relation.with_rows(rows)


def _overlaid_rows(filtered: Relation, conditions, overlay_entry) -> Relation:
    """Apply a relation's own tuple delta on top of its *filtered* base rows.

    ``filtered`` is small (the delta's join neighbourhood), so applying the
    delta to it is cheap; inserted rows are net-new versus the base (the
    delta buffer guarantees it), so appending cannot duplicate, and only
    inserts satisfying the filter conditions can join a delta tuple anyway.
    """
    inserted, deleted = overlay_entry
    if not inserted and not deleted:
        return filtered
    return filtered.with_delta(deleted, [
        row
        for row in inserted
        if all(row[position] in allowed for position, allowed in conditions)
    ])


def _column_values(relation: Relation, position: int) -> Set:
    """The distinct values of one column (from the codes on the columnar
    backend: the filtered relation's rows are never decoded)."""
    storage = relation.storage
    if HAS_NUMPY and storage.backend_name == "columnar":
        used = np.unique(storage.codes[position])
        return set(storage.domains[position][used].tolist())
    return {row[position] for row in relation}


def _delta_first_reduce(
    query,
    database: Database,
    delta_relation: str,
    delta_rows: Sequence[Row],
    overlay: Optional[Mapping[str, Tuple[Sequence[Row], Sequence[Row]]]] = None,
) -> Database:
    """``database`` with ``delta_relation`` := the delta rows and every other
    relation pre-filtered to tuples that can possibly join a delta tuple.

    The allowed-value sets propagate breadth-first from the delta atom over
    shared variables (Yannakakis-lite with per-column hash sets): an answer
    witness must agree with the delta tuple on the delta atom's variables,
    and transitively with each already-filtered neighbour on theirs, so the
    filters only drop rows no differential answer can use.  Relations in
    components disconnected from the delta atom stay unfiltered (their whole
    join participates in every differential answer).

    ``overlay`` (the full net tuple delta) lifts the remaining relations
    from the base state to the live state *after* filtering — so the live
    database never has to be materialized for a refresh, which matters on
    the columnar backend where re-encoding a mutated relation is ``O(n)``.
    """
    overlay = overlay or {}
    atoms_by_relation = {atom.relation: atom for atom in query.atoms}
    delta_atom = atoms_by_relation[delta_relation]

    allowed: Dict[str, Set] = {}
    for position, variable in enumerate(delta_atom.variables):
        allowed.setdefault(variable, set()).update(
            row[position] for row in delta_rows
        )

    replaced = [database.relation(delta_relation).with_rows(delta_rows)]
    remaining = [atom for atom in query.atoms if atom.relation != delta_relation]
    progressed = True
    while remaining and progressed:
        progressed = False
        for atom in list(remaining):
            shared = [
                (position, variable)
                for position, variable in enumerate(atom.variables)
                if variable in allowed
            ]
            if not shared:
                continue
            remaining.remove(atom)
            progressed = True
            conditions = [
                (position, allowed[variable]) for position, variable in shared
            ]
            filtered = _semi_filter(database.relation(atom.relation), conditions)
            filtered = _overlaid_rows(
                filtered, conditions, overlay.get(atom.relation, ((), ()))
            )
            replaced.append(filtered)
            shared_variables = {variable for _, variable in shared}
            for position, variable in enumerate(atom.variables):
                if variable not in shared_variables and variable not in allowed:
                    allowed[variable] = _column_values(filtered, position)
    # Atoms disconnected from the delta atom keep their full relations, but
    # still need their own tuple delta applied (no conditions).
    for atom in remaining:
        entry = overlay.get(atom.relation)
        if entry and (entry[0] or entry[1]):
            replaced.append(
                _overlaid_rows(database.relation(atom.relation), (), entry)
            )
    return database.with_relations(replaced)


def differential_answers(
    query,
    order,
    database: Database,
    touched: Mapping[str, Sequence[Row]],
    plan,
    overlay: Optional[Mapping[str, Tuple[Sequence[Row], Sequence[Row]]]] = None,
) -> List[Tuple]:
    """Distinct answers of ``query`` over ``database`` using ≥ 1 touched tuple.

    ``touched`` maps relation names to the delta rows of that relation; for
    each entry the query is evaluated over ``database`` with that relation
    replaced by only its delta rows (and every other relation pre-filtered to
    the delta's join neighbourhood, lifted to the live state by ``overlay``).
    ``plan`` is the (data-free) query plan reused for every differential
    build.  Relations not mentioned by the query are ignored — mutating them
    cannot change this query's answers.
    """
    referenced = {atom.relation for atom in query.atoms}
    answers: Dict[Tuple, None] = {}
    for relation_name, rows in touched.items():
        if not rows or relation_name not in referenced:
            continue
        diff_db = _delta_first_reduce(query, database, relation_name, rows, overlay)
        facade = LexDirectAccess(query, diff_db, order, plan=plan)
        for answer in facade.range_access(0, facade.count):
            answers.setdefault(answer, None)
    return list(answers)


def in_base(base: LexDirectAccess, answer: Tuple) -> bool:
    """Whether ``answer`` is an answer of the base snapshot (``O(log n)``)."""
    try:
        base.inverted_access(answer)
        return True
    except NotAnAnswerError:
        return False


def still_answer(normalized_query, normalized_db: Database, answer: Tuple) -> bool:
    """Whether ``answer`` (aligned with the query head) holds over the database.

    Every relation is restricted to the candidate's values on the free
    variables its atom mentions, then the restricted acyclic join is
    semi-join reduced; the join is non-empty — i.e. some witness extends the
    candidate — iff every reduced relation is non-empty.
    """
    assignment = dict(zip(normalized_query.free_variables, answer))
    restricted = []
    for atom in normalized_query.atoms:
        relation = normalized_db.relation(atom.relation)
        bound = {v: assignment[v] for v in atom.variables if v in assignment}
        if bound:
            relation = relation.select_equals(bound)
        if len(relation) == 0:
            return False
        restricted.append(relation)
    reduced = reduce_database_over_query(normalized_query, Database(restricted))
    return all(len(relation) > 0 for relation in reduced)


def compute_answer_delta(
    query,
    order,
    base: LexDirectAccess,
    base_db: Database,
    delta: Mapping[str, Tuple[Sequence[Row], Sequence[Row]]],
    plan,
    has_projection: bool,
    current_db: Optional[Database] = None,
    max_candidates: Optional[int] = None,
) -> Optional[Tuple[List[Tuple], List[int]]]:
    """The answer delta the net tuple ``delta`` induces over ``base_db``.

    Returns ``(added, removed_ranks)``: the new answers (unsorted) and the
    **base ranks** of the vanished answers (sorted), ready for
    :class:`~repro.live.merged.MergedAccess`.  ``delta`` comes from
    :meth:`~repro.live.delta.LiveDatabase.delta_since`; the live state is
    reconstructed per differential build from the base plus the delta
    overlay.  ``current_db`` (the materialized live state) is only required
    for projected queries with deletions — their survival check probes
    arbitrary relations of the live state.

    ``max_candidates`` bounds the answer-level work: when the *candidate*
    count already exceeds it, ``None`` is returned **before** the
    per-candidate corrections run (the projected witness-survival check
    scans relations per candidate) — the caller compacts instead, which is
    the right call for a delta that large anyway.
    """
    inserted = {name: rows for name, (rows, _) in delta.items() if rows}
    deleted = {name: rows for name, (_, rows) in delta.items() if rows}

    added = differential_answers(query, order, base_db, inserted, plan, overlay=delta)
    removed = differential_answers(query, order, base_db, deleted, plan)

    if max_candidates is not None and len(added) + len(removed) > max_candidates:
        return None

    if has_projection:
        added = [answer for answer in added if not in_base(base, answer)]
        if removed:
            if current_db is None:
                raise ValueError(
                    "projected queries with deletions need the current database "
                    "for the witness-survival check"
                )
            normalized_query, normalized_db = query.normalize(current_db)
            removed = [
                answer
                for answer in removed
                if not still_answer(normalized_query, normalized_db, answer)
            ]

    removed_ranks = sorted(base.inverted_access(answer) for answer in removed)
    return added, removed_ranks
