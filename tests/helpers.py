"""Shared helpers for the test suite: small random instances, oracles, and
the environment and process audit of a ``repro`` subprocess."""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import ConjunctiveQuery, Database, LexOrder, Relation, Weights
from repro.core import access as access_module
from repro.core.classification import classify_direct_access_lex
from repro.core.layered_tree import build_layered_join_tree
from repro.core.partial_order import require_complete_order
from repro.core.preprocessing import preprocess
from repro.core.reduction import eliminate_projections
from repro.engine.naive import evaluate_naive
from repro.exceptions import IntractableQueryError
from repro.obs import ACCESS_KERNELS, obs_enabled


def random_database_for(
    query: ConjunctiveQuery,
    num_tuples: int,
    domain: int,
    seed: int = 0,
) -> Database:
    """A random database for an arbitrary CQ: one relation per relation symbol."""
    rng = random.Random(seed)
    relations: Dict[str, Relation] = {}
    for atom in query.atoms:
        if atom.relation in relations:
            continue
        arity = len(atom.variables)
        rows = {
            tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(num_tuples)
        }
        relations[atom.relation] = Relation(atom.relation, tuple(f"a{i}" for i in range(arity)), sorted(rows))
    return Database(relations.values())


def sorted_answers(
    query: ConjunctiveQuery,
    database: Database,
    order: Optional[LexOrder] = None,
    weights: Optional[Weights] = None,
) -> List[Tuple]:
    """Oracle: all answers sorted the way the baseline sorts them."""
    answers = evaluate_naive(query, database)
    free = query.free_variables
    if order is not None:
        return sorted(sorted(answers), key=order.sort_key(free))
    if weights is not None:
        return sorted(answers, key=lambda a: (weights.answer_weight(free, a), tuple(map(repr, a))))
    return sorted(answers)


def answer_weights_multiset(
    query: ConjunctiveQuery,
    database: Database,
    weights: Weights,
) -> List[float]:
    """The sorted multiset of answer weights (order-insensitive SUM oracle)."""
    answers = evaluate_naive(query, database)
    free = query.free_variables
    return sorted(weights.answer_weight(free, a) for a in answers)


def object_walk_answers(access) -> List[Tuple]:
    """Every answer of a :class:`~repro.LexDirectAccess` by the object walk.

    A built facade reads through its installed image, so the reference runs
    :mod:`repro.core.access` on the facade's raw preprocessed instance
    instead — and checks that the ``object`` kernel counter moved, i.e. that
    the walk really was the object walk.
    """
    instance = access._instance
    before = ACCESS_KERNELS.value(("access", "object"))
    answers = [
        access._project(access_module.access(instance, k))
        for k in range(access.count)
    ]
    moved = ACCESS_KERNELS.value(("access", "object")) - before
    assert not obs_enabled() or moved >= access.count, "object walk did not run"
    return answers


class MonolithLexAccess:
    """LEX direct access wired inline, without the planner layer.

    Every step runs the way :class:`~repro.LexDirectAccess` did before the
    planner existed, including the dedup and reduce passes the staged
    executor elides: classify, rewrite for FDs, normalise, eliminate
    projections, then preprocess with the full semi-join reduction.  The
    planner-equivalence properties compare the routed facade against it.
    """

    def __init__(self, query, database, order, fds=None, backend=None,
                 enforce_tractability: bool = True) -> None:
        if backend is not None:
            database = database.to_backend(backend)
        self._original_query = query
        self.classification = classify_direct_access_lex(query, order, fds=fds)
        if enforce_tractability and self.classification.verdict == "intractable":
            raise IntractableQueryError(
                f"direct access by {order} for {query.name} is intractable: "
                f"{self.classification.reason}",
                self.classification,
            )
        if fds:
            from repro.fds.rewrite import rewrite_for_fds

            query, database, order = rewrite_for_fds(query, database, order, fds)
        query, database = query.normalize(database)

        if query.is_boolean:
            self._boolean_answers: Optional[List[Tuple]] = evaluate_naive(query, database)
            self._instance = None
            return
        self._boolean_answers = None

        reduction = eliminate_projections(query, database)
        complete_order = require_complete_order(reduction.query, order)
        tree = build_layered_join_tree(reduction.query, complete_order)
        self._instance = preprocess(tree, reduction.database)

    @property
    def count(self) -> int:
        if self._instance is None:
            return len(self._boolean_answers or [])
        return self._instance.count

    def access(self, k: int) -> Tuple:
        if self._instance is None:
            return (self._boolean_answers or [])[k]
        raw = access_module.access(self._instance, k)
        effective_free = self._instance.query.free_variables
        original_free = self._original_query.free_variables
        if effective_free == original_free:
            return raw
        mapping = dict(zip(effective_free, raw))
        return tuple(mapping[v] for v in original_free)

    def batch_access(self, ks: Sequence[int]) -> List[Tuple]:
        return [self.access(k) for k in ks]


def src_env() -> Dict[str, str]:
    """This environment with the repo's ``src`` first on ``PYTHONPATH``: what
    a ``python -m repro.cli`` subprocess needs to import this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def session_members(session: int) -> List[int]:
    """Live processes of one session (a started server's whole tree)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry))
    return members
