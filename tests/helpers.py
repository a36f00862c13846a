"""Shared helpers for the test suite: small random instances and oracles."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro import ConjunctiveQuery, Database, LexOrder, Relation, Weights
from repro.core import access as access_module
from repro.engine.naive import evaluate_naive
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
