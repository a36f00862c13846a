"""Seeded inputs: the two databases and every rank / page / mutation schedule.

Everything the benchmark sends is derived here from ``--seed``; the server
only ever sees the generated JSON file and request bytes.  Nothing in this
module imports ``repro``.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, List, Sequence, Tuple

PATH_QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
PATH_ORDER = "x, y, z"
SCORE_QUERY = "Q(id, c, n, e) :- Results(id, c, n, e)"
#: The Relay weighted-score mix 0.5·c + 0.2·n + 0.3·e, scaled by 10 so every
#: answer weight is an exact integer and the oracle can compare weights with ==.
SCORE_WEIGHTS = {"c": 5, "n": 2, "e": 3}
SCORE_MAX = 100

#: Rows per relation (2-path) / rows of ``Results`` for the full and smoke sizes.
SIZES = {
    "full": {"path_rows": 100_000, "score_rows": 200_000},
    "smoke": {"path_rows": 2_000, "score_rows": 4_000},
}

Row = Tuple[int, ...]


def path_relations(rows: int, seed: int) -> Dict[str, List[Row]]:
    """``R(x, y)`` and ``S(y, z)``: ``rows`` random pairs each over ``rows // 8``."""
    rng = random.Random(f"path-{seed}")
    domain = max(8, rows // 8)
    return {
        name: sorted({(rng.randrange(domain), rng.randrange(domain))
                      for _ in range(rows)})
        for name in ("R", "S")
    }


def score_relation(rows: int, seed: int) -> List[Row]:
    """``Results(id, c, n, e)`` with three scores in ``0..SCORE_MAX``."""
    rng = random.Random(f"score-{seed}")
    top = SCORE_MAX + 1
    return [(i, rng.randrange(top), rng.randrange(top), rng.randrange(top))
            for i in range(rows)]


def path_document(relations: Dict[str, List[Row]]) -> Dict[str, object]:
    return {"relations": {
        "R": {"attributes": ["x", "y"], "rows": relations["R"]},
        "S": {"attributes": ["y", "z"], "rows": relations["S"]},
    }}


def score_document(rows: List[Row]) -> Dict[str, object]:
    return {"relations": {
        "Results": {"attributes": ["id", "c", "n", "e"], "rows": rows},
    }}


def write_document(path: str, document: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))


def score_weights_spec() -> Dict[str, object]:
    """The wire form of :data:`SCORE_WEIGHTS` (``id`` falls to the default 0)."""
    return {
        "mappings": {
            variable: [[value, factor * value] for value in range(SCORE_MAX + 1)]
            for variable, factor in SCORE_WEIGHTS.items()
        },
        "default": 0,
    }


def score_weight(row: Sequence[int]) -> int:
    return (SCORE_WEIGHTS["c"] * row[1] + SCORE_WEIGHTS["n"] * row[2]
            + SCORE_WEIGHTS["e"] * row[3])


class ZipfRanks:
    """Bounded Zipf(s) over ranks ``0 .. count-1`` (rank 0 is the hottest)."""

    def __init__(self, count: int, exponent: float = 1.1) -> None:
        self._population = range(count)
        self._cumulative = list(itertools.accumulate(
            (k + 1) ** -exponent for k in range(count)))

    def sample(self, rng: random.Random, size: int) -> List[int]:
        return rng.choices(self._population, cum_weights=self._cumulative, k=size)


def pareto_page(rng: random.Random, pages: int, shape: float = 1.2) -> int:
    """A 0-based page index with a Pareto(shape) depth, clamped to ``pages``."""
    return min(pages - 1, int(rng.paretovariate(shape)) - 1)


def path_fresh_row(domain: int):
    return lambda rng: (rng.randrange(domain), rng.randrange(domain))


def score_fresh_row(rows: int):
    """A new ``Results`` row: an id past the generated ones, random scores."""
    top = SCORE_MAX + 1
    return lambda rng: (rng.randrange(rows, 2 * rows), rng.randrange(top),
                        rng.randrange(top), rng.randrange(top))


def mutation_schedule(relation: List[Row], fresh, writes: int,
                      rows_per_write: int, seed: int
                      ) -> List[Tuple[str, List[Row]]]:
    """``writes`` mutations of one relation: 3 inserts of fresh rows, then 1 delete.

    ``fresh(rng)`` proposes a row.  Deletes only name rows of the *initial*
    relation, inserts only rows never present, so the schedule is valid
    whatever order acks arrive in.
    """
    rng = random.Random(f"mutations-{seed}")
    present = set(relation)
    victims = rng.sample(relation, min(len(relation),
                                       (writes // 4 + 1) * rows_per_write))
    schedule: List[Tuple[str, List[Row]]] = []
    for index in range(writes):
        if index % 4 == 3:
            rows = [victims.pop() for _ in range(rows_per_write)]
            schedule.append(("delete", rows))
            continue
        rows = []
        while len(rows) < rows_per_write:
            row = fresh(rng)
            if row not in present:
                present.add(row)
                rows.append(row)
        schedule.append(("insert", rows))
    return schedule
