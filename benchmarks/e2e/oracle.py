"""Independent oracles for the two benchmark queries (no call into ``repro``).

``PathOracle`` materializes ``Q(x,y,z) :- R(x,y), S(y,z)`` with a hash join
and ``sorted``; ``ScoreOracle`` sorts ``Results`` rows by their weighted
score.  Both follow a workload's mutations as its shadow copy.  SUM ties are
broken by the server however it likes, so the score oracle compares answer
*weights* plus membership, never tuples.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Sequence, Tuple

import gen

Row = Tuple[int, ...]


class PathOracle:
    """The 2-path answers in ``x, y, z`` order, kept in step with mutations."""

    def __init__(self, relations: Dict[str, List[Row]]) -> None:
        self._by_y: Dict[int, List[int]] = {}
        for y, z in sorted(relations["S"]):
            self._by_y.setdefault(y, []).append(z)
        self.answers: List[Row] = sorted(
            (x, y, z) for x, y in relations["R"] for z in self._by_y.get(y, ()))

    @property
    def count(self) -> int:
        return len(self.answers)

    def check_access(self, k: int, answer: Sequence) -> bool:
        return 0 <= k < len(self.answers) and tuple(answer) == self.answers[k]

    def check_range(self, lo: int, answers: Sequence[Sequence]) -> bool:
        expected = self.answers[lo:lo + len(answers)]
        return len(expected) == len(answers) and all(
            tuple(got) == want for got, want in zip(answers, expected))

    def apply(self, op: str, rows: Iterable[Row]) -> None:
        """Follow one ``insert`` / ``delete`` of rows of ``R``."""
        for x, y in rows:
            zs = self._by_y.get(y, ())
            if not zs:
                continue
            at = bisect_left(self.answers, (x, y, zs[0]))
            if op == "insert":
                self.answers[at:at] = [(x, y, z) for z in zs]
            else:
                del self.answers[at:at + len(zs)]

    def corrupt(self, k: int) -> None:
        x, y, z = self.answers[k]
        self.answers[k] = (x, y, z + 1)


class ScoreOracle:
    """``Results`` rows ranked by ascending weighted score."""

    def __init__(self, rows: List[Row]) -> None:
        self._rows = set(rows)
        self.weights: List[int] = sorted(gen.score_weight(row) for row in rows)

    @property
    def count(self) -> int:
        return len(self.weights)

    def _is_row_with_weight(self, answer: Sequence, weight: int) -> bool:
        row = tuple(answer)
        return row in self._rows and gen.score_weight(row) == weight

    def check_access(self, k: int, answer: Sequence) -> bool:
        return 0 <= k < len(self.weights) and self._is_row_with_weight(
            answer, self.weights[k])

    def check_range(self, lo: int, answers: Sequence[Sequence]) -> bool:
        expected = self.weights[lo:lo + len(answers)]
        return (len(expected) == len(answers)
                and len({tuple(answer) for answer in answers}) == len(answers)
                and all(self._is_row_with_weight(answer, weight)
                        for answer, weight in zip(answers, expected)))

    def apply(self, op: str, rows: Iterable[Row]) -> None:
        """Follow one ``insert`` / ``delete`` of rows of ``Results``."""
        for row in map(tuple, rows):
            weight = gen.score_weight(row)
            if op == "insert":
                self._rows.add(row)
                insort(self.weights, weight)
            else:
                self._rows.remove(row)
                del self.weights[bisect_left(self.weights, weight)]

    def corrupt(self, k: int) -> None:
        self.weights[k] += 1
