"""The row backend: Python tuple lists (the zero-dependency reference)."""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.engine.backends.base import Row, Storage, register_backend


class RowStorage(Storage):
    """Rows stored as a plain list of tuples.

    This is the reference implementation whose semantics (including row order
    of every operation) all other backends must reproduce.
    """

    backend_name = "row"

    __slots__ = ("_rows", "_members")

    def __init__(self, rows: List[Row]) -> None:
        self._rows = rows
        self._members: Optional[FrozenSet[Row]] = None

    @classmethod
    def from_rows(cls, rows: List[Row], arity: int) -> "RowStorage":
        return cls(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def column_count(self):
        return len(self._rows[0]) if self._rows else None

    def materialize(self) -> List[Row]:
        return self._rows

    def contains(self, row: Row) -> bool:
        if self._members is None:
            self._members = frozenset(self._rows)
        return row in self._members

    def apply_delta(self, deleted: Sequence[Row], inserted: Sequence[Row]) -> "RowStorage":
        doomed = set(deleted)
        rows = [row for row in self._rows if row not in doomed]
        rows.extend(inserted)
        return RowStorage(rows)

    def take(self, indices: Sequence[int]) -> "RowStorage":
        rows = self._rows
        return RowStorage([rows[i] for i in indices])

    def project(self, positions: Sequence[int]) -> "RowStorage":
        positions = list(positions)
        return RowStorage([tuple(row[p] for p in positions) for row in self._rows])

    def distinct(self) -> "RowStorage":
        seen = {}
        for row in self._rows:
            seen.setdefault(row, None)
        return RowStorage(list(seen.keys()))

    def select_equals(self, conditions: Sequence[Tuple[int, object]]) -> "RowStorage":
        conditions = list(conditions)
        kept = [row for row in self._rows if all(row[p] == v for p, v in conditions)]
        return RowStorage(kept)

    def sort_lex(self, positions: Sequence[int]) -> "RowStorage":
        positions = list(positions)
        ordered = sorted(self._rows, key=lambda row: tuple(row[p] for p in positions))
        return RowStorage(ordered)


register_backend("row", RowStorage.from_rows)
