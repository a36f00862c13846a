"""Relations: named, schema-carrying sets of tuples.

A :class:`Relation` stores a tuple of attribute names and the rows aligned
with that schema.  Relations are value objects: operations return new
relations and never mutate their inputs.  Duplicate rows are allowed in
storage (they can arise from projections) but :meth:`distinct` and the algebra
operators that need set semantics remove them.

How the rows are physically stored is delegated to a pluggable *storage
backend* (see :mod:`repro.engine.backends`): the default ``row`` backend keeps
a list of tuples, the optional ``columnar`` backend keeps dictionary-encoded
NumPy arrays and executes the bulk operations vectorized.  The backend never
changes results — only how fast they are computed.  Operations preserve their
input's backend, so a database converted once stays columnar end to end.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.engine.backends import Storage, build_storage
from repro.exceptions import SchemaError

Row = Tuple


class Relation:
    """An immutable named relation.

    Parameters
    ----------
    name:
        Relation name (used for error messages and database registration).
    attributes:
        Ordered attribute names; duplicates are rejected — repeated query
        variables are handled at the query layer, not the storage layer.
    rows:
        Iterable of tuples, each of the same arity as ``attributes``.
    backend:
        Storage backend name (``"row"`` or ``"columnar"``); ``None`` selects
        the process default (``REPRO_BACKEND`` environment variable or
        :func:`repro.engine.backends.set_default_backend`, falling back to
        ``"row"``).
    """

    __slots__ = ("_name", "_attributes", "_storage", "_positions")

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence] = (),
        backend: Optional[str] = None,
    ) -> None:
        attributes = tuple(attributes)
        if len(set(attributes)) != len(attributes):
            raise SchemaError(f"relation {name!r} has duplicate attributes {attributes}")
        if isinstance(rows, Storage):
            if backend is not None:
                raise SchemaError(
                    "cannot combine an existing Storage with backend=; "
                    "use Relation.to_backend() to convert"
                )
            width = rows.column_count()
            if width is not None and width != len(attributes):
                raise SchemaError(
                    f"relation {name!r}: storage arity {width} does not "
                    f"match schema {attributes}"
                )
            storage = rows
        else:
            materialized: List[Row] = []
            arity = len(attributes)
            for row in rows:
                row = tuple(row)
                if len(row) != arity:
                    raise SchemaError(
                        f"relation {name!r}: row {row!r} does not match arity {arity} of {attributes}"
                    )
                materialized.append(row)
            storage = build_storage(materialized, arity, backend)
        self._name = name
        self._attributes = attributes
        self._storage = storage
        self._positions = {attr: i for i, attr in enumerate(attributes)}

    @classmethod
    def _from_storage(cls, name: str, attributes: Sequence[str], storage: Storage) -> "Relation":
        """Internal constructor adopting an existing (immutable) storage."""
        return cls(name, attributes, storage)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    @property
    def rows(self) -> Tuple[Row, ...]:
        return tuple(self._storage.materialize())

    @property
    def arity(self) -> int:
        return len(self._attributes)

    @property
    def storage(self) -> Storage:
        """The physical storage behind this relation (backend-specific)."""
        return self._storage

    @property
    def backend(self) -> str:
        """Name of the storage backend actually holding the rows."""
        return self._storage.backend_name

    def to_backend(self, backend: Optional[str]) -> "Relation":
        """This relation re-stored on the given backend (no-op if already there)."""
        from repro.engine.backends import resolve_backend

        name = resolve_backend(backend)
        if name == self._storage.backend_name:
            return self
        return Relation(self._name, self._attributes, self._storage.materialize(), backend=name)

    def __len__(self) -> int:
        return len(self._storage)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._storage.materialize())

    def __contains__(self, row: Sequence) -> bool:
        return self._storage.contains(tuple(row))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._attributes == other._attributes
            and sorted(map(repr, self)) == sorted(map(repr, other))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Relation({self._name!r}, {self._attributes}, {len(self)} rows)"

    def position(self, attribute: str) -> int:
        """Index of ``attribute`` within the schema."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(f"relation {self._name!r} has no attribute {attribute!r}") from None

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self._positions

    def value(self, row: Row, attribute: str):
        """Value of ``attribute`` in ``row``."""
        return row[self.position(attribute)]

    def values_of(self, attribute: str) -> List:
        """All values of ``attribute`` across rows (with duplicates)."""
        pos = self.position(attribute)
        return [row[pos] for row in self._storage.materialize()]

    def active_domain(self, attribute: str) -> List:
        """Distinct values of ``attribute``, in first-seen order."""
        pos = self.position(attribute)
        seen = {}
        for row in self._storage.materialize():
            seen.setdefault(row[pos], None)
        return list(seen.keys())

    def as_dicts(self) -> List[Dict[str, object]]:
        """Rows as attribute → value dictionaries (convenience for examples)."""
        return [dict(zip(self._attributes, row)) for row in self]

    # ------------------------------------------------------------------
    # Algebra (all return new relations on the same backend)
    # ------------------------------------------------------------------
    def rename(self, name: Optional[str] = None, mapping: Optional[Mapping[str, str]] = None) -> "Relation":
        """Rename the relation and/or its attributes (storage is shared)."""
        mapping = mapping or {}
        new_attrs = tuple(mapping.get(a, a) for a in self._attributes)
        return Relation._from_storage(name or self._name, new_attrs, self._storage)

    def renamed_to(self, name: str, attributes: Sequence[str]) -> "Relation":
        """Positional rename: same rows under a new name and attribute tuple."""
        attributes = tuple(attributes)
        if len(attributes) != self.arity:
            raise SchemaError(
                f"cannot rename {self._name!r} of arity {self.arity} to {attributes}"
            )
        return Relation._from_storage(name, attributes, self._storage)

    def project(self, attributes: Sequence[str], distinct: bool = True, name: Optional[str] = None) -> "Relation":
        """Project onto the given attributes (set semantics by default)."""
        positions = [self.position(a) for a in attributes]
        storage = self._storage.project(positions)
        if distinct:
            storage = storage.distinct()
        return Relation._from_storage(name or self._name, tuple(attributes), storage)

    def select(self, predicate: Callable[[Dict[str, object]], bool], name: Optional[str] = None) -> "Relation":
        """Select rows satisfying an arbitrary predicate over attribute dicts."""
        kept = [
            i
            for i, row in enumerate(self._storage.materialize())
            if predicate(dict(zip(self._attributes, row)))
        ]
        return Relation._from_storage(name or self._name, self._attributes, self._storage.take(kept))

    def select_equals(self, assignment: Mapping[str, object], name: Optional[str] = None) -> "Relation":
        """Select rows whose values match the partial assignment."""
        conditions = [(self.position(a), v) for a, v in assignment.items()]
        storage = self._storage.select_equals(conditions)
        return Relation._from_storage(name or self._name, self._attributes, storage)

    def distinct(self, name: Optional[str] = None) -> "Relation":
        """Remove duplicate rows, preserving first-seen order."""
        return Relation._from_storage(name or self._name, self._attributes, self._storage.distinct())

    def extend(self, attribute: str, values: Mapping[Row, object], name: Optional[str] = None) -> "Relation":
        """Append an attribute whose value is looked up per row.

        ``values`` maps each existing row to the new attribute's value; rows
        absent from the mapping are dropped (they are dangling with respect to
        the lookup source).  Used by the FD-extension database rewrite.
        """
        new_rows = []
        for row in self:
            if row in values:
                new_rows.append(row + (values[row],))
        return Relation(
            name or self._name,
            self._attributes + (attribute,),
            new_rows,
            backend=self.backend,
        )

    def sorted_by(self, attributes: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Rows sorted lexicographically by the given attributes."""
        positions = [self.position(a) for a in attributes]
        return Relation._from_storage(
            name or self._name, self._attributes, self._storage.sort_lex(positions)
        )

    def group_by(self, attributes: Sequence[str]) -> Dict[Row, List[Row]]:
        """Group rows by their values on ``attributes`` (insertion-ordered)."""
        positions = [self.position(a) for a in attributes]
        groups: Dict[Row, List[Row]] = {}
        for row in self:
            key = tuple(row[p] for p in positions)
            groups.setdefault(key, []).append(row)
        return groups

    def with_rows(self, rows: Iterable[Sequence], name: Optional[str] = None) -> "Relation":
        """A relation with the same schema but different rows."""
        return Relation(name or self._name, self._attributes, rows, backend=self.backend)

    def with_delta(self, deleted: Sequence[Row], inserted: Sequence[Row]) -> "Relation":
        """``with_rows`` of the rows minus ``deleted`` plus ``inserted``
        (appended), computed by the storage without a row list."""
        storage = self._storage.apply_delta(deleted, inserted)
        return Relation._from_storage(self._name, self._attributes, storage)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        name: str,
        attributes: Sequence[str],
        dict_rows: Iterable[Mapping[str, object]],
        backend: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from attribute → value dictionaries."""
        rows = [tuple(d[a] for a in attributes) for d in dict_rows]
        return cls(name, attributes, rows, backend=backend)
