"""Storage backends: the pluggable representation behind :class:`Relation`.

A *backend* decides how the rows of a relation are physically stored and how
the bulk operations the engine is built from (projection, deduplication,
equality selection, lexicographic sorting, row gathering) are executed.  Two
backends ship with the engine:

``row``
    The zero-dependency default: a Python list of value tuples.  Every
    operation is a straightforward loop; semantics are the reference
    semantics all other backends must match.

``columnar``
    Dictionary-encoded NumPy arrays (one ``int64`` code array plus one sorted
    object-dtype domain array per column).  Bulk operations are vectorized;
    per-column domains are sorted with Python's comparison semantics so code
    order equals value order and sorting/binary search translate directly to
    the code space.  Requires NumPy; relations whose columns cannot be
    dictionary-encoded (e.g. mutually incomparable value types) silently fall
    back to row storage, so the backend never changes *what* is computed.

Backends are selected

* globally, via the ``REPRO_BACKEND`` environment variable (read once at
  import) or :func:`set_default_backend`;
* per relation/database, via the ``backend=`` keyword of
  :class:`~repro.engine.relation.Relation`,
  :class:`~repro.engine.database.Database` and the algorithm facades.

The unit of pluggability is the :class:`Storage` object — one per relation,
immutable like the relation itself.  Derived relations share or transform the
storage of their inputs, so a database converted to a backend stays on that
backend throughout preprocessing and access.
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Row = Tuple


class BackendUnavailableError(RuntimeError):
    """Raised when an explicitly requested backend cannot be used."""


class Storage(ABC):
    """Physical storage of one relation's rows (immutable).

    Positions are column indices into the relation's schema; all methods
    return new storages and never mutate ``self``.  Implementations must
    preserve the reference semantics of :class:`RowStorage` exactly — row
    order included — because algorithm outputs are compared byte-for-byte
    across backends.
    """

    #: Registry name of the backend this storage belongs to.
    backend_name: str = "abstract"

    @abstractmethod
    def __len__(self) -> int:
        """Number of rows."""

    @abstractmethod
    def materialize(self) -> List[Row]:
        """The rows as a list of Python tuples (implementations may cache)."""

    @abstractmethod
    def contains(self, row: Row) -> bool:
        """Whether the tuple ``row`` is one of the rows (set-probe semantics:
        ``==``-equal values match, an unhashable row raises ``TypeError``)."""

    @abstractmethod
    def apply_delta(self, deleted: Sequence[Row], inserted: Sequence[Row]) -> "Storage":
        """The rows without any row equal to one of ``deleted``, then
        ``inserted`` appended in order: the storage this backend builds from
        that row list (re-encoding it need not happen)."""

    @abstractmethod
    def take(self, indices: Sequence[int]) -> "Storage":
        """Rows at the given indices, in the given order."""

    @abstractmethod
    def project(self, positions: Sequence[int]) -> "Storage":
        """Columns at the given positions (duplicates preserved)."""

    @abstractmethod
    def distinct(self) -> "Storage":
        """Duplicate rows removed, first occurrence kept, first-seen order."""

    @abstractmethod
    def select_equals(self, conditions: Sequence[Tuple[int, object]]) -> "Storage":
        """Rows whose value at each ``(position, value)`` condition matches."""

    @abstractmethod
    def sort_lex(self, positions: Sequence[int]) -> "Storage":
        """Rows sorted lexicographically (stable) by the given columns."""

    def column_count(self) -> Optional[int]:
        """Number of columns, or ``None`` when the storage cannot tell cheaply."""
        return None

    def iter_rows(self):
        return iter(self.materialize())


#: name -> (builder(rows, arity) -> Storage, availability probe)
_REGISTRY: Dict[str, Tuple[Callable[[List[Row], int], Storage], Callable[[], bool]]] = {}
_DEFAULT_BACKEND: Optional[str] = None


def register_backend(
    name: str,
    builder: Callable[[List[Row], int], Storage],
    available: Callable[[], bool] = lambda: True,
) -> None:
    """Register a storage builder under ``name`` (last registration wins)."""
    _REGISTRY[name] = (builder, available)


def available_backends() -> Tuple[str, ...]:
    """Names of the backends that can actually be used in this environment."""
    return tuple(name for name, (_, probe) in _REGISTRY.items() if probe())


def backend_available(name: str) -> bool:
    entry = _REGISTRY.get(name)
    return entry is not None and entry[1]()


def resolve_backend(spec: Optional[str]) -> str:
    """Validate a backend name (``None`` means the process default)."""
    if spec is None:
        return get_default_backend()
    name = spec.strip().lower()
    if name not in _REGISTRY:
        raise BackendUnavailableError(
            f"unknown backend {spec!r}; known backends: {sorted(_REGISTRY)}"
        )
    if not _REGISTRY[name][1]():
        raise BackendUnavailableError(
            f"backend {name!r} is not available in this environment "
            "(is its optional dependency installed?)"
        )
    return name


def build_storage(rows: List[Row], arity: int, backend: Optional[str] = None) -> Storage:
    """Build storage for materialized rows on the given (or default) backend."""
    name = resolve_backend(backend)
    return _REGISTRY[name][0](rows, arity)


def get_default_backend() -> str:
    """The process-wide default backend (honours ``REPRO_BACKEND``)."""
    global _DEFAULT_BACKEND
    if _DEFAULT_BACKEND is None:
        _DEFAULT_BACKEND = _default_from_environment()
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous default."""
    global _DEFAULT_BACKEND
    previous = get_default_backend()
    _DEFAULT_BACKEND = resolve_backend(name)
    return previous


def _default_from_environment() -> str:
    spec = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if not spec:
        return "row"
    try:
        return resolve_backend(spec)
    except BackendUnavailableError as exc:
        warnings.warn(f"REPRO_BACKEND={spec!r} ignored: {exc}; using 'row'")
        return "row"
