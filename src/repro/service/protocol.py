"""The query service's wire protocol: plan specs, fingerprints and JSON I/O.

Everything a client can say to the service is a JSON object; this module is
the single place that turns those objects into library values and back:

* :class:`PlanSpec` — the canonical description of a prepared query: database
  name, query text, order, weights, FDs, mode and backend.  Two specs that
  mean the same plan (whitespace differences, ``LexOrder`` objects vs text,
  FD lists in different orders) canonicalize to the same spec and therefore
  the same :meth:`PlanSpec.fingerprint`, which is the plan-cache key and the
  plan id clients hold on to.
* JSON answer encoding (tuples ↔ lists) and database documents
  (``{"relations": {name: {"attributes": [...], "rows": [...]}}}``) for
  ``repro serve --db name=path.json`` and the registration endpoint.
* A newline-delimited request-file reader for the ``repro client`` runner.

The protocol is deliberately value-typed: every spec component is a string or
a tuple of strings, so fingerprints are stable across processes and restarts.
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.atoms import ConjunctiveQuery
from repro.core.orders import LexOrder, Weights
from repro.core.parser import parse_fds, parse_order, parse_query
from repro.core.snapshot import AnswerPage
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.backends import BackendUnavailableError
from repro.exceptions import (
    IntractableQueryError,
    NotAnAnswerError,
    OutOfBoundsError,
    ReproError,
    WeightError,
)
from repro.fds.fd import FDSet

#: Plan modes the service understands (see :class:`repro.service.QueryService`).
MODES = ("lex", "sum", "enum")

#: Error code → HTTP status, shared by the master HTTP front-end and the
#: worker-pool processes (both encode responses, so both need the mapping).
#: Anything unknown maps to 400.
STATUS_BY_CODE: Dict[str, int] = {
    "bad_request": 400,
    "unknown_database": 404,
    "unknown_plan": 404,
    "unknown_trace": 404,
    "out_of_bounds": 404,
    "not_an_answer": 404,
    "timeout": 408,
    "length_required": 411,
    "payload_too_large": 413,
    "unsupported": 422,
    "intractable_query": 422,
    "internal": 500,
    "not_implemented": 501,
    "overloaded": 503,
}

#: Reserved request key carrying trace context (``{"id": <trace id>}``) from
#: the master into a pool worker.  Workers pop it before executing, so the
#: response bytes stay identical whether or not tracing rode along; the key's
#: leading underscore keeps it out of the client-facing request vocabulary.
TRACE_KEY = "_trace"


class ServiceError(ReproError):
    """A request-level error with a machine-readable code.

    ``code`` is one of ``bad_request``, ``unknown_database``, ``unknown_plan``,
    ``unsupported`` or ``overloaded``; the HTTP front-end maps codes to status
    codes (:data:`STATUS_BY_CODE`).  ``retry_after`` (seconds) travels with
    ``overloaded`` responses and becomes the HTTP ``Retry-After`` header.
    """

    def __init__(self, code: str, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


def error_response(code: str, message: str,
                   retry_after: Optional[float] = None) -> Dict[str, object]:
    """The wire shape of a failed request (shared by every front-end)."""
    error: Dict[str, object] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = round(float(retry_after), 3)
    return {"ok": False, "error": error}


def error_for(exc: Exception) -> Dict[str, object]:
    """The wire error for whatever serving a request raised — one mapping for
    the master's ``execute`` and the pool workers, so no two serving paths
    can report the same failure differently."""
    if isinstance(exc, ServiceError):
        return error_response(exc.code, str(exc), retry_after=exc.retry_after)
    if isinstance(exc, OutOfBoundsError):
        return error_response("out_of_bounds", str(exc))
    if isinstance(exc, NotAnAnswerError):
        # KeyError's str() quotes the message; unwrap the original text.
        return error_response("not_an_answer", str(exc.args[0] if exc.args else exc))
    if isinstance(exc, IntractableQueryError):
        return error_response("intractable_query", str(exc))
    if isinstance(exc, (BackendUnavailableError, ReproError)):
        # BackendUnavailableError: a client-selected backend that doesn't
        # exist / isn't installed.
        return error_response("bad_request", str(exc))
    return error_response("internal", f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
def canonical_query(query: Union[str, ConjunctiveQuery]) -> str:
    """The canonical text of a query (parse + re-serialize for strings)."""
    if isinstance(query, str):
        query = parse_query(query)
    head = ", ".join(query.free_variables)
    body = ", ".join(
        f"{atom.relation}({', '.join(atom.variables)})" for atom in query.atoms
    )
    return f"{query.name}({head}) :- {body}"


def canonical_order(order: Union[None, str, LexOrder]) -> Optional[str]:
    """The canonical ``"x, y desc, z"`` text of a lexicographic order."""
    if order is None:
        return None
    if isinstance(order, str):
        order = parse_order(order)
    return ", ".join(
        f"{v} desc" if order.is_descending(v) else v for v in order.variables
    )


def canonical_fds(fds: Union[None, Sequence[str], FDSet]) -> Tuple[str, ...]:
    """FDs as a sorted tuple of ``"R: x -> y"`` strings (order-insensitive)."""
    if not fds:
        return ()
    if not isinstance(fds, FDSet):
        fds = parse_fds(list(fds))
    return tuple(sorted(f"{fd.relation}: {fd.lhs} -> {fd.rhs}" for fd in fds))


def canonical_weights(spec) -> Optional[str]:
    """Canonical text of a weights spec (``None`` ≡ identity weights).

    Accepted specs: ``None`` / ``"identity"`` (every variable weighs its own
    value) or a mapping ``{"mappings": {var: [[value, weight], ...]},
    "default": float}``; value/weight pairs are JSON values so the spec
    round-trips through the HTTP layer.  Every weight is checked here, at
    ``prepare``: a spec that :class:`Weights` rejects raises ``bad_request``.
    """
    if spec is None or spec == "identity":
        return None
    if not isinstance(spec, Mapping):
        raise ServiceError(
            "bad_request",
            f"weights must be 'identity' or a mapping spec, got {type(spec).__name__}",
        )
    mappings = spec.get("mappings", {})
    if not isinstance(mappings, Mapping):
        raise ServiceError("bad_request", "weights 'mappings' must be an object")
    normalized = {
        "mappings": {
            variable: sorted(
                ([value, weight] for value, weight in pairs),
                key=lambda pair: json.dumps(pair[0], sort_keys=True),
            )
            for variable, pairs in sorted(mappings.items())
        },
        "default": spec.get("default", 0.0),
    }
    try:
        text = json.dumps(normalized, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ServiceError("bad_request", f"weights spec is not JSON-representable: {exc}")
    try:  # a weight that cannot rank (a string, a bool, NaN) is the client's error
        build_weights(text)
    except WeightError as exc:
        raise ServiceError("bad_request", str(exc)) from None
    return text


def build_order(canonical: Optional[str]) -> Optional[LexOrder]:
    return parse_order(canonical) if canonical else None


def build_weights(canonical: Optional[str]) -> Weights:
    if canonical is None:
        return Weights.identity()
    spec = json.loads(canonical)
    weights = Weights(default=spec.get("default", 0.0))
    for variable, pairs in spec.get("mappings", {}).items():
        for value, weight in pairs:
            weights.set_weight(variable, value, weight)
    return weights


def build_fds(canonical: Tuple[str, ...]) -> Optional[FDSet]:
    return parse_fds(list(canonical)) if canonical else None


# ----------------------------------------------------------------------
# Plan specs
# ----------------------------------------------------------------------
#: Fingerprints memoized across equal spec values (specs are value objects and
#: the digest is deterministic, so the dict is safely shared; it is cleared
#: wholesale at the bound rather than LRU-evicted — recomputing is cheap).
_FINGERPRINT_MEMO: Dict["PlanSpec", str] = {}
_FINGERPRINT_MEMO_BOUND = 4096


@dataclass(frozen=True)
class PlanSpec:
    """The canonical, hashable description of one prepared query."""

    database: str
    query: str
    mode: str = "lex"
    order: Optional[str] = None
    weights: Optional[str] = None
    fds: Tuple[str, ...] = ()
    backend: Optional[str] = None
    #: Requested shard count; ``None`` means "the service's default".  An
    #: explicit ``1`` is kept distinct from ``None`` — it is the client's way
    #: of opting *out* of a service-level default shard count.
    shards: Optional[int] = None

    @classmethod
    def create(
        cls,
        database: str,
        query: Union[str, ConjunctiveQuery],
        mode: str = "lex",
        order: Union[None, str, LexOrder] = None,
        weights=None,
        fds: Union[None, Sequence[str], FDSet] = None,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> "PlanSpec":
        """Canonicalize user-facing values into a spec, validating the mode."""
        if mode not in MODES:
            raise ServiceError(
                "bad_request", f"unknown mode {mode!r}; expected one of {MODES}"
            )
        if backend is not None and not isinstance(backend, str):
            raise ServiceError("bad_request", "backend must be a string or null")
        if shards is not None:
            if isinstance(shards, bool) or not isinstance(shards, int):
                raise ServiceError("bad_request", "'shards' must be an integer or null")
            if shards < 1:
                raise ServiceError("bad_request", f"'shards' must be >= 1, got {shards}")
            if mode == "enum":
                raise ServiceError(
                    "bad_request", "mode 'enum' does not support sharded builds"
                )
        # Reject spec fields the mode would silently ignore: a client sending
        # weights to a lex plan (or FDs to an enumeration plan) believes they
        # took effect, and the ignored field would still split the fingerprint.
        if mode != "lex" and order is not None:
            raise ServiceError(
                "bad_request", f"mode {mode!r} ranks by SUM weights; 'order' does not apply"
            )
        if mode == "lex" and weights is not None:
            raise ServiceError(
                "bad_request", "mode 'lex' ranks lexicographically; 'weights' does not apply"
            )
        if mode == "enum" and fds:
            raise ServiceError(
                "bad_request", "mode 'enum' does not support functional dependencies"
            )
        query_text = canonical_query(query)
        order_text = canonical_order(order)
        if order_text is not None and mode == "lex":
            # The ascending head order IS the default: normalize it to None so
            # "no order" and the explicit spelling share one fingerprint/plan.
            head = parse_query(query_text).free_variables
            if order_text == ", ".join(head):
                order_text = None
        return cls(
            database=database,
            query=query_text,
            mode=mode,
            order=order_text,
            weights=canonical_weights(weights),
            fds=canonical_fds(fds),
            backend=backend,
            shards=shards,
        )

    @classmethod
    def from_request(cls, request: Mapping) -> "PlanSpec":
        """Build a spec from a request object's plan-describing fields."""
        database = request.get("db") or request.get("database")
        if not isinstance(database, str):
            raise ServiceError("bad_request", "request needs a 'db' database name")
        query = request.get("query")
        if not isinstance(query, str):
            raise ServiceError("bad_request", "request needs a 'query' string")
        fds = request.get("fds")
        if fds is not None and not isinstance(fds, (list, tuple)):
            raise ServiceError("bad_request", "'fds' must be a list of FD strings")
        try:
            return cls.create(
                database=database,
                query=query,
                mode=request.get("mode", "lex"),
                order=request.get("order"),
                weights=request.get("weights"),
                fds=fds,
                backend=request.get("backend"),
                shards=request.get("shards"),
            )
        except ReproError:
            raise
        except Exception as exc:  # parser errors carry their own message
            raise ServiceError("bad_request", str(exc))

    @cached_property
    def query_plan(self):
        """The planner's :class:`~repro.planner.plan.QueryPlan` for this spec.

        Non-strict and non-enforcing: intractable or structurally impossible
        specs still yield a plan (whose classification/``error`` says why), so
        fingerprinting never raises for them — enforcement happens at build
        time with the historical exceptions.  ``None`` for modes the planner
        does not cover (``"enum"``).  Cached on the (immutable) spec, so the
        fingerprint and the service's build path plan at most once per spec.
        """
        if self.mode not in ("lex", "sum"):
            return None
        from repro.planner import plan as build_plan

        return build_plan(
            self.query,
            self.order,
            mode=self.mode,
            fds=self.fds,
            backend=self.backend,
            shards=self.shards,
            enforce_tractability=False,
            strict=False,
        )

    @cached_property
    def fingerprint(self) -> str:
        """A stable hex id of the spec — the plan id clients refer to.

        Derived from the *logical plan* where the planner covers the mode:
        the planner's fingerprint already canonicalizes the query, order and
        FD listing and folds in the classification verdict and join-tree
        shape, so two specs meaning the same plan share an id.  The database
        name and the weights (which the structural plan is agnostic to) are
        hashed alongside.  Cached on the instance *and* memoized across equal
        specs (requests carrying inline specs build a fresh ``PlanSpec`` each
        time; planning again on the serving hot path would be wasteful).
        """
        memoized = _FINGERPRINT_MEMO.get(self)
        if memoized is not None:
            return memoized
        payload: Dict[str, object] = {
            "database": self.database,
            "mode": self.mode,
            "weights": self.weights,
            "backend": self.backend,
            "shards": self.shards,
        }
        try:
            plan = self.query_plan
        except ReproError:
            plan = None
        if plan is not None:
            payload["plan"] = plan.fingerprint
        else:
            payload.update(query=self.query, order=self.order, fds=list(self.fds))
        encoded = json.dumps(payload, sort_keys=True)
        digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]
        if len(_FINGERPRINT_MEMO) >= _FINGERPRINT_MEMO_BOUND:
            _FINGERPRINT_MEMO.clear()
        _FINGERPRINT_MEMO[self] = digest
        return digest

    def to_dict(self) -> Dict[str, object]:
        return {
            "db": self.database,
            "query": self.query,
            "mode": self.mode,
            "order": self.order,
            "weights": self.weights,
            "fds": list(self.fds),
            "backend": self.backend,
            "shards": self.shards,
            "plan": self.fingerprint,
        }


# ----------------------------------------------------------------------
# Answers and databases as JSON
# ----------------------------------------------------------------------
def encode_answer(answer: Tuple) -> List:
    """An answer tuple as a JSON array (values must be JSON-representable)."""
    return list(answer)


def encode_answers(answers):
    """A batched read's answers as JSON arrays.  A columnar
    :class:`~repro.core.snapshot.AnswerPage` (a pool worker's reads) passes
    through: :func:`repro.service.dispatch.encode_response` writes its rows."""
    if isinstance(answers, AnswerPage):
        return answers
    return list(map(list, answers))


def decode_answer(payload) -> Tuple:
    """A client-provided answer (JSON array) as the library's tuple form."""
    if not isinstance(payload, (list, tuple)):
        raise ServiceError("bad_request", "'answer' must be an array")
    return tuple(payload)


def decode_rows(payload) -> List[Tuple]:
    """Client-provided mutation rows (a JSON array of row arrays) as tuples.

    Only the *shape* is validated here; per-row arity and hashability checks
    happen against the target relation's schema in
    :func:`repro.live.delta.validate_rows`, so the error message can name the
    relation and its attributes.
    """
    if not isinstance(payload, (list, tuple)):
        raise ServiceError("bad_request", "'rows' must be an array of row arrays")
    rows: List[Tuple] = []
    for row in payload:
        if not isinstance(row, (list, tuple)):
            raise ServiceError(
                "bad_request", f"'rows' entries must be arrays, got {row!r}"
            )
        rows.append(tuple(row))
    return rows


def database_to_json(database: Database) -> Dict[str, object]:
    """A database as a JSON document (inverse of :func:`database_from_json`)."""
    return {
        "relations": {
            relation.name: {
                "attributes": list(relation.attributes),
                "rows": [list(row) for row in relation.rows],
            }
            for relation in database
        }
    }


@contextmanager
def _gc_paused():
    """Pause the cyclic GC, restoring the state found on entry.

    A load allocates a list and a tuple per row but creates no reference
    cycles, so the collector's passes over them only ever find live
    objects.  Nested or concurrent pauses leave the GC enabled as long as
    it was enabled when the outermost one began.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def database_from_json(document: Mapping, backend: Optional[str] = None) -> Database:
    """Build a :class:`Database` from ``{"relations": {name: {...}}}``.

    Rows must be arrays of values, as for the mutation ops
    (:func:`decode_rows`); anything else answers ``bad_request``.
    """
    relations_doc = document.get("relations")
    if not isinstance(relations_doc, Mapping):
        raise ServiceError("bad_request", "database document needs a 'relations' object")
    relations = []
    with _gc_paused():
        for name, spec in relations_doc.items():
            if not isinstance(spec, Mapping):
                raise ServiceError("bad_request", f"relation {name!r} must be an object")
            attributes = spec.get("attributes")
            if not isinstance(attributes, (list, tuple)):
                raise ServiceError("bad_request", f"relation {name!r} needs 'attributes'")
            try:  # the rows list is a temporary: the relation keeps only its storage
                relations.append(Relation(
                    name, tuple(attributes), decode_rows(spec.get("rows", [])), backend=backend
                ))
            except ServiceError as exc:
                raise ServiceError("bad_request", f"relation {name!r}: {exc}") from None
            except ReproError:
                raise
            except Exception as exc:
                raise ServiceError("bad_request", f"relation {name!r}: {exc}")
    return Database(relations)


def load_database(path: str, backend: Optional[str] = None) -> Database:
    """Load a database JSON document from a file (parse and encode run with
    the cyclic GC paused, see :func:`_gc_paused`)."""
    with _gc_paused():
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        return database_from_json(document, backend=backend)


# ----------------------------------------------------------------------
# Request files (the `repro client` runner)
# ----------------------------------------------------------------------
def read_request_lines(lines: Iterable[str]) -> Iterator[Mapping]:
    """Parse newline-delimited JSON requests, skipping blanks and ``#`` comments."""
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            request = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServiceError("bad_request", f"request line {number}: invalid JSON ({exc})")
        if not isinstance(request, Mapping):
            raise ServiceError("bad_request", f"request line {number}: expected an object")
        yield request
