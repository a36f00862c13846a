"""Direct access by (partial) lexicographic orders — the paper's main algorithm.

:class:`LexDirectAccess` bundles the whole positive side of Theorems 3.3, 4.1
and 8.21:

1. classification (refuse intractable inputs with an explanation),
2. normalisation (self-joins, repeated variables) and, with FDs, the rewrite to
   the FD-extension,
3. projection elimination (Proposition 2.3),
4. completion of partial orders (Lemma 4.4),
5. construction of the layered join tree (Lemma 3.9),
6. the preprocessing phase (Section 3.1), and
7. logarithmic-time access, constant-time inverted access and the "next
   answer" access of Remark 3.

The preprocessing work happens in the constructor; afterwards the instance
behaves like a read-only sorted sequence of the query answers.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core import access as access_module
from repro.core.atoms import ConjunctiveQuery
from repro.core.orders import LexOrder
from repro.core.snapshot import installed
from repro.engine.database import Database
from repro.exceptions import OutOfBoundsError
from repro.planner import PlanExecutor, QueryPlan, plan as build_plan


class LexDirectAccess:
    """Ranked direct access to CQ answers under a lexicographic order.

    Parameters
    ----------
    query:
        Any conjunctive query (self-joins and projections allowed).
    database:
        The input database instance.
    order:
        A (partial) lexicographic order over free variables.  Variables not in
        the order are tie-broken deterministically by the completion computed
        internally (exposed as :attr:`complete_order`).
    fds:
        Optional :class:`~repro.fds.fd.FDSet` of unary functional dependencies
        the database is promised to satisfy; tractability is then decided on
        the FD-extension (Theorem 8.21) and the database is rewritten
        accordingly.
    enforce_tractability:
        When ``True`` (default) the constructor raises
        :class:`IntractableQueryError` if the (query, order, FDs) combination is
        classified intractable.  Setting it to ``False`` lets callers run the
        algorithm anyway on inputs whose hardness is unknown (e.g. self-joins);
        it still fails if no layered join tree exists.
    backend:
        Storage backend for the preprocessing pipeline (``"row"`` or
        ``"columnar"``); ``None`` keeps the database's own backends.  The
        whole hot path — projections, semi-join reduction, bucket sorting and
        the counting DP — then runs on that backend.
    plan:
        A prebuilt :class:`~repro.planner.plan.QueryPlan` for exactly this
        (query, order, FDs, backend, mode="lex") input — the service's
        prepare path passes the plan it already made; ``None`` plans here.
    shards:
        ``shards > 1`` builds a sharded instance: the reduced database is
        range-partitioned on the leading variable of the completed order,
        one per-shard structure is built per range, and every access
        operation routes by rank through the shard offset table.  Results
        are identical to the monolithic build.  Ignored when a prebuilt
        ``plan`` is passed (the plan's own shard count wins).

    The decision trace is exposed as :attr:`plan` and the measured per-stage
    build statistics of this construction as :attr:`report`.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        order: LexOrder,
        fds=None,
        enforce_tractability: bool = True,
        backend: Optional[str] = None,
        plan: Optional[QueryPlan] = None,
        shards: Optional[int] = None,
    ) -> None:
        self._original_query = query
        self._original_order = order
        if plan is None:
            plan = build_plan(
                query, order, mode="lex", fds=fds, backend=backend, shards=shards,
                enforce_tractability=enforce_tractability,
            )
        self.plan = plan
        self.classification = plan.classification

        built = PlanExecutor(plan, database).build_lex()
        self.report = built.report
        self.complete_order = built.complete_order

        self._bind(built.instance)
        if built.instance is None:
            # Boolean queries: a single (empty) answer iff the body is satisfiable.
            self._boolean_answers: Optional[List[Tuple]] = built.boolean_answers
            self._needs_projection = False
            return
        self._boolean_answers = None
        self._projection = tuple(
            self._instance.query.free_variables.index(v) for v in self._original_query.free_variables
            if v in self._instance.query.free_variables
        )
        # One flag for "the effective head differs from the original head"
        # (FD-extension): the single source of truth for every projection
        # decision below.
        self._needs_projection = (
            self._instance.query.free_variables != self._original_query.free_variables
        )

    @classmethod
    def _rebound(cls, template: "LexDirectAccess", instance) -> "LexDirectAccess":
        """A facade sharing ``template``'s plan and projection config over a
        different preprocessed instance.

        Used by the live-update compaction path, which rebuilds (possibly
        only some shards of) the underlying structure for the same plan and
        must swap it in without re-running the planner or re-deriving the
        projection bookkeeping.  ``instance`` must come from the same plan's
        layered join tree.
        """
        clone = cls.__new__(cls)
        clone.__dict__.update(template.__dict__)
        clone._bind(instance)
        return clone

    def _bind(self, instance) -> None:
        """Bind ``instance`` and choose, once, the reader every access goes
        through: the :class:`~repro.core.snapshot.SnapshotInstance` over the
        image its build installed, or — when the build captured none (no
        NumPy, counts beyond int64) — the instance itself, i.e. the object
        walk of :mod:`repro.core.access`."""
        self._instance = instance
        snapshot = installed(instance)
        self._reader = snapshot.instance() if snapshot is not None else instance

    # ------------------------------------------------------------------
    # Size / iteration
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of answers ``|Q(I)|``."""
        if self._instance is None:
            return len(self._boolean_answers or [])
        return self._instance.count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Tuple]:
        """Iterate over all answers in order (ranked enumeration via direct access)."""
        for k in range(self.count):
            yield self[k]

    # ------------------------------------------------------------------
    # Access operations
    # ------------------------------------------------------------------
    def access(self, k: int) -> Tuple:
        """The ``k``-th answer (0-based) in the lexicographic order."""
        if self._instance is None:
            k = access_module.validate_rank(k)
            answers = self._boolean_answers or []
            if 0 <= k < len(answers):
                return answers[k]
            raise OutOfBoundsError(f"index {k} is out of bounds for {len(answers)} answers")
        raw = access_module.access(self._reader, k)
        return self._project(raw)

    def batch_access(self, ks: Sequence[int]) -> List[Tuple]:
        """The answers at the given ranks, in the given order.

        Semantically ``[self.access(k) for k in ks]``.  A plan with an image
        serves the batch through it: one stable argsort of the ranks, then
        one segmented binary-search probe per layer for the whole batch —
        which is what makes high-throughput serving of many concurrent ranks
        cheap.  Without an image each rank takes the object walk.  The batch
        is validated up front: a single out-of-bounds or non-integer rank
        fails the whole call.
        """
        if self._instance is None:
            return [self.access(k) for k in ks]
        raws = access_module.batch_access(self._reader, ks)
        if not self._needs_projection:
            return raws
        return [self._project(raw) for raw in raws]

    def range_access(self, lo: int, hi: int) -> List[Tuple]:
        """The answers at ranks ``lo ≤ k < hi`` (a contiguous slice, in order).

        Both bounds must be integers with ``0 ≤ lo ≤ hi ≤ count``; otherwise
        :class:`OutOfBoundsError` is raised (unlike slicing, which clamps).
        """
        lo, hi = access_module.validate_range(lo, hi, self.count)
        return self.batch_access(range(lo, hi))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self.batch_access(range(*k.indices(self.count)))
        if k < 0:
            k += self.count
        return self.access(k)

    def inverted_access(self, answer: Sequence) -> int:
        """Index of ``answer`` in the order (Algorithm 2); raises if not an answer."""
        from repro.exceptions import NotAnAnswerError

        if self._instance is None:
            answers = self._boolean_answers or []
            if tuple(answer) in answers:
                return answers.index(tuple(answer))
            raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer")

        if not self._needs_projection:
            return access_module.inverted_access(self._reader, tuple(answer))

        # FD-extended head: the extra (implied) variables of the answer are not
        # known to the caller.  Locate the answer by a next-answer search with
        # the unknown positions open, then verify the hit.
        extended = self._extend_answer(answer, fill_smallest=True)
        k = access_module.next_answer_index(self._reader, extended)
        if k >= self.count or self.access(k) != tuple(answer):
            raise NotAnAnswerError(f"{tuple(answer)!r} is not an answer")
        return k

    def next_answer_index(self, target: Sequence) -> int:
        """Index of the first answer ≥ ``target`` (Remark 3); ``count`` if none."""
        if self._instance is None:
            return 0 if self.count else 0
        extended = self._extend_answer(target, fill_smallest=True)
        return access_module.next_answer_index(self._reader, extended)

    def rank_of_prefix(self, prefix: Sequence) -> int:
        """Number of answers strictly smaller than any answer starting with ``prefix``.

        ``prefix`` assigns values to the first ``len(prefix)`` variables of the
        complete order; the remaining variables are treated as "smallest
        possible".  This powers the enumeration-of-a-projection reduction of
        Lemma 3.12 and is convenient for quantile queries on grouped data.
        """
        if self._instance is None:
            return 0
        order_vars = self.complete_order.variables
        assignment = dict(zip(order_vars, prefix))
        target = []
        for variable in self._instance.query.free_variables:
            if variable in assignment:
                target.append(assignment[variable])
            else:
                target.append(_MINUS_INFINITY)
        return access_module.next_answer_index(self._reader, tuple(target))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _project(self, raw: Tuple) -> Tuple:
        """Project an answer of the effective (possibly FD-extended) query back."""
        if not self._needs_projection:
            return raw
        mapping = dict(zip(self._instance.query.free_variables, raw))
        return tuple(mapping[v] for v in self._original_query.free_variables)

    def _extend_answer(self, answer: Sequence, fill_smallest: bool = False) -> Tuple:
        """Lift an answer of the original query to the effective query's head."""
        effective_free = self._instance.query.free_variables
        original_free = self._original_query.free_variables
        if not self._needs_projection:
            return tuple(answer)
        mapping = dict(zip(original_free, answer))
        extended = []
        for variable in effective_free:
            if variable in mapping:
                extended.append(mapping[variable])
            elif fill_smallest:
                extended.append(_MINUS_INFINITY)
            else:
                # FD-extended variables are functionally determined; recover the
                # value by scanning for the unique completion via next-answer.
                extended.append(_MINUS_INFINITY)
        return tuple(extended)


class _MinusInfinity:
    """A value smaller than every other value (for open-ended prefix searches)."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return True

    def __le__(self, other) -> bool:
        return True

    def __gt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return isinstance(other, _MinusInfinity)

    def __eq__(self, other) -> bool:
        return isinstance(other, _MinusInfinity)

    def __hash__(self) -> int:
        return hash("_MinusInfinity")

    def __repr__(self) -> str:  # pragma: no cover
        return "-∞"


_MINUS_INFINITY = _MinusInfinity()
