"""Direct access by SUM orders for the tractable class (Theorem 5.1 / Lemma 5.9).

Direct access by the sum of attribute weights with the paper's guarantees is
possible exactly for acyclic CQs in which a single atom contains every free
variable.  The algorithm is simple: remove dangling tuples with a semi-join
reduction, project the covering atom onto the free variables, compute each
answer's weight, sort once, and serve accesses from the sorted array in
constant time.

The weigh-and-sort runs over the projected columns' dictionary codes
(:func:`repro.planner.executor.order_by_weight`): each distinct value that
occurs is weighed once and ranked by its ``repr`` once, the per-row totals are
summed column by column, and one stable ``lexsort`` (weight, then the answer's
``repr`` ranks) orders the codes.  The built plan stays flat: the answers in
rank order are one ``count × width`` object array whose cells point into the
columns' shared domains, and their weights one int64 / float64 / object
column, so no Python object is kept per answer.  A read takes one row, one
slice or one fancy index of that array and decodes only what it returns.
Without NumPy the array is a list of tuples behind the same read methods.

Inverted access (answer → index) keeps no per-answer index either: the probe
is weighed as the build weighed its answers, a bisection of the weight column
finds the run of answers of that weight, and the first row of the run equal
to the probe is its position.

With unary functional dependencies the same construction is applied to the
FD-extension (Theorem 8.9): a query that is not tractable on its own may become
tractable because the extension pulls all free variables into one atom
(Example 8.3).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.atoms import ConjunctiveQuery
from repro.core.orders import Weights
from repro.core.access import validate_range, validate_rank, validate_ranks
from repro.engine.database import Database
from repro.exceptions import NotAnAnswerError, OutOfBoundsError, WeightError
from repro.planner import PlanExecutor, QueryPlan, plan as build_plan

#: Rows decoded at a time when iterating or scanning the answer array.
_BLOCK = 4096


def _as_tuples(rows) -> List[Tuple]:
    """Rows taken from the answer array (a slice or a fancy index) as tuples.

    The matrix is decoded column by column and zipped, so a page allocates
    one list per column rather than one per row.
    """
    return rows if isinstance(rows, list) else list(zip(*rows.T.tolist()))


class _Scalars:
    """A NumPy weight column indexed as exact Python scalars (``item``), so
    ``bisect`` compares weights as it compares a list's, never as NumPy
    scalars (an int64 meeting a float would round to float64)."""

    __slots__ = ("_column",)

    def __init__(self, column) -> None:
        self._column = column

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, k: int):
        return self._column.item(k)


def _first_equal(rows, lo: int, hi: int, key: Tuple) -> Optional[int]:
    """The first position in ``[lo, hi)`` whose row equals ``key``, else ``None``.

    Rows are compared as a dict compares its keys — the stored row on the
    left, identity before ``==`` — and decoded a block at a time, so a long
    run of equal weights is never decoded whole.
    """
    if isinstance(rows, list):
        try:
            return rows.index(key, lo, hi)
        except ValueError:
            return None
    probe = list(key)
    for start in range(lo, hi, _BLOCK):
        try:
            return start + rows[start:min(start + _BLOCK, hi)].tolist().index(probe)
        except ValueError:
            pass
    return None


class SumDirectAccess:
    """Ranked direct access to CQ answers ordered by sum of attribute weights.

    Parameters mirror :class:`~repro.core.direct_access.LexDirectAccess`; the
    ``weights`` argument supplies the per-variable weight functions of the SUM
    order.  Ties between equal-weight answers are broken deterministically by
    the answer tuples themselves so that repeated accesses are consistent and
    inverted access is well defined.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        weights: Optional[Weights] = None,
        fds=None,
        enforce_tractability: bool = True,
        backend: Optional[str] = None,
        plan: Optional[QueryPlan] = None,
    ) -> None:
        self._original_query = query
        self.weights = weights if weights is not None else Weights.identity()
        if plan is None:
            plan = build_plan(
                query, mode="sum", fds=fds, backend=backend,
                enforce_tractability=enforce_tractability,
            )
        self.plan = plan
        self.classification = plan.classification

        built = PlanExecutor(plan, database).build_sum(self.weights)
        self.report = built.report
        self._rows = built.answers
        self._summands = built.summands
        column = built.weights_sorted
        self._weights = column if isinstance(column, list) else _Scalars(column)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of answers ``|Q(I)|``."""
        return len(self._rows)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Tuple]:
        for lo in range(0, self.count, _BLOCK):
            yield from _as_tuples(self._rows[lo:lo + _BLOCK])

    def access(self, k: int) -> Tuple:
        """The ``k``-th answer (0-based) by non-decreasing weight."""
        k = validate_rank(k)
        if k < 0 or k >= self.count:
            raise OutOfBoundsError(f"index {k} is out of bounds for {self.count} answers")
        row = self._rows[k]
        return row if isinstance(row, tuple) else tuple(row.tolist())

    def batch_access(self, ks: Sequence[int]) -> List[Tuple]:
        """The answers at the given ranks (all validated before any is served).

        SUM access is already O(1) per rank on the sorted answer array, so
        the batch form exists for API symmetry with
        :meth:`~repro.core.direct_access.LexDirectAccess.batch_access` (and
        for the serving front-end, which speaks batches).
        """
        ks = validate_ranks(ks, self.count)
        if isinstance(self._rows, list):
            return [self._rows[k] for k in ks]
        return _as_tuples(self._rows[ks])

    def range_access(self, lo: int, hi: int) -> List[Tuple]:
        """The answers at ranks ``lo ≤ k < hi``; bounds must be within range."""
        lo, hi = validate_range(lo, hi, self.count)
        return _as_tuples(self._rows[lo:hi])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _as_tuples(self._rows[k])
        if k < 0:
            k += self.count
        return self.access(k)

    def answer_weight(self, k: int) -> float:
        """The weight of the ``k``-th answer.

        Ranks are validated exactly like :meth:`access` validates them: bools
        and floats raise ``TypeError`` (``True`` must not silently read the
        weight at index 1), out-of-bounds ranks raise
        :class:`OutOfBoundsError` naming the rank and the answer count.
        """
        k = validate_rank(k)
        if k < 0 or k >= self.count:
            raise OutOfBoundsError(f"index {k} is out of bounds for {self.count} answers")
        return self._weights[k]

    def inverted_access(self, answer: Sequence) -> int:
        """Index of ``answer`` under this structure's (tie-broken) SUM order.

        The probe is weighed as the build weighed its answers and the weight
        column bisected to the run of that weight; the probe's index is the
        first row of the run equal to it, so ``1`` / ``True`` / ``1.0``
        alias as in a dict and a repeated answer keeps its first position.
        When the weight depends on variables outside the answer (an
        FD-extended plan) every row is in the run.  A probe no answer can
        equal — an unhashable value, one its weights cannot weigh — raises
        :class:`NotAnAnswerError` like any other non-answer.
        """
        key = tuple(answer)
        lo, hi = 0, self.count
        if self._summands is not None:
            weight = self._probe_weight(key)
            if weight is None:
                raise NotAnAnswerError(f"{key!r} is not an answer")
            lo = bisect_left(self._weights, weight)
            hi = bisect_right(self._weights, weight, lo)
        position = _first_equal(self._rows, lo, hi, key)
        if position is None:
            raise NotAnAnswerError(f"{key!r} is not an answer")
        return position

    def _probe_weight(self, key: Tuple):
        """The total the build gives an answer equal to ``key``, summed in the
        build's order, or ``None`` when no answer can equal ``key``."""
        if len(key) != len(self._summands):
            return None
        total = 0
        for variable, position in self._summands:
            value = key[position]
            if isinstance(value, bool):
                # ``True == 1`` and both hash alike, so a mapping weighs them
                # alike; identity weights refuse a bool but not its int.
                value = int(value)
            try:
                total += self.weights.weight(variable, value)
            except (TypeError, WeightError):
                # Unhashable, or unweighable: every stored value was weighed,
                # so no stored value equals it.
                return None
        return total

    def weight_lookup(self, weight: float) -> Optional[int]:
        """First index holding an answer of exactly the given weight (Definition 5.5).

        Returns ``None`` when no answer has that weight.  Implemented by binary
        search over the sorted weight column, matching Lemma 5.6.
        """
        position = bisect_left(self._weights, weight)
        if position < self.count and self._weights[position] == weight:
            return position
        return None
