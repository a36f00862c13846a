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
``repr`` ranks) orders the codes.  Answers are decoded once, already in rank
order.  Inverted access (answer → index) uses a dict built eagerly in C from
the sorted answers, keeping each answer's first position.

With unary functional dependencies the same construction is applied to the
FD-extension (Theorem 8.9): a query that is not tractable on its own may become
tractable because the extension pulls all free variables into one atom
(Example 8.3).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.atoms import ConjunctiveQuery
from repro.core.orders import Weights
from repro.core.access import validate_range, validate_rank, validate_ranks
from repro.engine.database import Database
from repro.exceptions import NotAnAnswerError, OutOfBoundsError
from repro.planner import PlanExecutor, QueryPlan, plan as build_plan


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
        workers: Optional[int] = None,
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

        built = PlanExecutor(plan, database, workers=workers).build_sum(self.weights)
        self.report = built.report
        self._answers: List[Tuple] = built.answers
        self._weights_sorted: List[float] = built.weights_sorted
        # Reversed so that a repeated answer keeps its first position.
        count = len(self._answers)
        self._index_of: Dict[Tuple, int] = dict(
            zip(reversed(self._answers), range(count - 1, -1, -1)))

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of answers ``|Q(I)|``."""
        return len(self._answers)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._answers)

    def access(self, k: int) -> Tuple:
        """The ``k``-th answer (0-based) by non-decreasing weight."""
        k = validate_rank(k)
        if k < 0 or k >= self.count:
            raise OutOfBoundsError(f"index {k} is out of bounds for {self.count} answers")
        return self._answers[k]

    def batch_access(self, ks: Sequence[int]) -> List[Tuple]:
        """The answers at the given ranks (all validated before any is served).

        SUM access is already O(1) per rank on the sorted answer array, so
        the batch form exists for API symmetry with
        :meth:`~repro.core.direct_access.LexDirectAccess.batch_access` (and
        for the serving front-end, which speaks batches).
        """
        return [self._answers[k] for k in validate_ranks(ks, self.count)]

    def range_access(self, lo: int, hi: int) -> List[Tuple]:
        """The answers at ranks ``lo ≤ k < hi``; bounds must be within range."""
        lo, hi = validate_range(lo, hi, self.count)
        return list(self._answers[lo:hi])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self._answers[k]
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
        return self._weights_sorted[k]

    def inverted_access(self, answer: Sequence) -> int:
        """Index of ``answer`` under this structure's (tie-broken) SUM order."""
        key = tuple(answer)
        if key not in self._index_of:
            raise NotAnAnswerError(f"{key!r} is not an answer")
        return self._index_of[key]

    def weight_lookup(self, weight: float) -> Optional[int]:
        """First index holding an answer of exactly the given weight (Definition 5.5).

        Returns ``None`` when no answer has that weight.  Implemented by binary
        search over the sorted weight array, matching Lemma 5.6.
        """
        from bisect import bisect_left

        position = bisect_left(self._weights_sorted, weight)
        if position < self.count and self._weights_sorted[position] == weight:
            return position
        return None
