"""``PlanExecutor`` — runs a :class:`~repro.planner.plan.QueryPlan` on data.

The executor is the single place that applies a plan's decisions to a concrete
database: backend conversion, the FD database rewrite (Lemma 8.5),
normalisation, projection elimination, and then the mode-specific build —
the layered preprocessing for LEX direct access, the reduce-project-sort
pipeline for SUM direct access, or the per-variable selection walks.

Every stage is timed through one funnel (:func:`record_stage` via the
:func:`_stage` context manager): the measurement still lands in the
:class:`~repro.planner.plan.ExecutionReport` attached to the plan
(``plan.stats``, what ``repro explain`` shows), and the same measurement is
emitted as a trace span on the calling request's trace and as an observation
of the ``repro_build_stage_seconds{stage}`` histogram — one instrumentation
point, three consumers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.orders import LexOrder, Weights
from repro.core.preprocessing import preprocess
from repro.core.reduction import eliminate_projections, reduce_database_over_query
from repro.engine.backends.columnar import ColumnarStorage
from repro.engine.database import Database
from repro.exceptions import OutOfBoundsError, QueryStructureError
from repro.obs import BUILD_STAGE_SECONDS, PLAN_BUILDS, TRACER
from repro.obs.profile import (
    build_memory,
    reset_stage_peak,
    stage_memory_delta,
    stage_memory_probe,
)
from repro.planner.plan import ExecutionReport, QueryPlan

try:  # NumPy is optional; without it the SUM sort runs on Python lists.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None


def record_stage(report: ExecutionReport, name: str, seconds: float,
                 rows: Optional[int] = None,
                 mem_bytes: Optional[int] = None,
                 mem_peak: Optional[int] = None) -> None:
    """Record one measured build stage everywhere it is consumed.

    The historical report (``plan.stats``), the build-stage latency
    histogram, and — when the calling thread is inside a request trace — a
    completed child span.  This is also the ``on_stage`` callback handed to
    the preprocessing/sharding builders, so their internally timed stages
    surface identically to the executor's own.  ``mem_bytes``/``mem_peak``
    carry per-stage tracemalloc attribution when a build runs under
    :func:`repro.obs.profile.build_memory`.
    """
    report.record(name, seconds, rows, mem_bytes, mem_peak)
    BUILD_STAGE_SECONDS.observe(seconds, (name,))
    TRACER.event(f"stage:{name}", seconds, rows=rows)


class _StageHandle:
    """Mutable row count a ``_stage`` block fills in before exiting."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: Optional[int] = None


@contextmanager
def _stage(report: ExecutionReport, name: str):
    handle = _StageHandle()
    # Memory probes are no-ops unless tracemalloc is tracing (gated by
    # build_memory around a whole build), so the common path pays nothing.
    before = stage_memory_probe()
    if before is not None:
        reset_stage_peak()
    started = time.perf_counter()
    yield handle
    seconds = time.perf_counter() - started
    delta = stage_memory_delta(before)
    if delta is None:
        record_stage(report, name, seconds, handle.rows)
    else:
        record_stage(report, name, seconds, handle.rows,
                     mem_bytes=delta[0], mem_peak=delta[1])


@dataclass
class LexBuild:
    """The built structures of a LEX direct-access plan.

    ``instance`` is a :class:`PreprocessedInstance` for monolithic builds or a
    :class:`~repro.core.sharding.ShardedInstance` when the plan asked for
    ``shards > 1``; both serve the same access operations through
    :mod:`repro.core.access`.
    """

    instance: Optional[object]
    boolean_answers: Optional[List[Tuple]]
    complete_order: LexOrder
    report: ExecutionReport


@dataclass
class SumBuild:
    """The built structures of a SUM direct-access plan, as flat columns.

    ``answers`` holds the head values in rank order (weight, then the
    deterministic ``repr`` tie-break).  With NumPy it is one ``count × width``
    object array whose cells point into the projected columns' domains, so no
    value is copied and no Python object is kept per answer; without NumPy
    (and for a Boolean plan's at most one ``()``) it is a list of tuples.
    ``weights_sorted`` aligns with it: an int64 / float64 / object column, or
    a list.  ``summands`` pairs every weighed variable with the answer
    position holding its value, in the order the build sums them, so an
    answer's total can be recomputed from the answer alone; it is ``None``
    when a weighed variable is not in the answer (an FD-extended plan).
    """

    answers: Sequence
    weights_sorted: Sequence
    report: ExecutionReport
    summands: Optional[Tuple[Tuple[str, int], ...]] = None


# ----------------------------------------------------------------------
# Lemma 5.9's weigh-and-sort, over dictionary codes
# ----------------------------------------------------------------------
#: Integer totals stay in int64 while the summed per-column maxima fit.
_INT64_LIMIT = 2 ** 63


class _CodedColumn(NamedTuple):
    """One answer column as dictionary codes.

    ``present`` are the codes some row uses and ``values`` their decoded
    values, in code order — the only values the build weighs and ranks.
    """

    codes: Sequence[int]
    domain: Sequence
    present: Sequence[int]
    values: List


def _coded_columns(storage, width: int) -> List[_CodedColumn]:
    """The columns of ``storage`` as :class:`_CodedColumn`.

    Columnar storage already holds codes, but a projection shares the
    *unreduced* domains, so values no row refers to (dangling ones) are
    masked out and never weighed.  Row storage is coded here, once, keyed by
    ``repr`` as well as by value so that ``1`` / ``True`` / ``1.0`` and
    ``0.0`` / ``-0.0`` keep codes of their own.
    """
    if isinstance(storage, ColumnarStorage):
        coded = []
        for codes, domain in zip(storage.codes, storage.domains):
            used = _np.zeros(len(domain), dtype=bool)
            used[codes] = True
            present = _np.flatnonzero(used)
            coded.append(_CodedColumn(codes, domain, present, domain[present].tolist()))
        return coded
    rows = storage.materialize()
    coded = []
    for position in range(width):
        index: dict = {}
        codes = [index.setdefault((repr(row[position]), row[position]), len(index))
                 for row in rows]
        values = [value for _, value in index]
        if _np is None:
            coded.append(_CodedColumn(codes, values, range(len(values)), values))
            continue
        domain = _np.empty(len(values), dtype=object)
        for code, value in enumerate(values):
            domain[code] = value
        coded.append(_CodedColumn(_np.asarray(codes, dtype=_np.int64), domain,
                                  _np.arange(len(values)), values))
    return coded


def _repr_ranks(values: Sequence):
    """Dense rank of each value's ``repr`` among ``values`` (equal text, equal rank)."""
    texts = list(map(repr, values))
    # NumPy's fixed-width strings order by code point, as Python's do, but
    # drop trailing NULs; text holding a NUL takes the Python sort instead.
    if _np is not None and "\x00" not in "".join(texts):
        return _np.unique(_np.array(texts), return_inverse=True)[1]
    rank = {text: position for position, text in enumerate(sorted(set(texts)))}
    return [rank[text] for text in texts]


def _total_dtype(weighed: Sequence[Sequence]):
    """int64 / float64 when exact, else object (Python ``+``, big ints, mixes)."""
    types = set().union(*(map(type, column) for column in weighed))
    if types <= {int} and sum(
            max(map(abs, column), default=0) for column in weighed) < _INT64_LIMIT:
        return _np.int64
    if types <= {float}:
        return _np.float64
    return object


def _per_code(column: _CodedColumn, values: Sequence, dtype):
    """A lookup table over ``column``'s codes: ``values`` at its present codes."""
    table = _np.zeros(len(column.domain), dtype=dtype)
    table[column.present] = values
    return table


def order_by_weight(storage, variables: Sequence[str], head: Sequence[int],
                    weights: Weights) -> Tuple[Sequence, Sequence]:
    """The answers of ``storage`` sorted by SUM weight, and their weights.

    ``storage`` holds the distinct projected answer rows over ``variables``;
    ``head`` lists the positions that form the answer tuple (the original
    free variables, in order).  The ranking is exactly what sorting the rows
    by ``(weights.answer_weight(variables, row), tuple(map(repr, answer)))``
    yields, equal value for value and type, ties in row order — but each
    distinct value is weighed and ``repr``-ranked once, and the per-row work
    is integer codes: totals summed column by column from ``0`` (as ``sum``
    does, so ``-0.0`` totals come out ``0.0``), then one stable sort keyed by
    the total and the head's tie ranks.

    With NumPy the result stays flat: the answers are one ``n × len(head)``
    object array gathered from the columns' domains by the sorted codes (its
    cells are the domains' own objects), the weights one int64 / float64 /
    object column.  Without NumPy they are a list of tuples and a list.
    """
    n = len(storage)
    columns = _coded_columns(storage, len(variables))
    weighed = [weights.value_weights(variable, column.values)
               for variable, column in zip(variables, columns)]
    # Ties are broken by the head's repr ranks, column by column; a column
    # whose values are all distinct settles every tie, so ranks stop there.
    tied: List[Tuple[_CodedColumn, Sequence[int]]] = []
    for column in (columns[p] for p in head):
        tied.append((column, _repr_ranks(column.values)))
        if len(column.values) == n:
            break
    answer_columns = [columns[p] for p in head]

    if _np is None:
        # Without NumPy every column is row-coded: all its codes are present,
        # so the per-value lists index directly by code.
        total = [0] * n
        for column, column_weights in zip(columns, weighed):
            total = [t + column_weights[c] for t, c in zip(total, column.codes)]
        keys = list(zip(total, *([ranks[c] for c in column.codes]
                                 for column, ranks in tied)))
        order = sorted(range(n), key=keys.__getitem__)
        decoded = [[column.domain[column.codes[i]] for i in order]
                   for column in answer_columns]
        return list(zip(*decoded)), [total[i] for i in order]

    dtype = _total_dtype(weighed)
    total = _np.zeros(n, dtype=dtype)
    for column, column_weights in zip(columns, weighed):
        total += _per_code(column, column_weights, dtype)[column.codes]
    ties = [_per_code(column, ranks, _np.int64)[column.codes] for column, ranks in tied]
    key = _np.unique(total, return_inverse=True)[1] if dtype is object else total
    order = _np.lexsort(tuple(reversed(ties)) + (key,))
    answers = _np.empty((n, len(answer_columns)), dtype=object)
    for position, column in enumerate(answer_columns):
        answers[:, position] = column.domain[column.codes[order]]
    return answers, total[order]


class PlanExecutor:
    """Executes one :class:`QueryPlan` against one database.

    Parameters
    ----------
    plan:
        The plan to execute (from :func:`repro.planner.plan`).
    database:
        The input database for the plan's original query.

    Every build runs on one thread: layers bottom-up, shards one after
    another (see :func:`~repro.core.preprocessing.preprocess`).
    """

    def __init__(self, plan: QueryPlan, database: Database) -> None:
        if plan.error is not None:
            raise QueryStructureError(
                f"plan {plan.fingerprint} is not executable: {plan.error}"
            )
        self.plan = plan
        self.database = database

    # ------------------------------------------------------------------
    # Shared front half: backend → FD rewrite → normalisation
    # ------------------------------------------------------------------
    def _front(self, report: ExecutionReport):
        """Apply the data half of the rewrite stages; returns the working pair."""
        objects = self.plan.objects
        database = self.database
        if self.plan.backend is not None:
            with _stage(report, "backend_convert") as stage:
                database = database.to_backend(self.plan.backend)
                stage.rows = database.size()

        query, order = objects.query, objects.order
        if objects.fds:
            from repro.fds.rewrite import rewrite_for_fds

            with _stage(report, "fd_rewrite") as stage:
                query, database, order = rewrite_for_fds(query, database, order,
                                                         objects.fds)
                stage.rows = database.size()

        with _stage(report, "normalize") as stage:
            normalized, database = query.normalize(database)
            stage.rows = database.size()
        return normalized, database

    def _boolean_answers(self, normalized, database, report: ExecutionReport) -> List[Tuple]:
        from repro.engine.naive import evaluate_naive

        with _stage(report, "evaluate_boolean") as stage:
            answers = evaluate_naive(normalized, database)
            stage.rows = len(answers)
        return answers

    def _finish(self, report: ExecutionReport, started: float) -> ExecutionReport:
        report.total_seconds = time.perf_counter() - started
        self.plan.stats = report
        return report

    # ------------------------------------------------------------------
    # LEX direct access (Theorems 3.3 / 4.1 / 8.21)
    # ------------------------------------------------------------------
    def build_lex(self) -> LexBuild:
        """Build the direct-access structure of a ``"lex"`` plan."""
        self._require_mode("lex")
        PLAN_BUILDS.inc(("lex",))
        report = ExecutionReport()
        run_started = time.perf_counter()
        with build_memory(), TRACER.span("build:lex", plan=self.plan.fingerprint):
            normalized, database = self._front(report)

            if self.plan.boolean:
                answers = self._boolean_answers(normalized, database, report)
                self._finish(report, run_started)
                return LexBuild(None, answers, LexOrder(()), report)

            objects = self.plan.objects
            with _stage(report, "eliminate_projections") as stage:
                reduction = eliminate_projections(
                    normalized, database, plan=objects.projection_plan,
                    assume_distinct=True,
                )
                stage.rows = reduction.database.size()

            def on_stage(name, seconds, rows=None):
                record_stage(report, name, seconds, rows)

            if self.plan.shards > 1:
                from repro.core.sharding import build_sharded_instance

                instance = build_sharded_instance(
                    objects.tree,
                    reduction.database,
                    self.plan.shards,
                    on_stage=on_stage,
                )
            else:
                instance = preprocess(
                    objects.tree,
                    reduction.database,
                    on_stage=on_stage,
                    assume_reduced=True,
                )

            # Flatten into the array-backed snapshot image so scalar serving
            # runs the fused kernels.  Purely an accelerator: when capture
            # declines (no NumPy, exact-int counts, unencodable values) the
            # object walk serves unchanged and no stage is recorded.
            from repro.core.snapshot import install as install_snapshot

            started = time.perf_counter()
            snapshot = install_snapshot(instance, fingerprint=self.plan.fingerprint)
            if snapshot is not None:
                record_stage(report, "snapshot", time.perf_counter() - started,
                             instance.count)
            self._finish(report, run_started)
            return LexBuild(instance, None, objects.complete_order, report)

    # ------------------------------------------------------------------
    # SUM direct access (Theorem 5.1 / 8.9)
    # ------------------------------------------------------------------
    def build_sum(self, weights: Optional[Weights] = None) -> SumBuild:
        """Build the sorted answer array of a ``"sum"`` plan."""
        self._require_mode("sum")
        PLAN_BUILDS.inc(("sum",))
        weights = weights if weights is not None else Weights.identity()
        report = ExecutionReport()
        run_started = time.perf_counter()
        with build_memory(), TRACER.span("build:sum", plan=self.plan.fingerprint):
            normalized, database = self._front(report)
            objects = self.plan.objects
            original_free = objects.query.free_variables

            if self.plan.boolean:
                answers = self._boolean_answers(normalized, database, report)
                self._finish(report, run_started)
                return SumBuild(answers, [0.0] * len(answers), report)

            with _stage(report, "semi_join_reduce") as stage:
                reduced = reduce_database_over_query(normalized, database,
                                                     assume_distinct=True)
                stage.rows = sum(len(r) for r in reduced)

            with _stage(report, "project_answers") as stage:
                atom_index = normalized.atoms.index(objects.covering_atom)
                answers_relation = reduced[atom_index].project(
                    normalized.free_variables)
                stage.rows = len(answers_relation)

            with _stage(report, "score_and_sort") as stage:
                effective_free = normalized.free_variables
                head = [effective_free.index(v) for v in original_free]
                answers, weights_sorted = order_by_weight(
                    answers_relation.storage, effective_free, head, weights)
                stage.rows = len(answers)

            summands = None
            if len(head) == len(effective_free):
                summands = tuple((variable, head.index(position))
                                 for position, variable in enumerate(effective_free))
            self._finish(report, run_started)
            return SumBuild(answers, weights_sorted, report, summands)

    # ------------------------------------------------------------------
    # Selection by LEX (Theorem 6.1 / 8.22)
    # ------------------------------------------------------------------
    def select_lex(self, k: int) -> Tuple:
        """Run a ``"selection_lex"`` plan: the ``k``-th answer, no structure kept."""
        self._require_mode("selection_lex")
        PLAN_BUILDS.inc(("selection_lex",))
        report = ExecutionReport()
        run_started = time.perf_counter()
        with TRACER.span("build:selection_lex", plan=self.plan.fingerprint):
            return self._select_lex(k, report, run_started)

    def _select_lex(self, k: int, report: ExecutionReport, run_started: float) -> Tuple:
        from repro.algorithms.weighted_selection import weighted_select
        from repro.core.selection_lex import value_histogram
        from repro.core.orders import order_key

        normalized, database = self._front(report)
        objects = self.plan.objects
        original_free = objects.query.free_variables

        if self.plan.boolean:
            answers = self._boolean_answers(normalized, database, report)
            self._finish(report, run_started)
            if k < 0 or k >= len(answers):
                raise OutOfBoundsError(
                    f"index {k} is out of bounds for {len(answers)} answers"
                )
            return answers[k]

        with _stage(report, "eliminate_projections") as stage:
            reduction = eliminate_projections(
                normalized, database, plan=objects.projection_plan,
                assume_distinct=True,
            )
            stage.rows = reduction.database.size()
        full_query, current_db = reduction.query, reduction.database

        if k < 0:
            raise OutOfBoundsError(f"negative index {k}")

        order = objects.effective_order
        remaining = k
        assignment = {}

        def select_value(variable, histogram, database, rank):
            """Pick the value owning weighted rank ``rank`` and filter to it."""
            values = list(histogram.keys())
            counts = [histogram[v] for v in values]
            descending = order.is_descending(variable) if variable in order.variables else False
            key = (lambda v: order_key(v, True)) if descending else None
            chosen, preceding = weighted_select(values, counts, rank, key=key)
            assignment[variable] = chosen
            filtered = []
            for atom in full_query.atoms:
                relation = database.relation(atom.relation)
                if variable in atom.variable_set:
                    relation = relation.select_equals({variable: chosen})
                filtered.append(relation)
            return Database(filtered), rank - preceding, len(values)

        pending_variables = list(objects.ordered_variables)
        if self.plan.shards > 1:
            # Sharded leading step: partition on the first order variable and
            # scan the shards in order, computing each shard's histogram only
            # until the shard owning rank k is found — shards after it are
            # never touched, shards before it contribute their totals only.
            from repro.engine.partition import range_partition

            leading = pending_variables.pop(0)
            with _stage(report, "partition") as stage:
                partition = range_partition(
                    current_db, leading, self.plan.shards,
                    descending=order.is_descending(leading),
                )
                stage.rows = current_db.size()

            started = time.perf_counter()
            chosen_histogram = None
            scanned = 0
            for shard_db in partition.shard_databases:
                histogram = value_histogram(full_query, shard_db, leading)
                total = sum(histogram.values())
                if remaining < total:
                    chosen_histogram, current_db = histogram, shard_db
                    break
                remaining -= total
                scanned += total
            if chosen_histogram is None:
                raise OutOfBoundsError(
                    f"index {k} is out of bounds for {scanned} answers"
                )
            current_db, remaining, width = select_value(
                leading, chosen_histogram, current_db, remaining
            )
            record_stage(report, f"select:{leading}",
                         time.perf_counter() - started, width)

        for variable in pending_variables:
            started = time.perf_counter()
            histogram = value_histogram(full_query, current_db, variable)
            if not histogram:
                raise OutOfBoundsError(f"index {k} is out of bounds for 0 answers")
            total = sum(histogram.values())
            if remaining >= total:
                raise OutOfBoundsError(f"index {k} is out of bounds for {total} answers")
            current_db, remaining, width = select_value(
                variable, histogram, current_db, remaining
            )
            record_stage(report, f"select:{variable}",
                         time.perf_counter() - started, width)

        self._finish(report, run_started)
        answer_effective = tuple(assignment[v] for v in full_query.free_variables)
        if tuple(full_query.free_variables) == tuple(original_free):
            return answer_effective
        mapping = dict(zip(full_query.free_variables, answer_effective))
        return tuple(mapping[v] for v in original_free)

    # ------------------------------------------------------------------
    # Selection by SUM (Theorem 7.3 / 8.10)
    # ------------------------------------------------------------------
    def select_sum(self, k: int, weights: Optional[Weights] = None) -> Tuple:
        """Run a ``"selection_sum"`` plan: the ``k``-th answer by weight."""
        self._require_mode("selection_sum")
        from repro.core.selection_sum import _selection_single_atom, _selection_two_atoms

        PLAN_BUILDS.inc(("selection_sum",))
        weights = weights if weights is not None else Weights.identity()
        report = ExecutionReport()
        run_started = time.perf_counter()
        with TRACER.span("build:selection_sum", plan=self.plan.fingerprint):
            normalized, database = self._front(report)
            objects = self.plan.objects
            original_free = objects.query.free_variables

            if self.plan.boolean:
                answers = self._boolean_answers(normalized, database, report)
                self._finish(report, run_started)
                if k < 0 or k >= len(answers):
                    raise OutOfBoundsError(
                        f"index {k} is out of bounds for {len(answers)} answers"
                    )
                return answers[k]

            with _stage(report, "eliminate_projections") as stage:
                reduction = eliminate_projections(
                    normalized, database, plan=objects.projection_plan,
                    assume_distinct=True,
                )
                stage.rows = reduction.database.size()
            full_query, full_database = reduction.query, reduction.database

            if len(full_query.atoms) == 1:
                with _stage(report, "select_fmh1"):
                    answer = _selection_single_atom(full_query, full_database,
                                                    weights, k, original_free)
            else:
                with _stage(report, "select_fmh2"):
                    answer = _selection_two_atoms(full_query, full_database,
                                                  weights, k, original_free)
            self._finish(report, run_started)
            return answer

    # ------------------------------------------------------------------
    def _require_mode(self, mode: str) -> None:
        if self.plan.mode != mode:
            raise QueryStructureError(
                f"plan mode {self.plan.mode!r} cannot be executed as {mode!r}"
            )
