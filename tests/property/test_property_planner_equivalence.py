"""Property tests: planner-routed facades ≡ the pre-refactor path.

The planner refactor must be observationally invisible: for randomized
queries, orders, FDs and databases, the planner-routed
:class:`~repro.core.direct_access.LexDirectAccess` returns byte-identical
answers to :class:`tests.helpers.MonolithLexAccess` (the pre-refactor
wiring, kept as a test oracle) on both storage backends, and the SUM
facade keeps the pre-refactor sort contract (weight, then repr tie-break).
Plan fingerprints are checked for stability (same logical plan ⇒ same id,
insensitive to FD listing order) and sensitivity (different order ⇒ different
id).
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro import (
    Atom,
    ConjunctiveQuery,
    Database,
    FDSet,
    IntractableQueryError,
    LexDirectAccess,
    LexOrder,
    Relation,
    SumDirectAccess,
    Weights,
    plan,
    selection_lex,
    selection_sum,
)
from repro.engine.backends import available_backends
from repro.engine.naive import evaluate_naive
from tests.helpers import MonolithLexAccess

BACKENDS = [None] + (["columnar"] if "columnar" in available_backends() else [])

PATH_QUERY = ConjunctiveQuery(
    ("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))], name="Qpath"
)
PROJ_QUERY = ConjunctiveQuery(
    ("x", "y"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))], name="Qproj"
)
SINGLE_QUERY = ConjunctiveQuery(("x", "y"), [Atom("R", ("x", "y"))], name="Qsingle")


def relation_rows(arity, max_rows=12, domain=5):
    cell = st.integers(0, domain - 1)
    return st.lists(st.tuples(*[cell] * arity), max_size=max_rows).map(
        lambda rows: sorted(set(rows))
    )


@st.composite
def path_instance(draw):
    database = Database([
        Relation("R", ("x", "y"), draw(relation_rows(2))),
        Relation("S", ("y", "z"), draw(relation_rows(2))),
    ])
    variables = draw(st.sampled_from([
        ("x", "y", "z"), ("y", "x", "z"), ("y", "z", "x"), ("x", "y"), ("y",),
    ]))
    descending = draw(st.sets(st.sampled_from(variables)).map(tuple))
    return database, LexOrder(variables, descending)


@pytest.mark.parametrize("backend", BACKENDS)
class TestLexEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(instance=path_instance())
    def test_planner_facade_matches_monolith(self, backend, instance):
        database, order = instance
        try:
            routed = LexDirectAccess(PATH_QUERY, database, order, backend=backend)
        except IntractableQueryError:
            # The planner-routed facade must refuse exactly what the old one did.
            with pytest.raises(IntractableQueryError):
                MonolithLexAccess(PATH_QUERY, database, order, backend=backend)
            return
        monolith = MonolithLexAccess(PATH_QUERY, database, order, backend=backend)
        assert routed.count == monolith.count
        ranks = range(routed.count)
        assert routed.batch_access(ranks) == monolith.batch_access(ranks)

    @settings(max_examples=25, deadline=None)
    @given(rows=relation_rows(2), s_rows=relation_rows(2))
    def test_projection_query_matches_monolith(self, backend, rows, s_rows):
        database = Database([
            Relation("R", ("x", "y"), rows), Relation("S", ("y", "z"), s_rows),
        ])
        order = LexOrder(("x", "y"))
        routed = LexDirectAccess(PROJ_QUERY, database, order, backend=backend)
        monolith = MonolithLexAccess(PROJ_QUERY, database, order, backend=backend)
        assert list(routed) == monolith.batch_access(range(monolith.count))


@pytest.mark.parametrize("backend", BACKENDS)
class TestFDEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10))
    def test_fd_rewrite_matches_monolith(self, backend, pairs):
        # R's x functionally determines y: keep one y per x value.
        rows = sorted({(x, x % 3) for x, _ in pairs})
        s_rows = sorted({(y, z) for _, z in pairs for y in range(3)})
        database = Database([
            Relation("R", ("x", "y"), rows), Relation("S", ("y", "z"), s_rows),
        ])
        fds = FDSet.of(("R", "x", "y"))
        order = LexOrder(("x", "z", "y"))
        routed = LexDirectAccess(PATH_QUERY, database, order, fds=fds, backend=backend)
        monolith = MonolithLexAccess(PATH_QUERY, database, order, fds=fds, backend=backend)
        assert list(routed) == monolith.batch_access(range(monolith.count))


@pytest.mark.parametrize("backend", BACKENDS)
class TestSumAndSelectionContracts:
    @settings(max_examples=30, deadline=None)
    @given(rows=relation_rows(2, domain=6))
    def test_sum_keeps_pre_refactor_sort_contract(self, backend, rows):
        database = Database([Relation("R", ("x", "y"), rows)])
        access = SumDirectAccess(SINGLE_QUERY, database, backend=backend)
        weights = Weights.identity()
        expected = sorted(
            evaluate_naive(SINGLE_QUERY, database),
            key=lambda a: (weights.answer_weight(("x", "y"), a), tuple(map(repr, a))),
        )
        assert list(access) == expected

    @settings(max_examples=25, deadline=None)
    @given(instance=path_instance(), k=st.integers(0, 5))
    def test_selection_matches_direct_access_on_complete_orders(self, backend, instance, k):
        database, order = instance
        if len(order.variables) != 3 or order.descending:
            return
        try:
            access = LexDirectAccess(PATH_QUERY, database, order, backend=backend)
        except IntractableQueryError:
            return
        if k >= access.count:
            return
        assert selection_lex(PATH_QUERY, database, order, k, backend=backend) == access[k]

    @settings(max_examples=25, deadline=None)
    @given(rows=relation_rows(2, domain=6), k=st.integers(0, 5))
    def test_selection_sum_weight_matches_structure(self, backend, rows, k):
        database = Database([Relation("R", ("x", "y"), rows)])
        access = SumDirectAccess(SINGLE_QUERY, database, backend=backend)
        if k >= access.count:
            return
        answer = selection_sum(SINGLE_QUERY, database, k, backend=backend)
        weights = Weights.identity()
        assert weights.answer_weight(("x", "y"), answer) == access.answer_weight(k)


class TestFingerprintStability:
    def test_same_logical_plan_same_fingerprint(self):
        a = plan(PATH_QUERY, LexOrder(("x", "y", "z")))
        b = plan(PATH_QUERY, LexOrder(("x", "y", "z")))
        assert a.fingerprint == b.fingerprint

    def test_default_order_equals_explicit_head_order(self):
        assert (
            plan(PATH_QUERY).fingerprint
            == plan(PATH_QUERY, LexOrder(("x", "y", "z"))).fingerprint
        )

    def test_fd_listing_order_is_irrelevant(self):
        fds_a = FDSet.of(("R", "x", "y"), ("S", "y", "z"))
        fds_b = FDSet.of(("S", "y", "z"), ("R", "x", "y"))
        a = plan(PATH_QUERY, LexOrder(("x", "y", "z")), fds=fds_a)
        b = plan(PATH_QUERY, LexOrder(("x", "y", "z")), fds=fds_b)
        assert a.fingerprint == b.fingerprint

    def test_different_order_different_fingerprint(self):
        a = plan(PATH_QUERY, LexOrder(("x", "y", "z")))
        b = plan(PATH_QUERY, LexOrder(("y", "x", "z")))
        assert a.fingerprint != b.fingerprint

    def test_mode_and_backend_split_fingerprints(self):
        lex = plan(SINGLE_QUERY, LexOrder(("x", "y")))
        summed = plan(SINGLE_QUERY, mode="sum")
        columnar = plan(SINGLE_QUERY, LexOrder(("x", "y")), backend="columnar")
        assert len({lex.fingerprint, summed.fingerprint, columnar.fingerprint}) == 3
