"""Property: the SUM build (Lemma 5.9) equals materialise-and-sort.

``SumDirectAccess`` weighs distinct values over dictionary codes and orders
them with one stable sort; :class:`MaterializedBaseline` sorts the evaluated
answers by ``(answer_weight, repr of the answer)`` row by row.  On both
backends the two must agree on the answer list, on every answer's weight
(value *and* type: ints stay ints, big ints stay exact, ``-0.0`` sums to
``0.0``), and on inverted access — under heavy weight ties, float and mixed
int/float weights, string columns, columns mixing ``1`` / ``True`` / ``1.0``
(row-storage fallback), dangling non-numeric values, and an FD-extended plan.
"""

from decimal import Decimal

from hypothesis import example, given, settings, strategies as st

from repro import Database, Relation, SumDirectAccess, Weights, parse_query
from repro.baselines import MaterializedBaseline
from repro.engine.backends import available_backends
from repro.workloads import paper_queries as pq

SINGLE = parse_query("Q(x, y) :- R(x, y)")
TWO_ATOM = parse_query("Q(x, y) :- R(x, y), S(y, z)")

DOMAINS = {
    "ints": [0, 1, 2, 3, 4],
    "strings": ["a", "b", "ab", "B", "", "é"],
    "mixed": [1, True, 1.0, 0, False, 0.0, -0.0, 2],
    "floats": [0.5, -1.25, 2.0, 0.0],
}

WEIGHT_FAMILIES = {
    "tied": st.integers(0, 2),
    "floats": st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0, 0.1, 1e16]),
    "big": st.integers(-(2 ** 70), 2 ** 70),
    "mixed": st.one_of(st.integers(-(2 ** 64), 2 ** 64), st.sampled_from([-0.0, 0.25, 2.5])),
}


def assert_matches_baseline(query, database, weights, fds=None):
    baseline = MaterializedBaseline(query, database, weights=weights)
    expected = list(baseline)
    for backend in available_backends():
        access = SumDirectAccess(query, database, weights=weights, fds=fds,
                                 backend=backend)
        assert list(access) == expected, backend
        # Equal is not enough: 1 / True / 1.0 and 0.0 / -0.0 must decode as given.
        assert [tuple(map(repr, a)) for a in access] == [
            tuple(map(repr, a)) for a in expected], backend
        for k in range(access.count):
            got, want = access.answer_weight(k), baseline.answer_weight(k)
            assert got == want and type(got) is type(want), (backend, k, got, want)
            assert access.inverted_access(access.access(k)) == k


@st.composite
def weighted_single_atom(draw):
    values = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    cell = st.sampled_from(values)
    rows = draw(st.lists(st.tuples(cell, cell), max_size=14))
    family = WEIGHT_FAMILIES[draw(st.sampled_from(sorted(WEIGHT_FAMILIES)))]
    numeric = all(type(v) in (int, float) for v in values)
    if numeric and draw(st.booleans()):
        return rows, Weights.identity()
    mappings = {
        variable: draw(st.dictionaries(cell, family, max_size=len(values)))
        for variable in draw(st.sampled_from([("x",), ("y",), ("x", "y")]))
    }
    return rows, Weights(mappings, default=draw(family))


@given(weighted_single_atom())
@example(([(0.0, 1), (-0.0, 2), (1, 3), (1.0, 4), (True, 5)], Weights(default=0)))
@settings(max_examples=60, deadline=None)
def test_single_atom_matches_baseline(case):
    rows, weights = case
    database = Database([Relation("R", ("x", "y"), rows)])
    assert_matches_baseline(SINGLE, database, weights)


@given(
    st.lists(st.tuples(st.integers(2, 5), st.integers(0, 3)), min_size=1, max_size=10),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8),
    st.sampled_from([True, Decimal("7.5")]),
)
@settings(max_examples=25, deadline=None)
def test_dangling_non_numeric_value_is_never_weighed(r_rows, s_rows, dangling):
    # The dangling row joins nothing in S, so identity weights never see its
    # non-numeric x; the columnar projection still shares R's whole domain.
    r_rows = r_rows + [(dangling, 99)]
    relation = Relation("R", ("x", "y"), r_rows)
    if "columnar" in available_backends():
        assert relation.to_backend("columnar").backend == "columnar"
    database = Database([relation, Relation("S", ("y", "z"), s_rows)])
    assert_matches_baseline(TWO_ATOM, database, Weights.identity())


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=10),
    st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=5),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_fd_extended_plan_matches_baseline(r_rows, s_function, identity):
    # S: y -> z holds by construction (S is a function of y), Theorem 8.9.
    database = Database([
        Relation("R", ("x", "y"), r_rows),
        Relation("S", ("y", "z"), sorted(s_function.items())),
    ])
    weights = Weights.identity() if identity else Weights({"z": {0: 1, 1: 1}}, default=0)
    assert_matches_baseline(pq.EXAMPLE_8_3_QUERY, database, weights,
                            fds=pq.EXAMPLE_8_3_FDS)
