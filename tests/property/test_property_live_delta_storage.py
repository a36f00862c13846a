"""Property: the live net state built from storage deltas ≡ re-encoding rows.

``LiveDatabase.current()`` applies the net delta through
``Storage.apply_delta`` — on the columnar backend an ``np.isin`` over packed
row keys plus a domain merge, never a decoded row.  For random insert/delete
sequences over int, str, float, bool, ``None`` and ``Decimal`` columns —
aliases (``1`` / ``True`` / ``1.0``), ``-0.0``, NaN, ``Decimal('1.00')`` and
unorderable mixes included — the result must equal what the row-list path
``relation.with_rows(kept rows + inserted rows)`` builds: the same rows with
the same value types and reprs, the same backend (columnar, or the row
fallback), and on the columnar backend the same codes and domains.
"""

from decimal import Decimal

import pytest

from hypothesis import example, given, settings, strategies as st

from repro import Database, Relation
from repro.engine.backends import available_backends
from repro.live import LiveDatabase

BACKENDS = [None] + (["columnar"] if "columnar" in available_backends() else [])

NAN = float("nan")

#: Per column, the base values come from one kind's pool ...
POOLS = {
    "int": [0, 1, 2, -3, 2 ** 63, 2 ** 70],
    "str": ["", "a", "b", "ab"],
    "float": [0.0, 1.5, -2.25, float("inf")],
    "bool": [False, True],
    "none": [None],
    "decimal": [Decimal("1.0"), Decimal("2"), Decimal("-0.5")],
}
#: ... and inserts may also draw these: aliases of pool values, signed zero,
#: NaN, distinguishable Decimals, and values of other kinds (unorderable).
ALIASES = [1, True, 1.0, -0.0, NAN, Decimal("1.00"), Decimal("1"), None, "a", 2 ** 63]


def typed(rows):
    return [tuple((type(value), repr(value)) for value in row) for row in rows]


@st.composite
def scenarios(draw):
    kinds = [draw(st.sampled_from(sorted(POOLS))) for _ in range(2)]
    plain = st.tuples(*(st.sampled_from(POOLS[kind]) for kind in kinds))
    mixed = st.tuples(*(
        st.one_of(st.sampled_from(POOLS[kind]), st.sampled_from(ALIASES))
        for kind in kinds
    ))
    base = draw(st.lists(plain, max_size=10, unique=True))
    row = st.one_of(plain, mixed, st.sampled_from(base)) if base else st.one_of(plain, mixed)
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.lists(row, max_size=4)),
        max_size=6,
    ))
    return base, ops


def assert_current_equals_reencode(live: LiveDatabase, base: Database) -> None:
    _, delta, _ = live.delta_since(0)
    inserted, deleted = delta.get("R", ([], []))
    relation = base.relation("R")
    doomed = set(deleted)
    expected = relation.with_rows([row for row in relation if row not in doomed] + inserted)
    actual = live.current().relation("R")
    assert actual.backend == expected.backend
    assert typed(actual.rows) == typed(expected.rows)
    if expected.backend == "columnar":
        for got, want in zip(actual.storage.codes, expected.storage.codes):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        for got, want in zip(actual.storage.domains, expected.storage.domains):
            assert typed([got.tolist()]) == typed([want.tolist()])


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=80, deadline=None)
@given(scenario=scenarios())
# Decimal vs NaN: sorting raises decimal.InvalidOperation (an ArithmeticError).
@example(scenario=([], [("insert", [(Decimal("1.0"), False), (NAN, False)])]))
def test_current_equals_reencoded_rows(backend, scenario):
    base_rows, ops = scenario
    base = Database([Relation("R", ("a", "b"), base_rows)], backend=backend)
    live = LiveDatabase(base)
    for op, rows in ops:
        getattr(live, op)("R", rows)
        assert_current_equals_reencode(live, base)
