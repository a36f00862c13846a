"""SEC8 — functional dependencies (Theorems 8.9, 8.10, 8.21, 8.22).

Section 8 shows how unary FDs enlarge the tractable classes: tractability is
decided on the FD-extension Q⁺ and the FD-reordered order L⁺.  The benchmark

* regenerates the classification of the Section 8 examples (8.3, 8.7, 8.14,
  8.19) and the Example 1.1 FD bullets,
* times FD-aware preprocessing and access on the introduction's Visits ⋈ Cases
  scenario where the "one report per city" key makes the (#cases, age, ...)
  order tractable,
* checks FD-aware access against the materialise-and-sort baseline.
"""

from __future__ import annotations

import pytest

from repro import (
    LexDirectAccess,
    MaterializedBaseline,
    classify_direct_access_lex,
    classify_direct_access_sum,
    classify_selection_lex,
)
from repro.benchharness import format_table
from repro.workloads import paper_queries as pq
from repro.workloads.generators import generate_visits_cases_database


SECTION8_CASES = [
    ("Ex 8.3: Q(x,z):-R(x,y),S(y,z), FD S:y→z, selection LEX",
     lambda: classify_selection_lex(pq.EXAMPLE_8_3_QUERY, fds=pq.EXAMPLE_8_3_FDS), "tractable"),
    ("Ex 8.3: same, SUM direct access",
     lambda: classify_direct_access_sum(pq.EXAMPLE_8_3_QUERY, fds=pq.EXAMPLE_8_3_FDS), "tractable"),
    ("Ex 8.3: triangle with FD S:y→z, SUM direct access",
     lambda: classify_direct_access_sum(pq.TRIANGLE, fds=pq.EXAMPLE_8_3_TRIANGLE_FDS), "tractable"),
    ("Ex 8.7: Q(x,z,u) with FD T:z→u, selection LEX",
     lambda: classify_selection_lex(pq.EXAMPLE_8_7_QUERY, fds=pq.EXAMPLE_8_7_FDS), "intractable"),
    ("Ex 8.14: order ⟨v1,v2,v3,v4⟩ with FD R:v1→v3, DA LEX",
     lambda: classify_direct_access_lex(pq.EXAMPLE_8_14_QUERY, pq.EXAMPLE_8_14_ORDER,
                                        fds=pq.EXAMPLE_8_14_FDS), "tractable"),
    ("Ex 8.14: same order without the FD",
     lambda: classify_direct_access_lex(pq.EXAMPLE_8_14_QUERY, pq.EXAMPLE_8_14_ORDER), "intractable"),
    ("Ex 8.19: Q(v1,v2) with FD S:v2→v3, DA LEX",
     lambda: classify_direct_access_lex(pq.EXAMPLE_8_19_QUERY, pq.EXAMPLE_8_19_ORDER,
                                        fds=pq.EXAMPLE_8_19_FDS), "intractable"),
    ("Intro: Visits⋈Cases (#cases, age, ...) with city key, DA LEX",
     lambda: classify_direct_access_lex(pq.VISITS_CASES, pq.VISITS_CASES_BAD_ORDER,
                                        fds=pq.VISITS_CASES_CITY_KEY), "tractable"),
]


def test_sec8_classification_table(benchmark):
    def run():
        return [(label, fn().verdict, expected) for label, fn, expected in SECTION8_CASES]

    rows = benchmark(run)
    print()
    print(format_table(["Section 8 case", "computed", "paper"], rows,
                       title="SEC8: classification under unary functional dependencies"))
    for label, got, expected in rows:
        assert got == expected, label


@pytest.mark.parametrize("num_people", [200, 800])
def test_sec8_fd_preprocessing_time(benchmark, num_people):
    database = generate_visits_cases_database(
        num_people, max(5, num_people // 20), 0, seed=num_people, single_report_per_city=True
    )
    benchmark(lambda: LexDirectAccess(
        pq.VISITS_CASES, database, pq.VISITS_CASES_BAD_ORDER, fds=pq.VISITS_CASES_CITY_KEY
    ))


def test_sec8_fd_access_matches_baseline(benchmark):
    database = generate_visits_cases_database(150, 8, 0, seed=9, single_report_per_city=True)
    access = LexDirectAccess(
        pq.VISITS_CASES, database, pq.VISITS_CASES_BAD_ORDER, fds=pq.VISITS_CASES_CITY_KEY
    )
    baseline = MaterializedBaseline(pq.VISITS_CASES, database, order=pq.VISITS_CASES_BAD_ORDER)
    assert list(access) == list(baseline.answers)
    benchmark(lambda: access.access(access.count // 2))


def test_sec8_fd_reordering_is_what_enables_the_order(benchmark):
    from repro.fds.reorder import reorder_lex_order
    from repro.fds.extension import fd_extension

    extended, _ = benchmark(lambda: fd_extension(pq.EXAMPLE_8_14_QUERY, pq.EXAMPLE_8_14_FDS))
    reordered = reorder_lex_order(pq.EXAMPLE_8_14_QUERY, pq.EXAMPLE_8_14_FDS, pq.EXAMPLE_8_14_ORDER)
    print()
    print(format_table(
        ["object", "value"],
        [("Q⁺", str(extended)), ("L⁺", str(reordered))],
        title="SEC8: Example 8.14's FD-reordered extension",
    ))
    assert reordered.variables == ("v1", "v3", "v2", "v4")
