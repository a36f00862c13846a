"""FIG8 / THM51 — direct access by SUM: the Figure 8 table and Lemma 5.9 scaling.

Figure 8 tabulates, for acyclic self-join-free CQs, whether direct access by
sum of weights is possible, by the number of independent free variables
α_free(Q).  The benchmark recomputes that table on representative queries and
then measures the tractable row's algorithm (Lemma 5.9): quasilinear
preprocessing, constant-time access.
"""

from __future__ import annotations

import time

import pytest

from repro import Atom, ConjunctiveQuery, SumDirectAccess, Weights, classify_direct_access_sum
from repro.benchharness import ScalingResult, format_table
from repro.core import structure as st
from repro.workloads import paper_queries as pq
from repro.workloads.generators import generate_path_database


#: Representative queries for the four rows of Figure 8.
FIGURE8_QUERIES = [
    ("acyclic, α_free=1", ConjunctiveQuery(("x", "y"), [Atom("R", ("x", "y", "z"))], name="Qcovered")),
    ("acyclic, α_free=2", pq.TWO_PATH),
    ("acyclic, α_free=3", ConjunctiveQuery(
        ("x", "y", "z"), [Atom("R", ("x",)), Atom("S", ("y",)), Atom("T", ("z",))], name="Qtriple")),
    ("cyclic", pq.TRIANGLE),
]

#: The verdict and reason column of Figure 8.
EXPECTED = {
    "acyclic, α_free=1": ("tractable", "Lemma 5.9"),
    "acyclic, α_free=2": ("intractable", "3SUM"),
    "acyclic, α_free=3": ("intractable", "3SUM"),
    "cyclic": ("intractable", "Hyperclique"),
}


def test_fig8_table(benchmark):
    def classify_rows():
        rows = []
        for label, query in FIGURE8_QUERIES:
            result = classify_direct_access_sum(query)
            basis = "Lemma 5.9" if result.tractable else (
                "3SUM" if "3SUM" in result.hypotheses else "Hyperclique")
            alpha = st.alpha_free(query) if st.is_acyclic_query(query) else "-"
            rows.append((label, alpha, result.verdict, basis))
        return rows

    rows = benchmark(classify_rows)
    print()
    print(format_table(["query condition", "α_free", "direct access by SUM", "reason"],
                       rows, title="FIG8: possibility of direct access by sum of weights"))
    for label, _, verdict, basis in rows:
        assert (verdict, basis) == EXPECTED[label], label


PROJECTED_XY = ConjunctiveQuery(("x", "y"), pq.TWO_PATH.atoms, name="Qxy")


@pytest.mark.parametrize("num_tuples", [500, 2000])
def test_thm51_preprocessing_scales_quasilinearly(benchmark, num_tuples):
    database = generate_path_database(num_tuples, max(4, num_tuples // 4), seed=num_tuples)
    weights = Weights.identity()
    benchmark(lambda: SumDirectAccess(PROJECTED_XY, database, weights=weights))


def test_thm51_access_is_constant_time(benchmark, scaling_sizes):
    """Access time must not grow with the database size (⟨n log n, 1⟩)."""
    weights = Weights.identity()
    result = ScalingResult("SUM direct access: single access")
    structures = {}
    for n in scaling_sizes:
        database = generate_path_database(n, max(4, n // 4), seed=n)
        structures[n] = SumDirectAccess(PROJECTED_XY, database, weights=weights)

    probes = 200
    for n, structure in structures.items():
        indices = [int(i * (structure.count - 1) / max(1, probes - 1)) for i in range(probes)]
        start = time.perf_counter()
        for k in indices:
            structure.access(k)
        result.add(n, (time.perf_counter() - start) / probes)

    print()
    print(result.summary())
    exponent = result.exponent()
    assert exponent < 0.5, f"access time grew with n (exponent {exponent:.2f})"

    largest = structures[max(scaling_sizes)]
    benchmark(lambda: largest.access(largest.count // 2))
