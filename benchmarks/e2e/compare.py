#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A B

``A`` (the base) and ``B`` are each a file written by ``run.py --out`` or a
directory of such files — typically ten runs per workload, one seed each.
For every (workload, end-to-end metric) it prints B's median over A's with
the base value, each side's run-to-run spread (interquartile distance over
the median) and a verdict:

* ``unresolved`` — a side's spread is wider than the metric's bound, so the
  runs cannot tell a change from noise;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unchanged``  — neither (an improvement also reads ``unchanged`` here: a
  gain is claimed by the paired-runs rule, not by this tool);
* ``diagnostic`` — the ``diag.*`` values every untraced run keeps in its
  ``--out`` file (what it measures but ``BENCHMARK.json`` does not gate):
  same arithmetic, no bound, never a failure.

Each workload also gets a ``failed_share`` row: failed over attempted
operations summed over the set's runs, ``regressed`` on any increase.

Exits non-zero unless every gated row is ``unchanged``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: (workload, metric) → values, one per run
Samples = Dict[Tuple[str, str], List[float]]
#: workload → [failed, attempted] summed over its runs
Failures = Dict[str, List[int]]


def load_runs(path: str) -> Tuple[Samples, Failures]:
    files = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".json")] if os.path.isdir(path) else [path])
    samples: Samples = {}
    failures: Failures = {}
    for file in files:
        with open(file, encoding="utf-8") as handle:
            document = json.load(handle)
        for run in document["runs"]:
            if run["trace"]:
                continue
            for metric, value in {**run["metrics"], **run.get("diag", {})}.items():
                samples.setdefault((run["workload"], metric), []).append(value)
            totals = failures.setdefault(run["workload"], [0, 0])
            totals[0] += run["failed"]
            totals[1] += run["attempted"]
    return samples, failures


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / median if median else 0.0


def compare(base: Samples, other: Samples,
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"] + spec["per_layer"]:
            key = (workload, metric["name"])
            if key not in base or key not in other:
                continue
            median_a = statistics.median(base[key])
            median_b = statistics.median(other[key])
            # A diagnostic may sit at 0 (steal on a quiet host): no ratio then.
            ratio = median_b / median_a if median_a else float("nan")
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread_a, spread_b = spread(base[key]), spread(other[key])
            bound = metric.get("bound")
            if bound is None:
                verdict = "diagnostic"
            elif max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "unchanged"
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "base": median_a, "other": median_b,
                "ratio": ratio, "spread_base": spread_a,
                "spread_other": spread_b, "bound": bound,
                "runs": (len(base[key]), len(other[key])), "verdict": verdict,
            })
    return rows


def failed_shares(base: Failures, other: Failures) -> List[Tuple[str, float, float]]:
    """(workload, A's failed share, B's) for workloads both sets ran."""
    return [(workload, base[workload][0] / base[workload][1],
             other[workload][0] / other[workload][1])
            for workload in base if workload in other]


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    (base, base_failures), (other, other_failures) = map(load_runs, argv)
    rows = compare(base, other, spec)
    if not rows:
        print("compare.py: the two sets share no (workload, metric)", file=sys.stderr)
        return 2
    print(f"{'workload':13s} {'metric':26s} {'B/A':>7s} {'base (A)':>14s} "
          f"{'unit':5s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s} "
          f"{'runs':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:13s} {row['metric']:26s} {row['ratio']:7.3f} "
              f"{row['base']:14.3f} {row['unit']:5s} {row['spread_base']:8.1%} "
              f"{row['spread_other']:8.1%} "
              f"{'-' if row['bound'] is None else format(row['bound'], '.0%'):>6s} "
              f"{row['runs'][0]:3d}/{row['runs'][1]:<2d}  {row['verdict']}")
    more_failed = False
    for workload, share_a, share_b in failed_shares(base_failures, other_failures):
        verdict = "regressed" if share_b > share_a else "unchanged"
        more_failed |= share_b > share_a
        print(f"{workload:13s} {'failed_share':26s} {'':7s} {share_a:14.6f} "
              f"{'ratio':5s} {'':8s} {share_b:8.6f} {'any':>6s} {'':6s}  {verdict}")
    return 0 if not more_failed and all(
        row["verdict"] in ("unchanged", "diagnostic") for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
