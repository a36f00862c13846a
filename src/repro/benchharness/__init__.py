"""Shared harness for the scaling experiments behind the paper-theorem benchmarks.

The paper's guarantees are asymptotic (⟨n log n, log n⟩ and friends); the
``bench_fig*`` / ``bench_thm*`` / ``bench_sec8*`` modules verify their *shape*
by measuring preprocessing/access/selection times across a geometric range of
database sizes and fitting simple growth models.  This subpackage provides the
measurement loop, the growth-rate fit and the plain-text table they print.
Serving performance is measured end to end by ``benchmarks/e2e/``.
"""

from repro.benchharness.reporting import format_table
from repro.benchharness.scaling import ScalingResult, growth_exponent, measure_scaling

__all__ = [
    "ScalingResult",
    "format_table",
    "growth_exponent",
    "measure_scaling",
]
