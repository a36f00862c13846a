"""Measuring how preprocessing / access / selection times scale with ``n``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple


@dataclass
class ScalingResult:
    """Timings of one operation across database sizes.

    ``sizes`` holds the database sizes (number of tuples) and ``seconds`` the
    matching wall-clock times.  :meth:`exponent` fits ``time ≈ c · n^e`` by
    least squares on the log-log points, which is the standard way to check
    whether an implementation behaves (quasi)linearly (e ≈ 1), logarithmically
    (e ≈ 0) or quadratically (e ≈ 2).
    """

    label: str
    sizes: List[int] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)

    def add(self, size: int, elapsed: float) -> None:
        self.sizes.append(size)
        self.seconds.append(elapsed)

    def exponent(self) -> float:
        return growth_exponent(self.sizes, self.seconds)

    def rows(self) -> List[Tuple[int, float]]:
        return list(zip(self.sizes, self.seconds))

    def summary(self) -> str:
        pairs = ", ".join(f"n={n}: {t * 1000:.2f}ms" for n, t in self.rows())
        return f"{self.label}: {pairs} (growth exponent ≈ {self.exponent():.2f})"


def growth_exponent(sizes: Sequence[int], seconds: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    points = [
        (math.log(n), math.log(t)) for n, t in zip(sizes, seconds) if n > 0 and t > 0
    ]
    if len(points) < 2:
        return float("nan")
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in points)
    denominator = sum((x - mean_x) ** 2 for x, _ in points)
    if denominator == 0:
        return float("nan")
    return numerator / denominator


def measure_scaling(
    label: str,
    sizes: Sequence[int],
    setup: Callable[[int], object],
    operation: Callable[[object], object],
    repeats: int = 3,
) -> ScalingResult:
    """Time ``operation(setup(n))`` for each ``n``, keeping the best of ``repeats``.

    ``setup`` is excluded from the timed region (it typically builds the
    database and, for access-time experiments, the preprocessing structure).
    """
    result = ScalingResult(label)
    for size in sizes:
        prepared = setup(size)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            operation(prepared)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
        result.add(size, best)
    return result
