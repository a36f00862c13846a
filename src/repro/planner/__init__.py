"""The unified planner layer: one explicit plan IR shared by every facade.

``plan()`` turns a (query, order, FDs, backend, mode) input into a
:class:`QueryPlan` — the full decision trace of the paper's pipeline, with no
database needed — and :class:`PlanExecutor` runs a plan against concrete data,
timing every build stage.  ``explain()`` is the convenience used
by ``repro explain`` and the service's ``explain`` op.

All four algorithm facades (:class:`~repro.core.direct_access.LexDirectAccess`,
:class:`~repro.core.sum_direct_access.SumDirectAccess`,
:func:`~repro.core.selection_lex.selection_lex`,
:func:`~repro.core.selection_sum.selection_sum`), the query service's prepare
path and the CLI all construct structures exclusively through this layer.
"""

from repro.planner.plan import (
    ExecutionReport,
    LayerPlan,
    PlanStage,
    QueryPlan,
    StageStats,
)
from repro.planner.planner import PLAN_MODES, plan
from repro.planner.executor import LexBuild, PlanExecutor, SumBuild


def explain(query, order=None, *, mode: str = "lex", fds=None, backend=None,
            shards=None):
    """The plan for an input as a JSON-ready dict, never building, never
    enforcing tractability — intractable or structurally impossible inputs
    yield a plan whose classification (and ``error`` field) says why."""
    return plan(
        query,
        order,
        mode=mode,
        fds=fds,
        backend=backend,
        shards=shards,
        enforce_tractability=False,
        strict=False,
    ).to_json()


__all__ = [
    "ExecutionReport",
    "LayerPlan",
    "LexBuild",
    "PLAN_MODES",
    "PlanExecutor",
    "PlanStage",
    "QueryPlan",
    "StageStats",
    "SumBuild",
    "explain",
    "plan",
]
