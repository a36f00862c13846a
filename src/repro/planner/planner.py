"""``plan()`` — the single entry point that turns (query, order, FDs, backend,
mode) into an explicit :class:`~repro.planner.plan.QueryPlan`.

Planning runs the whole decision half of the paper's pipeline — tractability
classification, FD-extension rewriting, normalisation, projection elimination,
order completion and layered-join-tree construction — *without a database*.
Every algorithm facade, the query service and the CLI build through this one
function; the :class:`~repro.planner.executor.PlanExecutor` then runs a plan
against concrete data.

Strictness: by default the structural steps raise exactly the exceptions the
algorithms historically raised (``IntractableQueryError`` when enforcement is
on, ``QueryStructureError`` when no layered join tree / completion exists).
``strict=False`` (used by ``repro explain``) instead captures the failure in
``plan.error`` so even intractable inputs produce an inspectable plan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.atoms import ConjunctiveQuery
from repro.core.classification import (
    classify_direct_access_lex,
    classify_direct_access_sum,
    classify_selection_lex,
    classify_selection_sum,
)
from repro.core.layered_tree import build_layered_join_tree
from repro.core.orders import LexOrder
from repro.core.partial_order import require_complete_order
from repro.core.reduction import plan_projection_elimination
from repro.core import structure as st
from repro.exceptions import IntractableQueryError, ReproError
from repro.fds.fd import FDSet
from repro.hypergraph import build_join_tree
from repro.planner.plan import LayerPlan, PlanObjects, PlanStage, QueryPlan

#: The planner's modes — the four tractable problems of the paper.
PLAN_MODES = ("lex", "sum", "selection_lex", "selection_sum")

_INTRACTABLE_MESSAGES = {
    "lex": "direct access by {order} for {name} is intractable: {reason}",
    "sum": "direct access by SUM for {name} is intractable: {reason}",
    "selection_lex": "selection for {name} is intractable: {reason}",
    "selection_sum": "selection by SUM for {name} is intractable: {reason}",
}


def _coerce_query(query) -> ConjunctiveQuery:
    if isinstance(query, str):
        from repro.core.parser import parse_query

        return parse_query(query)
    return query


def _coerce_order(order) -> Optional[LexOrder]:
    if isinstance(order, str):
        from repro.core.parser import parse_order

        return parse_order(order)
    return order


def _coerce_fds(fds) -> Optional[FDSet]:
    if fds is None or isinstance(fds, FDSet):
        return fds if fds else None
    from repro.core.parser import parse_fds

    return parse_fds(list(fds)) or None


def _query_text(query: ConjunctiveQuery) -> str:
    head = ", ".join(query.free_variables)
    body = ", ".join(
        f"{atom.relation}({', '.join(atom.variables)})" for atom in query.atoms
    )
    return f"{query.name}({head}) :- {body}"


def _order_text(order: Optional[LexOrder]) -> Optional[str]:
    if order is None:
        return None
    return ", ".join(
        f"{v} desc" if order.is_descending(v) else v for v in order.variables
    )


def _fds_text(fds: Optional[FDSet]) -> Tuple[str, ...]:
    if not fds:
        return ()
    return tuple(sorted(f"{fd.relation}: {fd.lhs} -> {fd.rhs}" for fd in fds))


def plan(
    query,
    order=None,
    *,
    mode: str = "lex",
    fds=None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    enforce_tractability: bool = True,
    strict: bool = True,
) -> QueryPlan:
    """Plan one of the four problems for a (query, order, FDs, backend) input.

    ``mode`` is one of ``"lex"``, ``"sum"``, ``"selection_lex"``,
    ``"selection_sum"``.  ``query``/``order``/``fds`` accept both library
    objects and the parser's text forms.  For ``"lex"`` with no order, the
    head order (ascending, left to right) is planned — the natural ranking.

    ``shards > 1`` asks for a sharded build: the reduced database is
    range-partitioned on the leading variable of the completed order and the
    per-shard structures build independently of each other.  Sharding is a LEX-order concept — SUM orders rank by a
    global weight and orderless selection has no leading variable — so those
    plans fall back to one shard and record the reason in ``plan.partition``
    (visible in ``repro explain``) instead of erroring.
    """
    if mode not in PLAN_MODES:
        raise ValueError(f"unknown plan mode {mode!r}; expected one of {PLAN_MODES}")
    if shards is None:
        shards = 1
    if isinstance(shards, bool) or not isinstance(shards, int):
        raise TypeError(f"shard count must be an integer, not {type(shards).__name__}")
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    query = _coerce_query(query)
    order = _coerce_order(order)
    fds = _coerce_fds(fds)
    if mode == "lex" and order is None:
        order = LexOrder(query.free_variables)
    if mode == "selection_lex" and order is None:
        # Selection is order-agnostic up to tie-breaking: an empty partial
        # order means "any deterministic completion", mirroring how the
        # classification treats the order as irrelevant (Theorem 6.1).
        order = LexOrder(())
    if mode in ("sum", "selection_sum") and order is not None:
        raise ValueError(f"mode {mode!r} ranks by SUM weights; an order does not apply")

    # ------------------------------------------------------------------
    # Classification (always runs; failures here are user errors).
    # ------------------------------------------------------------------
    if mode == "lex":
        classification = classify_direct_access_lex(query, order, fds=fds)
    elif mode == "sum":
        classification = classify_direct_access_sum(query, fds=fds)
    elif mode == "selection_lex":
        classification = classify_selection_lex(query, order, fds=fds)
        if order is not None:
            order.validate_for(query)
    else:
        classification = classify_selection_sum(query, fds=fds)

    if enforce_tractability and classification.verdict == "intractable":
        message = _INTRACTABLE_MESSAGES[mode].format(
            order=order, name=query.name, reason=classification.reason
        )
        raise IntractableQueryError(message, classification)

    objects = PlanObjects(query=query, order=order, fds=fds)
    result = QueryPlan(
        mode=mode,
        query=_query_text(query),
        order=_order_text(order),
        fds=_fds_text(fds),
        backend=backend,
        classification=classification,
        objects=objects,
    )

    stages: List[PlanStage] = [
        PlanStage(
            "classify", "analyze",
            f"{classification.theorem}: {classification.verdict}"
            + (f" {classification.guarantee}" if classification.guarantee else ""),
        )
    ]

    try:
        _structural_steps(result, stages, mode, enforce_tractability, shards)
    except ReproError as exc:
        if strict:
            result.stages = tuple(stages)
            raise
        result.error = f"{type(exc).__name__}: {exc}"

    result.stages = tuple(stages)
    return result


def _structural_steps(result: QueryPlan, stages: List[PlanStage], mode: str,
                      enforce_tractability: bool, requested_shards: int = 1) -> None:
    """Run the data-independent pipeline, filling the plan and its stage DAG."""
    objects = result.objects
    query, order, fds = objects.query, objects.order, objects.fds
    previous = "classify"

    def shard_fallback(reason: str) -> None:
        """Record why a requested sharded build degrades to one shard."""
        if requested_shards > 1:
            result.partition = {
                "strategy": "none",
                "requested": requested_shards,
                "shards": 1,
                "reason": reason,
            }

    # -- FD-extension rewrite ------------------------------------------
    effective_query, effective_order = query, order
    if fds:
        from repro.fds.extension import describe_extension, fd_extension
        from repro.fds.reorder import reorder_lex_order

        effective_query, _ = fd_extension(query, fds)
        rewrite = describe_extension(query, fds)
        if order is not None:
            effective_order = reorder_lex_order(query, fds, order)
            rewrite["reordered_order"] = _order_text(effective_order)
        result.fd_rewrite = rewrite
        stages.append(PlanStage(
            "fd_rewrite", "rewrite",
            "extend atoms and head along the unary FDs (Lemma 8.5)",
            (previous,),
        ))
        previous = "fd_rewrite"
    objects.effective_query = effective_query
    objects.effective_order = effective_order

    # -- Normalisation --------------------------------------------------
    normalized, _ = effective_query.normalize(None)
    objects.normalized_query = normalized
    result.normalized_query = _query_text(normalized)
    stages.append(PlanStage(
        "normalize", "rewrite",
        "deduplicate repeated variables and self-join copies",
        (previous,),
    ))
    previous = "normalize"

    if normalized.is_boolean:
        result.boolean = True
        shard_fallback("Boolean queries have at most one answer; nothing to partition")
        stages.append(PlanStage(
            "evaluate_boolean", "solve",
            "Boolean query: a single empty answer iff the body is satisfiable",
            (previous,),
        ))
        return

    # -- SUM direct access: covering atom instead of a layered tree -----
    if mode == "sum":
        shard_fallback(
            "SUM orders rank by global answer weight; range partitioning "
            "applies to lexicographic orders only"
        )
        covering = st.atom_containing_all_free_variables(normalized)
        if covering is None:
            raise IntractableQueryError(
                f"no atom of {normalized.name} contains all free variables; "
                "SUM direct access is only implemented for the tractable class",
                result.classification,
            )
        objects.covering_atom = covering
        result.covering_atom = str(covering)
        result.reduction_tree = build_join_tree(normalized.hypergraph()).to_dict()
        stages.append(PlanStage(
            "semi_join_reduce", "reduce",
            "remove dangling tuples over a join tree (Yannakakis)",
            (previous,),
        ))
        stages.append(PlanStage(
            "project_answers", "reduce",
            f"project the covering atom {covering} onto the free variables",
            ("semi_join_reduce",),
        ))
        stages.append(PlanStage(
            "score_and_sort", "solve",
            "weigh every answer and sort once (constant-time access after)",
            ("project_answers",),
        ))
        return

    # -- Projection elimination (Proposition 2.3) -----------------------
    projection_plan = plan_projection_elimination(normalized)
    objects.projection_plan = projection_plan
    objects.full_query = projection_plan.full_query
    result.full_query = _query_text(projection_plan.full_query)
    result.reduction_tree = build_join_tree(normalized.hypergraph()).to_dict()
    stages.append(PlanStage(
        "eliminate_projections", "reduce",
        "reduce to a full acyclic CQ over the free-maximal hyperedges",
        (previous,),
    ))
    previous = "eliminate_projections"

    if mode == "selection_lex":
        ordered = tuple(effective_order.variables) + tuple(
            v for v in projection_plan.full_query.free_variables
            if v not in effective_order.variables
        )
        objects.ordered_variables = ordered
        result.ordered_variables = ordered
        last = previous
        if requested_shards > 1:
            if not effective_order.variables:
                shard_fallback(
                    "orderless selection has no leading order variable to partition on"
                )
            else:
                leading = ordered[0]
                result.shards = requested_shards
                result.partition = {
                    "strategy": "range",
                    "variable": leading,
                    "shards": requested_shards,
                    "descending": effective_order.is_descending(leading),
                }
                stages.append(PlanStage(
                    "partition", "reduce",
                    f"range-partition the reduced database on {leading} into "
                    f"{requested_shards} shards (leading histogram scans per shard)",
                    (last,),
                ))
                last = "partition"
        for variable in ordered:
            name = f"select:{variable}"
            stages.append(PlanStage(
                name, "solve",
                f"histogram over {variable} (Lemma 6.5) and weighted selection",
                (last,),
            ))
            last = name
        return

    if mode == "selection_sum":
        shard_fallback(
            "SUM orders rank by global answer weight; range partitioning "
            "applies to lexicographic orders only"
        )
        fmh = len(projection_plan.full_query.atoms)
        if fmh == 1:
            stages.append(PlanStage(
                "select_fmh1", "solve",
                "single maximal hyperedge: linear-time selection (Lemma 7.8)",
                (previous,),
            ))
        elif fmh == 2:
            stages.append(PlanStage(
                "select_fmh2", "solve",
                "two maximal hyperedges: sorted-matrix union selection (Lemma 7.10)",
                (previous,),
            ))
        else:
            raise IntractableQueryError(
                "selection by SUM needs fmh ≤ 2 but the reduced query has "
                f"{fmh} maximal hyperedges",
                result.classification,
            )
        return

    # -- LEX direct access: complete the order, build the layered tree --
    complete = require_complete_order(projection_plan.full_query, effective_order)
    objects.complete_order = complete
    result.complete_order = _order_text(complete)
    stages.append(PlanStage(
        "complete_order", "analyze",
        "complete the partial order without disruptive trios (Lemma 4.4)",
        (previous,),
    ))

    tree = build_layered_join_tree(projection_plan.full_query, complete)
    objects.tree = tree
    layer_plans = []
    for layer in tree.layers:
        layer_plans.append(LayerPlan(
            index=layer.index,
            variable=layer.variable,
            node_variables=tuple(v for v in complete.variables if v in layer.node_variables),
            key_variables=layer.key_variables,
            parent=layer.parent,
            children=tree.children(layer.index),
            source_atom=str(layer.source_atom),
            descending=complete.is_descending(layer.variable),
        ))
    result.layers = tuple(layer_plans)

    build_root = "complete_order"
    if requested_shards > 1:
        leading = complete.variables[0]
        result.shards = requested_shards
        result.partition = {
            "strategy": "range",
            "variable": leading,
            "shards": requested_shards,
            "descending": complete.is_descending(leading),
        }
        stages.append(PlanStage(
            "partition", "reduce",
            f"range-partition the reduced database on {leading} into "
            f"{requested_shards} shards (global order = concatenated shard orders)",
            ("complete_order",),
        ))
        build_root = "partition"

    stages.append(PlanStage(
        "project_nodes", "reduce",
        "distinct projection of a source atom per tree node",
        (build_root,),
    ))
    stages.append(PlanStage(
        "semi_join_reduce", "reduce",
        "remove dangling tuples over the layered tree (Yannakakis)",
        ("project_nodes",),
    ))
    # A layer's build depends on its children's builds (Sec. 3.1's bottom-up
    # counting pass).
    for layer_plan in result.layers:
        depends = tuple(f"layer:{c}" for c in layer_plan.children) or ("semi_join_reduce",)
        stages.append(PlanStage(
            f"layer:{layer_plan.index}", "layer",
            f"buckets, sort and counting DP for layer {layer_plan.index} "
            f"({layer_plan.variable})",
            depends,
        ))
