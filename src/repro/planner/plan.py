"""The :class:`QueryPlan` intermediate representation.

A :class:`QueryPlan` is the explicit, inspectable record of every decision the
paper's pipeline makes before any data is touched:

* the tractability classification verdict (which theorem, which witness),
* the FD-extension rewrite (added columns, newly-free variables, the
  reordered order),
* normalisation and projection elimination (the full query ``Q'``),
* the completed variable order and the layered join tree shape,
* the staged build DAG (which stages depend on which), and
* per-stage build statistics once a :class:`~repro.planner.executor.PlanExecutor`
  has run the plan against a database.

Plans are produced by :func:`repro.planner.plan` from the query, order, FDs
and backend alone — no database — which is what lets ``repro explain`` print
a full plan without building anything.  The plan's :attr:`QueryPlan.fingerprint`
is a stable hash of the logical content (canonical query/order text, sorted
FDs, layer shapes, stage names); the service derives its cache keys from it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.classification import Classification


@dataclass(frozen=True)
class PlanStage:
    """One node of the staged build DAG.

    ``name`` is unique within the plan (e.g. ``"layer:3"``); ``kind`` groups
    stages for display (``"analyze"``, ``"rewrite"``, ``"reduce"``,
    ``"layer"``, ``"solve"``); ``depends_on`` names the stages that must
    finish first.
    """

    name: str
    kind: str
    description: str
    depends_on: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "depends_on": list(self.depends_on),
        }


@dataclass(frozen=True)
class LayerPlan:
    """The shape of one layer of the layered join tree (Definition 3.4)."""

    index: int
    variable: str
    node_variables: Tuple[str, ...]
    key_variables: Tuple[str, ...]
    parent: Optional[int]
    children: Tuple[int, ...]
    source_atom: str
    descending: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "variable": self.variable,
            "node_variables": list(self.node_variables),
            "key_variables": list(self.key_variables),
            "parent": self.parent,
            "children": list(self.children),
            "source_atom": self.source_atom,
            "descending": self.descending,
        }


@dataclass
class StageStats:
    """Measured statistics of one executed stage.

    ``mem_bytes`` (net allocation delta) and ``mem_peak`` (tracemalloc
    high-water mark during the stage) are only present when the build ran
    with memory attribution on (``REPRO_BUILD_MEMORY=1``); they stay out of
    the serialized shape otherwise so existing consumers see no change.
    """

    name: str
    seconds: float
    rows: Optional[int] = None
    mem_bytes: Optional[int] = None
    mem_peak: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "rows": self.rows,
        }
        if self.mem_bytes is not None:
            document["mem_bytes"] = self.mem_bytes
        if self.mem_peak is not None:
            document["mem_peak"] = self.mem_peak
        return document


@dataclass
class ExecutionReport:
    """Per-stage statistics of one :class:`PlanExecutor` run."""

    total_seconds: float = 0.0
    stages: List[StageStats] = field(default_factory=list)

    def record(self, name: str, seconds: float, rows: Optional[int] = None,
               mem_bytes: Optional[int] = None,
               mem_peak: Optional[int] = None) -> None:
        self.stages.append(StageStats(name, seconds, rows, mem_bytes, mem_peak))

    def stage(self, name: str) -> Optional[StageStats]:
        for stats in self.stages:
            if stats.name == name:
                return stats
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_seconds": round(self.total_seconds, 6),
            "stages": [stats.to_dict() for stats in self.stages],
        }


@dataclass
class PlanObjects:
    """The live library objects backing a plan (not serialised, not hashed).

    The executor uses these to avoid re-deriving what planning already
    computed: the parsed query/order/FDs, the normalised and full queries,
    the completed order, the layered join tree and the projection plan.
    """

    query: object = None               # ConjunctiveQuery
    order: object = None               # LexOrder | None (original)
    fds: object = None                 # FDSet | None
    effective_query: object = None     # post-FD-extension query
    effective_order: object = None     # post-FD-reorder order
    normalized_query: object = None
    projection_plan: object = None     # reduction.ProjectionPlan
    full_query: object = None
    complete_order: object = None
    tree: object = None                # LayeredJoinTree
    covering_atom: object = None       # Atom (sum mode)
    ordered_variables: Tuple[str, ...] = ()   # selection_lex


@dataclass
class QueryPlan:
    """The complete decision trace of one (query, order, FDs, backend, mode).

    ``stats`` is filled in by the executor after a build; everything else is
    decided at plan time from the query alone.  ``error`` is only set by
    non-strict planning (``repro explain`` of inputs whose structural steps
    fail) and records why the stage list stops early.
    """

    mode: str
    query: str
    order: Optional[str]
    fds: Tuple[str, ...]
    backend: Optional[str]
    classification: Classification
    #: Effective shard count of the build (1 = monolithic).  ``partition``
    #: records the routing decision — strategy, leading variable, and (when
    #: a request had to fall back to one shard) the reason why.
    shards: int = 1
    partition: Optional[Dict[str, object]] = None
    fd_rewrite: Optional[Dict[str, object]] = None
    normalized_query: Optional[str] = None
    full_query: Optional[str] = None
    complete_order: Optional[str] = None
    reduction_tree: Optional[Dict[str, object]] = None
    layers: Tuple[LayerPlan, ...] = ()
    covering_atom: Optional[str] = None
    ordered_variables: Tuple[str, ...] = ()
    boolean: bool = False
    stages: Tuple[PlanStage, ...] = ()
    error: Optional[str] = None
    stats: Optional[ExecutionReport] = None
    objects: PlanObjects = field(default_factory=PlanObjects, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def verdict(self) -> str:
        return self.classification.verdict

    @property
    def tractable(self) -> bool:
        return self.classification.tractable

    def stage(self, name: str) -> Optional[PlanStage]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    # ------------------------------------------------------------------
    # Fingerprint
    # ------------------------------------------------------------------
    def _logical_payload(self) -> Dict[str, object]:
        """The hashed content: every logical decision, no stats, no objects."""
        return {
            "mode": self.mode,
            "query": self.query,
            "order": self.order,
            "fds": list(self.fds),
            "backend": self.backend,
            "shards": self.shards,
            "partition": self.partition,
            "verdict": self.classification.verdict,
            "theorem": self.classification.theorem,
            "fd_rewrite": self.fd_rewrite,
            "normalized_query": self.normalized_query,
            "full_query": self.full_query,
            "complete_order": self.complete_order,
            "layers": [layer.to_dict() for layer in self.layers],
            "covering_atom": self.covering_atom,
            "ordered_variables": list(self.ordered_variables),
            "boolean": self.boolean,
            "stages": [stage.name for stage in self.stages],
        }

    @property
    def fingerprint(self) -> str:
        """A stable hex id of the plan's logical content.

        Identical logical plans — however their FDs were listed or their
        inputs were spelled — share a fingerprint; any change of verdict,
        rewrite, order completion, tree shape or stage list changes it.
        """
        payload = json.dumps(self._logical_payload(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self, include_stats: bool = True) -> Dict[str, object]:
        """The plan as a JSON-ready dict (the ``repro explain`` wire shape)."""
        classification = {
            "problem": self.classification.problem,
            "order_family": self.classification.order_family,
            "verdict": self.classification.verdict,
            "guarantee": self.classification.guarantee,
            "reason": self.classification.reason,
            "theorem": self.classification.theorem,
            "hypotheses": list(self.classification.hypotheses),
        }
        document: Dict[str, object] = {
            "fingerprint": self.fingerprint,
            "mode": self.mode,
            "query": self.query,
            "order": self.order,
            "fds": list(self.fds),
            "backend": self.backend,
            "shards": self.shards,
            "partition": self.partition,
            "classification": classification,
            "fd_rewrite": self.fd_rewrite,
            "normalized_query": self.normalized_query,
            "full_query": self.full_query,
            "complete_order": self.complete_order,
            "reduction_tree": self.reduction_tree,
            "layers": [layer.to_dict() for layer in self.layers],
            "covering_atom": self.covering_atom,
            "ordered_variables": list(self.ordered_variables),
            "boolean": self.boolean,
            "stages": [stage.to_dict() for stage in self.stages],
        }
        if self.error is not None:
            document["error"] = self.error
        if include_stats and self.stats is not None:
            document["stats"] = self.stats.to_dict()
        return document

    def describe(self) -> str:
        """A human-readable rendering of the plan (the default explain output)."""
        lines: List[str] = []
        lines.append(f"plan {self.fingerprint} · mode={self.mode}"
                     + (f" · backend={self.backend}" if self.backend else ""))
        lines.append(f"query:   {self.query}")
        if self.order:
            lines.append(f"order:   {self.order}")
        if self.fds:
            lines.append("FDs:     " + ", ".join(self.fds))
        c = self.classification
        verdict = c.verdict + (f" {c.guarantee}" if c.tractable and c.guarantee else "")
        lines.append(f"verdict: {verdict} ({c.theorem}) — {c.reason}")
        if self.partition is not None:
            if self.shards > 1:
                direction = " desc" if self.partition.get("descending") else ""
                lines.append(
                    f"partition: range on {self.partition.get('variable')}{direction} "
                    f"into {self.shards} shards"
                )
            else:
                lines.append(
                    f"partition: requested {self.partition.get('requested')} shards, "
                    f"using 1 — {self.partition.get('reason')}"
                )
        if self.fd_rewrite:
            lines.append(f"FD-extension: {self.fd_rewrite.get('extended_query')}")
            added = self.fd_rewrite.get("added_columns") or {}
            for relation, columns in added.items():
                lines.append(f"  + {relation} gains {', '.join(columns)}")
            newly_free = self.fd_rewrite.get("newly_free") or []
            if newly_free:
                lines.append(f"  + newly free: {', '.join(newly_free)}")
            reordered = self.fd_rewrite.get("reordered_order")
            if reordered:
                lines.append(f"  + reordered order: {reordered}")
        if self.normalized_query and self.normalized_query != self.query:
            lines.append(f"normalized: {self.normalized_query}")
        if self.full_query:
            lines.append(f"full query: {self.full_query}")
        if self.complete_order:
            lines.append(f"complete order: {self.complete_order}")
        if self.covering_atom:
            lines.append(f"covering atom: {self.covering_atom}")
        if self.ordered_variables:
            lines.append("selection order: " + ", ".join(self.ordered_variables))
        if self.layers:
            lines.append("layered join tree:")
            for layer in self.layers:
                parent = "root" if layer.parent is None else f"parent=L{layer.parent}"
                arrow = "↓" if layer.descending else ""
                lines.append(
                    f"  L{layer.index}({layer.variable}{arrow}) "
                    f"{{{', '.join(layer.node_variables)}}} "
                    f"key={{{', '.join(layer.key_variables)}}} {parent} "
                    f"from {layer.source_atom}"
                )
        lines.append("stages:")
        for stage in self.stages:
            deps = f"  ⇐ {', '.join(stage.depends_on)}" if stage.depends_on else ""
            lines.append(f"  {stage.name} [{stage.kind}] — {stage.description}{deps}")
        if self.error:
            lines.append(f"error: {self.error}")
        if self.stats is not None:
            stats = self.stats
            lines.append(f"last build: {stats.total_seconds * 1000:.1f} ms total")
            for stage_stats in stats.stages:
                rows = f", rows={stage_stats.rows}" if stage_stats.rows is not None else ""
                lines.append(
                    f"  {stage_stats.name}: {stage_stats.seconds * 1000:.1f} ms{rows}"
                )
        return "\n".join(lines)
