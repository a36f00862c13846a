"""The one table that names every public entry point the ladder times.

The ladder never imports ``repro`` directly: it asks :func:`load` for an
entry by its key here.  When a later change deletes or renames one, the rungs
built on it report ``null`` with the reason instead of failing the run, and
this table is the only place to repoint.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

#: key → (module, dotted attribute path inside it)
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    # engine / planner: what set-up pays for
    "load_database": ("repro.service.protocol", "load_database"),
    "plan": ("repro.planner", "plan"),
    "PlanExecutor.build_lex": ("repro.planner.executor", "PlanExecutor.build_lex"),
    "PlanExecutor.build_sum": ("repro.planner.executor", "PlanExecutor.build_sum"),
    "PlanExecutor": ("repro.planner.executor", "PlanExecutor"),
    "build_weights": ("repro.service.protocol", "build_weights"),
    "canonical_weights": ("repro.service.protocol", "canonical_weights"),
    # core: the paper's kernels
    "capture": ("repro.core.snapshot", "capture"),
    "InstanceSnapshot.publish": ("repro.core.snapshot", "InstanceSnapshot.publish"),
    "InstanceSnapshot.attach": ("repro.core.snapshot", "InstanceSnapshot.attach"),
    "SnapshotInstance.access": ("repro.core.snapshot", "SnapshotInstance.access"),
    "SnapshotInstance.batch_access": ("repro.core.snapshot", "SnapshotInstance.batch_access"),
    "SnapshotInstance.range_access": ("repro.core.snapshot", "SnapshotInstance.range_access"),
    "LexDirectAccess.access": ("repro.core.direct_access", "LexDirectAccess.access"),
    "SumDirectAccess.access": ("repro.core.sum_direct_access", "SumDirectAccess.access"),
    "SumDirectAccess.range_access": ("repro.core.sum_direct_access", "SumDirectAccess.range_access"),
    # live + service
    "QueryService": ("repro.service.service", "QueryService"),
    "QueryService.execute": ("repro.service.service", "QueryService.execute"),
    "QueryService.dispatch_raw": ("repro.service.service", "QueryService.dispatch_raw"),
    "QueryService.insert": ("repro.service.service", "QueryService.insert"),
    "QueryService.compact": ("repro.service.service", "QueryService.compact"),
    "PreparedPlan.access": ("repro.service.service", "PreparedPlan.access"),
    "set_enabled": ("repro.obs", "set_enabled"),
    # protocol / dispatch / pool
    "encode_response": ("repro.service.dispatch", "encode_response"),
    "execute_snapshot_op": ("repro.service.dispatch", "execute_snapshot_op"),
    "pack_request_frame": ("repro.service.dispatch", "pack_request_frame"),
    "pack_response_frame": ("repro.service.dispatch", "pack_response_frame"),
    "REQUEST_HEADER": ("repro.service.dispatch", "REQUEST_HEADER"),
    "RESPONSE_HEADER": ("repro.service.dispatch", "RESPONSE_HEADER"),
    "WorkerPool": ("repro.service.pool", "WorkerPool"),
    "WorkerPool.dispatch": ("repro.service.pool", "WorkerPool.dispatch"),
    # the measured client (the load generator's own client is frozen)
    "HTTPSession": ("repro.service.client", "HTTPSession"),
}


class Missing(Exception):
    """An entry point (or something built from one) is not there; ``str`` is why."""


def load(key: str):
    """The object behind ``key``; :class:`Missing` with the reason otherwise."""
    module_name, path = ENTRY_POINTS[key]
    try:
        target = importlib.import_module(module_name)
    except ImportError as exc:
        raise Missing(f"{key}: cannot import {module_name} ({exc})") from None
    for part in path.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise Missing(f"{key}: {module_name} has no {path}") from None
    return target
