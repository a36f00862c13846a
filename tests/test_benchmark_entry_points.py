"""The benchmark ladder's entry points into ``repro`` keep loading.

``benchmarks/e2e`` reaches the library only through the table in its
``rungs.py``.  A rung whose entry point was deleted or renamed prints its
metric with a null value, and a benchmark line with a null value is refused.
So every key of that table must load, and the calls the ladder makes with
them must keep their shape.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

RUNGS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "rungs.py"


def _import_rungs():
    spec = importlib.util.spec_from_file_location("e2e_rungs", RUNGS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rungs = _import_rungs()


@pytest.mark.parametrize("key", sorted(rungs.ENTRY_POINTS))
def test_every_entry_point_loads(key):
    assert rungs.load(key) is not None


def test_plan_executor_builds_from_a_plan_and_a_database():
    inspect.signature(rungs.load("PlanExecutor")).bind("plan", "database")


@pytest.mark.parametrize("key, args, kwargs", [
    ("QueryService", (), {"max_plans": 8, "backend": "columnar", "shards": 2}),
    ("plan", ("query", "order"), {"mode": "lex", "shards": 2}),
    ("WorkerPool", (), {"workers": 2}),
    ("WorkerPool.dispatch", ("pool", "fingerprint", "request", "epoch"), {}),
    ("QueryService.dispatch_raw", ("service", "request"), {}),
    ("execute_snapshot_op", ("kernel", "bench", "request"), {}),
])
def test_the_ladder_calls_keep_their_shape(key, args, kwargs):
    inspect.signature(rungs.load(key)).bind(*args, **kwargs)
