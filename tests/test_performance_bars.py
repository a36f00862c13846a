"""The two serving performance bars that are ratios on one host.

* **Batched access**: on the columnar backend, ``batch_access`` over 1 024
  ranks serves a Zipf-skewed rank stream at least 3× faster than looped
  single ``access`` — the vectorized layer walk pays the Python per-rank
  walk once per batch.  Needs NumPy.
* **Pooled serving**: four pool workers serve batched reads at least 1.5×
  faster than four client threads on the inline path, which share one GIL.
  Needs the worker pool and at least four CPUs; on fewer, every process
  shares the cores and wall clock cannot show the parallelism.

Answers are compared before anything is timed, and each side keeps its best
of three rounds, so a scheduler hiccup costs a round, not the verdict.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time

import pytest

from repro.engine.backends import available_backends
from repro.service import QueryService, WorkerPool, pool_supported
from repro.workloads.generators import generate_path_database

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"


def zipf_ranks(num: int, universe: int, skew: float = 1.1, seed: int = 0):
    """``num`` ranks in ``[0, universe)`` with Zipf(``skew``) popularity, the
    hot indices scattered over the rank range by an affine bijection."""
    rng = random.Random(seed)
    support = min(universe, max(1024, num))
    weights = [1.0 / (i + 1) ** skew for i in range(support)]
    step = 0x9E3779B1 % universe or 1
    while math.gcd(step, universe) != 1:
        step += 1
    offset = rng.randrange(universe)
    return [(i * step + offset) % universe
            for i in rng.choices(range(support), weights, k=num)]


def canonical(response) -> str:
    return json.dumps({k: v for k, v in response.items() if k != "trace"},
                      sort_keys=True)


def best_of(rounds: int, run) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def path_service(num_tuples: int) -> QueryService:
    service = QueryService(max_plans=8)
    service.register_database("bench", generate_path_database(
        num_tuples, max(8, int(num_tuples ** 0.5)), seed=0))
    return service


@pytest.mark.skipif("columnar" not in available_backends(),
                    reason="the batched kernel needs NumPy")
def test_columnar_batched_1024_is_3x_single_access():
    service = path_service(20_000)
    try:
        plan = service.prepare("bench", QUERY_TEXT, order="x, y, z",
                               backend="columnar")
        ranks = zipf_ranks(16_384, plan.count)
        batches = [ranks[i:i + 1024] for i in range(0, len(ranks), 1024)]
        looped = [plan.access(k) for k in ranks]
        assert [a for batch in batches for a in plan.batch_access(batch)] == looped

        access, batch_access = plan.access, plan.batch_access

        def single():
            for k in ranks:
                access(k)

        def batched():
            for batch in batches:
                batch_access(batch)

        speedup = best_of(3, single) / best_of(3, batched)
    finally:
        service.close()
    assert speedup >= 3.0, f"batched[1024] is {speedup:.2f}x single access"


@pytest.mark.skipif(not pool_supported(), reason="worker pool unavailable")
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-clock parallelism needs at least 4 CPUs")
def test_four_pooled_workers_are_1_5x_threaded_inline():
    """Four client threads send 1 024-rank batches; the best shard count
    (1 or 4) is the bar, as a multicore host realizes it."""
    inline = path_service(8_000)
    pooled = path_service(8_000)
    pool = WorkerPool(workers=4)
    pooled.attach_pool(pool)
    pool.start()
    try:
        speedup = 0.0
        for shards in (1, 4):
            shard_count = shards if shards > 1 else None
            plan = inline.prepare("bench", QUERY_TEXT, order="x, y, z",
                                  shards=shard_count)
            pooled.prepare("bench", QUERY_TEXT, order="x, y, z",
                           shards=shard_count)
            ranks = zipf_ranks(64_000, plan.count)
            requests = [{"op": "batch_access", "plan": plan.fingerprint,
                         "ks": ranks[i:i + 1024]}
                        for i in range(0, len(ranks), 1024)]
            for request in requests[:4]:
                raw = pooled.dispatch_raw(request)
                assert raw is not None, "a batched read did not reach a worker"
                assert canonical(json.loads(bytes(raw[1]))) == canonical(
                    inline.execute(dict(request)))
            chunks = [requests[i::4] for i in range(4)]

            def drive_inline(chunk):
                for request in chunk:
                    inline.execute(dict(request))

            def drive_pooled(chunk):
                for request in chunk:
                    if pooled.dispatch_raw(request) is None:
                        pooled.execute(dict(request))

            def fleet(drive):
                def run():
                    clients = [threading.Thread(target=drive, args=(chunk,))
                               for chunk in chunks]
                    for client in clients:
                        client.start()
                    for client in clients:
                        client.join()
                return run

            speedup = max(speedup, best_of(3, fleet(drive_inline))
                          / best_of(3, fleet(drive_pooled)))
    finally:
        pooled.close()
        inline.close()
    assert speedup >= 1.5, f"4 pooled workers are {speedup:.2f}x threaded inline"
