"""Serving subsystem: prepared queries, a plan cache, and front-ends.

The paper's complexity split — quasilinear preprocessing once, logarithmic
per-access forever after — is the shape of a serving system.  This package
keeps preprocessed instances alive and serves many requests against them:

* :class:`QueryService` — registers databases, prepares (query, order, FDs,
  backend) combinations behind a bounded LRU :class:`PlanCache`, and serves
  ``access`` / ``batch_access`` / ``inverted_access`` / ``range`` / ``topk``
  / one-shot ``selection`` requests, thread-safely.
* :mod:`repro.service.protocol` — canonical plan fingerprints and the JSON
  request/response encoding shared by all front-ends.
* :mod:`repro.service.eventloop` — the HTTP front-end (``repro serve``,
  :func:`make_server`): one non-blocking selectors-based thread multiplexes
  every connection and the pool's worker sockets; worker responses pass
  through zero-copy.
* :mod:`repro.service.client` — :class:`HTTPSession`, the keep-alive JSON
  client used by ``repro client`` and the benchmark harnesses.
* :mod:`repro.service.pool` — a prefork :class:`WorkerPool`: worker
  processes attach the shared-memory snapshot images of published plans and
  serve routed read ops (``repro serve --workers N``); epoch swaps cross
  process boundaries through a re-attach barrier before old buffers retire.
* :mod:`repro.service.gates` — :class:`AdmissionGate`: cost-classified plan
  builds are bounded (slots + queue) and shed with a structured 503, so
  point lookups on built plans never wait behind a build storm.
* :mod:`repro.service.dispatch` — routing (fingerprint + leading-rank shard
  affinity) and the worker-side op executor, mirrored field-for-field from
  the master's handlers so routed responses stay bit-identical.

Quick start::

    from repro.service import QueryService

    service = QueryService(max_plans=32, backend="columnar")
    service.register_database("demo", database)
    plan = service.prepare("demo", "Q(x, y, z) :- R(x, y), S(y, z)",
                           order="x, y desc, z")
    plan.access(17)                  # one answer
    plan.batch_access([3, 1, 4])     # vectorized batch
    plan.inverted_access((0, 5, 2))  # answer -> rank
"""

from repro.live import CompactionPolicy, LiveDatabase, LiveInstance
from repro.service.dispatch import ROUTABLE_OPS
from repro.service.gates import AdmissionGate, BuildCost, classify_build
from repro.service.plan_cache import CacheStats, PlanCache
from repro.service.pool import WorkerPool, pool_supported
from repro.service.protocol import (
    STATUS_BY_CODE,
    PlanSpec,
    ServiceError,
    database_from_json,
    database_to_json,
    load_database,
    read_request_lines,
)
from repro.service.service import PreparedPlan, QueryService, run_requests
from repro.service.eventloop import EventLoopHTTPServer, make_server
from repro.service.client import HTTPSession

__all__ = [
    "AdmissionGate",
    "BuildCost",
    "CacheStats",
    "CompactionPolicy",
    "EventLoopHTTPServer",
    "HTTPSession",
    "LiveDatabase",
    "LiveInstance",
    "PlanCache",
    "PlanSpec",
    "PreparedPlan",
    "QueryService",
    "ROUTABLE_OPS",
    "STATUS_BY_CODE",
    "ServiceError",
    "WorkerPool",
    "classify_build",
    "database_from_json",
    "database_to_json",
    "load_database",
    "make_server",
    "pool_supported",
    "read_request_lines",
    "run_requests",
]
