"""End-to-end observability: metrics registry, request tracing, slow-query log.

This package is the system's telemetry core — stdlib-only, lock-cheap, and
safe to import from any layer (it imports nothing from the rest of
:mod:`repro`, so the deepest kernels can count events without cycles).

Three process-global singletons back the instrumentation:

* :data:`METRICS` — the default :class:`~repro.obs.metrics.MetricsRegistry`;
  every instrumented layer registers its families here, ``GET /metrics``
  renders it as Prometheus text and the ``metrics`` op as JSON.
* :data:`TRACER` — the default :class:`~repro.obs.trace.Tracer`; the service
  opens one request context per op, lower layers add spans/events, and the
  last N traces stay addressable by id (``repro trace <id>``).
* The metric **family handles** below — created once at import so the hot
  paths pay a pre-bound method call, not a registry lookup, per event.

Toggling: ``REPRO_OBS=0`` (or ``false``/``off``) disables metrics *and*
tracing before the process serves anything; :func:`set_enabled` flips both at
runtime (``repro serve --no-obs``, the overhead benchmark).  Disabled means
one attribute check per instrumentation point.  ``REPRO_TRACE_RETAIN``
bounds the trace ring buffer (default 256).

The catalogue of series every layer feeds (labels in braces):

========================================  ============================================
``repro_requests_total{op,status}``       service requests by op and outcome
``repro_request_seconds{op}``             request latency histogram per op
``repro_http_errors_total{op,status}``    HTTP 4xx/5xx responses by op and status
``repro_plan_cache_events_total{event}``  hit / miss / coalesced / eviction / invalidation
``repro_plan_builds_total{mode}``         executor builds by plan mode
``repro_build_stage_seconds{stage}``      per-stage build latency histogram
``repro_access_total{op,kernel}``         access-kernel dispatch (snapshot vs object walk)
``repro_answers_total{op}``               answers served by batched/range reads
``repro_mutations_total{op}``             live insert/delete batches applied
``repro_mutation_rows_total{op}``         rows those batches applied
``repro_delta_refreshes_total``           merged-view refreshes (delta fast path)
``repro_compaction_seconds{mode}``        compaction duration histogram (full/partial/noop)
``repro_slow_queries_total{op}``          requests over the slow-query threshold
``repro_live_epoch{db}``                  current epoch per registered database
``repro_delta_tuples{db}``                pending delta tuples per database
``repro_epoch_lag{plan}``                 live epoch − the epoch a cached plan serves
``repro_plans_cached``                    plans resident in the LRU cache
``repro_gate_events_total{lane,outcome}`` admission-gate decisions (fast/admitted/queued/shed/timeout)
``repro_gate_queue_depth{lane}``          builds currently waiting in the gate queue
``repro_gate_wait_seconds{lane}``         time builds spent queued before admission
``repro_pool_dispatches_total{worker,outcome}``  pool routing (routed/miss/failed)
``repro_pool_workers``                    worker processes currently alive
``repro_worker_restarts_total{worker}``   worker respawns after crash/kill
``repro_loop_lag_seconds``                event-loop heartbeat lag (scheduling delay)
``repro_loop_open_connections``           sockets currently open on the event loop
``repro_loop_active_requests``            requests in flight (worker or executor)
``repro_loop_state_seconds{state}``       per-request time by loop state (read/dispatch/serve/write)
``repro_loop_events_total{event}``        loop lifecycle events (accept/timeout/overflow/...)
``repro_loop_lane_total{lane}``           requests by serving lane (loop/worker/executor)
``repro_trace_spans_shipped_total``       worker spans shipped back on response frames and stitched
``repro_trace_spans_dropped_total``       worker span subtrees dropped (payload over the size bound)
``repro_profile_samples_total``           stack samples taken by the sampling profiler
========================================  ============================================

When the worker pool is active, each worker process keeps its *own* registry
whose families are aggregated into the master's ``GET /metrics`` exposition
(worker id as a label): ``repro_pool_worker_requests_total{worker,op,status}``,
``repro_pool_worker_request_seconds{worker,op}``,
``repro_pool_worker_answers_total{worker,op}`` and
``repro_pool_worker_attached_plans{worker}``.
"""

from __future__ import annotations

import os

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.obs.slowlog import (
    DEFAULT_THRESHOLD_SECONDS,
    SlowQueryLog,
    describe_rank_span,
    threshold_from_env,
)
from repro.obs.trace import Span, Tracer, format_span_tree

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_buckets",
    "SlowQueryLog",
    "DEFAULT_THRESHOLD_SECONDS",
    "describe_rank_span",
    "threshold_from_env",
    "Span",
    "Tracer",
    "format_span_tree",
    "METRICS",
    "TRACER",
    "set_enabled",
    "obs_enabled",
]


def _env_flag(name: str, default: bool = True) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no")


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


_ENABLED_AT_IMPORT = _env_flag("REPRO_OBS", True)

#: The process-wide registry every instrumented layer writes to.
METRICS = MetricsRegistry(enabled=_ENABLED_AT_IMPORT)

#: The process-wide tracer (ring buffer of the last N request traces).
TRACER = Tracer(enabled=_ENABLED_AT_IMPORT,
                retain=_env_int("REPRO_TRACE_RETAIN", 256))


def set_enabled(flag: bool) -> None:
    """Enable/disable metrics and tracing together (the master toggle)."""
    if flag:
        METRICS.enable()
        TRACER.enable()
    else:
        METRICS.disable()
        TRACER.disable()


def obs_enabled() -> bool:
    return METRICS.enabled


# ----------------------------------------------------------------------
# Shared family handles (pre-bound so hot paths skip the registry lookup)
# ----------------------------------------------------------------------
REQUESTS = METRICS.counter(
    "repro_requests_total", "Service requests by op and outcome status.",
    ("op", "status"),
)
REQUEST_SECONDS = METRICS.histogram(
    "repro_request_seconds", "Service request latency by op.", ("op",),
)
HTTP_ERRORS = METRICS.counter(
    "repro_http_errors_total", "HTTP 4xx/5xx responses by op and status code.",
    ("op", "status"),
)
PLAN_CACHE_EVENTS = METRICS.counter(
    "repro_plan_cache_events_total",
    "Plan-cache events: hit, miss, coalesced, eviction, invalidation.",
    ("event",),
)
PLAN_BUILDS = METRICS.counter(
    "repro_plan_builds_total", "Plan-executor builds by plan mode.", ("mode",),
)
BUILD_STAGE_SECONDS = METRICS.histogram(
    "repro_build_stage_seconds", "Per-stage build latency across executor runs.",
    ("stage",),
)
ACCESS_KERNELS = METRICS.counter(
    "repro_access_total",
    "Access-kernel invocations by operation and dispatched kernel.",
    ("op", "kernel"),
)
ANSWERS = METRICS.counter(
    "repro_answers_total", "Answers served by batched and range reads.", ("op",),
)
MUTATIONS = METRICS.counter(
    "repro_mutations_total", "Live mutation batches that changed state.", ("op",),
)
MUTATION_ROWS = METRICS.counter(
    "repro_mutation_rows_total", "Rows applied by live mutation batches.", ("op",),
)
DELTA_REFRESHES = METRICS.counter(
    "repro_delta_refreshes_total",
    "Merged-view refreshes served by the delta fast path.",
)
COMPACTION_SECONDS = METRICS.histogram(
    "repro_compaction_seconds",
    "Live-instance compaction duration by mode (full, partial, noop).",
    ("mode",),
)
SLOW_QUERIES = METRICS.counter(
    "repro_slow_queries_total", "Requests slower than the slow-query threshold.",
    ("op",),
)
LIVE_EPOCH = METRICS.gauge(
    "repro_live_epoch", "Current epoch of each registered live database.", ("db",),
)
DELTA_TUPLES = METRICS.gauge(
    "repro_delta_tuples", "Pending delta tuples (inserted + deleted) per database.",
    ("db",),
)
EPOCH_LAG = METRICS.gauge(
    "repro_epoch_lag",
    "Live epoch minus the epoch each cached plan currently serves.",
    ("plan",),
)
PLANS_CACHED = METRICS.gauge(
    "repro_plans_cached", "Prepared plans resident in the LRU cache.",
)
GATE_EVENTS = METRICS.counter(
    "repro_gate_events_total",
    "Admission-gate decisions: fast, admitted, queued, shed, timeout.",
    ("lane", "outcome"),
)
GATE_QUEUE_DEPTH = METRICS.gauge(
    "repro_gate_queue_depth", "Plan builds currently waiting in the gate queue.",
    ("lane",),
)
GATE_WAIT_SECONDS = METRICS.histogram(
    "repro_gate_wait_seconds", "Time plan builds spent queued before admission.",
    ("lane",),
)
POOL_DISPATCHES = METRICS.counter(
    "repro_pool_dispatches_total",
    "Worker-pool routing outcomes per worker: routed, miss, failed.",
    ("worker", "outcome"),
)
POOL_WORKERS = METRICS.gauge(
    "repro_pool_workers", "Worker processes currently alive in the pool.",
)
WORKER_RESTARTS = METRICS.counter(
    "repro_worker_restarts_total",
    "Worker-process respawns after a crash or kill.",
    ("worker",),
)
LOOP_LAG = METRICS.gauge(
    "repro_loop_lag_seconds",
    "Event-loop heartbeat lag: how late the loop woke vs its schedule.",
)
LOOP_OPEN_CONNECTIONS = METRICS.gauge(
    "repro_loop_open_connections",
    "Client sockets currently open on the event loop.",
)
LOOP_ACTIVE_REQUESTS = METRICS.gauge(
    "repro_loop_active_requests",
    "Event-loop requests currently suspended on a worker or executor.",
)
LOOP_STATE_SECONDS = METRICS.histogram(
    "repro_loop_state_seconds",
    "Per-request wall time by event-loop state (read, dispatch, serve, write).",
    ("state",),
)
LOOP_EVENTS = METRICS.counter(
    "repro_loop_events_total",
    "Event-loop lifecycle events: accept, keepalive, timeout, overflow, "
    "worker_fallback, reset, handler_error.",
    ("event",),
)
LOOP_LANES = METRICS.counter(
    "repro_loop_lane_total",
    "Requests by the lane the front-end chose: loop (answered on the thread "
    "that parsed it), worker (pool), executor (thread pool).",
    ("lane",),
)
#: The three children, bound once: the front-ends bump one per request.
LANE_COUNTERS = {
    lane: LOOP_LANES.bind((lane,)) for lane in ("loop", "worker", "executor")
}
TRACE_SPANS_SHIPPED = METRICS.counter(
    "repro_trace_spans_shipped_total",
    "Worker-side spans shipped back on response frames and stitched into "
    "master traces.",
)
TRACE_SPANS_DROPPED = METRICS.counter(
    "repro_trace_spans_dropped_total",
    "Worker span subtrees dropped because the serialized payload exceeded "
    "the size bound.",
)
PROFILE_SAMPLES = METRICS.counter(
    "repro_profile_samples_total",
    "Stack samples taken by the sampling profiler in this process.",
)
