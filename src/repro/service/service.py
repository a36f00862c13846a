"""The query service: registered databases + prepared plans + request ops.

:class:`QueryService` is the in-process serving front-end the paper's
complexity shape calls for: preprocessing (plan preparation) happens once per
(database, query, order, FDs, backend) combination and is cached in a bounded
LRU (:mod:`repro.service.plan_cache`); every subsequent request — ``access``,
``batch_access``, ``inverted_access``, ``range``, ``topk`` — runs against the
cached structure in logarithmic (or constant) time per answer.

Concurrency model: plans are immutable once built (the preprocessed layer
structures are read-only), so any number of threads may serve requests from
the same plan concurrently; the only synchronization is inside the plan cache
(build coalescing), the service's registration lock, and the lazy
materialization lock of enumeration plans.  This is what the HTTP front-end
(:mod:`repro.service.eventloop`) relies on when it answers small reads on its
loop thread while executor threads build, mutate and serve the rest.

Database re-registration bumps a generation counter; cached plans of older
generations are dropped immediately and any in-flight fingerprint transparently
re-prepares against the new data on next use.

Live updates (:mod:`repro.live`): every registered database is wrapped in a
:class:`~repro.live.delta.LiveDatabase`, so the service accepts ``insert`` /
``delete`` / ``compact`` mutations without re-registration.  Mutations bump
the database's *epoch* — cheaper than a generation bump because cached plans
are **not** invalidated: LEX plans are served through a
:class:`~repro.live.instance.LiveInstance` that re-binds its merged view to
the newest epoch on the next read, and SUM/enumeration plans rebuild their
(materialized) engines lazily when their epoch is stale.  Plan fingerprints,
cache keys and build coalescing are untouched by mutations.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.access import validate_rank
from repro.core.orders import LexOrder
from repro.core.parser import parse_query
from repro.core.selection_lex import selection_lex
from repro.core.selection_sum import selection_sum
from repro.core.sum_direct_access import SumDirectAccess
from repro.engine.database import Database
from repro.exceptions import OutOfBoundsError, ReproError
from repro.live import CompactionPolicy, LiveDatabase, LiveInstance
from repro.obs import (
    ANSWERS,
    DELTA_TUPLES,
    EPOCH_LAG,
    LANE_COUNTERS,
    LIVE_EPOCH,
    LOOP_LANES,
    METRICS,
    PLANS_CACHED,
    POOL_WORKERS,
    REQUEST_SECONDS,
    REQUESTS,
    SLOW_QUERIES,
    TRACER,
    SlowQueryLog,
    describe_rank_span,
)
from repro.ranking.ranked_enumeration import SumRankedEnumerator
from repro.service.dispatch import (
    ROUTABLE_OPS,
    rank_field,
    read_op,
    required,
)
from repro.service.gates import AdmissionGate, classify_build
from repro.service.plan_cache import PlanCache
from repro.service.protocol import (
    PlanSpec,
    ServiceError,
    build_fds,
    build_order,
    build_weights,
    canonical_fds,
    canonical_weights,
    decode_rows,
    encode_answer,
    error_for,
)


class PreparedPlan:
    """One prepared (query, order, FDs, backend) combination, ready to serve.

    Wraps the mode's facade — :class:`LexDirectAccess` (``"lex"``),
    :class:`SumDirectAccess` (``"sum"``) or :class:`SumRankedEnumerator`
    (``"enum"``) — behind a uniform operation surface.  Instances are
    immutable after construction except for the enumeration prefix, which is
    materialized lazily under a lock so concurrent ``topk`` calls are safe.
    """

    def __init__(
        self,
        spec: PlanSpec,
        generation: int,
        engine,
        query_plan=None,
        live: Optional[LiveDatabase] = None,
        built_epoch: int = 0,
        rebuild=None,
    ) -> None:
        self.spec = spec
        self.generation = generation
        self.engine = engine
        #: The planner's :class:`~repro.planner.plan.QueryPlan` (the decision
        #: trace + build statistics); ``None`` for enumeration plans.
        self.query_plan = query_plan
        #: The live database this plan serves (``None`` for detached plans).
        self.live = live
        #: For engines without their own live path (SUM / enumeration): the
        #: epoch the engine was built from, and how to rebuild it; LEX engines
        #: are :class:`~repro.live.instance.LiveInstance` and re-bind
        #: themselves, so ``rebuild`` stays ``None`` for them.
        self._built_epoch = built_epoch
        self._rebuild = rebuild
        self._rebuild_lock = threading.Lock()
        if spec.mode == "enum":
            self._prefix: List[Tuple] = []
            self._stream = engine.stream_with_weights()
            self._exhausted = False
            self._lock = threading.Lock()

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint

    @property
    def epoch(self) -> Optional[int]:
        """The live epoch this plan currently serves (``None`` if detached)."""
        if self.live is None:
            return None
        if isinstance(self.engine, LiveInstance):
            return self.engine.epoch
        return self._built_epoch

    def _sync(self) -> None:
        """Re-bind a materialized (SUM/enum) engine to the newest epoch.

        LEX engines are live instances and sync themselves on every read;
        for the materialized modes the whole answer array depends on the
        data, so the engine is rebuilt from the current state — lazily, only
        when a request actually observes a stale epoch.
        """
        if self.live is None or self._rebuild is None:
            return
        if self.live.epoch == self._built_epoch:
            return
        with self._rebuild_lock:
            if self.live.epoch == self._built_epoch:
                return
            epoch, database = self.live.state()
            engine = self._rebuild(database)
            if self.spec.mode == "enum":
                with self._lock:
                    self._prefix = []
                    self._stream = engine.stream_with_weights()
                    self._exhausted = False
                    self.engine = engine
            else:
                self.engine = engine
            self._built_epoch = epoch

    @property
    def count(self) -> Optional[int]:
        """Number of answers, or ``None`` for enumeration plans (not counted)."""
        return None if self.spec.mode == "enum" else self.reader().count

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def reader(self):
        """The synced, single-epoch object behind every read op: a LEX
        plan's current view (base facade or merged delta), a SUM engine."""
        if self.spec.mode == "enum":
            raise ServiceError(
                "unsupported",
                "enumeration plans only support 'topk'; prepare mode 'lex' or "
                "'sum' for direct access",
            )
        self._sync()
        engine = self.engine
        return engine.snapshot_view() if isinstance(engine, LiveInstance) else engine

    def pinned_reader(self):
        """:meth:`reader` without the sync: the object serving the *current*
        live epoch, or ``None`` when the next read has to sync first (or the
        plan is ``enum``).  No lock, no build — the event loop may call it —
        and a read on the result answers at the epoch it was admitted at."""
        live = self.live
        if live is None or self.spec.mode == "enum":
            return None
        if isinstance(self.engine, LiveInstance):
            snapshot = self.engine._snapshot  # immutable: view and epoch as one
            return snapshot.view if snapshot.epoch == live.epoch else None
        # `_sync` stores the engine before its epoch and `live.epoch` only
        # grows, so epoch-then-engine can pair an engine with an epoch older
        # than its own (and fail the check) but never with a newer one.
        built_epoch = self._built_epoch
        engine = self.engine
        return engine if built_epoch == live.epoch else None

    def access(self, k: int) -> Tuple:
        return self.reader().access(k)

    def batch_access(self, ks: Sequence[int]) -> List[Tuple]:
        return self.reader().batch_access(ks)

    def range(self, lo: int, hi: int) -> List[Tuple]:
        return self.reader().range_access(lo, hi)

    def inverted_access(self, answer: Sequence) -> int:
        return self.reader().inverted_access(answer)

    def topk(self, k: int) -> List[Tuple]:
        """The first ``k`` answers in order (all answers when fewer exist)."""
        k = validate_rank(k)
        if k < 0:
            raise OutOfBoundsError(f"top-k size must be non-negative, got {k}")
        if self.spec.mode != "enum":
            view = self.reader()
            return view.range_access(0, min(k, view.count))
        self._sync()
        with self._lock:
            while len(self._prefix) < k and not self._exhausted:
                try:
                    answer, _ = next(self._stream)
                except StopIteration:
                    self._exhausted = True
                    break
                self._prefix.append(answer)
            return list(self._prefix[:k])


class QueryService:
    """Registered databases + a bounded plan cache + thread-safe request ops.

    Parameters
    ----------
    max_plans:
        Capacity of the LRU plan cache (prepared structures kept hot).
    backend:
        Default storage backend for plans that do not name one
        (``"row"`` / ``"columnar"`` / ``None`` = the process default).
    shards:
        Default shard count for LEX plans that do not name one (``None`` =
        monolithic builds).  A spec's own ``shards`` always wins; plans
        whose order cannot shard (SUM ranking, Boolean queries) fall back
        to one shard with the reason recorded in the query plan.
    live_policy:
        The :class:`~repro.live.instance.CompactionPolicy` applied to every
        LEX plan's live instance (``None`` = the policy's defaults).
    gate:
        The :class:`~repro.service.gates.AdmissionGate` bounding concurrent
        plan builds (``None`` = a default gate with generous limits).  Cache
        hits never touch the gate — only builds do.
    publish_snapshots:
        Mirror every LEX plan's compacted base into named shared memory
        (:class:`~repro.core.snapshot.SnapshotPublisher`) so worker
        processes can attach it.  Enabled automatically by
        :meth:`attach_pool`.
    """

    def __init__(
        self,
        max_plans: int = 64,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
        live_policy: Optional[CompactionPolicy] = None,
        slow_query_seconds: Optional[float] = None,
        gate: Optional[AdmissionGate] = None,
        publish_snapshots: bool = False,
    ) -> None:
        self.default_backend = backend
        self.default_shards = shards
        self.live_policy = live_policy
        self._lock = threading.Lock()
        self._live: Dict[str, LiveDatabase] = {}
        self._generations: Dict[str, int] = {}
        self._specs: Dict[str, PlanSpec] = {}
        self._max_specs = max(1024, 16 * max_plans)
        self._cache = PlanCache(capacity=max_plans, on_evict=self._plan_evicted)
        self._op_counts: Dict[str, int] = {}
        self.gate = gate if gate is not None else AdmissionGate()
        self.publish_snapshots = publish_snapshots
        self._pool = None
        #: Per-service slow-query retention (the counter metric stays global).
        self.slow_log = SlowQueryLog(
            threshold_seconds=slow_query_seconds, counter=SLOW_QUERIES
        )

    # ------------------------------------------------------------------
    # Worker pool / lifecycle
    # ------------------------------------------------------------------
    def attach_pool(self, pool) -> None:
        """Serve routable ops through a started :class:`WorkerPool`.

        Implies ``publish_snapshots`` — workers can only serve plans whose
        bases are published as shared-memory images.  Plans built before the
        pool attached keep serving inline (they have no publisher).
        """
        self._pool = pool
        self.publish_snapshots = True

    @property
    def pool(self):
        return self._pool

    def _plan_evicted(self, key, plan) -> None:
        """Cache-eviction hook: release the plan's heavy resources.

        Runs outside the cache lock.  Closing the engine unlinks any
        published shared-memory blocks; the pool (if any) detaches first so
        no worker holds a mapping of a block about to disappear.
        """
        engine = getattr(plan, "engine", None)
        if self._pool is not None:
            self._pool.detach(plan.fingerprint)
        close = getattr(engine, "close", None)
        if callable(close):
            try:
                close()
            except Exception:
                pass

    def close(self) -> None:
        """Release everything: pool workers, cached engines, shm blocks."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
        # Restore the pool reference only after the cache drain so eviction
        # callbacks do not round-trip to the already-closed workers.
        self._cache.clear()
        self._pool = pool

    def _epoch_swap_listener(self, instance, new_epoch: int, old_epoch: int) -> None:
        """LiveInstance publish hook: run the pool's cross-process barrier.

        With no running pool, fall back to the instance's own behaviour
        (retire the old epoch immediately — in-process readers still hold
        their mappings through the publisher's refcounts).
        """
        pool = self._pool
        if pool is not None and pool.running:
            pool.epoch_swap(instance, new_epoch, old_epoch)
            return
        publisher = getattr(instance, "_publisher", None)
        if publisher is not None and old_epoch != new_epoch:
            publisher.retire(old_epoch)

    def cached_plan(self, request: Mapping) -> Optional[PreparedPlan]:
        """The already-cached plan a request names by fingerprint, or ``None``
        — state checks only, no build.  A hit refreshes the recency of plan
        and fingerprint like :meth:`resolve` does, or hot plans served
        without resolving would age out."""
        fingerprint = request.get("plan") if isinstance(request, Mapping) else None
        if not isinstance(fingerprint, str):
            return None
        with self._lock:
            spec = self._specs.pop(fingerprint, None)
            if spec is None:
                return None
            self._specs[fingerprint] = spec
            generation = self._generations.get(spec.database)
        if generation is None:
            return None
        return self._cache.get((spec.database, generation, fingerprint))

    def pinned(self, request: Mapping) -> Tuple[Optional[PreparedPlan], object, bool]:
        """``(cached plan, pinned reader, published)`` — what a front-end's
        lane choice (:func:`~repro.service.dispatch.choose_lane`) needs, and
        on the loop lane the reader :meth:`execute` takes.  ``published``: the
        reader *is* the base image a running pool's workers attach (no merged
        delta pending).  No I/O, no build, no sync: safe on the event loop."""
        plan = self.cached_plan(request)
        reader = plan.pinned_reader() if plan is not None else None
        pool = self._pool
        published = (reader is not None and pool is not None and pool.running
                     and isinstance(plan.engine, LiveInstance)
                     and plan.engine._publisher is not None
                     and reader is plan.engine._snapshot.base)
        return plan, reader, published

    def note_routed(self, op: str, status: int, seconds: float) -> None:
        """Observe a routed request in the master's request metrics too, so
        latency SLOs read off one histogram regardless of serving path."""
        REQUESTS.inc((op, "ok" if status == 200 else "routed_error"))
        REQUEST_SECONDS.observe(seconds, (op,))
        self._count_op(op)

    def dispatch_raw(self, request: Mapping) -> Optional[Tuple]:
        """Try to serve a request on a pool worker.

        Returns ``(status, pre-encoded body bytes, trace id | None)`` or
        ``None`` — the latter means "serve inline", not an error.  A request
        routes only when every bit-identity precondition holds: the op is
        routable and the plan's current view *is* its published base (no
        merged delta pending, no unobserved mutation) — otherwise the master
        answers, so responses stay identical mid-mutation and mid-swap.  Size
        plays no part here; it is the front-end's lane choice.

        Routed requests bypass :meth:`execute`, so this is their
        observability middleware: a request trace is opened here, its id
        travels to the worker inside the frame payload, the worker's shipped
        ``worker:*`` subtree is stitched under the root, and the duration
        feeds the slow-query log.  The trace id rides the return value (the
        HTTP front-end exposes it as an ``X-Repro-Trace`` header) because
        the response body must stay bit-identical to the worker's encoding.
        """
        pool = self._pool
        if (pool is None or not isinstance(request, Mapping)
                or request.get("op") not in ROUTABLE_OPS):
            return None
        plan, _reader, published = self.pinned(request)
        if not published:
            return None
        pool.ensure_export(plan)
        op = request.get("op")
        trace = TRACER.open_request(self._TRACE_NAMES[op], path="threaded")
        trace_id = trace.trace_id if trace is not None else None
        started = time.perf_counter()
        result = pool.dispatch(request["plan"], request, plan.engine.base_epoch,
                               trace_id)
        seconds = time.perf_counter() - started
        if result is None:
            # Inline fallback: the open trace is simply dropped, never
            # retained — execute() will trace the inline serve itself.
            return None
        status, body, span = result
        if trace is not None:
            if span is not None:
                trace.add_span(span)
            else:
                trace.add_event("worker:serve", seconds)
            trace.set_status(status)
        TRACER.close_request(trace)
        self.note_routed(op, status, seconds)
        self.record_slow(op, seconds, request, request.get("plan"), trace_id)
        return status, body, trace_id

    def record_slow(self, op: str, seconds: float, request: Optional[Mapping],
                    plan: Optional[str], trace_id: Optional[str]) -> None:
        """Slow-query accounting, shared by :meth:`execute` and the routed
        reads that bypass it (both front-ends).  The cheap threshold check
        gates the argument marshalling (rank-span string, db lookup)."""
        if seconds < self.slow_log.threshold_seconds:
            return
        database = None
        rank_span = None
        if isinstance(request, Mapping):
            raw = request.get("db") or request.get("database")
            database = raw if isinstance(raw, str) else None
            rank_span = describe_rank_span(request)
        self.slow_log.record(
            op if isinstance(op, str) else "invalid",
            seconds,
            plan=plan if isinstance(plan, str) else None,
            rank_span=rank_span,
            trace_id=trace_id,
            database=database,
        )

    # ------------------------------------------------------------------
    # Databases
    # ------------------------------------------------------------------
    def register_database(self, name: str, database: Database) -> int:
        """Register (or replace) a database; returns its new generation.

        Re-registration invalidates every cached plan prepared against the
        previous generation — subsequent requests transparently re-prepare.
        (Tuple-level changes should use :meth:`insert` / :meth:`delete`
        instead, which re-bind cached plans rather than invalidating them.)
        """
        if not isinstance(database, Database):
            raise ServiceError("bad_request", "expected a Database instance")
        with self._lock:
            generation = self._generations.get(name, 0) + 1
            self._live[name] = LiveDatabase(database)
            self._generations[name] = generation
        self._cache.invalidate(lambda key: key[0] == name)
        return generation

    def live(self, name: str) -> LiveDatabase:
        """The live (mutable) handle of a registered database."""
        with self._lock:
            try:
                return self._live[name]
            except KeyError:
                raise ServiceError(
                    "unknown_database", f"no database registered under {name!r}"
                ) from None

    def database(self, name: str) -> Database:
        """The current (epoch-latest) immutable snapshot of a database."""
        return self.live(name).current()

    def generation(self, name: str) -> int:
        with self._lock:
            return self._generations.get(name, 0)

    @property
    def database_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._live.keys())

    # ------------------------------------------------------------------
    # Mutations (the live-update API)
    # ------------------------------------------------------------------
    def insert(self, database: str, relation: str, rows) -> Dict[str, object]:
        """Insert tuples into a registered database's live state.

        Validates the relation name, row arity and value hashability
        (:class:`~repro.exceptions.MutationError` on violation → a structured
        ``bad_request``).  Cached plans are *not* invalidated: they re-bind
        to the new epoch on their next read.
        """
        live = self.live(database)
        applied = live.insert(relation, rows)
        return {
            "db": database,
            "relation": relation,
            "applied": applied,
            "epoch": live.epoch,
        }

    def delete(self, database: str, relation: str, rows) -> Dict[str, object]:
        """Delete tuples from a registered database's live state."""
        live = self.live(database)
        removed = live.delete(relation, rows)
        return {
            "db": database,
            "relation": relation,
            "removed": removed,
            "epoch": live.epoch,
        }

    def compact(self, database: str) -> Dict[str, object]:
        """Compact every cached plan of a database to the current epoch.

        LEX plans rebuild their base structures (only the shards the delta
        touches, when sharded); SUM/enumeration plans rebuild their engines.
        Afterwards the mutation log is trimmed to the oldest epoch any
        compacted plan still references.
        """
        live = self.live(database)
        with self._lock:
            generation = self._generations[database]
        records: List[Dict[str, object]] = []
        floors: List[int] = []
        for key in self._cache.keys():
            if key[0] != database or key[1] != generation:
                continue
            plan = self._cache.get(key)
            if plan is None:
                continue
            engine = plan.engine
            if isinstance(engine, LiveInstance):
                record = engine.compact(reason="service compact")
                records.append({"plan": plan.fingerprint, **record})
                floors.append(engine.base_epoch)
            elif plan.live is not None:
                plan._sync()
                floors.append(plan._built_epoch)
        floor = min(floors) if floors else live.epoch
        trimmed = live.trim_log(floor)
        return {
            "db": database,
            "epoch": live.epoch,
            "plans_compacted": len(records),
            "compactions": records,
            "log_trimmed": trimmed,
        }

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def prepare(
        self,
        database: str,
        query,
        mode: str = "lex",
        order=None,
        weights=None,
        fds=None,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> PreparedPlan:
        """Prepare (or fetch from cache) the plan for the given combination.

        ``query``/``order``/``fds`` accept both library objects and the text
        forms the parser understands; everything is canonicalized so
        equivalent spellings share one cache entry.  Returns the prepared
        plan; its ``fingerprint`` is the id HTTP clients use.
        """
        spec = PlanSpec.create(
            database=database,
            query=query,
            mode=mode,
            order=order,
            weights=weights,
            fds=fds,
            backend=backend,
            shards=shards,
        )
        return self.plan_for_spec(spec)

    def plan_for_spec(self, spec: PlanSpec) -> PreparedPlan:
        """The cached plan for a spec, building (and registering) it on miss."""
        fingerprint = spec.fingerprint
        # Database and generation must be read atomically: reading them under
        # separate lock acquisitions lets a concurrent re-registration pair an
        # old database with the new generation, caching stale data under a
        # live key.  A plan built against a snapshot that re-registration
        # overtakes mid-build lands under the *old* generation key, which no
        # lookup uses anymore — harmless until LRU eviction.
        with self._lock:
            live = self._live.get(spec.database)
            if live is None:
                raise ServiceError(
                    "unknown_database", f"no database registered under {spec.database!r}"
                )
            generation = self._generations[spec.database]
            # Pop-and-reinsert so every touch refreshes recency: a hot plan
            # served by fingerprint must not be evicted by a flood of
            # one-shot specs.
            self._specs.pop(fingerprint, None)
            self._specs[fingerprint] = spec
            while len(self._specs) > self._max_specs:
                self._specs.pop(next(iter(self._specs)))
        key = (spec.database, generation, fingerprint)
        plan = self._cache.get_or_build(
            key, lambda: self._gated_build(spec, live, generation)
        )
        pool = self._pool
        if pool is not None and pool.running:
            pool.ensure_export(plan)
        return plan

    def _gated_build(self, spec: PlanSpec, live: LiveDatabase, generation: int) -> PreparedPlan:
        """One admission-gated plan build (the cache's builder callback).

        The cost class comes from the spec's data-free query plan — no data
        is touched to classify.  Coalesced followers of the same key never
        reach here, so only the coalition leader holds a gate slot.
        """
        cost = classify_build(spec.query_plan, spec.mode)
        with self.gate.admit(cost):
            return self._build_plan(spec, live, generation)

    def plan(self, fingerprint: str) -> PreparedPlan:
        """The plan for a previously seen fingerprint (rebuilding if evicted).

        Fingerprints are remembered in a bounded LRU (many multiples of the
        plan-cache capacity, refreshed on every use); a fingerprint aged out
        of it answers ``unknown_plan`` and the client re-sends the spec
        inline.
        """
        with self._lock:
            spec = self._specs.get(fingerprint)
        if spec is None:
            raise ServiceError(
                "unknown_plan",
                f"unknown plan {fingerprint!r}; prepare it (or send the spec inline)",
            )
        return self.plan_for_spec(spec)

    def _build_plan(self, spec: PlanSpec, live: LiveDatabase, generation: int) -> PreparedPlan:
        """Plan through the planner layer, then execute against the live state.

        The :class:`~repro.planner.plan.QueryPlan` is constructed once here
        (strict, with enforcement — the historical exceptions surface) and
        handed to the mode's engine.  LEX plans build a
        :class:`~repro.live.instance.LiveInstance` (the facade plus the
        delta-merge machinery), so later mutations re-bind the cached entry
        instead of invalidating it; the materialized SUM and enumeration
        engines carry a rebuild closure the prepared plan invokes lazily
        when it observes a stale epoch.
        """
        from repro.planner import plan as build_query_plan

        query = parse_query(spec.query)
        backend = spec.backend or self.default_backend
        fds = build_fds(spec.fds)
        # The spec's own count wins over the service default — an explicit 1
        # is a client opting out of a service-level --shards setting.
        shards = spec.shards if spec.shards is not None else self.default_shards

        # Reuse the plan the spec's fingerprint already computed — unless it
        # recorded a verdict/error the strict path must surface as the
        # historical exception, or the service's defaults apply (the
        # spec-level plan only knows the spec's own backend/shards).
        query_plan = spec.query_plan
        if backend != spec.backend or shards != spec.shards:
            query_plan = None
        if query_plan is not None and (
            query_plan.error is not None
            or query_plan.classification.verdict == "intractable"
        ):
            query_plan = None

        if spec.mode == "lex":
            order = build_order(spec.order)
            if order is None:
                # Default order: the head left to right — the natural ranking.
                order = LexOrder(query.free_variables)
            if query_plan is None:
                query_plan = build_query_plan(
                    query, order, mode="lex", fds=fds, backend=backend, shards=shards
                )
            engine = LiveInstance(
                query, live, order, plan=query_plan, policy=self.live_policy,
                publish_snapshots=self.publish_snapshots,
            )
            if self._pool is not None and engine._publisher is not None:
                # Compaction epoch swaps run the cross-process barrier: the
                # pool re-attaches every worker to the new buffers before the
                # old epoch is retired (the listener owns the retirement).
                engine.publish_listener = self._epoch_swap_listener
            return PreparedPlan(
                spec, generation, engine, query_plan=query_plan,
                live=live, built_epoch=engine.base_epoch,
            )
        if spec.mode == "sum":
            if query_plan is None:
                query_plan = build_query_plan(
                    query, mode="sum", fds=fds, backend=backend, shards=shards
                )

            def rebuild(database, _query=query, _plan=query_plan, _weights=spec.weights):
                return SumDirectAccess(
                    _query, database, build_weights(_weights), plan=_plan
                )
        else:  # "enum" (PlanSpec.create already validated the mode)
            query_plan = None

            def rebuild(database, _query=query, _weights=spec.weights, _backend=backend):
                return SumRankedEnumerator(
                    _query, database, build_weights(_weights), backend=_backend
                )

        epoch, database = live.state()
        engine = rebuild(database)
        return PreparedPlan(
            spec, generation, engine, query_plan=query_plan,
            live=live, built_epoch=epoch, rebuild=rebuild,
        )

    def resolve(self, request: Mapping) -> PreparedPlan:
        """The plan a request refers to: by ``plan`` fingerprint or inline spec."""
        fingerprint = request.get("plan")
        if fingerprint is not None:
            if not isinstance(fingerprint, str):
                raise ServiceError("bad_request", "'plan' must be a fingerprint string")
            return self.plan(fingerprint)
        return self.plan_for_spec(PlanSpec.from_request(request))

    # ------------------------------------------------------------------
    # Stateless selection (no reusable structure, Theorems 6.1 / 7.3)
    # ------------------------------------------------------------------
    def selection(
        self,
        database: str,
        query,
        k: int,
        order=None,
        weights=None,
        fds=None,
        backend: Optional[str] = None,
    ) -> Tuple:
        """One-shot selection of the ``k``-th answer (lex when an order is
        given, SUM otherwise) — tractable even for orders whose direct access
        is not, which is exactly why it bypasses the plan cache."""
        if order is not None and weights is not None:
            raise ServiceError(
                "bad_request",
                "selection ranks by 'order' (lex) or 'weights' (SUM), not both",
            )
        k = validate_rank(k)
        db = self.database(database)
        if isinstance(query, str):
            query = parse_query(query)
        fds = build_fds(canonical_fds(fds))
        backend = backend or self.default_backend
        if order is not None:
            from repro.core.parser import parse_order

            if isinstance(order, str):
                order = parse_order(order)
            return selection_lex(query, db, order, k, fds=fds, backend=backend)
        return selection_sum(
            query, db, k,
            weights=build_weights(canonical_weights(weights)),
            fds=fds, backend=backend,
        )

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _count_op(self, op: str) -> None:
        with self._lock:
            self._op_counts[op] = self._op_counts.get(op, 0) + 1

    def stats(self) -> Dict[str, object]:
        # Snapshot the handles under the service lock, collect per-database
        # stats after releasing it: each LiveDatabase has its own mutation
        # lock, and waiting on one here would stall every service operation
        # (prepare/register/resolve) behind a single busy database.
        with self._lock:
            live_handles = dict(self._live)
            generations = dict(self._generations)
            ops = dict(self._op_counts)
        databases = {}
        for name, live in live_handles.items():
            live_stats = live.stats()
            databases[name] = {
                "generation": generations[name],
                "relations": len(live.base),
                # Net size derived from the delta counters: materializing
                # the live database here would run O(n) relation rebuilds
                # on a monitoring probe.
                "tuples": live_stats["base_tuples"]
                + live_stats["pending_inserted"]
                - live_stats["pending_deleted"],
                "live": live_stats,
            }
        # Per-plan snapshot serving info: which carrier backs each cached
        # lex plan and how long its capture/attach took.  With an active
        # pool, each plan also reports every worker's attachment (worker id,
        # attached epoch, carrier, attach seconds) — the same shape for
        # every worker, scraped in one round over the pipes.
        pool = self._pool
        pool_active = pool is not None and pool.running
        worker_attachments = pool.attachments() if pool_active else {}
        plans: List[Dict[str, object]] = []
        for key in self._cache.keys():
            plan = self._cache.peek(key)
            if plan is None:
                continue
            entry: Dict[str, object] = {
                "plan": plan.fingerprint,
                "db": key[0],
                "mode": plan.spec.mode,
            }
            engine = plan.engine
            if isinstance(engine, LiveInstance):
                entry["snapshot"] = engine.stats().get("snapshot")
            else:
                from repro.core.snapshot import serving_stats

                entry["snapshot"] = serving_stats(
                    getattr(engine, "_instance", None)
                )
            if pool_active:
                entry["workers"] = worker_attachments.get(plan.fingerprint, [])
            query_plan = plan.query_plan
            if query_plan is not None and query_plan.stats is not None:
                # Per-stage build timings — and, when the build ran with
                # memory attribution on, per-stage allocation deltas.
                entry["build"] = query_plan.stats.to_dict()
            plans.append(entry)
        result: Dict[str, object] = {
            "databases": databases,
            "plans_cached": len(self._cache),
            "plans_known": len(self._specs),
            "plans": plans,
            "cache": self._cache.stats.to_dict(),
            "gate": self.gate.stats(),
            "ops": ops,
            "lanes": {lane: LOOP_LANES.value((lane,)) for lane in LANE_COUNTERS},
        }
        if pool is not None:
            result["pool"] = pool.stats()
        return result

    # ------------------------------------------------------------------
    # The request interface (shared by HTTP front-end and `repro client`)
    # ------------------------------------------------------------------
    def execute(self, request: Mapping, reader=None) -> Dict[str, object]:
        """Serve one protocol request object; never raises.

        Returns ``{"ok": true, ...result fields...}`` or ``{"ok": false,
        "error": {"code": ..., "message": ...}}``.  This is the single entry
        point both the HTTP front-end and the request-file runner use, so
        in-process and over-the-wire behaviour cannot drift apart.

        Every request runs inside the observability middleware: a request
        trace (its id is echoed as ``"trace"`` in success *and* error
        responses), the per-op request counter and latency histogram, and the
        slow-query log.  With observability disabled the overhead is a pair
        of clock reads and attribute checks.

        ``reader`` is the loop lane's pinned reader (:meth:`pinned`): the read
        runs against it instead of resolving and syncing the plan.
        """
        op = request.get("op") if isinstance(request, Mapping) else None
        op_label = op if isinstance(op, str) and op in self._HANDLERS else "invalid"
        started = time.perf_counter()
        with TRACER.request(self._TRACE_NAMES[op_label]) as trace:
            response = self._execute_inner(request, reader)
        seconds = time.perf_counter() - started
        if response.get("ok"):
            status = "ok"
        else:
            error = response.get("error")
            status = error.get("code", "error") if isinstance(error, Mapping) else "error"
        REQUESTS.inc((op_label, status))
        REQUEST_SECONDS.observe(seconds, (op_label,))
        if trace is not None:
            trace.set_status(status)
        trace_id = trace.trace_id if trace is not None else None
        if trace_id is not None:
            response["trace"] = trace_id
        self.record_slow(op_label, seconds, request, response.get("plan"), trace_id)
        return response

    def _execute_inner(self, request: Mapping, reader=None) -> Dict[str, object]:
        try:
            if not isinstance(request, Mapping):
                raise ServiceError("bad_request", "request must be a JSON object")
            op = request.get("op")
            handler = self._HANDLERS.get(op)
            if handler is None:
                known = ", ".join(sorted(self._HANDLERS))
                raise ServiceError("bad_request", f"unknown op {op!r}; expected one of: {known}")
            self._count_op(op)
            result = (handler(self, request) if reader is None
                      else self._op_read(request, reader))
            response = {"ok": True, "op": op}
            response.update(result)
            return response
        except Exception as exc:
            return error_for(exc)

    # -- op handlers ---------------------------------------------------
    def _op_prepare(self, request: Mapping) -> Dict[str, object]:
        plan = self.resolve(request)
        result = {"plan": plan.fingerprint, "mode": plan.spec.mode, "count": plan.count}
        if plan.epoch is not None:
            result["epoch"] = plan.epoch
        return result

    def _op_read(self, request: Mapping, reader=None) -> Dict[str, object]:
        """The six read ops: :func:`~repro.service.dispatch.read_op` against
        the plan's synced reader — or the one the loop lane pinned."""
        op = request["op"]
        if reader is not None:
            result = read_op(reader, request["plan"], request)
        else:
            plan = self.resolve(request)
            if op == "topk" and plan.spec.mode == "enum":
                answers = plan.topk(rank_field(request, "k"))
                result = {"plan": plan.fingerprint,
                          "answers": [encode_answer(a) for a in answers]}
            else:
                result = read_op(plan.reader(), plan.fingerprint, request)
        answers = result.get("answers")
        if answers is not None:
            ANSWERS.inc((op,), len(answers))
        return result

    @staticmethod
    def _database_name(request: Mapping, context: str) -> str:
        """The request's database name (``db`` with ``database`` as alias)."""
        database = request.get("db") or request.get("database")
        if not isinstance(database, str):
            raise ServiceError("bad_request", f"{context} needs a 'db' database name")
        return database

    def _op_selection(self, request: Mapping) -> Dict[str, object]:
        database = self._database_name(request, "selection")
        query = request.get("query")
        if not isinstance(query, str):
            raise ServiceError("bad_request", "selection needs a 'query' string")
        k = rank_field(request, "k")
        answer = self.selection(
            database,
            query,
            k,
            order=request.get("order"),
            weights=request.get("weights"),
            fds=request.get("fds"),
            backend=request.get("backend"),
        )
        return {"k": k, "answer": encode_answer(answer)}

    def _op_explain(self, request: Mapping) -> Dict[str, object]:
        """The planner's decision trace for an input — no database, no build.

        ``mode`` accepts the four planner modes (``lex``, ``sum``,
        ``selection_lex``, ``selection_sum``); intractable inputs still
        explain (the classification carries the verdict) rather than error.
        """
        from repro.planner import PLAN_MODES
        from repro.planner import explain as planner_explain

        query = request.get("query")
        if not isinstance(query, str):
            raise ServiceError("bad_request", "explain needs a 'query' string")
        mode = request.get("mode", "lex")
        if mode not in PLAN_MODES:
            raise ServiceError(
                "bad_request",
                f"explain mode must be one of {PLAN_MODES}, got {mode!r}",
            )
        fds = request.get("fds")
        if fds is not None and not isinstance(fds, (list, tuple)):
            raise ServiceError("bad_request", "'fds' must be a list of FD strings")
        try:
            document = planner_explain(
                query,
                request.get("order"),
                mode=mode,
                fds=fds,
                backend=request.get("backend") or self.default_backend,
                shards=request.get("shards"),
            )
        except ReproError:
            raise
        except Exception as exc:  # parser errors carry their own message
            raise ServiceError("bad_request", str(exc))
        response: Dict[str, object] = {"explain": document}
        # When the request names a registered database, record the live/epoch
        # configuration the plan would bind to alongside the decision trace.
        database = request.get("db") or request.get("database")
        if isinstance(database, str):
            with self._lock:
                live = self._live.get(database)
            if live is not None:
                response["live"] = live.stats()
        return response

    def _op_stats(self, request: Mapping) -> Dict[str, object]:
        return {"stats": self.stats()}

    # -- observability op handlers -------------------------------------
    def update_gauges(self) -> None:
        """Refresh the point-in-time gauges from current service state.

        Called before any metrics exposition (``metrics`` op, ``GET
        /metrics``) so scrapes always see fresh values: the live epoch and
        pending delta size per database, the epoch lag of every cached plan
        (live epoch minus the epoch the plan currently serves), and the
        number of resident plans.  Families are cleared first so gauges of
        dropped databases/evicted plans do not linger.
        """
        if not METRICS.enabled:
            return
        with self._lock:
            live_handles = dict(self._live)
        LIVE_EPOCH.clear()
        DELTA_TUPLES.clear()
        EPOCH_LAG.clear()
        for name, live in live_handles.items():
            live_stats = live.stats()
            LIVE_EPOCH.set(live.epoch, (name,))
            DELTA_TUPLES.set(
                live_stats["pending_inserted"] + live_stats["pending_deleted"],
                (name,),
            )
        for key in self._cache.keys():
            plan = self._cache.peek(key)
            if plan is None or plan.live is None:
                continue
            epoch = plan.epoch
            if epoch is None:
                continue
            EPOCH_LAG.set(plan.live.epoch - epoch, (plan.fingerprint,))
        PLANS_CACHED.set(len(self._cache))
        pool = self._pool
        if pool is not None:
            POOL_WORKERS.set(len(pool.alive_workers()))

    def _op_metrics(self, request: Mapping) -> Dict[str, object]:
        """The full metrics snapshot as JSON (``/v1/metrics``, ``repro metrics``)."""
        self.update_gauges()
        return {
            "enabled": METRICS.enabled,
            "metrics": METRICS.snapshot(),
            "slow_queries": self.slow_log.entries(limit=50),
        }

    def _op_trace(self, request: Mapping) -> Dict[str, object]:
        """One retained trace by id, or summaries of the most recent ones."""
        trace_id = request.get("id")
        if trace_id is None:
            limit = request.get("limit", 20)
            if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
                raise ServiceError("bad_request", "'limit' must be a positive integer")
            return {"traces": TRACER.recent(limit=limit)}
        if not isinstance(trace_id, str):
            raise ServiceError("bad_request", "'id' must be a trace id string")
        document = TRACER.get(trace_id)
        if document is None:
            raise ServiceError(
                "unknown_trace",
                f"no retained trace {trace_id!r} (aged out or never issued)",
            )
        return {"traced": document}

    def _op_slowlog(self, request: Mapping) -> Dict[str, object]:
        limit = request.get("limit", 50)
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ServiceError("bad_request", "'limit' must be a positive integer")
        return {
            "threshold_seconds": self.slow_log.threshold_seconds,
            "slow_queries": self.slow_log.entries(limit=limit),
        }

    # -- profiling + readiness -----------------------------------------
    #: Upper bound on an ``_op_profile`` sampling window: the handler blocks
    #: a serving thread for the window, so it must stay interactive-scale.
    _PROFILE_WINDOW_MAX_SECONDS = 30.0

    def _op_profile(self, request: Mapping) -> Dict[str, object]:
        """Merged folded-stack profile of the master and every pool worker.

        With ``seconds > 0``: run a bounded sampling window first — start
        this process's profiler (unless continuous profiling already has it
        running) and every worker's, sleep, stop them, then snapshot.  With
        ``seconds`` absent/0: report whatever the continuously running (or
        last-window) profilers have accumulated.
        """
        from repro.obs.profile import (
            DEFAULT_HZ, PROFILER, merge_folded, render_folded,
        )

        seconds = request.get("seconds", 0)
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise ServiceError("bad_request", "'seconds' must be a number")
        if seconds < 0 or seconds > self._PROFILE_WINDOW_MAX_SECONDS:
            raise ServiceError(
                "bad_request",
                f"'seconds' must be between 0 and {self._PROFILE_WINDOW_MAX_SECONDS:g}",
            )
        hz = request.get("hz", DEFAULT_HZ)
        if isinstance(hz, bool) or not isinstance(hz, (int, float)) or hz <= 0:
            raise ServiceError("bad_request", "'hz' must be a positive number")
        pool = self._pool
        pool_running = pool is not None and pool.running
        if seconds:
            window_started = False
            if not PROFILER.running:
                PROFILER.reset()
                window_started = PROFILER.start(hz)
            if pool_running:
                pool.profile_control("start", hz)
            try:
                time.sleep(float(seconds))
            finally:
                if window_started:
                    PROFILER.stop()
                if pool_running:
                    pool.profile_control("stop")
        master = PROFILER.snapshot()
        workers = pool.scrape_profiles() if pool_running else []
        merged = merge_folded([master] + workers)
        samples = master.get("samples", 0) + sum(
            worker.get("samples", 0) for worker in workers
        )
        return {
            "profile": {
                "master": master,
                "workers": workers,
                "samples": samples,
                "folded": render_folded(merged),
            }
        }

    def profile_folded(self) -> str:
        """The merged folded-stack corpus (``GET /debug/profile``)."""
        from repro.obs.profile import PROFILER, merge_folded, render_folded

        documents: List[Dict[str, object]] = [PROFILER.snapshot()]
        pool = self._pool
        if pool is not None and pool.running:
            documents.extend(pool.scrape_profiles())
        return render_folded(merge_folded(documents))

    def readiness(self) -> Dict[str, object]:
        """Readiness for ``/readyz`` on both front-ends.

        Without a pool the service is ready as soon as it serves (liveness
        and readiness coincide).  With one, readiness is the pool's: every
        worker alive and attached at the current epoch of every export, and
        the pool not draining.
        """
        pool = self._pool
        if pool is None or not pool.running:
            draining = pool is not None and pool._closing
            return {"ready": not draining, "draining": draining, "pool": None}
        document = pool.readiness()
        return {
            "ready": document["ready"],
            "draining": document["draining"],
            "pool": document,
        }

    # -- mutation op handlers (the live-update API) --------------------
    def _mutation_target(self, request: Mapping) -> Tuple[str, str]:
        database = self._database_name(request, "mutation")
        relation = request.get("relation")
        if not isinstance(relation, str):
            raise ServiceError("bad_request", "mutation needs a 'relation' name")
        return database, relation

    def _op_insert(self, request: Mapping) -> Dict[str, object]:
        database, relation = self._mutation_target(request)
        rows = decode_rows(required(request, "rows"))
        return self.insert(database, relation, rows)

    def _op_delete(self, request: Mapping) -> Dict[str, object]:
        database, relation = self._mutation_target(request)
        rows = decode_rows(required(request, "rows"))
        return self.delete(database, relation, rows)

    def _op_compact(self, request: Mapping) -> Dict[str, object]:
        return self.compact(self._database_name(request, "compact"))

    def _op_databases(self, request: Mapping) -> Dict[str, object]:
        return {"databases": list(self.database_names)}

    def _op_register(self, request: Mapping) -> Dict[str, object]:
        from repro.service.protocol import database_from_json

        name = request.get("name")
        if not isinstance(name, str) or not name:
            raise ServiceError("bad_request", "register needs a database 'name'")
        database = database_from_json(request, backend=request.get("backend"))
        generation = self.register_database(name, database)
        return {"name": name, "generation": generation, "tuples": database.size()}

    _HANDLERS: Dict[str, Callable[["QueryService", Mapping], Dict[str, object]]] = {
        "prepare": _op_prepare,
        "access": _op_read,
        "batch_access": _op_read,
        "range": _op_read,
        "inverted_access": _op_read,
        "topk": _op_read,
        "count": _op_read,
        "selection": _op_selection,
        "explain": _op_explain,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "trace": _op_trace,
        "slowlog": _op_slowlog,
        "profile": _op_profile,
        "databases": _op_databases,
        "register": _op_register,
        "insert": _op_insert,
        "delete": _op_delete,
        "compact": _op_compact,
    }

    #: Root-span names, prebuilt so the middleware allocates no per-request
    #: strings on the trace path.
    _TRACE_NAMES: Dict[str, str] = {
        op: "op:" + op for op in list(_HANDLERS) + ["invalid"]
    }


def run_requests(service: QueryService, requests) -> List[Dict[str, object]]:
    """Execute an iterable of request objects in order (the client runner)."""
    return [service.execute(request) for request in requests]
