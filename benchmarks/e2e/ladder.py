"""``--trace 1``: the outside-in layer ladder.

The same seeded requests are replayed through each layer's public entry
point in turn — from the served process's socket down to the flat kernel —
with one span recorded per call (rung, request index, parent rung, start,
end).  A layer's self time is its rung's median minus the medians of the
rungs nested inside it; the self times of the routed point-lookup chain are
summed and set against the served C = 1 round trip, and what they do not
explain is reported as ``ladder.residual_us`` rather than hidden.

Served rungs talk to the real ``repro serve`` subprocess (started with the
workload's database plus the other shape's, so every rung has a number on
every workload).  In-process rungs run in this process, with a 2-worker pool
it attaches itself.  Every number here is a diagnostic, never a gate.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import gen
import rungs
from harness import Profile, Run, calibrate, quiet_gc, window_metrics
from httpclient import Connection, encode_get, encode_post, is_ok
from server import reap_own_children, shm_blocks

SCALAR_CALLS = 2000
BATCH_CALLS = 48
PAGE = 1024
LIVE_ROUNDS = 3

Span = Tuple[str, int, Optional[str], float, float]


def _median_us(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e6


class Recorder:
    """Metrics by name plus the in-memory span log."""

    def __init__(self, keep_spans: bool) -> None:
        self.metrics: Dict[str, object] = {}
        self.cpu_us: Dict[str, float] = {}
        self.self_times_us: Dict[str, float] = {}
        self.spans: List[Span] = []
        self._keep = keep_spans

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def null(self, names: Sequence[str], reason: str) -> None:
        for name in names:
            self.metrics[name] = {"value": None, "reason": reason}

    def number(self, name: str) -> float:
        value = self.metrics.get(name)
        if not isinstance(value, float):
            raise rungs.Missing(f"{name} was not measured")
        return value

    def calls(self, rung: str, parent: Optional[str], call: Callable,
              arguments: Sequence, spans: bool = True) -> List[float]:
        """Time ``call(argument)`` once per argument; returns wall seconds.

        One span per call; CPU (``time.thread_time``) is taken around the
        whole loop so the cheap rungs are not charged two clock syscalls
        per call, and kept per rung in ``cpu_us``.  Callers hold
        :func:`quiet_gc` around a group of rungs.
        """
        clock = time.perf_counter
        durations: List[float] = []
        log = self.spans if (spans and self._keep) else None
        cpu = time.thread_time()
        for index, argument in enumerate(arguments):
            started = clock()
            call(argument)
            ended = clock()
            durations.append(ended - started)
            if log is not None:
                log.append((rung, index, parent, started, ended))
        cpu = time.thread_time() - cpu
        self.cpu_us[rung] = cpu * 1e6 / max(1, len(durations))
        return durations

    def alternate(self, rung: str, call: Callable, arguments: Sequence,
                  prepare: Tuple[Callable, Callable] = (None, None),
                  spans: Tuple[bool, bool] = (False, False),
                  block: int = 25) -> Tuple[List[float], List[float], float]:
        """Sides A and B on alternating short blocks of the same requests.

        Returns both sides' durations and the median over block pairs of
        median(B) / median(A): adjacent blocks see the same host speed, so
        the ratio survives drift that the two pooled medians would not.
        """
        sides: Tuple[List[float], List[float]] = ([], [])
        ratios: List[float] = []
        for at in range(0, len(arguments), block):
            chunk = arguments[at:at + block]
            medians = []
            for side in (0, 1):
                if prepare[side] is not None:
                    prepare[side]()
                durations = self.calls(f"{rung}.{'ab'[side]}", None, call, chunk,
                                       spans=spans[side])
                sides[side].extend(durations)
                medians.append(statistics.median(durations))
            ratios.append(medians[1] / medians[0])
        return sides[0], sides[1], statistics.median(ratios)


# ----------------------------------------------------------------------
# Served rungs: the real subprocess over its socket
# ----------------------------------------------------------------------
def _prometheus_total(text: str, family: str, label: str = "") -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(family) and label in line and not line.startswith("#"):
            name = line.split("{", 1)[0].split(" ", 1)[0]
            if name == family:
                total += float(line.rsplit(" ", 1)[1])
    return total


def _scrape(control: Connection) -> Dict[str, float]:
    _, text = control.get_text("/metrics")
    stats = json.loads(control.roundtrip(encode_get("/v1/stats"))[1])["stats"]
    return {
        "routed": _prometheus_total(text, "repro_pool_dispatches_total",
                                    'outcome="routed"'),
        "dispatches": _prometheus_total(text, "repro_pool_dispatches_total"),
        "refreshes": _prometheus_total(text, "repro_delta_refreshes_total"),
        "compactions": _prometheus_total(text, "repro_compaction_seconds_count"),
        "fallbacks": float(stats.get("pool", {}).get("inline_fallbacks", 0)),
        "hits": float(stats["cache"]["hits"]),
        "misses": float(stats["cache"]["misses"]),
    }


def served_rungs(rec: Recorder, port: int, path_plan: str, score_plan: str,
                 ranks: Sequence[int], pages: Sequence[List[int]],
                 score_ranks: Sequence[int]) -> Tuple[int, int]:
    """C = 1 round trips against the served process; (attempted, failed)."""
    connection = Connection(port)
    failed = 0

    def sender(expect_ok: bool = True) -> Callable[[bytes], None]:
        def send(payload: bytes) -> None:
            nonlocal failed
            status, body = connection.roundtrip(payload)
            if is_ok(status, body) != expect_ok:
                failed += 1
        return send

    scalar = [encode_post("/v1/access", {"plan": path_plan, "k": k}) for k in ranks]
    batch = [encode_post("/v1/batch_access", {"plan": path_plan, "ks": ks})
             for ks in pages]
    inline = [encode_post("/v1/access", {"plan": score_plan, "k": k})
              for k in score_ranks]
    null = [encode_get("/__null__")] * (len(scalar) // 2)
    routed_null = [encode_post("/v1/count", {"plan": path_plan})] * len(null)
    attempted = 2 * (len(scalar) + len(null)) + len(batch) + len(inline)
    try:
        # The loop answers an unknown path itself (404), without touching the
        # executor, the pool or a plan: the front-end's own fixed cost.
        rec.put("frontend.null_us", _median_us(
            rec.calls("frontend.null", None, sender(expect_ok=False), null)))
        # `count` is routable and its kernel is a field read: the whole
        # routed hop (loop, frames, worker, obs) with nothing to compute.
        rec.put("frontend.routed_null_us", _median_us(
            rec.calls("frontend.routed_null", None, sender(), routed_null)))
        # Spans off / spans on: recording a span must not move the number.
        off, on, ratio = rec.alternate("frontend.http", sender(), scalar,
                                       spans=(False, True))
        rec.put("frontend.http_us", _median_us(off))
        rec.put("ladder.e2e_c1_us", _median_us(on))
        rec.put("trace.overhead_pct", (ratio - 1.0) * 100.0)
        rec.put("frontend.http_batch_us", _median_us(
            rec.calls("frontend.http_batch", None, sender(), batch)))
        rec.put("frontend.http_inline_us", _median_us(
            rec.calls("frontend.http_inline", None, sender(), inline)))
    finally:
        connection.close()
    names = ["client.session_us"]
    try:
        session = rungs.load("HTTPSession")(f"http://127.0.0.1:{port}")
    except rungs.Missing as exc:
        rec.null(names, str(exc))
        return attempted, failed
    try:
        def post(k: int) -> None:
            nonlocal failed
            status, document = session.post_json(
                "/v1/access", {"plan": path_plan, "k": k})
            failed += not (status == 200 and document.get("ok"))
        seconds = rec.calls("client.session", None, post, ranks[:len(ranks) // 2])
        attempted += len(seconds)
        rec.put("client.session_us",
                _median_us(seconds) - rec.number("frontend.http_us"))
    finally:
        session.close()
    return attempted, failed


# ----------------------------------------------------------------------
# In-process rungs
# ----------------------------------------------------------------------
class InProcess:
    """Builds both shapes in this process and times each layer on them."""

    def __init__(self, rec: Recorder, path_file: str, score_file: str,
                 ranks: Sequence[int], pages: Sequence[List[int]],
                 score_ranks: Sequence[int], fresh_rows: Sequence[List[List[int]]]) -> None:
        self.rec = rec
        self.path_file = path_file
        self.score_file = score_file
        self.ranks = list(ranks)
        self.pages = list(pages)
        self.score_ranks = list(score_ranks)
        self.fresh_rows = fresh_rows
        self._cleanups: List[Callable[[], None]] = []
        self.path_db = self.score_db = None
        self.kernel = None
        self.service = None
        self.pool = None
        self.path_plan = self.score_plan = None
        self.encode_scalar_us: Optional[float] = None

    def need(self, value, what: str):
        if value is None:
            raise rungs.Missing(f"{what} could not be built")
        return value

    def run(self) -> None:
        blocks = (
            (self.load, ["engine.load_s"]),
            (self.build, ["planner.plan_ms", "planner.build_lex_s",
                          "planner.build_sum_s", "core.snapshot.capture_s",
                          "core.snapshot.bytes", "core.snapshot.attach_ms"]),
            (self.kernel_rungs, ["core.snapshot.access_us",
                                 "core.snapshot.batch_ns_per_answer",
                                 "core.snapshot.range_ns_per_answer",
                                 "dispatch.snapshot_op_us"]),
            (self.codec_rungs, ["protocol.codec_us", "protocol.encode_ns_per_answer",
                                "protocol.decode_ns_per_rank", "dispatch.frame_us"]),
            (self.service_up, []),
            (self.facade_rungs, ["core.facade.access_us", "live.plan_access_us",
                                 "core.sum.access_us", "core.sum.range_ns_per_answer"]),
            (self.service_rungs, ["service.execute_us",
                                  "service.execute_batch_ns_per_answer",
                                  "service.execute_sum_us",
                                  "obs.execute_overhead_us"]),
            (self.pool_rungs, ["pool.roundtrip_us", "pool.roundtrip_batch_us",
                               "service.dispatch_raw_us"]),
            (self.live_rungs, ["live.insert_ms", "live.refresh_ms",
                               "live.merged_access_us", "live.compact_s"]),
        )
        try:
            for block, names in blocks:
                try:
                    with quiet_gc():
                        block()
                except rungs.Missing as exc:
                    self.rec.null([name for name in names
                                   if name not in self.rec.metrics], str(exc))
        finally:
            for cleanup in reversed(self._cleanups):
                cleanup()

    # -- set-up rungs ----------------------------------------------------
    def load(self) -> None:
        load_database = rungs.load("load_database")
        started = time.perf_counter()
        self.path_db = load_database(self.path_file, backend="columnar")
        self.rec.put("engine.load_s", time.perf_counter() - started)
        self.score_db = load_database(self.score_file, backend="columnar")

    def build(self) -> None:
        rec = self.rec
        plan = rungs.load("plan")
        executor = rungs.load("PlanExecutor")
        path_db = self.need(self.path_db, "the 2-path database")
        started = time.perf_counter()
        lex_plan = plan(gen.PATH_QUERY, gen.PATH_ORDER, mode="lex",
                        backend="columnar", shards=2)
        rec.put("planner.plan_ms", (time.perf_counter() - started) * 1e3)
        build_lex = rungs.load("PlanExecutor.build_lex")
        started = time.perf_counter()
        built = build_lex(executor(lex_plan, path_db))
        rec.put("planner.build_lex_s", time.perf_counter() - started)

        sum_plan = plan(gen.SCORE_QUERY, mode="sum", backend="columnar")
        weights = rungs.load("build_weights")(
            rungs.load("canonical_weights")(gen.score_weights_spec()))
        build_sum = rungs.load("PlanExecutor.build_sum")
        started = time.perf_counter()
        build_sum(executor(sum_plan, self.need(self.score_db, "the score database")),
                  weights)
        rec.put("planner.build_sum_s", time.perf_counter() - started)

        started = time.perf_counter()
        image = self.need(rungs.load("capture")(built.instance, "bench-ladder"),
                          "a snapshot image")
        rec.put("core.snapshot.capture_s", time.perf_counter() - started)
        rec.put("core.snapshot.bytes", image.nbytes)
        publish = rungs.load("InstanceSnapshot.publish")
        attach = rungs.load("InstanceSnapshot.attach")
        name = f"repro-snap-bench-ladder-{os.getpid()}"
        started = time.perf_counter()
        block = publish(image, name)
        self._cleanups.append(block.unlink)
        self._cleanups.append(block.close)
        attached = attach(name)
        rec.put("core.snapshot.attach_ms", (time.perf_counter() - started) * 1e3)
        self._cleanups.append(attached.close)
        self.kernel = attached.instance()

    # -- core + dispatch -------------------------------------------------
    def kernel_rungs(self) -> None:
        rec, kernel = self.rec, self.need(self.kernel, "an attached image")
        access = rungs.load("SnapshotInstance.access")
        batch = rungs.load("SnapshotInstance.batch_access")
        ranged = rungs.load("SnapshotInstance.range_access")
        rec.put("core.snapshot.access_us", _median_us(rec.calls(
            "core.snapshot.access", "dispatch.snapshot_op",
            lambda k: access(kernel, k), self.ranks)))
        rec.put("core.snapshot.batch_ns_per_answer", _median_us(rec.calls(
            "core.snapshot.batch", "dispatch.snapshot_op",
            lambda ks: batch(kernel, ks), self.pages)) * 1e3 / PAGE)
        rec.put("core.snapshot.range_ns_per_answer", _median_us(rec.calls(
            "core.snapshot.range", "dispatch.snapshot_op",
            lambda ks: ranged(kernel, ks[0] % (kernel.count - PAGE),
                              ks[0] % (kernel.count - PAGE) + PAGE),
            self.pages)) * 1e3 / PAGE)
        execute = rungs.load("execute_snapshot_op")
        requests = [{"op": "access", "plan": "bench", "k": k} for k in self.ranks]
        rec.put("dispatch.snapshot_op_us", _median_us(rec.calls(
            "dispatch.snapshot_op", "pool.roundtrip",
            lambda request: execute(kernel, "bench", request), requests)))

    def codec_rungs(self) -> None:
        rec, kernel = self.rec, self.need(self.kernel, "an attached image")
        encode = rungs.load("encode_response")
        execute = rungs.load("execute_snapshot_op")
        scalar = [(json.dumps({"plan": "bench", "k": k}).encode(),
                   execute(kernel, "bench", {"op": "access", "plan": "bench", "k": k}))
                  for k in self.ranks]
        batches = [(json.dumps({"plan": "bench", "ks": ks}).encode(),
                    execute(kernel, "bench",
                            {"op": "batch_access", "plan": "bench", "ks": ks}))
                   for ks in self.pages]

        def codec(pair) -> None:
            json.loads(pair[0])
            encode(pair[1])

        rec.put("protocol.codec_us", _median_us(rec.calls(
            "protocol.codec", "pool.roundtrip", codec, scalar)))
        rec.put("protocol.encode_ns_per_answer", _median_us(rec.calls(
            "protocol.encode", "pool.roundtrip",
            lambda pair: encode(pair[1]), batches)) * 1e3 / PAGE)
        rec.put("protocol.decode_ns_per_rank", _median_us(rec.calls(
            "protocol.decode", "pool.roundtrip",
            lambda pair: json.loads(pair[0]), batches)) * 1e3 / PAGE)
        self.encode_scalar_us = _median_us(rec.calls(
            "protocol.encode_scalar", "pool.roundtrip",
            lambda pair: encode(pair[1]), scalar, spans=False))

        pack_request = rungs.load("pack_request_frame")
        pack_response = rungs.load("pack_response_frame")
        request_header = rungs.load("REQUEST_HEADER")
        response_header = rungs.load("RESPONSE_HEADER")
        framed = [({"op": "access", "plan": "bench", "k": k}, encode(response)[1])
                  for k, (_, response) in zip(self.ranks, scalar)]

        def frames(pair) -> None:
            frame = pack_request(7, pair[0])
            request_header.unpack_from(frame)
            frame = pack_response(7, 200, pair[1])
            response_header.unpack_from(frame)

        rec.put("dispatch.frame_us", _median_us(rec.calls(
            "dispatch.frame", "pool.roundtrip", frames, framed)))

    # -- service, facades, pool ------------------------------------------
    def service_up(self) -> None:
        service_class = rungs.load("QueryService")
        service = service_class(max_plans=8, backend="columnar", shards=2)
        self._cleanups.append(service.close)
        service.register_database("bench", self.need(self.path_db, "the 2-path database"))
        service.register_database("aux", self.need(self.score_db, "the score database"))
        try:
            pool = rungs.load("WorkerPool")(workers=2)
            service.attach_pool(pool)
            if pool.start():
                self.pool = pool
        except rungs.Missing:
            pass
        self.service = service
        self.path_plan = service.prepare("bench", gen.PATH_QUERY, order=gen.PATH_ORDER)
        self.score_plan = service.prepare(
            "aux", gen.SCORE_QUERY, mode="sum", weights=gen.score_weights_spec())

    def facade_rungs(self) -> None:
        rec = self.rec
        plan = self.need(self.path_plan, "the in-process LEX plan")
        facade = plan.engine.snapshot_view()
        lex_access = rungs.load("LexDirectAccess.access")
        rec.put("core.facade.access_us", _median_us(rec.calls(
            "core.facade.access", "live.plan_access",
            lambda k: lex_access(facade, k), self.ranks)))
        plan_access = rungs.load("PreparedPlan.access")
        rec.put("live.plan_access_us", _median_us(rec.calls(
            "live.plan_access", "service.execute",
            lambda k: plan_access(plan, k), self.ranks)))
        engine = self.need(self.score_plan, "the in-process SUM plan").engine
        sum_access = rungs.load("SumDirectAccess.access")
        sum_range = rungs.load("SumDirectAccess.range_access")
        rec.put("core.sum.access_us", _median_us(rec.calls(
            "core.sum.access", "service.execute_sum",
            lambda k: sum_access(engine, k), self.score_ranks)))
        page = 50
        rec.put("core.sum.range_ns_per_answer", _median_us(rec.calls(
            "core.sum.range", "service.execute_sum",
            lambda k: sum_range(engine, k % (engine.count - page),
                                k % (engine.count - page) + page),
            self.score_ranks)) * 1e3 / page)

    def service_rungs(self) -> None:
        rec = self.rec
        service = self.need(self.service, "the in-process service")
        execute = rungs.load("QueryService.execute")
        path_fp = self.need(self.path_plan, "the in-process LEX plan").fingerprint
        score_fp = self.need(self.score_plan, "the in-process SUM plan").fingerprint
        scalar = [{"op": "access", "plan": path_fp, "k": k} for k in self.ranks]
        batches = [{"op": "batch_access", "plan": path_fp, "ks": ks}
                   for ks in self.pages]
        sums = [{"op": "access", "plan": score_fp, "k": k} for k in self.score_ranks]

        def run(request) -> None:
            execute(service, request)

        rec.put("service.execute_us", _median_us(rec.calls(
            "service.execute", "frontend.http_inline", run, scalar)))
        rec.put("service.execute_batch_ns_per_answer", _median_us(rec.calls(
            "service.execute_batch", "frontend.http_inline", run, batches))
                * 1e3 / PAGE)
        rec.put("service.execute_sum_us", _median_us(rec.calls(
            "service.execute_sum", "frontend.http_inline", run, sums)))
        set_enabled = rungs.load("set_enabled")
        try:
            off, on, _ = rec.alternate(
                "service.execute_obs", run, scalar,
                prepare=(lambda: set_enabled(False), lambda: set_enabled(True)))
        finally:
            set_enabled(True)
        rec.put("obs.execute_overhead_us", _median_us(on) - _median_us(off))

    def pool_rungs(self) -> None:
        rec = self.rec
        pool = self.need(self.pool, "a started worker pool")
        plan = self.need(self.path_plan, "the in-process LEX plan")
        dispatch = rungs.load("WorkerPool.dispatch")
        fingerprint, epoch = plan.fingerprint, plan.engine.base_epoch
        misses = 0

        def run(request) -> None:
            nonlocal misses
            misses += dispatch(pool, fingerprint, request, epoch) is None

        scalar = [{"op": "access", "plan": fingerprint, "k": k} for k in self.ranks]
        batches = [{"op": "batch_access", "plan": fingerprint, "ks": ks}
                   for ks in self.pages]
        rec.put("pool.roundtrip_us", _median_us(rec.calls(
            "pool.roundtrip", "service.dispatch_raw", run, scalar)))
        rec.put("pool.roundtrip_batch_us", _median_us(rec.calls(
            "pool.roundtrip_batch", "frontend.http_batch", run, batches)))
        # The routed request as the front-ends issue it: routability check,
        # request trace, the worker's span subtree shipped back, metrics.
        service = self.need(self.service, "the in-process service")
        dispatch_raw = rungs.load("QueryService.dispatch_raw")

        def raw(request) -> None:
            nonlocal misses
            misses += dispatch_raw(service, request) is None

        rec.put("service.dispatch_raw_us", _median_us(rec.calls(
            "service.dispatch_raw", "frontend.http", raw, scalar)))
        if misses:
            raise rungs.Missing(f"{misses} in-process dispatches fell back inline")

    def live_rungs(self) -> None:
        rec = self.rec
        service = self.need(self.service, "the in-process service")
        plan = self.need(self.path_plan, "the in-process LEX plan")
        insert = rungs.load("QueryService.insert")
        compact = rungs.load("QueryService.compact")
        plan_access = rungs.load("PreparedPlan.access")
        clock = time.perf_counter
        inserts: List[float] = []
        refreshes: List[float] = []
        merged: List[float] = []
        compacts: List[float] = []
        limit = int(plan.count * 0.9)
        ranks = [k for k in self.ranks if k < limit][:500]
        for rows in self.fresh_rows[:LIVE_ROUNDS]:
            started = clock()
            insert(service, "bench", "R", [tuple(row) for row in rows])
            inserted = clock()
            plan_access(plan, ranks[0])
            refreshes.append(clock() - inserted)
            inserts.append(inserted - started)
            merged += rec.calls("live.merged_access", "service.execute",
                                lambda k: plan_access(plan, k), ranks)
            started = clock()
            compact(service, "bench")
            compacts.append(clock() - started)
        rec.put("live.insert_ms", statistics.median(inserts) * 1e3)
        rec.put("live.refresh_ms", statistics.median(refreshes) * 1e3)
        rec.put("live.merged_access_us", _median_us(merged))
        rec.put("live.compact_s", statistics.median(compacts))


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def reconcile(rec: Recorder, encode_scalar_us: Optional[float]) -> None:
    """Self times of the routed point-lookup chain against the served RTT."""
    names = ["ladder.self_sum_us", "ladder.residual_us",
             "ladder.kernel_encode_share_scalar", "ladder.kernel_encode_share_batch"]
    try:
        kernel = rec.number("core.snapshot.access_us")
        selfs = {
            "core.snapshot": kernel,
            "dispatch.snapshot_op": rec.number("dispatch.snapshot_op_us") - kernel,
            "protocol.codec": rec.number("protocol.codec_us"),
            "dispatch.frame": rec.number("dispatch.frame_us"),
            "frontend": rec.number("frontend.null_us"),
        }
        selfs["pool"] = (rec.number("pool.roundtrip_us")
                         - rec.number("dispatch.snapshot_op_us")
                         - selfs["protocol.codec"] - selfs["dispatch.frame"])
        selfs["service.route"] = (rec.number("service.dispatch_raw_us")
                                  - rec.number("pool.roundtrip_us"))
        total = sum(selfs.values())
        rec.put("ladder.self_sum_us", total)
        rec.put("ladder.residual_us", rec.number("ladder.e2e_c1_us") - total)
        if encode_scalar_us is None:
            raise rungs.Missing("scalar encode was not measured")
        rec.put("ladder.kernel_encode_share_scalar",
                (kernel + encode_scalar_us) / rec.number("ladder.e2e_c1_us"))
        rec.put("ladder.kernel_encode_share_batch",
                (rec.number("core.snapshot.batch_ns_per_answer")
                 + rec.number("protocol.encode_ns_per_answer")) * PAGE / 1e3
                / rec.number("frontend.http_batch_us"))
        rec.self_times_us = selfs
    except rungs.Missing as exc:
        rec.null([name for name in names if name not in rec.metrics], str(exc))


def other_shape(run: Run, seed: int):
    """(2-path relations, the aux database's document, its prepare request).

    The other shape rides along as database "aux", so the LEX and the SUM
    rungs both have a served plan whichever workload is being traced.
    """
    size = run.profile.size
    if run.workload.relation == "R":
        rows = gen.score_relation(size["score_rows"], seed)
        return (run.workload.relations, gen.score_document(rows),
                {"db": "aux", "query": gen.SCORE_QUERY, "mode": "sum",
                 "weights": gen.score_weights_spec()})
    relations = gen.path_relations(size["path_rows"], seed)
    return (relations, gen.path_document(relations),
            {"db": "aux", "query": gen.PATH_QUERY, "order": gen.PATH_ORDER})


def traced_window(rec: Recorder, run: Run) -> None:
    """One window of the workload's own traffic, counters scraped around it,
    then its write path.  Everything an untraced run measures is put as
    ``diag.<name>``; ``run_traced`` keeps the ones ``BENCHMARK.json`` declares
    per-layer (what is measured but not gated)."""
    before = _scrape(run.control)
    observed = run.window(1, run.profile.window_s)
    after = _scrape(run.control)
    delta = {key: after[key] - before[key] for key in before}
    requests = max(1, observed["requests"])
    rec.put("pool.routed_share", delta["routed"] / requests)
    rec.put("pool.fallback_count",
            delta["fallbacks"] + delta["dispatches"] - delta["routed"])
    rec.put("pool.worker_cpu_us_per_req", observed["worker_cpu"] * 1e6 / requests)
    rec.put("frontend.master_cpu_us_per_req", observed["master_cpu"] * 1e6 / requests)
    rec.put("frontend.master_threads_peak", observed["threads_peak"])
    lookups = delta["hits"] + delta["misses"]
    rec.put("service.plan_cache.hit_share", delta["hits"] / lookups if lookups else 1.0)
    rec.put("live.delta_refreshes", delta["refreshes"])
    rec.put("live.compactions", delta["compactions"])
    rec.put("loadgen.cpu_share", observed["loadgen_cpu"] / observed["wall"])
    measured = {**window_metrics(observed), "server_pss_mb": observed["pss_mib"],
                "setup_s": run.setup_seconds[-1], "host_wait_s": run.host_wait_s,
                **run.write_path(probe=True)}
    for key, value in measured.items():
        rec.put(f"diag.{key}", value)


def run_traced(name: str, seed: int, profile: Profile, work_dir: str,
               declared: Set[str], keep_spans: bool = False) -> Dict[str, object]:
    rec = Recorder(keep_spans)
    calib_before = calibrate()
    run = Run(name, seed, profile, work_dir)
    workload = run.workload
    main_is_path = workload.relation == "R"
    path_relations, aux_document, aux_prepare = other_shape(run, seed)
    aux_file = os.path.join(work_dir, "aux.json")
    gen.write_document(aux_file, aux_document)
    main_file = os.path.join(work_dir, f"{name}.json")
    path_file, score_file = ((main_file, aux_file) if main_is_path
                             else (aux_file, main_file))
    path_key, score_key = ("main", "aux") if main_is_path else ("aux", "main")
    # Fresh rows of R (x beyond the domain, y that joins) for the in-process
    # live rungs.
    domain = max(8, profile.size["path_rows"] // 8)
    ys = [row[0] for row in path_relations["S"]]
    fresh = [[[domain + 1 + chunk * 8 + i, ys[(chunk * 8 + i) % len(ys)]]
              for i in range(8)] for chunk in range(LIVE_ROUNDS)]
    try:
        # 3 s still clears the inline path's ~6k-request transient; the
        # windows here feed diagnostics, and the run has a ladder to climb.
        run.start(1, min(3.0, profile.warmup_s), extra_databases=[("aux", aux_file)],
                  extra_prepares={"aux": aux_prepare})
        plans = run.server.plans
        for key, value in run.server.phases.items():
            rec.put(f"setup.{key}", value)
        zipf = gen.ZipfRanks(int(plans[path_key]["count"] * 0.9))
        ranks = zipf.sample(workload.rng, SCALAR_CALLS)
        pages = [zipf.sample(workload.rng, PAGE) for _ in range(BATCH_CALLS)]
        score_ranks = [workload.rng.randrange(plans[score_key]["count"])
                       for _ in range(SCALAR_CALLS // 2)]
        with quiet_gc():
            run.note(served_rungs(rec, run.server.port, plans[path_key]["plan"],
                                  plans[score_key]["plan"], ranks, pages, score_ranks))
        traced_window(rec, run)
    finally:
        run.stop()

    shm_before = shm_blocks()
    inproc = InProcess(rec, path_file, score_file, ranks, pages, score_ranks, fresh)
    inproc.run()
    reap_own_children()
    run.teardown["leaked_shm"] += len(shm_blocks() - shm_before)
    for key, value in run.teardown.items():
        rec.put(f"teardown.{key}", value)
    reconcile(rec, inproc.encode_scalar_us)

    calib_after = calibrate()
    rec.put("loadgen.calib_ms", (calib_before + calib_after) / 2.0)
    rec.put("loadgen.calib_drift_pct",
            abs(calib_after - calib_before) / calib_before * 100.0)
    rec.put("diag.failed_share", run.failed / max(1, run.attempted))
    result = {
        "workload": name, "seed": seed, "trace": 1,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {key: value for key, value in rec.metrics.items()
                    if not key.startswith("diag.") or key in declared},
        "cpu_us_per_call": rec.cpu_us,
        "self_times_us": rec.self_times_us,
        "hygiene": dict(run.teardown),
    }
    if keep_spans:
        result["spans"] = [list(span) for span in rec.spans]
    return result
