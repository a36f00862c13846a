"""Observability overhead benchmark: instrumented vs uninstrumented serving.

Writes ``BENCH_observability.json``, making the telemetry layer's contract
machine-checkable across PRs:

* **bit-identical answers** — the same seeded rank workload is served
  through :meth:`~repro.service.QueryService.execute` with metrics and
  tracing disabled and enabled, and every response's answers must match
  exactly before any timing is recorded.  Instrumentation that changes
  results is a bug the bench must fail on, not average away.
* **bounded overhead** — per backend, scalar (``access``) and batched
  (``batch_access``) throughput is measured in both configurations and the
  relative overhead is recorded.  Obs-off throughput is the number the
  seed's throughput bench is compared against.  The in-process scalar loop
  is a microbenchmark of the middleware itself — it reports the *absolute*
  per-request cost (``scalar_overhead_us_per_request``, a handful of
  microseconds) — while the HTTP phase replays the same workload through
  the real front-end (socket + HTTP parse + JSON round-trip), which is the
  serving surface where obs-on must stay within a few percent.

Methodology: each phase runs ``repeats`` rounds of the workload in both
configurations and keeps the best (minimum) time per configuration.  Rounds
alternate which configuration goes *first* — on a thermally drifting or
shared machine, whichever measurement runs second in a round is
systematically penalised, and alternating the order cancels that position
bias instead of booking it as instrumentation overhead.

One ``seed`` drives the database and the Zipf rank workload; ``cpu_count``,
the seed and the process-level obs flag land in the metadata.  The previous
enabled/disabled state is restored afterwards, so the bench can run inside
a live process.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import threading
import time
from http.client import HTTPConnection
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.benchharness.replay import zipf_ranks
from repro.obs import METRICS, TRACER, obs_enabled, set_enabled
from repro.workloads.generators import generate_path_database

_QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
_ORDER = "x, y, z"


def _serve_workload(service, plan: str, ranks: Sequence[int],
                    batch_size: int) -> Dict[str, object]:
    """Serve the scalar and batched phases once; returns answers + timings."""
    scalar_answers: List[object] = []
    started = time.perf_counter()
    for k in ranks:
        response = service.execute({"op": "access", "plan": plan, "k": k})
        if not response.get("ok"):  # pragma: no cover - workload is in-bounds
            raise AssertionError(f"access failed: {response}")
        scalar_answers.append(response["answer"])
    scalar_seconds = time.perf_counter() - started

    batch_answers: List[object] = []
    started = time.perf_counter()
    for offset in range(0, len(ranks), batch_size):
        window = list(ranks[offset:offset + batch_size])
        response = service.execute(
            {"op": "batch_access", "plan": plan, "ks": window}
        )
        if not response.get("ok"):  # pragma: no cover - workload is in-bounds
            raise AssertionError(f"batch_access failed: {response}")
        batch_answers.append(response["answers"])
    batch_seconds = time.perf_counter() - started

    return {
        "answers": (scalar_answers, batch_answers),
        "timings": {"scalar": scalar_seconds, "batch": batch_seconds},
    }


def _serve_http_workload(port: int, plan: str,
                         ranks: Sequence[int]) -> Dict[str, object]:
    """Replay the scalar workload over HTTP (one keep-alive connection).

    This is the deployed serving surface: socket + HTTP parse + JSON
    round-trip per request, which is where the middleware's per-request cost
    is judged — a few microseconds against a wire request, not against a
    bare in-process dict dispatch.
    """
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.connect()
        # Mirror the server's TCP_NODELAY: headers and body go out in
        # separate writes, and Nagle + delayed ACK would stall each
        # keep-alive request by up to 40ms otherwise.
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        answers: List[object] = []
        started = time.perf_counter()
        for k in ranks:
            payload = json.dumps({"plan": plan, "k": k}).encode("utf-8")
            connection.request("POST", "/v1/access", body=payload,
                               headers={"Content-Type": "application/json"})
            http_response = connection.getresponse()
            document = json.loads(http_response.read())
            if http_response.status != 200 or not document.get("ok"):
                raise AssertionError(f"http access failed: {document}")
            answers.append(document["answer"])
        seconds = time.perf_counter() - started
    finally:
        connection.close()
    return {"answers": answers, "timings": {"http": seconds}}


def _measure_alternating(
    run_once: Callable[[], Dict[str, object]],
    repeats: int,
) -> Tuple[Dict[str, object], Dict[str, object], Dict[str, List[Tuple[float, float]]]]:
    """Timings for obs-off and obs-on over ``repeats`` rounds, order-alternated.

    ``run_once`` serves the workload under whatever the current obs state
    is; this helper toggles the state around it.  Returns the merged
    best-of ``(disabled, enabled)`` run documents plus, per timing key, the
    list of paired per-round ``(off_seconds, on_seconds)`` samples — the
    input :func:`_paired_overhead_percent` needs.  Raises if any round's
    answers differ from the first round's (within either configuration).
    """
    best: Dict[bool, Optional[Dict[str, object]]] = {False: None, True: None}
    pairs: Dict[str, List[Tuple[float, float]]] = {}
    for round_index in range(max(1, repeats)):
        order = (True, False) if round_index % 2 else (False, True)
        this_round: Dict[bool, Dict[str, object]] = {}
        for flag in order:
            set_enabled(flag)
            # A generation-2 collection (the heap holds the full snapshot
            # image) pausing inside one 0.1s timed window but not the other
            # would swamp the effect being measured; collect up front and
            # keep the collector out of the timed section, as timeit does.
            gc_was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                run = run_once()
            finally:
                if gc_was_enabled:
                    gc.enable()
            this_round[flag] = run
            merged = best[flag]
            if merged is None:
                best[flag] = run
            else:
                if run["answers"] != merged["answers"]:  # pragma: no cover
                    raise AssertionError("answers drifted between rounds")
                for key, seconds in run["timings"].items():
                    merged["timings"][key] = min(merged["timings"][key], seconds)
        for key, off_seconds in this_round[False]["timings"].items():
            pairs.setdefault(key, []).append(
                (off_seconds, this_round[True]["timings"][key])
            )
    return best[False], best[True], pairs


def _paired_overhead_percent(
    samples: Sequence[Tuple[float, float]],
) -> Optional[float]:
    """Overhead as the median of paired within-round on/off ratios.

    Best-of-N timings are the right throughput summary but the wrong
    overhead estimator on a thermally drifting machine: the earliest
    (coldest, fastest) round tends to win for *both* configurations, so the
    reported overhead collapses to that single round's within-round position
    bias.  The median of per-round ratios instead mixes rounds measured in
    both orders, cancelling the bias.
    """
    ratios = sorted(on / off for off, on in samples if off > 0)
    if not ratios:
        return None
    middle = len(ratios) // 2
    if len(ratios) % 2:
        median = ratios[middle]
    else:
        median = (ratios[middle - 1] + ratios[middle]) / 2.0
    return round((median - 1.0) * 100.0, 2)


def run_observability_bench(
    num_tuples: int,
    num_requests: int = 4096,
    batch_size: int = 256,
    backends: Optional[Sequence[str]] = None,
    repeats: int = 4,
    seed: int = 0,
) -> Dict[str, object]:
    """Measure instrumented vs uninstrumented serving on one warm plan.

    The plan is prepared (and its structure built) before any timing, so the
    measured loops isolate the steady-state serving path the middleware
    wraps.  Both configurations run on the same service — the plan cache and
    snapshot image are equally warm.
    """
    from repro.service import QueryService

    if backends is None:
        from repro.engine.backends import available_backends

        backends = available_backends()

    was_enabled = obs_enabled()
    domain = max(64, num_tuples // 8)
    per_backend: Dict[str, object] = {}
    try:
        for backend in backends:
            database = generate_path_database(
                num_tuples, domain, seed=seed, backend=backend
            )
            service = QueryService(backend=backend)
            service.register_database("bench", database)
            prepare = service.execute({
                "op": "prepare", "db": "bench", "query": _QUERY, "order": _ORDER,
            })
            if not prepare.get("ok"):  # pragma: no cover - the query is tractable
                raise AssertionError(f"prepare failed: {prepare}")
            plan = prepare["plan"]
            count = prepare["count"]
            ranks = [k % count for k in zipf_ranks(num_requests, count, seed=seed)]

            disabled, enabled, pairs = _measure_alternating(
                lambda: _serve_workload(service, plan, ranks, batch_size),
                repeats,
            )
            if enabled["answers"] != disabled["answers"]:
                raise AssertionError(
                    f"instrumented answers differ from uninstrumented "
                    f"(backend={backend})"
                )

            # HTTP phase: the same scalar workload (truncated — wire requests
            # are ~30× slower than in-process dispatch) through the real
            # front-end, against the same ephemeral server.
            from repro.service import make_server

            http_ranks = ranks[:max(64, len(ranks) // 8)]
            server = make_server(service, port=0)
            port = server.server_address[1]
            server_thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            server_thread.start()
            try:
                http_disabled, http_enabled, http_pairs = _measure_alternating(
                    lambda: _serve_http_workload(port, plan, http_ranks),
                    repeats,
                )
            finally:
                server.shutdown()
                server_thread.join(timeout=10)
                server.server_close()
            if http_enabled["answers"] != http_disabled["answers"] or (
                http_disabled["answers"]
                != disabled["answers"][0][:len(http_ranks)]
            ):
                raise AssertionError(
                    f"HTTP answers differ from in-process answers "
                    f"(backend={backend})"
                )

            scalar_off = disabled["timings"]["scalar"]
            scalar_on = enabled["timings"]["scalar"]
            batch_off = disabled["timings"]["batch"]
            batch_on = enabled["timings"]["batch"]
            http_off = http_disabled["timings"]["http"]
            http_on = http_enabled["timings"]["http"]
            scalar_pct = _paired_overhead_percent(pairs["scalar"])
            per_backend[backend] = {
                "count": int(count),
                "answers_identical": True,
                "scalar_requests": int(len(ranks)),
                "batch_requests": int(
                    (len(ranks) + batch_size - 1) // batch_size
                ),
                "scalar_obs_off_ops_per_second": round(
                    len(ranks) / scalar_off, 2) if scalar_off > 0 else None,
                "scalar_obs_on_ops_per_second": round(
                    len(ranks) / scalar_on, 2) if scalar_on > 0 else None,
                "scalar_overhead_percent": scalar_pct,
                "batch_obs_off_answers_per_second": round(
                    len(ranks) / batch_off, 2) if batch_off > 0 else None,
                "batch_obs_on_answers_per_second": round(
                    len(ranks) / batch_on, 2) if batch_on > 0 else None,
                "batch_overhead_percent": _paired_overhead_percent(pairs["batch"]),
                "scalar_overhead_us_per_request": round(
                    scalar_pct / 100.0 * scalar_off / len(ranks) * 1e6, 3
                ) if scalar_pct is not None else None,
                "http_requests": int(len(http_ranks)),
                "http_obs_off_requests_per_second": round(
                    len(http_ranks) / http_off, 2) if http_off > 0 else None,
                "http_obs_on_requests_per_second": round(
                    len(http_ranks) / http_on, 2) if http_on > 0 else None,
                "http_overhead_percent": _paired_overhead_percent(http_pairs["http"]),
            }
    finally:
        set_enabled(was_enabled)

    return {
        "artifact": "observability",
        "metadata": {
            "query": _QUERY,
            "order": _ORDER,
            "tuples_per_relation": int(num_tuples),
            "domain": int(domain),
            "requests": int(num_requests),
            "batch_size": int(batch_size),
            "repeats": int(repeats),
            "seed": int(seed),
            "cpu_count": os.cpu_count() or 1,
            "backends": list(backends),
            "obs_enabled_at_start": bool(was_enabled),
            "metrics_enabled_now": bool(METRICS.enabled),
            "tracing_enabled_now": bool(TRACER.enabled),
            "note": (
                "Throughputs are best-of-repeats over the same warm plan; "
                "overhead percentages are the median of paired within-round "
                "on/off ratios, with the measurement order alternated per "
                "round to cancel thermal-drift position bias. Every "
                "enabled-run answer is verified bit-identical to the "
                "disabled run before overheads are computed. The in-process "
                "scalar loop microbenchmarks the middleware (absolute cost "
                "in scalar_overhead_us_per_request); the http_* series "
                "measure the deployed serving surface."
            ),
        },
        "backends": per_backend,
    }


def write_observability_bench(path: str, document: Mapping[str, object]) -> None:
    """Write the benchmark artifact (``BENCH_observability.json``)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
