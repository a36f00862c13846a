"""Event-loop serving under concurrent keep-alive connections.

Two phases, in order, writing ``BENCH_async_serving.json``:

1. **Identity** — the same mixed Zipf workload replayed sequentially against
   an event-loop server, an event-loop server with a worker pool (when
   available), and an in-process reference service; the canonical responses
   (traces stripped) must agree byte-for-byte *before* anything is timed.  A
   mismatch aborts the run.
2. **Scaling** — C ∈ {1, 8, 64, 256} keep-alive clients replay the workload
   against the event-loop subprocess.  Every cell records wall-clock
   throughput plus the server's ``/proc`` story: master CPU-seconds over the
   run, peak thread count, peak FD count — one loop thread plus a small
   executor, whatever C is.

Run standalone for the canonical artifact::

    PYTHONPATH=src python benchmarks/bench_async_serving.py [n] [requests]
    PYTHONPATH=src python benchmarks/bench_async_serving.py --smoke
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

try:  # standalone invocation (CI smoke) must not require pytest
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

from repro import LexOrder
from repro.benchharness import (
    ServeProcess,
    format_table,
    make_requests,
    run_fleet,
    verify_http_identity,
    write_async_serving,
)
from repro.service import QueryService, pool_supported
from repro.service.client import HTTPSession
from repro.service.protocol import database_to_json
from repro.workloads import paper_queries as pq
from repro.workloads.generators import generate_path_database

ORDER = LexOrder(("x", "y", "z"))
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_async_serving.json"

FULL_TUPLES = 5_000
FULL_REQUESTS = 6_000
CONCURRENCY_LEVELS = (1, 8, 64, 256)
ZIPF_SKEW = 1.1
DEFAULT_SEED = 0


def _write_db_file(num_tuples: int, seed: int, directory: str):
    database = generate_path_database(
        num_tuples, max(8, int(num_tuples ** 0.5)), seed=seed
    )
    path = os.path.join(directory, "bench_db.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(database_to_json(database), handle)
    return path, database


def _prepare_over_http(base_url: str):
    """POST the prepare; returns the plan fingerprint the workload routes by."""
    with HTTPSession(base_url) as session:
        status, document = session.post_json("/v1/query", {
            "op": "prepare", "db": "bench", "query": str(pq.TWO_PATH),
            "order": ", ".join(ORDER.variables),
        })
    if status != 200 or not document.get("ok"):
        raise RuntimeError(f"prepare failed against {base_url}: {document}")
    return document["plan"], document["count"]


def run_bench(
    num_tuples: int,
    num_requests: int,
    concurrency_levels=CONCURRENCY_LEVELS,
    seed: int = DEFAULT_SEED,
    artifact=None,
    with_pool: bool = True,
):
    results = []
    with tempfile.TemporaryDirectory(prefix="repro-connscale-") as scratch:
        db_path, database = _write_db_file(num_tuples, seed, scratch)

        reference = QueryService(max_plans=8)
        reference.register_database("bench", database)
        servers = {}
        try:
            servers["event"] = ServeProcess(db_path)
            if with_pool and pool_supported():
                servers["event+workers"] = ServeProcess(db_path, workers=2)

            fingerprint = count = None
            for label, server in servers.items():
                fingerprint, count = _prepare_over_http(server.base_url)
            reference_plan = reference.prepare(
                "bench", pq.TWO_PATH, order=ORDER
            )
            if reference_plan.fingerprint != fingerprint:
                raise AssertionError(
                    "in-process fingerprint diverges from the servers': "
                    f"{reference_plan.fingerprint} vs {fingerprint}"
                )

            identity_payloads = make_requests(
                fingerprint, count, min(500, num_requests),
                skew=ZIPF_SKEW, seed=seed,
            )
            identity = verify_http_identity(
                {label: server.base_url for label, server in servers.items()},
                identity_payloads,
                reference_service=reference,
            )
            if identity["mismatches"]:
                raise AssertionError(
                    "front-ends diverge before timing: "
                    f"{identity['mismatches'][:2]}"
                )

            payloads = make_requests(
                fingerprint, count, num_requests, skew=ZIPF_SKEW, seed=seed,
            )
            server = servers["event"]
            for concurrency in concurrency_levels:
                result = run_fleet(
                    server.base_url, payloads, concurrency, pid=server.pid,
                    label=f"event C={concurrency}",
                )
                if result.errors:
                    raise AssertionError(
                        f"{result.label}: {result.errors} failed requests"
                    )
                results.append(result)
        finally:
            for server in servers.values():
                server.stop()
            reference.close()

    document = write_async_serving(
        str(artifact or ARTIFACT),
        identity,
        results,
        metadata={
            "query": str(pq.TWO_PATH),
            "order": str(ORDER),
            "tuples_per_relation": num_tuples,
            "requests": num_requests,
            "identity_requests": len(identity_payloads),
            "concurrency_levels": list(concurrency_levels),
            "zipf_skew": ZIPF_SKEW,
            "seed": seed,
            "cpu_count": os.cpu_count(),
            "connection_reuse": "keep-alive",
        },
    )
    return results, document


def print_results(results, document) -> None:
    identity = document["identity"]
    print(
        f"\nidentity: {identity['checked']} requests agree across "
        f"{', '.join(identity['servers'])}"
    )
    rows = []
    for entry in document["runs"]:
        rows.append((
            entry["concurrency"],
            f"{entry['throughput_rps']:,.0f}",
            entry.get("cpu_us_per_request", "-"),
            entry.get("threads_peak", "-"),
            entry.get("fds_peak", "-"),
        ))
    print()
    print(
        format_table(
            ["C", "req/s", "cpu µs/req", "threads", "fds"],
            rows,
            title="connection scaling (keep-alive clients, mixed Zipf reads)",
        )
    )


# ----------------------------------------------------------------------
# Pytest variant: plumbing smoke (timings too noisy for hard assertions)
# ----------------------------------------------------------------------
if pytest is not None:

    @pytest.mark.skipif(os.name != "posix", reason="needs /proc and subprocess servers")
    def test_async_serving_artifact(tmp_path):
        scratch = tmp_path / "BENCH_async_serving.json"
        results, document = run_bench(
            800, 600, concurrency_levels=(1, 8), artifact=scratch,
            with_pool=False,
        )
        print_results(results, document)
        assert scratch.exists()
        assert document["identity"]["mismatches"] == []
        assert [run["concurrency"] for run in document["runs"]] == [1, 8]
        assert all(run["errors"] == 0 for run in document["runs"])


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    seed = DEFAULT_SEED
    if "--seed" in argv:
        position = argv.index("--seed")
        seed = int(argv[position + 1])
        del argv[position:position + 2]

    if smoke:
        num_tuples, num_requests = 800, 1_200
        concurrency_levels = (1, 8, 32)
    else:
        numbers = [int(a) for a in argv]
        num_tuples = numbers[0] if numbers else FULL_TUPLES
        num_requests = numbers[1] if len(numbers) > 1 else FULL_REQUESTS
        concurrency_levels = CONCURRENCY_LEVELS

    results, document = run_bench(
        num_tuples, num_requests, concurrency_levels=concurrency_levels,
        seed=seed,
    )
    print_results(results, document)
    print(f"\nwrote {ARTIFACT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
