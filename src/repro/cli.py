"""Command-line interface: classify, explain, serve, client, mutate, snapshot,
metrics, trace, profile.

Eight subcommands::

    repro classify "Q(x, y, z) :- R(x, y), S(y, z)" --order "x, z, y"
    repro explain  "Q(x, y, z) :- R(x, y), S(y, z)" --order "x, y, z" --json
    repro serve --db demo=examples/service/demo_db.json --port 8734
    repro client requests.jsonl --db demo=examples/service/demo_db.json
    repro mutate --url http://127.0.0.1:8734 --db demo --relation R \\
        --insert "[7, 8]" --delete "[1, 2]" --compact
    repro snapshot save "Q(x, y) :- R(x, y)" --db demo=demo_db.json --out q.rsnp
    repro snapshot load q.rsnp --range 0 10
    repro metrics --url http://127.0.0.1:8734
    repro trace 84ec28e9a2564e55 --url http://127.0.0.1:8734

``classify`` (the default when the first argument is not a subcommand, for
backward compatibility) prints the verdicts of all four dichotomies for a
query/order/FD combination; exit code 0 means every requested problem is
tractable, 1 that at least one is not.  ``explain`` prints the planner's full
decision trace — classification, FD rewrites, order completion, layered
join-tree shape and the staged build DAG — as pretty text or JSON
(``--json``), without touching any data; exit code mirrors ``classify``.
``serve`` starts the stdlib HTTP front-end of :mod:`repro.service` over
JSON-file databases.  ``client`` runs a newline-delimited JSON request file
either against a running server (``--url``) or in-process (``--db``),
printing one JSON response per line; exit code 1 signals that at least one
request failed — the live-update ops (``insert`` / ``delete`` / ``compact``)
work through ``client`` like any other op.  ``mutate`` is the convenience
front-end for exactly those ops against a *running* server: it sends the
inserts, then the deletes, then (optionally) a compaction and a stats probe,
printing one JSON response per operation.  ``snapshot save`` builds a LEX
plan once and writes the flat snapshot image of its preprocessed instance;
``snapshot load`` mmaps such a file and serves ranked answers from it —
across process restarts — without re-running preprocessing.  ``metrics``
fetches a running server's telemetry (pretty table, ``--json``, or the raw
Prometheus text via ``--prometheus``); ``trace`` prints the span tree of a
retained request trace by id, or summaries of the most recent traces when no
id is given.

``repro --version`` prints the library version.  Malformed invocations exit
with the conventional argparse usage status (2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import __version__
from repro.benchharness.reporting import format_table
from repro.core.classification import classify_all
from repro.core.parser import parse_fds, parse_order, parse_query

_VERSION_TEXT = f"repro {__version__}"


def _add_version(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--version", action="version", version=_VERSION_TEXT)


def _add_backend(parser: argparse.ArgumentParser, help_suffix: str = "") -> None:
    parser.add_argument(
        "--backend",
        choices=("row", "columnar"),
        default=None,
        help="storage/execution backend ('columnar' requires NumPy)" + help_suffix,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_shards(parser: argparse.ArgumentParser, help_suffix: str = "") -> None:
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="range-partition LEX builds on the leading order variable into "
        "N shards (orders that cannot shard fall back to 1 with a recorded "
        "reason)" + help_suffix,
    )


def build_argument_parser() -> argparse.ArgumentParser:
    """The ``classify`` parser (also the backward-compatible default)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Classify ranked direct access and selection for a conjunctive query.",
    )
    _add_version(parser)
    parser.add_argument("query", help='e.g. "Q(x, y, z) :- R(x, y), S(y, z)"')
    parser.add_argument("--order", help='lexicographic order, e.g. "x, z desc, y"', default=None)
    parser.add_argument(
        "--fd",
        action="append",
        default=[],
        metavar="FD",
        help='unary functional dependency, e.g. "R: x -> y" (repeatable)',
    )
    parser.add_argument(
        "--explain", action="store_true", help="also print reasons, witnesses and hypotheses"
    )
    _add_backend(parser, " (sets the process default)")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve prepared ranked-direct-access queries over HTTP (JSON).",
    )
    _add_version(parser)
    parser.add_argument(
        "--db",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a database from a JSON file (repeatable); databases can "
        "also be registered at runtime via POST /v1/databases",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8734, help="TCP port (default 8734)")
    parser.add_argument(
        "--max-plans", type=int, default=64, help="plan cache capacity (default 64)"
    )
    _add_backend(parser, " used for plans that do not name one")
    _add_shards(parser, " (default for plans that do not name a count)")
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log requests slower than MS milliseconds to the slow-query log "
        "(0 logs everything; default: REPRO_SLOW_QUERY_MS or 500)",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="disable metrics and tracing for this process (near-zero "
        "instrumentation overhead; /metrics serves empty families)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="prefork N worker processes that serve access/batch/range/count "
        "reads from attached shared-memory snapshot images (0 = single "
        "process, the default)",
    )
    parser.add_argument(
        "--build-slots",
        type=int,
        default=2,
        metavar="N",
        help="concurrent expensive plan builds admitted before new builds "
        "queue (default 2)",
    )
    parser.add_argument(
        "--build-queue",
        type=int,
        default=16,
        metavar="N",
        help="queued expensive builds tolerated before shedding with 503 "
        "(default 16; 0 sheds immediately when all slots are busy)",
    )
    parser.add_argument(
        "--build-queue-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="longest a queued build waits for a slot before a 503 "
        "(default 30)",
    )
    parser.add_argument(
        "--max-body-mb",
        type=float,
        default=64.0,
        metavar="MB",
        help="largest accepted request body in MiB; larger bodies answer a "
        "structured 413 (default 64)",
    )
    parser.add_argument(
        "--reuse-port",
        action="store_true",
        help="bind with SO_REUSEPORT so several independent serve processes "
        "can share the port (kernel-level load spreading; see README "
        "caveats — plan caches and mutations are NOT shared across them)",
    )
    parser.add_argument(
        "--io-loop",
        choices=("event",),
        default="event",
        help="kept for compatibility with existing command lines: the "
        "single non-blocking event loop is the only HTTP front-end",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=1024,
        metavar="N",
        help="open connections accepted before new ones are refused with a "
        "structured 503 (default 1024)",
    )
    parser.add_argument(
        "--header-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="close connections whose request headers do not complete "
        "within SECONDS with a structured 408 (default 30)",
    )
    parser.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="continuously sample wall-clock stacks at HZ in the master and "
        "every worker (near-zero cost between samples); merged folded "
        "stacks at GET /debug/profile (default: REPRO_PROFILE_HZ or off)",
    )
    return parser


def build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="Run a newline-delimited JSON request file against the query service.",
    )
    _add_version(parser)
    parser.add_argument(
        "requests",
        help="path to a JSONL request file, or '-' for stdin",
    )
    parser.add_argument(
        "--url",
        default=None,
        help="base URL of a running server (e.g. http://127.0.0.1:8734); "
        "omitted: requests run in-process against --db databases",
    )
    parser.add_argument(
        "--db",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="database JSON file for in-process execution (repeatable)",
    )
    parser.add_argument(
        "--max-plans", type=int, default=64, help="in-process plan cache capacity"
    )
    _add_backend(parser)
    _add_shards(parser, " (in-process execution only)")
    return parser


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------
def classify_main(argv: List[str]) -> int:
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    try:
        query = parse_query(args.query)
        order = parse_order(args.order) if args.order else None
        fds = parse_fds(args.fd) if args.fd else None
    except Exception as exc:
        parser.error(str(exc))

    backend_line = None
    if args.backend is not None:
        from repro.engine.backends import BackendUnavailableError, set_default_backend

        try:
            set_default_backend(args.backend)
        except BackendUnavailableError as exc:
            parser.error(str(exc))
        backend_line = f"backend: {args.backend}"

    results = classify_all(query, order, fds=fds)

    rows = []
    for key, classification in results.items():
        rows.append(
            (
                key,
                classification.verdict,
                classification.guarantee or "-",
                classification.theorem,
            )
        )
    print(f"query: {query}")
    if order is not None:
        print(f"order: {order}")
    if fds:
        print("FDs:   " + ", ".join(str(fd) for fd in fds))
    if backend_line:
        print(backend_line)
    print()
    print(format_table(["problem", "verdict", "guarantee", "theorem"], rows))

    if args.explain:
        print()
        for key, classification in results.items():
            print(f"{key}: {classification.reason}")
            if classification.witness is not None:
                print(f"    witness: {classification.witness}")
            if classification.hypotheses:
                print(f"    conditional on: {', '.join(classification.hypotheses)}")

    return 0 if all(c.tractable for c in results.values()) else 1


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------
def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Print the planner's decision trace for a query, without building.",
    )
    _add_version(parser)
    parser.add_argument("query", help='e.g. "Q(x, y, z) :- R(x, y), S(y, z)"')
    parser.add_argument("--order", help='lexicographic order, e.g. "x, z desc, y"', default=None)
    parser.add_argument(
        "--fd",
        action="append",
        default=[],
        metavar="FD",
        help='unary functional dependency, e.g. "R: x -> y" (repeatable)',
    )
    parser.add_argument(
        "--mode",
        choices=("lex", "sum", "selection-lex", "selection-sum"),
        default="lex",
        help="which of the four problems to plan (default: lex direct access)",
    )
    _add_backend(parser, " recorded in the plan")
    _add_shards(parser, " (the plan records the partition stage)")
    parser.add_argument("--json", action="store_true", help="emit the plan as JSON")
    return parser


def explain_main(argv: List[str]) -> int:
    parser = build_explain_parser()
    args = parser.parse_args(argv)
    from repro.planner import plan as build_plan

    mode = args.mode.replace("-", "_")
    if mode in ("sum", "selection_sum") and args.order:
        parser.error(f"mode {args.mode!r} ranks by SUM weights; --order does not apply")
    try:
        query = parse_query(args.query)
        order = parse_order(args.order) if args.order else None
        fds = parse_fds(args.fd) if args.fd else None
        query_plan = build_plan(
            query, order, mode=mode, fds=fds, backend=args.backend,
            shards=args.shards, enforce_tractability=False, strict=False,
        )
    except Exception as exc:
        parser.error(str(exc))

    if args.json:
        print(json.dumps(query_plan.to_json(), indent=2, sort_keys=True, default=str))
    else:
        print(query_plan.describe())
    return 0 if query_plan.tractable and query_plan.error is None else 1


# ----------------------------------------------------------------------
# serve / client
# ----------------------------------------------------------------------
def _parse_db_specs(parser: argparse.ArgumentParser, specs: List[str], backend,
                    max_plans: int = 64, shards: Optional[int] = None,
                    slow_query_seconds: Optional[float] = None):
    from repro.service import QueryService, load_database
    from repro.service.protocol import ServiceError

    service = QueryService(max_plans=max(1, max_plans), backend=backend,
                           shards=shards, slow_query_seconds=slow_query_seconds)
    for spec in specs:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            parser.error(f"--db expects NAME=PATH, got {spec!r}")
        try:
            service.register_database(name, load_database(path, backend=backend))
        except (OSError, ValueError, ServiceError) as exc:
            parser.error(f"--db {spec}: {exc}")
    return service


def serve_main(argv: List[str]) -> int:
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    import signal
    import threading

    from repro.service.eventloop import make_server, run_server
    from repro.service.gates import AdmissionGate

    if args.no_obs:
        from repro.obs import set_enabled

        set_enabled(False)
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.profile_hz is not None:
        if args.profile_hz < 0:
            parser.error(f"--profile-hz must be >= 0, got {args.profile_hz}")
        # Workers inherit the environment at fork, so setting the variable
        # before pool.start() arms continuous profiling in every process.
        os.environ["REPRO_PROFILE_HZ"] = repr(args.profile_hz)
    from repro.obs.profile import maybe_start_from_env

    maybe_start_from_env()
    slow_query_seconds = (
        max(0.0, args.slow_query_ms / 1000.0)
        if args.slow_query_ms is not None else None
    )
    service = _parse_db_specs(parser, args.db, args.backend, args.max_plans,
                              shards=args.shards,
                              slow_query_seconds=slow_query_seconds)
    try:
        service.gate = AdmissionGate(
            max_concurrent=args.build_slots,
            max_queue=args.build_queue,
            queue_timeout=args.build_queue_timeout,
        )
    except ValueError as exc:
        parser.error(str(exc))
    pool = None
    if args.workers > 0:
        from repro.service.pool import WorkerPool

        pool = WorkerPool(workers=args.workers)
        service.attach_pool(pool)
        if not pool.start():
            print("repro serve: worker pool unavailable on this platform "
                  "(needs NumPy + POSIX shared memory); serving single-process",
                  flush=True)
            pool = None
    max_body = max(1, int(args.max_body_mb * 1024 * 1024))
    try:
        server = make_server(service, args.host, args.port,
                             max_body=max_body,
                             reuse_port=args.reuse_port,
                             header_timeout=args.header_timeout,
                             max_connections=args.max_connections)
    except OSError as exc:
        if pool is not None:
            pool.close()
        parser.error(f"cannot bind {args.host}:{args.port}: {exc}")

    # Graceful shutdown: SIGTERM/SIGINT stop the accept loop (from a helper
    # thread — shutdown() called on the serving thread would deadlock), then
    # below we drain in-flight requests and close the service, which stops
    # the workers and unlinks every published shared-memory block.
    def _request_stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # non-main thread / unsupported
            pass
    host, port = server.server_address[:2]
    workers_note = f", workers: {pool.worker_count}" if pool is not None else ""
    print(f"repro serve: listening on http://{host}:{port} "
          f"(databases: {', '.join(service.database_names) or 'none'}"
          f"{workers_note})", flush=True)
    from repro.obs.profile import PROFILER

    profile_note = (f"; profiling at {PROFILER.hz:g}Hz (/debug/profile)"
                    if PROFILER.running else "")
    print(f"repro serve: liveness at /healthz, readiness at /readyz"
          f"{profile_note}", flush=True)
    try:
        run_server(server)
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        drained = server.drain(timeout=10.0)
        if not drained:
            print("repro serve: shutdown timed out waiting for in-flight "
                  "requests; closing anyway", flush=True)
        service.close()
        print("repro serve: drained and closed", flush=True)
    return 0


def _post_json(url: str, payload: dict, timeout: float = 30.0) -> dict:
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", errors="replace")
        try:
            return json.loads(body)
        except json.JSONDecodeError:
            return {"ok": False, "error": {"code": "internal", "message": body or str(exc)}}
    except (urllib.error.URLError, OSError) as exc:
        # Unreachable/stalled server: stay within the one-JSON-per-line
        # contract instead of tracebacking out of the runner.
        return {"ok": False, "error": {"code": "connection_error", "message": str(exc)}}


def _session_post(session, path: str, payload: dict) -> dict:
    """POST over a keep-alive :class:`HTTPSession`, same error shape as
    :func:`_post_json` (structured JSON out, never a traceback)."""
    try:
        status, document = session.post_json(path, payload)
    except OSError as exc:
        return {"ok": False, "error": {"code": "connection_error", "message": str(exc)}}
    if not isinstance(document, dict) or not document:
        return {"ok": False,
                "error": {"code": "internal", "message": f"HTTP {status} with no JSON body"}}
    return document


def client_main(argv: List[str]) -> int:
    parser = build_client_parser()
    args = parser.parse_args(argv)
    if args.url is None and not args.db:
        parser.error("provide --url for a running server or --db for in-process execution")
    if args.url is not None and args.db:
        parser.error("--url and --db are mutually exclusive (server-side vs in-process)")

    from repro.service import read_request_lines
    from repro.service.protocol import ServiceError

    if args.requests == "-":
        lines = sys.stdin.readlines()
    else:
        try:
            with open(args.requests, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            parser.error(str(exc))

    session = None
    if args.url is None:
        service = _parse_db_specs(parser, args.db, args.backend, args.max_plans,
                                  shards=args.shards)
        execute = service.execute
    else:
        from repro.service import HTTPSession

        # One keep-alive connection for the whole request file: N requests
        # cost one TCP handshake, and the server sees one connection.
        session = HTTPSession(args.url)
        def execute(request):
            return _session_post(session, "/v1/query", dict(request))

    failures = 0
    try:
        for request in read_request_lines(lines):
            response = execute(request)
            if not response.get("ok"):
                failures += 1
            print(json.dumps(response))
    except ServiceError as exc:
        print(json.dumps({"ok": False, "error": {"code": exc.code, "message": str(exc)}}))
        return 1
    finally:
        if session is not None:
            session.close()
    return 1 if failures else 0


# ----------------------------------------------------------------------
# mutate
# ----------------------------------------------------------------------
def build_mutate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro mutate",
        description="Send live-update mutations (insert/delete/compact) to a "
        "running repro server.",
    )
    _add_version(parser)
    parser.add_argument(
        "--url",
        required=True,
        help="base URL of a running server (e.g. http://127.0.0.1:8734)",
    )
    parser.add_argument("--db", required=True, help="registered database name")
    parser.add_argument(
        "--relation",
        default=None,
        help="target relation for --insert/--delete rows",
    )
    parser.add_argument(
        "--insert",
        action="append",
        default=[],
        metavar="ROW",
        help='row to insert as a JSON array, e.g. "[7, 8]" (repeatable)',
    )
    parser.add_argument(
        "--delete",
        action="append",
        default=[],
        metavar="ROW",
        help="row to delete as a JSON array (repeatable)",
    )
    parser.add_argument(
        "--compact",
        action="store_true",
        help="compact the database's cached plans after the mutations",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the service stats (including the live epoch) afterwards",
    )
    return parser


def _parse_mutation_rows(parser: argparse.ArgumentParser, flag: str, texts: List[str]):
    rows = []
    for text in texts:
        try:
            row = json.loads(text)
        except json.JSONDecodeError as exc:
            parser.error(f"{flag} {text!r}: invalid JSON ({exc})")
        if not isinstance(row, list):
            parser.error(f"{flag} {text!r}: expected a JSON array of values")
        rows.append(row)
    return rows


def mutate_main(argv: List[str]) -> int:
    parser = build_mutate_parser()
    args = parser.parse_args(argv)
    inserts = _parse_mutation_rows(parser, "--insert", args.insert)
    deletes = _parse_mutation_rows(parser, "--delete", args.delete)
    if (inserts or deletes) and not args.relation:
        parser.error("--insert/--delete need --relation naming the target relation")
    if not (inserts or deletes or args.compact or args.stats):
        parser.error("nothing to do: pass --insert/--delete rows, --compact or --stats")

    requests = []
    if inserts:
        requests.append(
            {"op": "insert", "db": args.db, "relation": args.relation, "rows": inserts}
        )
    if deletes:
        requests.append(
            {"op": "delete", "db": args.db, "relation": args.relation, "rows": deletes}
        )
    if args.compact:
        requests.append({"op": "compact", "db": args.db})
    if args.stats:
        requests.append({"op": "stats"})

    from repro.service import HTTPSession

    failures = 0
    with HTTPSession(args.url) as session:
        for request in requests:
            response = _session_post(session, "/v1/query", request)
            if not response.get("ok"):
                failures += 1
            print(json.dumps(response))
    return 1 if failures else 0


# ----------------------------------------------------------------------
# metrics / trace (observability front-ends)
# ----------------------------------------------------------------------
def _get_text(url: str, timeout: float = 30.0):
    """GET a URL; returns ``(text, None)`` or ``(None, error message)``."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8"), None
    except urllib.error.HTTPError as exc:
        return None, f"HTTP {exc.code}: {exc.read().decode('utf-8', errors='replace')}"
    except (urllib.error.URLError, OSError) as exc:
        return None, str(exc)


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Fetch and render a running repro server's metrics.",
    )
    _add_version(parser)
    parser.add_argument(
        "--url",
        required=True,
        help="base URL of a running server (e.g. http://127.0.0.1:8734)",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=[],
        metavar="NAME",
        help="only show this metric family, e.g. repro_requests_total (repeatable)",
    )
    parser.add_argument("--json", action="store_true", help="emit the raw JSON document")
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="print the raw Prometheus text exposition (GET /metrics)",
    )
    return parser


def _metric_rows(name: str, document: dict) -> List[tuple]:
    """Flatten one family document into (series, value-ish...) table rows."""
    rows = []
    for entry in document.get("values", []):
        labels = entry.get("labels") or {}
        series = name + (
            "{" + ",".join(f'{k}="{v}"' for k, v in sorted(labels.items())) + "}"
            if labels else ""
        )
        if document.get("type") == "histogram":
            quantiles = "/".join(
                "-" if entry.get(q) is None else f"{entry[q] * 1000:.2f}ms"
                for q in ("p50", "p95", "p99")
            )
            rows.append((series, entry.get("count", 0),
                         f"sum={entry.get('sum', 0.0):.4f}s p50/95/99={quantiles}"))
        else:
            rows.append((series, entry.get("value", 0), ""))
    return rows


def metrics_main(argv: List[str]) -> int:
    parser = build_metrics_parser()
    args = parser.parse_args(argv)
    base = args.url.rstrip("/")

    if args.prometheus:
        text, error = _get_text(f"{base}/metrics")
        if error is not None:
            print(json.dumps({"ok": False, "error": error}))
            return 1
        print(text, end="")
        return 0

    response = _post_json(f"{base}/v1/query", {"op": "metrics"})
    if not response.get("ok"):
        print(json.dumps(response))
        return 1
    snapshot = response.get("metrics", {})
    if args.family:
        from repro.obs.metrics import merge_label_filters

        snapshot = merge_label_filters(snapshot, args.family)
    if args.json:
        print(json.dumps({
            "enabled": response.get("enabled"),
            "metrics": snapshot,
            "slow_queries": response.get("slow_queries", []),
        }, indent=2, sort_keys=True))
        return 0

    print(f"observability enabled: {response.get('enabled')}")
    rows = []
    for name in sorted(snapshot):
        rows.extend(_metric_rows(name, snapshot[name]))
    if rows:
        print()
        print(format_table(["series", "value", "detail"], rows))
    else:
        print("(no series recorded yet)")
    slow = response.get("slow_queries", [])
    if slow:
        print()
        print("slow queries (newest first):")
        for entry in slow:
            print("  " + json.dumps(entry, sort_keys=True))
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Print the span tree of a retained request trace, or list "
        "the most recent traces when no id is given.",
    )
    _add_version(parser)
    parser.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        metavar="ID",
        help="trace id echoed in a response's 'trace' field",
    )
    parser.add_argument(
        "--url",
        required=True,
        help="base URL of a running server (e.g. http://127.0.0.1:8734)",
    )
    parser.add_argument(
        "--limit", type=_positive_int, default=20,
        help="how many recent traces to list (without an ID; default 20)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_traces",
        help="list recent traces (id, op, duration, status) even when an ID "
        "is also given",
    )
    parser.add_argument("--json", action="store_true", help="emit the raw JSON document")
    return parser


def trace_main(argv: List[str]) -> int:
    parser = build_trace_parser()
    args = parser.parse_args(argv)
    base = args.url.rstrip("/")

    request = {"op": "trace"}
    if args.trace_id is not None and not args.list_traces:
        request["id"] = args.trace_id
    else:
        request["limit"] = args.limit
    response = _post_json(f"{base}/v1/query", request)
    if not response.get("ok"):
        print(json.dumps(response))
        return 1
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0

    if "id" not in request:
        traces = response.get("traces", [])
        if not traces:
            print("(no traces retained yet)")
            return 0
        rows = [
            (entry["id"], entry.get("op", entry.get("name", "")),
             f"{entry['seconds'] * 1000:.3f}ms", entry.get("status", "") or "-")
            for entry in traces
        ]
        print(format_table(["trace", "op", "duration", "status"], rows))
        return 0

    from repro.obs import format_span_tree

    document = response["traced"]
    print(f"trace {document['id']}  ({document['name']}, "
          f"{document['seconds'] * 1000:.3f}ms)")
    print(format_span_tree(document["root"]))
    return 0


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------
def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Sample a running server's wall-clock stacks (master and "
        "every pool worker) and print the merged folded-stack profile.",
    )
    _add_version(parser)
    parser.add_argument(
        "--url",
        required=True,
        help="base URL of a running server (e.g. http://127.0.0.1:8734)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=2.0,
        metavar="N",
        help="length of the sampling window (default 2; 0 reports whatever "
        "the continuously running profiler has already accumulated)",
    )
    parser.add_argument(
        "--hz",
        type=float,
        default=None,
        metavar="HZ",
        help="sampling frequency for the window (default: the server's)",
    )
    parser.add_argument(
        "--fold",
        action="store_true",
        help="print raw folded stacks ('stack count' lines, flamegraph.pl "
        "input) instead of the summary table",
    )
    parser.add_argument("--json", action="store_true", help="emit the raw JSON document")
    return parser


def profile_main(argv: List[str]) -> int:
    parser = build_profile_parser()
    args = parser.parse_args(argv)
    base = args.url.rstrip("/")
    request: dict = {"op": "profile", "seconds": args.seconds}
    if args.hz is not None:
        request["hz"] = args.hz
    response = _post_json(f"{base}/v1/query", request,
                          timeout=max(60.0, args.seconds + 30.0))
    if not response.get("ok"):
        print(json.dumps(response))
        return 1
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    profile = response.get("profile", {})
    if args.fold:
        sys.stdout.write(profile.get("folded", ""))
        return 0
    master = profile.get("master", {})
    rows = [("master", str(master.get("pid", "")),
             str(master.get("samples", 0)), f"{master.get('hz', 0):g}")]
    for worker in profile.get("workers", []):
        rows.append((f"worker {worker.get('worker', '?')}",
                     str(worker.get("pid", "")),
                     str(worker.get("samples", 0)), f"{worker.get('hz', 0):g}"))
    print(format_table(["process", "pid", "samples", "hz"], rows))
    folded = profile.get("folded", "")
    top = [line for line in folded.splitlines() if line][:10]
    if top:
        print()
        print("hottest stacks:")
        for line in top:
            print(f"  {line}")
    return 0


# ----------------------------------------------------------------------
# snapshot
# ----------------------------------------------------------------------
def build_snapshot_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro snapshot",
        description="Save a built LEX instance as a flat snapshot image, or "
        "serve answers from a saved image (reload is an mmap, not a rebuild).",
    )
    _add_version(parser)
    actions = parser.add_subparsers(dest="action", required=True)

    save = actions.add_parser(
        "save", help="build the query once and write its snapshot image"
    )
    save.add_argument("query", help='e.g. "Q(x, y, z) :- R(x, y), S(y, z)"')
    save.add_argument(
        "--order", help='lexicographic order, e.g. "x, z desc, y"', default=None
    )
    save.add_argument(
        "--fd", action="append", default=[], metavar="FD",
        help='unary functional dependency, e.g. "R: x -> y" (repeatable)',
    )
    save.add_argument(
        "--db", required=True, metavar="NAME=PATH",
        help="database JSON file to build against",
    )
    save.add_argument("--out", required=True, metavar="FILE",
                      help="snapshot file to write")
    _add_backend(save)
    _add_shards(save)

    load = actions.add_parser(
        "load", help="mmap a saved snapshot image and serve answers from it"
    )
    load.add_argument("snapshot", help="snapshot file written by 'snapshot save'")
    load.add_argument(
        "--access", action="append", type=int, default=[], metavar="K",
        help="print the answer at rank K (repeatable)",
    )
    load.add_argument(
        "--range", nargs=2, type=int, default=None, metavar=("LO", "HI"),
        help="print the answers in the half-open rank range [LO, HI)",
    )
    return parser


def _snapshot_save(parser: argparse.ArgumentParser, args) -> int:
    from repro import LexDirectAccess
    from repro.core.snapshot import installed
    from repro.service import load_database

    name, separator, path = args.db.partition("=")
    if not separator or not name or not path:
        parser.error(f"--db expects NAME=PATH, got {args.db!r}")
    try:
        database = load_database(path, backend=args.backend)
        query = parse_query(args.query)
        order = parse_order(args.order) if args.order else None
        fds = parse_fds(args.fd) if args.fd else None
        access = LexDirectAccess(
            query, database, order, fds=fds,
            backend=args.backend, shards=args.shards,
        )
    except Exception as exc:
        parser.error(str(exc))
    # The build captured its image once already (stamped with the plan's
    # fingerprint); save that one rather than flattening the instance again.
    snapshot = installed(access._instance)
    if snapshot is None:
        print(json.dumps({
            "ok": False,
            "error": "this build has no snapshot image (boolean query, empty "
                     "result, exact-int counts, or NumPy unavailable)",
        }))
        return 1
    size = snapshot.save(args.out)
    print(json.dumps({
        "ok": True,
        "file": args.out,
        "bytes": size,
        "count": snapshot.count,
        "fingerprint": snapshot.fingerprint,
        "shards": len(snapshot.shards),
        "capture_seconds": round(snapshot.seconds, 6),
    }))
    return 0


def _snapshot_load(parser: argparse.ArgumentParser, args) -> int:
    from repro.core.snapshot import InstanceSnapshot
    from repro.exceptions import OutOfBoundsError

    try:
        snapshot = InstanceSnapshot.load(args.snapshot)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    instance = snapshot.instance()
    print(json.dumps({
        "ok": True,
        "count": instance.count,
        "fingerprint": snapshot.fingerprint,
        "carrier": snapshot.carrier,
        "shards": len(snapshot.shards),
        "attach_seconds": round(snapshot.seconds, 6),
    }))
    status = 0
    try:
        for k in args.access:
            print(json.dumps({"k": k, "answer": list(instance.access(k))},
                             default=str))
        if args.range is not None:
            lo, hi = args.range
            print(json.dumps({
                "range": [lo, hi],
                "answers": [list(answer) for answer in instance.range_access(lo, hi)],
            }, default=str))
    except (OutOfBoundsError, TypeError) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}))
        status = 1
    snapshot.close()
    return status


def snapshot_main(argv: List[str]) -> int:
    parser = build_snapshot_parser()
    args = parser.parse_args(argv)
    if args.action == "save":
        return _snapshot_save(parser, args)
    return _snapshot_load(parser, args)


# ----------------------------------------------------------------------
_SUBCOMMAND_MAINS = {
    "classify": classify_main,
    "explain": explain_main,
    "serve": serve_main,
    "client": client_main,
    "mutate": mutate_main,
    "snapshot": snapshot_main,
    "metrics": metrics_main,
    "trace": trace_main,
    "profile": profile_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] in _SUBCOMMAND_MAINS:
            return _SUBCOMMAND_MAINS[argv[0]](argv[1:])
        # Backward compatibility: a bare query classifies, as subcommands.
        return classify_main(argv)
    except BrokenPipeError:
        # Downstream reader (head, flamegraph.pl, ...) closed the pipe early;
        # swap stdout for /dev/null so interpreter shutdown does not complain.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
