"""The prefork worker pool: routing, identity, swaps, respawn, HTTP wiring.

Everything here runs real forked worker processes attached to real
shared-memory snapshot images — the same machinery ``repro serve --workers N``
uses.  The invariants: routed responses are byte-identical to the inline
path (minus the master-only ``trace`` id), epoch swaps rebind workers before
the old buffers retire, dead workers respawn and re-attach, eviction and
shutdown leave no shared-memory blocks behind.
"""

import errno
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from decimal import Decimal

import pytest

from repro import Database, Relation
from repro.core.snapshot import SnapshotPublisher
from repro.engine.backends import available_backends
from repro.obs import METRICS, SNAPSHOT_PUBLISH_FAILURES
from repro.service import (
    AdmissionGate,
    QueryService,
    WorkerPool,
    make_server,
    pool_supported,
)
from repro.service.dispatch import LOOP_LANE_MAX_ANSWERS, ROUTABLE_OPS
from repro.service.protocol import error_response
from repro.workloads.generators import generate_path_database
from tests.helpers import session_members, src_env

if not pool_supported():
    pytest.skip("worker pool needs NumPy + shared memory", allow_module_level=True)

QUERY_TEXT = "Q(x, y, z) :- R(x, y), S(y, z)"


def demo_database():
    return Database([
        Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2), (3, 2)]),
        Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5), (2, 9)]),
    ])


def canonical(response):
    if isinstance(response, (bytes, bytearray)):
        response = json.loads(bytes(response))
    return {k: v for k, v in response.items() if k != "trace"}


def worker_pages(pool, encoder):
    """``repro_pool_worker_pages_total{encoder=...}`` summed over the workers."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in pool.render_worker_metrics().splitlines()
        if line.startswith("repro_pool_worker_pages_total{")
        and f'encoder="{encoder}"' in line)


@pytest.fixture()
def pooled():
    service = QueryService(max_plans=4)
    service.register_database("demo", demo_database())
    pool = WorkerPool(workers=2)
    service.attach_pool(pool)
    pool.start()
    try:
        yield service
    finally:
        service.close()


@pytest.fixture()
def plan(pooled):
    return pooled.prepare("demo", QUERY_TEXT, order="x, y, z")


class TestRoutedIdentity:
    def read_requests(self, fingerprint, count):
        return [
            {"op": "access", "plan": fingerprint, "k": 0},
            {"op": "access", "plan": fingerprint, "k": count - 1},
            {"op": "access", "plan": fingerprint, "k": count},  # out of bounds
            {"op": "batch_access", "plan": fingerprint, "ks": list(range(count))},
            {"op": "range", "plan": fingerprint, "lo": 0, "hi": count},
            {"op": "count", "plan": fingerprint},
            {"op": "inverted_access", "plan": fingerprint, "t": [1, 2, 5]},
            {"op": "inverted_access", "plan": fingerprint, "t": [0, 0, 0]},
        ]

    def test_routed_matches_inline_including_errors(self, pooled, plan):
        reference = QueryService(max_plans=4)
        reference.register_database("demo", demo_database())
        reference.prepare("demo", QUERY_TEXT, order="x, y, z")
        routed = 0
        for request in self.read_requests(plan.fingerprint, plan.count):
            assert request["op"] in ROUTABLE_OPS
            expected = canonical(reference.execute(dict(request)))
            raw = pooled.dispatch_raw(request)
            if raw is not None:
                routed += 1
                assert canonical(raw[1]) == expected
        assert routed == 8  # every read op actually took the worker path

    def test_non_routable_ops_stay_inline(self, pooled, plan):
        assert pooled.dispatch_raw({"op": "stats"}) is None
        assert pooled.dispatch_raw({"op": "prepare", "db": "demo"}) is None
        assert pooled.dispatch_raw({"op": "access", "plan": "nope", "k": 0}) is None


class TestRoutedIdentityAtScale:
    """A pooled service answers a mixed read stream exactly as a plain one,
    on every backend, monolithic and sharded, scalar and batched."""

    @staticmethod
    def read_mix(fingerprint, count, ranks, batch_size):
        if batch_size:
            return [{"op": "batch_access", "plan": fingerprint,
                     "ks": ranks[i:i + batch_size]}
                    for i in range(0, len(ranks), batch_size)]
        requests = []
        for i, k in enumerate(ranks):
            if i % 64 == 63:
                lo = max(0, k - 4)
                requests.append({"op": "range", "plan": fingerprint, "lo": lo,
                                 "hi": min(count - 1, lo + 8)})
            elif i % 32 == 31:
                requests.append({"op": "count", "plan": fingerprint})
            else:
                requests.append({"op": "access", "plan": fingerprint, "k": k})
        return requests

    @pytest.mark.parametrize("shards", [1, 2])
    def test_pooled_matches_plain_on_every_backend(self, shards):
        database = generate_path_database(1500, 38, seed=0)
        for backend in available_backends():
            plain = QueryService(max_plans=4, backend=backend)
            pooled = QueryService(max_plans=4, backend=backend)
            for service in (plain, pooled):
                service.register_database("bench", database)
            pool = WorkerPool(workers=2)
            pooled.attach_pool(pool)
            pool.start()
            try:
                shard_count = shards if shards > 1 else None
                reference = plain.prepare("bench", QUERY_TEXT, order="x, y, z",
                                          shards=shard_count)
                plan = pooled.prepare("bench", QUERY_TEXT, order="x, y, z",
                                      shards=shard_count)
                assert plan.fingerprint == reference.fingerprint
                rng = random.Random(shards)
                ranks = [rng.randrange(plan.count) for _ in range(256)]
                for batch_size in (0, 64):
                    routed = 0
                    for request in self.read_mix(plan.fingerprint, plan.count,
                                                 ranks, batch_size):
                        expected = canonical(plain.execute(dict(request)))
                        raw = pooled.dispatch_raw(request)
                        routed += raw is not None
                        actual = canonical(raw[1] if raw is not None
                                           else pooled.execute(dict(request)))
                        assert actual == expected, (backend, shards, request)
                    assert routed > 0, (backend, shards, batch_size)
            finally:
                pooled.close()
                plain.close()


class TestPublishFailure:
    def test_enospc_serves_inline_counts_once_and_stays_ready(self, monkeypatch,
                                                              caplog):
        if not METRICS.enabled:
            pytest.skip("metrics disabled in this run")

        def full(self, source, epoch):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(SnapshotPublisher, "publish", full)
        before = SNAPSHOT_PUBLISH_FAILURES.value(())
        plain = QueryService(max_plans=4)
        pooled = QueryService(max_plans=4)
        for service in (plain, pooled):
            service.register_database("demo", demo_database())
        pool = WorkerPool(workers=2)
        pooled.attach_pool(pool)
        pool.start()
        try:
            plain.prepare("demo", QUERY_TEXT, order="x, y, z")
            plan = pooled.prepare("demo", QUERY_TEXT, order="x, y, z")
            assert SNAPSHOT_PUBLISH_FAILURES.value(()) - before == 1
            logged = [record for record in caplog.records
                      if "snapshot publish failed" in record.getMessage()]
            assert len(logged) == 1 and plan.engine.plan.fingerprint in (
                logged[0].getMessage())
            for request in TestRoutedIdentity().read_requests(plan.fingerprint,
                                                               plan.count):
                assert pooled.dispatch_raw(request) is None
                assert (canonical(pooled.execute(dict(request)))
                        == canonical(plain.execute(dict(request))))
            assert pooled.readiness()["ready"]
        finally:
            pooled.close()
            plain.close()


class TestEpochSwap:
    def test_mutation_falls_back_then_reroutes_after_compact(self, pooled, plan):
        fingerprint = plan.fingerprint
        request = {"op": "access", "plan": fingerprint, "k": 0}
        assert pooled.dispatch_raw(request) is not None

        pooled.insert("demo", "R", [(0, 5)])
        # Dirty plan: merged-delta reads must be served inline by the master.
        assert pooled.dispatch_raw(request) is None
        merged = canonical(pooled.execute(dict(request)))
        assert merged["answer"] == [0, 5, 3]

        pooled.compact("demo")
        pooled.plan_for_spec(plan.spec)  # re-export at the new epoch
        deadline = time.monotonic() + 5.0
        raw = None
        while raw is None and time.monotonic() < deadline:
            raw = pooled.dispatch_raw(request)
        assert raw is not None, "workers never re-attached after the swap"
        assert canonical(raw[1]) == merged

        exports = pooled.pool.stats()["exports"]
        export = next(iter(exports.values()))
        assert export["epoch"] >= 1
        assert sorted(export["ready_workers"]) == [0, 1]

    def test_old_epoch_blocks_are_unlinked_after_swap(self, pooled, plan):
        from repro.core.snapshot import InstanceSnapshot, shm_name

        publisher_fp = plan.engine.plan.fingerprint
        pooled.insert("demo", "R", [(7, 5)])
        pooled.compact("demo")
        pooled.plan_for_spec(plan.spec)
        with pytest.raises(FileNotFoundError):
            InstanceSnapshot.attach(shm_name(publisher_fp, 0))


class TestHealthAndRespawn:
    def test_killed_worker_respawns_and_serves(self, pooled, plan):
        request = {"op": "access", "plan": plan.fingerprint, "k": 0}
        expected = canonical(pooled.dispatch_raw(request)[1])
        victim = pooled.pool.stats()["workers"][0]
        os.kill(victim["pid"], signal.SIGKILL)
        time.sleep(0.2)
        health = pooled.pool.check_health()
        assert health["alive"] == 2
        assert health["restarts"] >= 1
        deadline = time.monotonic() + 5.0
        served = None
        while served is None and time.monotonic() < deadline:
            raw = pooled.dispatch_raw(request)
            served = canonical(raw[1]) if raw is not None else None
        assert served == expected
        workers = pooled.pool.stats()["workers"]
        assert all(entry["alive"] for entry in workers)
        assert workers[0]["pid"] != victim["pid"]


class TestRoute:
    """``route``: the ready worker with the fewest frames in flight, lowest
    index on ties — decided from pool state alone, so a pool that never
    forks can hold it deterministically."""

    @staticmethod
    def ready_pool(ready=(0, 1, 2), epoch=3):
        from repro.service.pool import _Export

        pool = WorkerPool(workers=3)
        for worker in pool._workers:
            worker.alive = True
            worker.serve_sock = object()
        export = _Export("fp", epoch, "unused-shm-name")
        export.ready.update(ready)
        pool._exports["fp"] = export
        return pool

    @staticmethod
    def loads(**frames):
        return lambda index: frames.get(f"w{index}", 0)

    def test_least_loaded_worker_wins(self):
        pool = self.ready_pool()
        assert pool.route("fp", 3, self.loads(w0=2, w1=0, w2=1)).index == 1
        assert pool.route("fp", 3, self.loads(w0=2, w1=3, w2=1)).index == 2

    def test_lowest_index_wins_a_tie(self):
        pool = self.ready_pool()
        assert pool.route("fp", 3, self.loads()).index == 0
        assert pool.route("fp", 3, self.loads(w0=1)).index == 1
        assert pool.route("fp").index == 0  # epoch unchecked, blocking count

    def test_blocking_dispatch_count_is_the_default_load(self):
        pool = self.ready_pool()
        pool._workers[0].in_flight = 2
        pool._workers[1].in_flight = 1
        assert pool.route("fp", 3).index == 2

    def test_unready_and_dead_workers_are_skipped(self):
        pool = self.ready_pool(ready=(1, 2))
        assert pool.route("fp", 3, self.loads()).index == 1
        pool._workers[1].alive = False
        assert pool.route("fp", 3, self.loads(w2=5)).index == 2
        pool._workers[2].serve_sock = None
        assert pool.route("fp", 3, self.loads()) is None

    def test_no_export_wrong_epoch_or_no_ready_worker_is_none(self):
        assert self.ready_pool().route("other", 3) is None
        assert self.ready_pool().route("fp", 4) is None
        assert self.ready_pool(ready=()).route("fp", 3) is None


def test_concurrent_blocking_dispatch_spreads_over_both_workers(pooled, plan):
    """Two client threads on one unsharded plan: while one frame is in
    flight to a worker, the other thread's request goes to the idle one."""
    if not METRICS.enabled:
        pytest.skip("metrics disabled in this run")
    request = {"op": "range", "plan": plan.fingerprint, "lo": 0, "hi": plan.count}
    start = threading.Barrier(2)
    misses = []

    def client():
        start.wait(timeout=10)
        for _ in range(200):
            if pooled.dispatch_raw(dict(request)) is None:
                misses.append(1)

    threads = [threading.Thread(target=client) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not misses
    # Every pick was paid back: a lost update would strand a count here.
    assert [worker.in_flight for worker in pooled.pool._workers] == [0, 0]
    served = {}
    for line in pooled.pool.render_worker_metrics().splitlines():
        if line.startswith("repro_pool_worker_requests_total{"):
            worker = line.split('worker="', 1)[1].split('"', 1)[0]
            served[worker] = served.get(worker, 0) + float(line.rsplit(" ", 1)[1])
    assert served.get("0", 0) > 0 and served.get("1", 0) > 0, served


def proc_state(pid):
    """The state letter in ``/proc/<pid>/stat``; ``None`` once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rpartition(b")")[2].split()[0].decode()
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_one_health_probe_sees_a_killed_profiled_worker(monkeypatch):
    """A worker with a profiler thread lingers as a zombie after SIGKILL
    until its other threads are gone; the very next probe must already
    count it dead and respawn it."""
    monkeypatch.setenv("REPRO_PROFILE_HZ", "97")
    pool = WorkerPool(workers=2)
    assert pool.start()
    try:
        for _ in range(5):
            before = pool.check_health()
            assert before["alive"] == 2
            pid = pool.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while proc_state(pid) not in ("Z", "X", None):
                assert time.monotonic() < deadline, "killed worker never exited"
                time.sleep(0.001)
            health = pool.check_health()
            assert health["restarts"] == before["restarts"] + 1, health
            assert health["alive"] == 2
    finally:
        pool.close()


class TestObservability:
    def test_worker_metrics_carry_worker_labels(self, pooled, plan):
        for k in range(plan.count):
            pooled.dispatch_raw({"op": "access", "plan": plan.fingerprint, "k": k})
        text = pooled.pool.render_worker_metrics()
        assert 'worker="0"' in text or 'worker="1"' in text
        assert "repro_pool_worker_requests_total" in text
        assert "repro_pool_worker_request_seconds" in text

    def test_pages_are_counted_by_encoder(self, pooled, plan):
        fingerprint = plan.fingerprint
        for request in ({"op": "batch_access", "plan": fingerprint, "ks": [3, 0, 3]},
                        {"op": "batch_access", "plan": fingerprint, "ks": []},
                        {"op": "range", "plan": fingerprint, "lo": 1, "hi": 4},
                        {"op": "access", "plan": fingerprint, "k": 0},  # no page
                        {"op": "range", "plan": fingerprint, "lo": 4, "hi": 1}):
            assert pooled.dispatch_raw(request) is not None
        assert worker_pages(pooled.pool, "fragments") == 3
        assert worker_pages(pooled.pool, "json") == 0

    def test_stats_report_per_worker_attachments(self, pooled, plan):
        pooled.dispatch_raw({"op": "count", "plan": plan.fingerprint})
        stats = pooled.stats()
        entry = next(
            e for e in stats["plans"] if e["plan"] == plan.fingerprint
        )
        workers = entry["workers"]
        assert {info["worker"] for info in workers} == {0, 1}
        for info in workers:
            assert info["carrier"] == "shm"
            assert info["seconds"] >= 0
            assert info["count"] == plan.count
        assert stats["pool"]["dispatched"] >= 1

    def test_process_pss_gauge_has_one_row_per_live_process(self, pooled, plan):
        from repro.obs import PROCESS_PSS

        if not METRICS.enabled:
            pytest.skip("metrics disabled in this run")
        pooled.update_gauges()
        rows = {row["labels"]["process"]: row["value"]
                for row in PROCESS_PSS.to_dict()["values"]}
        assert set(rows) == {"master", "worker-0", "worker-1"}
        assert all(value > 0 for value in rows.values())


class TestUnencodableValues:
    def test_a_value_json_cannot_encode_answers_500_and_keeps_the_worker(self):
        """``Decimal`` enters through the Python API and survives capture and
        publish; ``json`` cannot write it.  The worker must answer the same
        structured 500 the event loop's executor lane does — not die."""
        service = QueryService(max_plans=4)
        service.register_database("demo", Database([
            Relation("R", ("x", "y"), [(1, Decimal("2.5")), (2, Decimal("3.5"))]),
            Relation("S", ("y", "z"), [(Decimal("2.5"), 7), (Decimal("3.5"), 8)]),
        ]))
        pool = WorkerPool(workers=2)
        service.attach_pool(pool)
        pool.start()
        try:
            plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
            fingerprint = plan.fingerprint
            for request in ({"op": "access", "plan": fingerprint, "k": 0},
                            {"op": "batch_access", "plan": fingerprint, "ks": [1, 0]},
                            {"op": "range", "plan": fingerprint, "lo": 0, "hi": 2}):
                with pytest.raises(TypeError) as unencodable:
                    json.dumps(service.execute(dict(request)))
                routed = service.dispatch_raw(request)
                assert routed is not None, "the worker died"
                status, body, _trace = routed
                assert status == 500
                assert body == json.dumps(error_response(
                    "internal",
                    f"response not JSON-representable: {unencodable.value}",
                )).encode("utf-8")
            assert pool.check_health()["restarts"] == 0
            assert worker_pages(pool, "json") == 2
            assert worker_pages(pool, "fragments") == 0
            # Reads that carry no such value still succeed on the same workers.
            status, body, _trace = service.dispatch_raw(
                {"op": "count", "plan": fingerprint})
            assert (status, canonical(body)["count"]) == (200, plan.count)
        finally:
            service.close()


class TestLifecycle:
    def test_eviction_detaches_export(self, pooled, plan):
        fingerprint = plan.fingerprint
        assert fingerprint in {
            fp for fp in pooled.pool.stats()["exports"]
        }
        # Roll the tiny LRU over with distinct sharded specs.
        for shards in (2, 3, 4, 5):
            pooled.prepare("demo", QUERY_TEXT, order="x, y, z", shards=shards)
        assert fingerprint not in pooled.pool.stats()["exports"]

    def test_close_unlinks_all_blocks(self):
        from repro.core.snapshot import InstanceSnapshot, shm_name

        service = QueryService(max_plans=4)
        service.register_database("demo", demo_database())
        pool = WorkerPool(workers=2)
        service.attach_pool(pool)
        pool.start()
        plan = service.prepare("demo", QUERY_TEXT, order="x, y, z")
        publisher_fp = plan.engine.plan.fingerprint
        service.close()
        assert not pool.running
        with pytest.raises(FileNotFoundError):
            InstanceSnapshot.attach(shm_name(publisher_fp, 0))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
class TestProcessTree:
    def test_the_master_forks_only_the_workers(self):
        """No resource-tracker interpreter: after a publish and an attach,
        the master's children are exactly the pool's workers."""
        script = (
            "import json, os\n"
            "from repro import Database, Relation\n"
            "from repro.service import QueryService, WorkerPool\n"
            "pool = WorkerPool(workers=2)\n"
            "pool.start()\n"
            "service = QueryService(max_plans=4)\n"
            "service.register_database('demo', Database([\n"
            "    Relation('R', ('x', 'y'), [(1, 5), (1, 2), (6, 2)]),\n"
            "    Relation('S', ('y', 'z'), [(5, 3), (2, 5), (2, 9)])]))\n"
            "service.attach_pool(pool)\n"
            f"plan = service.prepare('demo', {QUERY_TEXT!r}, order='x, y, z')\n"
            "routed = service.dispatch_raw("
            "{'op': 'access', 'plan': plan.fingerprint, 'k': 0})\n"
            "children = []\n"
            "for task in os.listdir('/proc/self/task'):\n"
            "    with open(f'/proc/self/task/{task}/children') as handle:\n"
            "        children += [int(pid) for pid in handle.read().split()]\n"
            "print(json.dumps({'routed': routed is not None,"
            " 'children': sorted(children),"
            " 'workers': sorted(w.process.pid for w in pool.alive_workers())}))\n"
            "service.close()\n"
        )
        completed = subprocess.run([sys.executable, "-c", script], env=src_env(),
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        tree = json.loads(completed.stdout)
        assert tree["routed"]
        assert len(tree["workers"]) == 2 and tree["children"] == tree["workers"]

    @pytest.mark.parametrize("bad", ["db", "build-slots"])
    def test_a_start_up_error_leaves_no_worker_and_no_block(self, tmp_path, bad):
        """The pool forks before the databases load, so every exit between
        the fork and serving must take the workers down with it."""
        good = tmp_path / "demo.json"
        good.write_text(json.dumps({"relations": {
            "R": {"attributes": ["x", "y"], "rows": [[1, 5]]},
            "S": {"attributes": ["y", "z"], "rows": [[5, 3]]}}}))
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                   "--workers", "2"]
        if bad == "db":
            command += ["--db", f"bad={tmp_path / 'nonexistent.json'}"]
        else:
            command += ["--db", f"demo={good}", "--build-slots", "0"]
        server = subprocess.Popen(command, env=src_env(), start_new_session=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        try:
            _out, err = server.communicate(timeout=120)
        finally:
            server.kill()
        assert server.returncode == 2, err
        deadline = time.monotonic() + 5.0
        while session_members(server.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session_members(server.pid) == []
        assert not [name for name in os.listdir("/dev/shm")
                    if name.startswith(f"repro-snap-{server.pid}-")]


class TestHTTPFrontend:
    @pytest.fixture()
    def server(self, pooled):
        server = make_server(pooled, "127.0.0.1", 0, max_body=4096)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def post(self, server, path, payload, raw=None):
        request = urllib.request.Request(
            self.url(server, path),
            data=raw if raw is not None else json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=5) as response:
                return response.status, dict(response.headers), json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    def test_healthz_reports_pool(self, server, pooled):
        with urllib.request.urlopen(self.url(server, "/healthz"), timeout=5) as r:
            body = json.loads(r.read())
        assert body["status"] == "ok"
        assert body["pool"]["workers"] == 2

    def test_oversized_body_answers_413(self, server):
        status, _, body = self.post(server, "/v1/query", None, raw=b"x" * 8192)
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"

    def test_shed_build_answers_503_with_retry_after(self, server, pooled):
        pooled.gate = AdmissionGate(max_concurrent=1, max_queue=0, retry_after=2.0)
        held = threading.Event()
        release = threading.Event()

        def holder():
            with pooled.gate.admit(None):
                held.set()
                release.wait(10.0)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert held.wait(5.0)
        try:
            status, headers, body = self.post(
                server, "/v1/query",
                {"op": "prepare", "db": "demo", "query": QUERY_TEXT,
                 "order": "z, y, x"},
            )
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            assert headers.get("Retry-After") == "2"
        finally:
            release.set()
            thread.join(5.0)

    def test_metrics_exposition_includes_worker_series(self, server, pooled):
        plan = pooled.prepare("demo", QUERY_TEXT, order="x, y, z")
        # One rank over the loop lane's threshold: a smaller read is answered
        # on the loop thread and never reaches a worker.
        ks = [k % plan.count for k in range(LOOP_LANE_MAX_ANSWERS + 1)]
        self.post(server, "/v1/query",
                  {"op": "batch_access", "plan": plan.fingerprint, "ks": ks})
        with urllib.request.urlopen(self.url(server, "/metrics"), timeout=5) as r:
            text = r.read().decode()
        assert 'repro_pool_worker_requests_total{worker="' in text
        assert 'op="batch_access",status="ok"' in text
        assert "repro_pool_workers" in text

    def test_drain_waits_for_inflight(self, pooled):
        """A request still on the executor lane when ``shutdown()`` is called
        gets its whole response before ``serve_forever`` returns."""
        pooled.gate = AdmissionGate(max_concurrent=1, max_queue=1, queue_timeout=10.0)
        held = threading.Event()
        release = threading.Event()

        def holder():
            with pooled.gate.admit(None):
                held.set()
                release.wait(10.0)

        server = make_server(pooled, "127.0.0.1", 0)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        gate_holder = threading.Thread(target=holder, daemon=True)
        gate_holder.start()
        assert held.wait(5.0)
        responses = []
        client = threading.Thread(target=lambda: responses.append(self.post(
            server, "/v1/query",
            {"op": "prepare", "db": "demo", "query": QUERY_TEXT, "order": "z, y, x"},
        )), daemon=True)
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        try:
            client.start()
            deadline = time.monotonic() + 5.0
            while server.inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.inflight == 1  # the build is parked at the gate
            stopper.start()
            time.sleep(0.3)
            assert loop.is_alive() and not responses  # draining, not cut off
            release.set()
            client.join(5.0)
            loop.join(15.0)
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            gate_holder.join(5.0)
        assert not loop.is_alive()
        status, _headers, body = responses[0]
        assert status == 200 and body["ok"]
