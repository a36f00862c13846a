"""The serving tier's three lanes: the rule, and the loop lane's guarantees.

``choose_lane`` (``repro.service.dispatch``) sends a request to the *loop*
lane (answered on the thread that parsed it), a pool *worker*, or the
*executor*.  Pinned here: the rule over op × size × plan state; that the loop
lane can never sync, refresh, rebuild or compact (it reads a reader pinned
with the epoch check, so a read admitted at epoch *e* answers at epoch *e*);
that it wakes nobody (by count); and that the three lanes produce the same
bytes for the same request at the same epoch.
"""

import json
import random
import threading

import pytest

from repro import Database, LexOrder, Relation, Weights
from repro.baselines.materialize import MaterializedBaseline
from repro.core.parser import parse_query
from repro.live import CompactionPolicy, LiveInstance
from repro.obs import LOOP_LANES, POOL_DISPATCHES
from repro.service import HTTPSession, QueryService, WorkerPool, make_server, pool_supported
from repro.service.dispatch import LOOP_LANE_MAX_ANSWERS, choose_lane
from repro.service.service import PreparedPlan

PATH_QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
SCORE_QUERY = "Q(a, b) :- T(a, b)"

needs_pool = pytest.mark.skipif(
    not pool_supported(), reason="worker pool needs NumPy + shared memory")


def path_database(rows=40):
    return Database([
        Relation("R", ("x", "y"), [(x, x % 7) for x in range(10, 10 + rows)]),
        Relation("S", ("y", "z"), [(y, z) for y in range(7) for z in range(3)]),
        Relation("T", ("a", "b"), [(a, 1000 * a) for a in range(10, 10 + rows)]),
    ])


class serving:
    """A server thread over ``service``; yields ``(server, loop thread)``."""

    def __init__(self, service, io_loop="event"):
        self.server = make_server(service, "127.0.0.1", 0, io_loop=io_loop)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.server, self.thread

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def sized(op, plan, size, count):
    """A well-formed ``op`` on ``plan`` asking for ``size`` answers."""
    if op == "batch_access":
        return {"op": op, "plan": plan, "ks": [k % count for k in range(size)]}
    if op == "range":
        return {"op": op, "plan": plan, "lo": 0, "hi": size}
    return {"op": op, "plan": plan, "k": size}  # topk


# ----------------------------------------------------------------------
# (a) The rule
# ----------------------------------------------------------------------
class TestLaneRule:
    SIZES = (1, LOOP_LANE_MAX_ANSWERS, LOOP_LANE_MAX_ANSWERS + 1, 1024)

    def test_pure_rule_over_op_size_and_plan_facts(self):
        for reader in (None, object()):
            current = reader is not None
            for published in (False, True):
                for op in ("batch_access", "range", "topk"):
                    for size in self.SIZES:
                        lane = choose_lane(sized(op, "p", size, 5), reader, published)
                        if not current:
                            expected = "executor"
                        elif size <= LOOP_LANE_MAX_ANSWERS:
                            expected = "loop"
                        elif published and op != "topk":
                            expected = "worker"
                        else:
                            expected = "executor"
                        assert lane == expected, (op, size, current, published)
                for scalar in ({"op": "access", "plan": "p", "k": 3},
                               {"op": "inverted_access", "plan": "p", "answer": [1]},
                               {"op": "count", "plan": "p"}):
                    assert choose_lane(scalar, reader, published) == (
                        "loop" if current else "executor")

    @pytest.mark.parametrize("request_", [
        {"op": "access"}, {"op": "access", "k": "3"}, {"op": "access", "k": 1.0},
        {"op": "access", "k": True}, {"op": "access", "k": None},
        {"op": "batch_access"}, {"op": "batch_access", "ks": 3},
        {"op": "batch_access", "ks": [0, "1"]}, {"op": "batch_access", "ks": [0, True]},
        {"op": "range", "lo": 0}, {"op": "range", "lo": 0, "hi": "2"},
        {"op": "range", "lo": 3, "hi": 1}, {"op": "topk"}, {"op": "topk", "k": -1},
        {"op": "topk", "k": "5"}, {"op": "inverted_access"},
        {"op": "inverted_access", "answer": 7},
        # not reads at all
        {"op": "prepare"}, {"op": "insert"}, {"op": "stats"}, {"op": "selection", "k": 0},
        {"op": "nope"}, {},
    ])
    def test_malformed_reads_and_other_ops_never_take_the_loop(self, request_):
        assert choose_lane({"plan": "p", **request_}, object(), True) == "executor"

    @pytest.fixture()
    def service(self):
        service = QueryService(max_plans=8)
        service.register_database("demo", path_database())
        try:
            yield service
        finally:
            service.close()

    @needs_pool
    def test_lane_by_plan_state(self, service):
        # Built before the pool attached: it has no published image.
        lex_unpublished = service.prepare("demo", PATH_QUERY, order="y, x, z")
        pool = WorkerPool(workers=1)
        service.attach_pool(pool)
        assert pool.start()
        lex = service.prepare("demo", PATH_QUERY, order="x, y, z")
        total = service.prepare("demo", SCORE_QUERY, mode="sum")
        enum = service.prepare("demo", SCORE_QUERY, mode="enum")
        small, large = LOOP_LANE_MAX_ANSWERS, LOOP_LANE_MAX_ANSWERS + 1

        def lane(request):
            _plan, reader, published = service.pinned(request)
            return choose_lane(request, reader, published)

        def lanes(plan):
            return [lane(sized("batch_access", plan.fingerprint, size, 5))
                    for size in (1, small, large, 1024)]

        # Clean plans: LEX published, LEX unpublished, SUM (never published).
        assert lanes(lex) == ["loop", "loop", "worker", "worker"]
        assert lanes(lex_unpublished) == ["loop", "loop", "executor", "executor"]
        assert lanes(total) == ["loop", "loop", "executor", "executor"]
        assert lanes(enum) == ["executor"] * 4
        assert lane({"op": "topk", "plan": enum.fingerprint, "k": 3}) == "executor"
        assert lane({"op": "access", "plan": "0" * 16, "k": 0}) == "executor"
        # An inline spec may have to build.
        assert lane({"op": "access", "db": "demo", "query": PATH_QUERY,
                     "order": "x, y, z", "k": 0}) == "executor"

        # An unobserved mutation: the next read syncs, so nobody pins.
        service.insert("demo", "R", [(1, 3)])
        service.insert("demo", "T", [(1, 1000)])
        assert lanes(lex) == ["executor"] * 4
        assert lanes(total) == ["executor"] * 4
        # Observed: LEX serves a merged delta (current, but not the published
        # base — too big for the loop means the executor, not a worker); the
        # SUM engine was rebuilt whole.
        assert lex.access(0) == (1, 3, 0) and total.access(0) == (1, 1000)
        assert lanes(lex) == ["loop", "loop", "executor", "executor"]
        assert lanes(total) == ["loop", "loop", "executor", "executor"]
        plan, reader, published = service.pinned(
            {"op": "access", "plan": lex.fingerprint, "k": 0})
        assert plan is lex and not published
        assert reader is lex.engine._snapshot.view is not lex.engine._snapshot.base
        service.compact("demo")
        assert lanes(lex) == ["loop", "loop", "worker", "worker"]

    def test_executor_lane_answers_malformed_reads_with_the_structured_4xx(self):
        service = QueryService(max_plans=4)
        service.register_database("demo", path_database())
        plan = service.prepare("demo", PATH_QUERY, order="x, y, z").fingerprint
        try:
            with serving(service) as (server, _thread):
                with HTTPSession(base_url(server)) as session:
                    for payload, message in (
                        ({"op": "access", "plan": plan, "k": "1"}, "must be an integer"),
                        ({"op": "access", "plan": plan}, "missing the 'k' field"),
                        ({"op": "batch_access", "plan": plan, "ks": 7}, "array of ranks"),
                        ({"op": "range", "plan": plan, "lo": 0}, "missing the 'hi' field"),
                        ({"op": "inverted_access", "plan": plan, "answer": 3}, "array"),
                    ):
                        before = LOOP_LANES.value(("executor",))
                        status, document = session.post_json("/v1/query", payload)
                        assert status == 400, document
                        assert document["error"]["code"] == "bad_request"
                        assert message in document["error"]["message"]
                        assert LOOP_LANES.value(("executor",)) == before + 1
        finally:
            service.close()


# ----------------------------------------------------------------------
# (b) The loop lane never syncs, and answers at the epoch it admitted
# ----------------------------------------------------------------------
class TestLoopNeverSyncs:
    WRITES = 200

    def _run(self, monkeypatch, query_text, relation, prepare, oracle_at, fresh_row):
        """Writer (200 inserts/deletes over HTTP) beside a reader (scalar and
        64-rank reads over HTTP).  Returns nothing; asserts throughout."""
        service = QueryService(
            max_plans=4, live_policy=CompactionPolicy(max_delta_tuples=24))
        database = path_database()
        service.register_database("demo", database)
        live = service.live("demo")
        plan = prepare(service)
        fingerprint = plan.fingerprint

        # Who syncs, and where.
        sync_threads = set()
        for owner, name in ((LiveInstance, "_sync"), (LiveInstance, "_compact_locked"),
                            (PreparedPlan, "_sync")):
            original = getattr(owner, name)

            def recording(self, *args, _original=original, **kwargs):
                sync_threads.add(threading.current_thread())
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, recording)

        # What every read of the plan was admitted against: (thread, epoch
        # before the check, pinned?, epoch after it), in request order — the
        # writer's requests name no plan, so they never get here.
        admissions = []
        pinned_reader = PreparedPlan.pinned_reader

        def recording_pin(self):
            before = self.live.epoch
            reader = pinned_reader(self)
            admissions.append((threading.current_thread(), before,
                               reader is not None, self.live.epoch))
            return reader

        monkeypatch.setattr(PreparedPlan, "pinned_reader", recording_pin)

        rows = {0: frozenset(tuple(row) for row in database[relation])}
        stop = threading.Event()
        failures = []

        def writer(url):
            rng = random.Random(7)
            current = set(rows[0])
            try:
                with HTTPSession(url) as session:
                    for index in range(self.WRITES):
                        if index % 3 == 2:
                            row, op = rng.choice(sorted(current)), "delete"
                            current.discard(row)
                        else:
                            row, op = fresh_row(index), "insert"
                            current.add(row)
                        status, document = session.post_json(f"/v1/{op}", {
                            "db": "demo", "relation": relation, "rows": [list(row)]})
                        assert status == 200, document
                        rows[document["epoch"]] = frozenset(current)
            except Exception as exc:  # surfaced by the main thread
                failures.append(exc)
            finally:
                stop.set()

        observed = []  # (request, answer(s), epoch after the response)
        with serving(service) as (server, loop_thread):
            writer_thread = threading.Thread(target=writer, args=(base_url(server),))
            writer_thread.start()
            rng = random.Random(11)
            with HTTPSession(base_url(server)) as session:
                while not stop.is_set() or len(observed) < 50:
                    if len(observed) % 4 == 3:
                        request = {"op": "batch_access", "plan": fingerprint,
                                   "ks": [rng.randrange(20) for _ in range(64)]}
                    else:
                        request = {"op": "access", "plan": fingerprint,
                                   "k": rng.randrange(20)}
                    status, document = session.post_json("/v1/query", request)
                    assert status == 200, document
                    observed.append((request, document.get("answers", document.get("answer")),
                                     live.epoch))
            writer_thread.join(timeout=30)
            assert not writer_thread.is_alive() and not failures, failures

            assert live.epoch == self.WRITES and len(rows) == self.WRITES + 1
            assert len(admissions) == len(observed)
            assert sync_threads and loop_thread not in sync_threads
            assert {thread for thread, *_ in admissions} == {loop_thread}

        oracles = {}

        def oracle(epoch):
            if epoch not in oracles:
                oracles[epoch] = oracle_at(rows[epoch])
            return oracles[epoch]

        def matches(request, answers, epoch):
            answers_at = oracle(epoch)
            if request["op"] == "access":
                return tuple(answers) == answers_at[request["k"]]
            return [tuple(a) for a in answers] == [answers_at[k] for k in request["ks"]]

        pinned_reads = 0
        for (request, answers, epoch_after), (_t, before, pinned, after) in zip(
                observed, admissions):
            # Pinned: exactly the epoch the check saw (the two reads of
            # `live.epoch` around it bracket it).  Synced on the executor:
            # whatever epoch its sync landed on before the response left.
            window = range(before, (after if pinned else epoch_after) + 1)
            assert any(matches(request, answers, epoch) for epoch in window), (
                request, answers, pinned, window)
            pinned_reads += pinned
        assert pinned_reads > 0 and pinned_reads < len(observed)
        service.close()

    def test_lex_plan(self, monkeypatch):
        query = parse_query(PATH_QUERY)
        order = LexOrder(("x", "y", "z"))
        s_rows = [(y, z) for y in range(7) for z in range(3)]

        def oracle_at(r_rows):
            database = Database([Relation("R", ("x", "y"), sorted(r_rows)),
                                 Relation("S", ("y", "z"), s_rows)])
            return MaterializedBaseline(query, database, order=order).answers

        self._run(
            monkeypatch, PATH_QUERY, "R",
            lambda service: service.prepare("demo", PATH_QUERY, order="x, y, z"),
            oracle_at,
            # Fresh rows sort first: every write shifts every rank read.
            lambda index: (-index - 1, index % 7))

    def test_sum_plan(self, monkeypatch):
        query = parse_query(SCORE_QUERY)

        def oracle_at(t_rows):
            database = Database([Relation("T", ("a", "b"), sorted(t_rows))])
            return MaterializedBaseline(
                query, database, weights=Weights.identity()).answers

        self._run(
            monkeypatch, SCORE_QUERY, "T",
            lambda service: service.prepare("demo", SCORE_QUERY, mode="sum"),
            oracle_at,
            # Distinct weights (no ties), lighter than everything before.
            lambda index: (-index - 1, -1000 * (index + 1)))


# ----------------------------------------------------------------------
# (c) No hand-off, by count   (d) one body, three lanes
# ----------------------------------------------------------------------
@needs_pool
class TestHandOffsAndIdentity:
    @pytest.fixture()
    def pooled(self):
        service = QueryService(max_plans=8)
        service.register_database("demo", path_database())
        pool = WorkerPool(workers=2)
        service.attach_pool(pool)
        assert pool.start()
        try:
            yield service
        finally:
            service.close()

    @staticmethod
    def _dispatches():
        return sum(POOL_DISPATCHES.value((str(worker), outcome))
                   for worker in range(2) for outcome in ("routed", "miss", "failed"))

    def test_small_reads_wake_nobody_and_large_reads_wake_a_worker(
            self, pooled, monkeypatch):
        plan = pooled.prepare("demo", PATH_QUERY, order="x, y, z")
        with serving(pooled) as (server, _thread):
            submit = server._executor.submit
            submitted = []
            monkeypatch.setattr(
                server._executor, "submit",
                lambda *args, **kwargs: (submitted.append(args), submit(*args, **kwargs))[1])
            with HTTPSession(base_url(server)) as session:
                dispatches = self._dispatches()
                loop_lane = LOOP_LANES.value(("loop",))
                for k in range(1000):
                    status, _document = session.post_json(
                        "/v1/access", {"plan": plan.fingerprint, "k": k % plan.count})
                    assert status == 200
                assert submitted == []
                assert self._dispatches() == dispatches
                assert LOOP_LANES.value(("loop",)) == loop_lane + 1000

                ks = [k % plan.count for k in range(LOOP_LANE_MAX_ANSWERS + 1)]
                worker_lane = LOOP_LANES.value(("worker",))
                for _ in range(1000):
                    status, _document = session.post_json(
                        "/v1/batch_access", {"plan": plan.fingerprint, "ks": ks})
                    assert status == 200
                assert self._dispatches() == dispatches + 1000
                assert LOOP_LANES.value(("worker",)) == worker_lane + 1000
                assert submitted == []
                status, document = session.get_json("/v1/stats")
                assert document["stats"]["lanes"]["loop"] >= 1000
                assert document["stats"]["lanes"]["worker"] >= 1000

    @pytest.mark.parametrize("io_loop", ["event", "threaded"])
    def test_three_lanes_one_body(self, pooled, io_loop):
        plan = pooled.prepare("demo", PATH_QUERY, order="x, y, z")
        fingerprint, count = plan.fingerprint, plan.count
        requests = [
            {"op": "access", "plan": fingerprint, "k": 0},
            {"op": "access", "plan": fingerprint, "k": count},  # out of bounds
            {"op": "batch_access", "plan": fingerprint, "ks": [3, 1, 2]},
            {"op": "range", "plan": fingerprint, "lo": 2, "hi": 9},
            {"op": "range", "plan": fingerprint, "lo": 0, "hi": count + 1},
            {"op": "inverted_access", "plan": fingerprint, "answer": list(plan.access(4))},
            {"op": "inverted_access", "plan": fingerprint, "answer": [0, 0, 0]},
            {"op": "count", "plan": fingerprint},
        ]

        def without_trace(body):
            document = json.loads(body)
            document.pop("trace", None)
            return json.dumps(document).encode("utf-8")

        with serving(pooled, io_loop) as (server, _thread):
            with HTTPSession(base_url(server)) as session:
                for request in requests:
                    loop_lane = LOOP_LANES.value(("loop",))
                    _status, _headers, over_http = session._roundtrip(
                        "POST", "/v1/query", json.dumps(request).encode(),
                        {"Content-Type": "application/json"})
                    assert LOOP_LANES.value(("loop",)) == loop_lane + 1
                    executed = json.dumps(pooled.execute(request)).encode("utf-8")
                    status, routed, _trace = pooled.dispatch_raw(request)
                    assert without_trace(over_http) == without_trace(executed) == routed
                    assert (status == 200) == json.loads(routed)["ok"]

    @pytest.mark.parametrize("size", [LOOP_LANE_MAX_ANSWERS, LOOP_LANE_MAX_ANSWERS + 1, 300])
    def test_bad_batches_get_one_body_whatever_the_lane(self, pooled, size):
        """Status and bytes of a rejected (or empty) batch do not depend on
        which lane validated it: the first offending rank is named, a bool or
        float rank is a ``bad_request``, on every lane, at every size."""
        plan = pooled.prepare("demo", PATH_QUERY, order="x, y, z")
        fingerprint, count = plan.fingerprint, plan.count
        cases = {
            "out_of_bounds": ([5, count + 3, -2], 404, f"index {count + 3} is out"),
            "bool": ([1, True], 400, "not bool"),
            "float": ([1, 2.0], 400, "not float"),
            "beyond_int64": ([2**70], 404, f"index {2**70} is out"),
            "empty": ([], 200, None),
        }
        requests = {}
        for name, (bad, _status, _message) in cases.items():
            filler = [k % count for k in range(size - len(bad))] if bad else []
            requests[name] = {"op": "batch_access", "plan": fingerprint,
                              "ks": filler[:7] + bad + filler[7:]}
        # The worker lane first, synchronously: once the event loop has sent a
        # frame of its own it owns the workers' serve sockets.
        routed = {name: pooled.dispatch_raw(request)
                  for name, request in requests.items()}
        with serving(pooled) as (server, _thread):
            with HTTPSession(base_url(server)) as session:
                for name, (_bad, expected_status, message) in cases.items():
                    request = requests[name]
                    if len(request["ks"]) > LOOP_LANE_MAX_ANSWERS:
                        lane = "worker"
                    else:  # a batch with a non-int rank never takes the loop
                        lane = "executor" if name in ("bool", "float") else "loop"
                    taken = LOOP_LANES.value((lane,))
                    http_status, _headers, over_http = session._roundtrip(
                        "POST", "/v1/query", json.dumps(request).encode(),
                        {"Content-Type": "application/json"})
                    assert LOOP_LANES.value((lane,)) == taken + 1, (name, lane)
                    document = json.loads(over_http)
                    document.pop("trace", None)
                    executed = pooled.execute(request)
                    executed.pop("trace", None)
                    routed_status, routed_body, _trace = routed[name]
                    assert json.dumps(document).encode() == routed_body, name
                    assert json.dumps(executed).encode() == routed_body, name
                    assert http_status == routed_status == expected_status, name
                    if message is not None:
                        assert message in executed["error"]["message"], name
