"""The four serving workloads: inputs, verification probes and client loops.

Each workload owns its generated database, its oracle (a shadow copy that
follows its writes) and the pre-encoded request bytes of its (at most two)
closed-loop clients.  Every workload can also time the write path of its own
database — ``live_mixed`` does inside its windows, beside the reader; the
three read-only ones in a probe the traced run makes on the quiet server.
Names are stable; later issues cite them.  Why each exists is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import collections
import json
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import gen
from httpclient import Connection, encode_post, is_ok
from oracle import PathOracle, ScoreOracle

#: (request bytes, answers the reply carries, what the oracle should check, op)
Request = Tuple[bytes, int, Tuple, str]

WRITE_SPACING_S = 0.05
ROWS_PER_WRITE = 8


class Tally:
    """What one client saw during one window."""

    def __init__(self) -> None:
        #: op → the reading clients' round-trips of that op, seconds
        self.latencies: Dict[str, List[float]] = collections.defaultdict(list)
        self.requests = 0
        self.answers = 0
        self.failed = 0
        self.samples: List[Tuple[Tuple, bytes]] = []


def check_document(oracle, check: Tuple, document: Dict) -> bool:
    """Does a decoded reply match the oracle for the request it answers?"""
    kind = check[0]
    try:
        if kind == "access":
            return oracle.check_access(check[1], document["answer"])
        if kind == "batch":
            answers = document["answers"]
            return len(answers) == len(check[1]) and all(
                oracle.check_access(k, answer)
                for k, answer in zip(check[1], answers))
        if kind == "range":
            answers = document["answers"]
            return len(answers) == check[2] and oracle.check_range(check[1], answers)
        if kind == "count":
            return document["count"] == oracle.count
        if kind == "inverted":
            return document["k"] == check[1]
    except (KeyError, TypeError):
        return False
    raise ValueError(f"unknown check {kind!r}")


def read_loop(connection: Connection, requests: Sequence[Request], cursor: int,
              tally: Tally, deadline: float, sample_every: int,
              hold: Optional[threading.Event] = None) -> int:
    """Closed loop: next request only when the previous reply has arrived.

    Runs to ``deadline`` (and on while ``hold`` is unset, so a reader keeps
    the server busy until the paired writer finishes its counted schedule).
    Returns the advanced cursor.
    """
    clock = time.perf_counter
    latencies = tally.latencies
    total = len(requests)
    while True:
        payload, answers, check, op = requests[cursor % total]
        started = clock()
        if started >= deadline and (hold is None or hold.is_set()):
            return cursor
        try:
            status, body = connection.roundtrip(payload)
        except OSError:
            tally.requests += 1
            tally.failed += 1
            return cursor
        latencies[op].append(clock() - started)
        tally.requests += 1
        if is_ok(status, body):
            tally.answers += answers
            if cursor % sample_every == 0:
                tally.samples.append((check, body))
        else:
            tally.failed += 1
        cursor += 1


class Workload:
    """Shared machinery; subclasses fill in inputs, probes and traffic."""

    name = ""
    database = "bench"
    relation = ""        # the relation the write path mutates
    clients = 2
    sample_every = 16
    probe_writes = 24    # writes in a read-only workload's probe

    def __init__(self, size: Dict[str, int], seed: int) -> None:
        self.seed = seed
        self.size = size
        self.rng = random.Random(f"{self.name}-{seed}")
        self.oracle = None
        self.plan = ""
        self.count = 0
        self.limit = 0
        self._requests: List[Request] = []
        self._cursors: List[int] = []
        #: Seconds, one entry per timed write-path round-trip since the last
        #: ``reset_timings``: mutation, mutation ack → first read answered,
        #: compact, and the longest read beside each compact.
        self.timings: Dict[str, List[float]] = {}
        self.reset_timings()
        self._schedule: List[Tuple[str, List[Tuple[int, ...]]]] = []
        self._writer_ranks: List[int] = []
        self._writer_log: List[Tuple[int, bytes, bytes]] = []
        self._count_request = self._compact_request = b""

    def reset_timings(self) -> None:
        self.timings = {"write": [], "visible": [], "compact": [], "stall": []}

    # -- set-up ----------------------------------------------------------
    def document(self) -> Dict[str, object]:
        raise NotImplementedError

    def prepare_request(self) -> Dict[str, object]:
        raise NotImplementedError

    def initial_rows(self) -> List[Tuple[int, ...]]:
        """The generated rows of ``relation``."""
        raise NotImplementedError

    def fresh_row(self) -> Callable[[random.Random], Tuple[int, ...]]:
        """Proposes rows for the write schedule to insert into ``relation``."""
        raise NotImplementedError

    def scheduled_writes(self, windows: int, window_s: float) -> int:
        return self.probe_writes

    def bind(self, prepared: Dict, windows: int, window_s: float) -> None:
        """Take the plan id the server issued and pre-encode all traffic."""
        self.plan = prepared["plan"]
        self.count = prepared["count"]
        # Ranks stay below the count whatever the writes have deleted so far.
        self.limit = int(self.count * 0.9)
        self._requests = self.build_requests()
        step = max(1, len(self._requests) // self.clients)
        self._cursors = [index * step for index in range(self.clients)]
        writes = self.scheduled_writes(windows, window_s)
        self._schedule = gen.mutation_schedule(
            self.initial_rows(), self.fresh_row(), writes, ROWS_PER_WRITE, self.seed)
        self._writer_ranks = [self.rng.randrange(self.limit) for _ in range(writes)]
        self._count_request = encode_post("/v1/count", {"plan": self.plan})
        self._compact_request = encode_post("/v1/compact", {"db": self.database})

    def build_requests(self) -> List[Request]:
        raise NotImplementedError

    def _post(self, op: str, answers: int, check: Tuple, **fields) -> Request:
        return (encode_post(f"/v1/{op}", {"plan": self.plan, **fields}),
                answers, check, op)

    # -- verification ----------------------------------------------------
    def verify(self, connection: Connection, ranks: int = 512,
               ranges: int = 4, inverted: int = 32) -> Tuple[int, int]:
        """count, sampled ranks, ranges and inverted(access(k)) == k.

        Returns (attempted, failed).  Runs before any timing.
        """
        oracle, rng = self.oracle, self.rng
        probes: List[Request] = [self._post("count", 0, ("count",))]
        limit = min(self.count, oracle.count)
        # Rank 0 is always probed: it is the answer --selftest-corrupt flips.
        sampled = sorted({0, *rng.sample(range(limit), min(ranks, limit))})
        for at in range(0, len(sampled), 128):
            ks = sampled[at:at + 128]
            probes.append(self._post("batch_access", len(ks), ("batch", ks), ks=ks))
        width = min(64, limit)
        for _ in range(ranges):
            lo = rng.randrange(limit - width + 1)
            probes.append(self._post("range", width, ("range", lo, width),
                                     lo=lo, hi=lo + width))
        attempted = failed = 0
        for payload, _, check, _ in probes:
            attempted += 1
            status, body = connection.roundtrip(payload)
            if not (is_ok(status, body)
                    and check_document(oracle, check, json.loads(body))):
                failed += 1
        for k in sampled[:inverted]:
            attempted += 2
            status, document = connection.post("/v1/access", {"plan": self.plan, "k": k})
            if not (status == 200 and oracle.check_access(k, document.get("answer", ()))):
                failed += 2
                continue
            status, document = connection.post(
                "/v1/inverted_access", {"plan": self.plan, "answer": document["answer"]})
            if not (status == 200 and document.get("k") == k):
                failed += 1
        return attempted, failed

    # -- read traffic ------------------------------------------------------
    def loops(self, connections: Sequence[Connection], tallies: Sequence[Tally],
              window: int, deadline: float) -> List[Callable[[], None]]:
        """One callable per client for one window."""
        def reader(index: int) -> Callable[[], None]:
            def run() -> None:
                self._cursors[index] = read_loop(
                    connections[index], self._requests, self._cursors[index],
                    tallies[index], deadline, self.sample_every)
            return run
        return [reader(index) for index in range(self.clients)]

    def check_samples(self, tallies: Sequence[Tally]) -> int:
        """Oracle-check (and drop) the replies sampled by ``tallies``; failures."""
        failed = 0
        for tally in tallies:
            for check, body in tally.samples:
                if not check_document(self.oracle, check, json.loads(body)):
                    failed += 1
            tally.samples.clear()
        return failed

    def check_window(self, tallies: Sequence[Tally], connections: Sequence[Connection],
                     control: Connection) -> Tuple[int, int]:
        """What a window leaves to check once it is over; (attempted, failed).

        ``attempted`` counts only what the window itself did not already
        count as a request.
        """
        return 0, self.check_samples(tallies)

    # -- write path --------------------------------------------------------
    def encoded_writes(self, first: int, count: int) -> List[Tuple[bytes, bytes]]:
        """(mutation, access that must see it) of scheduled writes ``first..``."""
        return [
            (encode_post(f"/v1/{op}", {"db": self.database, "relation": self.relation,
                                       "rows": rows}),
             encode_post("/v1/access", {"plan": self.plan,
                                        "k": self._writer_ranks[index]}))
            for index, (op, rows) in enumerate(self._schedule[first:first + count], first)]

    def write(self, connection: Connection, index: int,
              mutation: bytes, access: bytes) -> int:
        """Scheduled write ``index``, then an ``access`` and a ``count`` that
        must see it; returns how many of the three failed.

        ``visible`` runs from the mutation's ack to the answer of the first
        read at the new epoch, so it includes the differential refresh.
        """
        clock = time.perf_counter
        started = clock()
        status, body = connection.roundtrip(mutation)
        acked = clock()
        status_a, answer = connection.roundtrip(access)
        seen = clock()
        status_c, counted = connection.roundtrip(self._count_request)
        self.timings["write"].append(acked - started)
        self.timings["visible"].append(seen - acked)
        self._writer_log.append((index, answer, counted))
        return 3 - is_ok(status, body) - is_ok(status_a, answer) - is_ok(status_c, counted)

    def settle(self, connections: Sequence[Connection],
               control: Connection) -> Tuple[int, int]:
        """Bring the shadow copy and the server to the same compacted state.

        Replays the logged writes on the shadow copy and checks the writer's
        reads against it in order; re-verifies the quiet server on its merged
        view; times one ``compact`` and the first read after it while client 0
        keeps reading (the state is pinned, so those replies are oracle-checked
        too); verifies the rebuilt base.  Returns (attempted, failed).
        """
        failed = 0
        for index, answer, counted in self._writer_log:
            op, rows = self._schedule[index]
            self.oracle.apply(op, rows)
            try:
                good = (json.loads(counted)["count"] == self.oracle.count
                        and self.oracle.check_access(
                            self._writer_ranks[index], json.loads(answer)["answer"]))
            except (ValueError, KeyError):
                good = False
            failed += not good
        self._writer_log.clear()
        self.count = self.oracle.count
        attempted, merged_failed = self.verify(control, ranks=64, ranges=2, inverted=4)

        compacted = threading.Event()
        tally = Tally()

        def reader() -> None:
            self._cursors[0] = read_loop(
                connections[0], self._requests, self._cursors[0], tally,
                0.0, self.sample_every, hold=compacted)

        k = self.rng.randrange(self.limit)
        first_read = self._post("access", 1, ("access", k), k=k)[0]
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            # Through the first read of the compacted state, so that work a
            # compact leaves to the next read would be paid here too.
            started = time.perf_counter()
            status, body = control.roundtrip(self._compact_request)
            status_r, answer = control.roundtrip(first_read)
            self.timings["compact"].append(time.perf_counter() - started)
        finally:
            compacted.set()
            thread.join()
        self.timings["stall"].append(
            max((max(seconds) for seconds in tally.latencies.values()), default=0.0))
        failed += ((not is_ok(status, body)) + tally.failed + self.check_samples([tally])
                   + (not (is_ok(status_r, answer) and check_document(
                       self.oracle, ("access", k), json.loads(answer)))))
        again, rebuilt_failed = self.verify(control, ranks=64, ranges=2, inverted=4)
        return (attempted + 2 + tally.requests + again,
                failed + merged_failed + rebuilt_failed)

    def write_probe(self, connections: Sequence[Connection],
                    control: Connection) -> Tuple[int, int]:
        """A read-only workload's turn on the write path (the traced run's):
        the scheduled writes on the quiet server, then :meth:`settle`.
        Returns (attempted, failed)."""
        encoded = self.encoded_writes(0, len(self._schedule))
        failed = sum(self.write(control, index, mutation, access)
                     for index, (mutation, access) in enumerate(encoded))
        attempted, settle_failed = self.settle(connections, control)
        return 3 * len(encoded) + attempted, failed + settle_failed


class _PathWorkload(Workload):
    relation = "R"

    def __init__(self, size: Dict[str, int], seed: int) -> None:
        super().__init__(size, seed)
        self.relations = gen.path_relations(size["path_rows"], seed)
        self.oracle = PathOracle(self.relations)

    def document(self) -> Dict[str, object]:
        return gen.path_document(self.relations)

    def prepare_request(self) -> Dict[str, object]:
        return {"db": self.database, "query": gen.PATH_QUERY,
                "order": gen.PATH_ORDER}

    def initial_rows(self):
        return self.relations["R"]

    def fresh_row(self):
        return gen.path_fresh_row(max(8, self.size["path_rows"] // 8))


class PointLookup(_PathWorkload):
    name = "point_lookup"
    bodies = 50_000

    def build_requests(self) -> List[Request]:
        ranks = gen.ZipfRanks(self.limit).sample(self.rng, self.bodies)
        return [self._post("access", 1, ("access", k), k=k) for k in ranks]


class PageScan(_PathWorkload):
    name = "page_scan"
    page = 1024
    bodies = 512
    sample_every = 8

    def build_requests(self) -> List[Request]:
        page = min(self.page, self.limit)
        zipf = gen.ZipfRanks(self.limit)
        requests: List[Request] = []
        for _ in range(self.bodies // 2):
            ks = zipf.sample(self.rng, page)
            requests.append(self._post("batch_access", page, ("batch", ks), ks=ks))
            lo = self.rng.randrange(self.limit - page + 1)
            requests.append(self._post("range", page, ("range", lo, page),
                                       lo=lo, hi=lo + page))
        return requests

    def bind(self, prepared: Dict, windows: int, window_s: float) -> None:
        super().bind(prepared, windows, window_s)
        # Keep both clients on the batch/range alternation, out of phase.
        self._cursors = [0, len(self._requests) // 2 + 1]


class ScorePaging(Workload):
    name = "score_paging"
    relation = "Results"
    bodies = 20_000
    page = 50
    top = 100
    # A SUM plan is rebuilt whole by the first read after each write (~1 s).
    probe_writes = 4

    def __init__(self, size: Dict[str, int], seed: int) -> None:
        super().__init__(size, seed)
        self.rows = gen.score_relation(size["score_rows"], seed)
        self.oracle = ScoreOracle(self.rows)

    def document(self) -> Dict[str, object]:
        return gen.score_document(self.rows)

    def prepare_request(self) -> Dict[str, object]:
        return {"db": self.database, "query": gen.SCORE_QUERY, "mode": "sum",
                "weights": gen.score_weights_spec()}

    def initial_rows(self):
        return self.rows

    def fresh_row(self):
        return gen.score_fresh_row(len(self.rows))

    def build_requests(self) -> List[Request]:
        rng = self.rng
        pages = self.limit // self.page
        top = min(self.top, self.limit)
        requests: List[Request] = []
        for _ in range(self.bodies):
            draw = rng.random()
            if draw < 0.7:
                lo = gen.pareto_page(rng, pages) * self.page
                requests.append(self._post(
                    "range", self.page, ("range", lo, self.page),
                    lo=lo, hi=lo + self.page))
            elif draw < 0.9:
                k = rng.randrange(self.limit)
                requests.append(self._post("access", 1, ("access", k), k=k))
            else:
                requests.append(self._post("topk", top, ("range", 0, top), k=top))
        return requests


class LiveMixed(_PathWorkload):
    name = "live_mixed"
    bodies = 20_000
    batch = 64

    def __init__(self, size: Dict[str, int], seed: int) -> None:
        super().__init__(size, seed)
        self._writes_per_window = 0

    def scheduled_writes(self, windows: int, window_s: float) -> int:
        self._writes_per_window = max(4, int(window_s * 0.3 / WRITE_SPACING_S))
        return self._writes_per_window * windows

    def bind(self, prepared: Dict, windows: int, window_s: float) -> None:
        super().bind(prepared, windows, window_s)
        self._cursors = [0]

    def build_requests(self) -> List[Request]:
        zipf = gen.ZipfRanks(self.limit)
        scalars = zipf.sample(self.rng, self.bodies)
        requests: List[Request] = []
        for index, k in enumerate(scalars):
            if index % 8 == 7:
                ks = zipf.sample(self.rng, self.batch)
                requests.append(self._post("batch_access", self.batch, ("batch", ks), ks=ks))
            else:
                requests.append(self._post("access", 1, ("access", k), k=k))
        return requests

    def loops(self, connections, tallies, window, deadline):
        written = threading.Event()
        first = window * self._writes_per_window
        encoded = self.encoded_writes(first, self._writes_per_window)

        def reader() -> None:
            self._cursors[0] = read_loop(
                connections[0], self._requests, self._cursors[0], tallies[0],
                deadline, self.sample_every, hold=written)

        def writer() -> None:
            # Count-based: exactly this window's writes, 50 ms apart, so CPU
            # per request is comparable run to run.
            connection, tally, clock = connections[1], tallies[1], time.perf_counter
            due = clock()
            try:
                for index, (mutation, access) in enumerate(encoded, first):
                    delay = due - clock()
                    if delay > 0:
                        time.sleep(delay)
                    due += WRITE_SPACING_S
                    tally.failed += self.write(connection, index, mutation, access)
                    tally.requests += 3
                    tally.answers += 1
            except OSError:
                tally.requests += 1
                tally.failed += 1
            finally:
                written.set()

        return [reader, writer]

    def check_window(self, tallies, connections, control):
        """Settle between windows, so every window starts from the same state
        (no pending delta, workers serving): left to accumulate, the delta made
        each window ~20 % slower than the one before and the median window
        swing 25 % run to run.  The compact is timed there, beside the reader,
        not inside a window: it holds the master for 1.5-2.6 s, and how much
        of a 3 s window that eats is the host's noise, not the program's.

        The reader's replies during a window carry no epoch, so they cannot
        be pinned to one shadow state; they are ok-checked in the loop only.
        """
        for tally in tallies:
            tally.samples.clear()
        return self.settle(connections, control)

    def write_probe(self, connections, control):
        """The windows already wrote, settled and timed: nothing to add."""
        return 0, 0


WORKLOADS = {cls.name: cls for cls in (PointLookup, PageScan, ScorePaging, LiveMixed)}
