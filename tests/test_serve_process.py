"""A real ``repro serve --workers 2`` process tree, driven over HTTP.

One server, started once for the module, serves the README demo database
with the sampling profiler on.  Against it: the observability and mutation
CLIs (``repro mutate``, ``metrics``, ``trace``, ``profile``), the series
``/metrics`` must carry after a worker respawn, and, last, a ``SIGTERM``
that must drain the whole tree and unlink every shared-memory block.
"""

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import HTTPSession
from repro.service.dispatch import LOOP_LANE_MAX_ANSWERS
from repro.service.pool import pool_supported
from tests.helpers import session_members, src_env

if not pool_supported() or not os.path.isdir("/dev/shm"):
    pytest.skip("worker pool needs NumPy + shared memory", allow_module_level=True)

DEMO_DB = Path(__file__).resolve().parent.parent / "examples" / "service" / "demo_db.json"
SPEC = {"db": "demo", "query": "Q(x, y, z) :- R(x, y), S(y, z)", "order": "x, y, z"}
BANNER = re.compile(r"listening on (http://\S+)")


class ServeProcess:
    """``repro serve`` in its own session; stdout is read on a thread, so
    every wait on it carries a deadline."""

    def __init__(self, log_path: Path) -> None:
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                   "--workers", "2", "--profile-hz", "97",
                   "--db", f"demo={DEMO_DB}"]
        self.log_path = log_path
        with open(log_path, "w") as log:
            self.process = subprocess.Popen(
                command, env=src_env(), start_new_session=True, text=True,
                stdout=subprocess.PIPE, stderr=log)
        self.lines = []
        self._queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.url = self._await_banner(deadline=time.monotonic() + 60.0)

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))
            self._queue.put(line)
        self._queue.put(None)

    def _await_banner(self, deadline: float) -> str:
        while True:
            try:
                line = self._queue.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                pytest.fail(f"repro serve never listened: {self.log_path.read_text()}")
            found = BANNER.search(line)
            if found:
                return found.group(1)

    def owned_blocks(self):
        """Snapshot blocks this master published (named by its pid)."""
        prefix = f"repro-snap-{self.process.pid}-"
        return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        if session_members(self.process.pid):
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait(timeout=10)
        self.reader.join(timeout=10)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    server = ServeProcess(tmp_path_factory.mktemp("serve") / "stderr.log")
    try:
        yield server
    finally:
        server.stop()


def prepare(session):
    status, prepared = session.post_json("/v1/prepare", SPEC)
    assert status == 200 and prepared["ok"], prepared
    return prepared["plan"], prepared["count"]


def worker_batch(session, plan, count):
    """One rank over the loop lane's threshold: a worker serves it."""
    ks = [k % count for k in range(LOOP_LANE_MAX_ANSWERS + 1)]
    status, document = session.post_json(
        "/v1/query", {"op": "batch_access", "plan": plan, "ks": ks})
    assert status == 200 and document["ok"], document
    return document


def test_cli_tools_against_a_live_server(served, capsys):
    from repro.cli import main

    with HTTPSession(served.url) as session:
        plan, count = prepare(session)
        _status, served_access = session.post_json(
            "/v1/query", {"op": "access", "plan": plan, "k": 0})
    trace_id = served_access["trace"]

    assert main(["metrics", "--url", served.url]) == 0
    assert 'repro_requests_total{op="access",status="ok"}' in capsys.readouterr().out
    assert main(["trace", trace_id, "--url", served.url]) == 0
    assert "op:access" in capsys.readouterr().out
    assert main(["trace", "--list", "--url", served.url]) == 0
    assert trace_id in capsys.readouterr().out
    assert main(["profile", "--url", served.url, "--seconds", "0.3"]) == 0
    table = capsys.readouterr().out
    assert "master" in table and "worker 0" in table and "worker 1" in table
    assert main(["profile", "--url", served.url, "--seconds", "0", "--fold"]) == 0
    folded = capsys.readouterr().out.splitlines()
    assert folded and all(int(line.rsplit(" ", 1)[1]) > 0 for line in folded)

    # (1, 5) joins S(5, 3), S(5, 4), S(5, 6); (100, 5) takes their place.
    assert main(["mutate", "--url", served.url, "--db", "demo", "--relation", "R",
                 "--insert", "[100, 5]", "--delete", "[1, 5]",
                 "--compact", "--stats"]) == 0
    responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [response["op"] for response in responses] == [
        "insert", "delete", "compact", "stats"]
    assert all(response["ok"] for response in responses)
    assert responses[0]["applied"] == 1 and responses[1]["removed"] == 1
    assert responses[2]["plans_compacted"] == 1
    with HTTPSession(served.url) as session:
        assert prepare(session) == (plan, count)
        _status, moved = session.post_json(
            "/v1/query", {"op": "range", "plan": plan, "lo": count - 3, "hi": count})
        assert moved["answers"] == [[100, 5, 3], [100, 5, 4], [100, 5, 6]]
        _status, gone = session.post_json(
            "/v1/query", {"op": "inverted_access", "plan": plan, "answer": [1, 5, 3]})
        assert gone["error"]["code"] == "not_an_answer"


def test_metrics_carry_loop_restart_and_profile_series(served):
    with HTTPSession(served.url) as session:
        plan, count = prepare(session)
        for k in range(count):  # loop lane, one keep-alive connection
            session.post_json("/v1/query", {"op": "access", "plan": plan, "k": k})
        worker_batch(session, plan, count)
        _status, stats = session.post_json("/v1/query", {"op": "stats"})
        victim = stats["stats"]["pool"]["workers"][0]
        os.kill(victim["pid"], signal.SIGKILL)
        # /healthz respawns a dead worker once the master can reap it, which
        # can trail the kill while the victim's other threads exit.
        deadline = time.monotonic() + 10.0
        while True:
            status, health = session.get_json("/healthz")
            assert status == 200, health
            if health["pool"]["restarts"] >= 1:
                break
            assert time.monotonic() < deadline, health
            time.sleep(0.05)
        assert health["pool"]["alive"] == 2, health
        text = session.get_text("/metrics")
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    for state in ("read", "dispatch", "serve", "write"):
        assert samples[f'repro_loop_state_seconds_count{{state="{state}"}}'] > 0
    assert samples['repro_worker_restarts_total{worker="0"}'] >= 1
    assert samples["repro_profile_samples_total"] > 0
    assert samples['repro_loop_lane_total{lane="loop"}'] > 0
    assert samples['repro_loop_lane_total{lane="worker"}'] > 0
    assert samples['repro_loop_events_total{event="accept"}'] > 0
    assert samples['repro_loop_events_total{event="keepalive"}'] > 0
    assert samples["repro_pool_workers"] == 2


def test_sigterm_drains_the_tree_and_unlinks_every_block(served):
    """Runs last: the module's server is gone afterwards."""
    with HTTPSession(served.url) as session:
        plan, count = prepare(session)
        worker_batch(session, plan, count)
    assert served.owned_blocks(), "the served plan published no block"
    assert len(session_members(served.process.pid)) == 3  # master + 2 workers
    served.process.send_signal(signal.SIGTERM)
    assert served.process.wait(timeout=30) == 0, served.log_path.read_text()
    served.reader.join(timeout=10)
    assert served.lines[-1] == "repro serve: drained and closed"
    deadline = time.monotonic() + 5.0
    while session_members(served.process.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert session_members(served.process.pid) == []
    assert served.owned_blocks() == []
