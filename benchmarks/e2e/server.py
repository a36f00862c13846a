"""The system under test as a subprocess, observed only from outside.

Starts ``python -m repro.cli serve`` with the command line ``spec.json``
records (later PRs must keep it working), times the set-up phases over HTTP,
reads CPU / memory / thread counts of the master and its workers from
``/proc``, and checks that stopping it leaves no worker process and no
``/dev/shm/repro-snap-*`` block behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Set

from httpclient import Connection, encode_get

_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")
_TICK = os.sysconf("SC_CLK_TCK")
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "repro-snap-"


def shm_blocks() -> Set[str]:
    try:
        return {name for name in os.listdir(_SHM_DIR) if name.startswith(_SHM_PREFIX)}
    except OSError:
        return set()


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return found


def _cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime


def _running(pid: int) -> bool:
    """Exists and is not a zombie waiting for its (gone) parent's reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _status_field(pid: int, path: str, key: str) -> int:
    total = 0
    try:
        with open(f"/proc/{pid}/{path}") as handle:
            for line in handle:
                if line.startswith(key):
                    total += int(line.split()[1])
    except OSError:
        pass
    return total


def reap_own_children() -> None:
    """Kill and wait for whatever this process still has as children.

    After the ladder's in-process pool is closed, that is the resource
    tracker multiprocessing started here: it would outlive the command.
    """
    for pid in _children(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass  # not ours to wait for, or already gone


class Server:
    """One served process tree; ``start`` blocks until ``/readyz`` answers 200."""

    def __init__(self, src_dir: str, work_dir: str,
                 databases: Sequence[Sequence[str]]) -> None:
        self._src_dir = src_dir
        self._log_path = os.path.join(work_dir, "server.log")
        self._databases = [tuple(pair) for pair in databases]
        self._process: Optional[subprocess.Popen] = None
        self._shm_before: Set[str] = set()
        self.port = 0
        self.phases: Dict[str, float] = {}
        self.plans: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    def start(self, prepares: Dict[str, Dict[str, object]]) -> float:
        """Spawn → listening → every plan prepared → ready; returns seconds."""
        self._shm_before = shm_blocks()
        with open(_SPEC, encoding="utf-8") as handle:
            command = [sys.executable, *json.load(handle)["serve_command"][1:]]
        for name, path in self._databases:
            command += ["--db", f"{name}={path}"]
        env = dict(os.environ, PYTHONPATH=self._src_dir)
        started = time.perf_counter()
        with open(self._log_path, "w") as log:
            self._process = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT)
        self.port = self._await_port()
        listening = time.perf_counter()
        connection = Connection(self.port)
        try:
            for key, request in prepares.items():
                status, document = connection.post("/v1/prepare", request)
                if status != 200 or not document.get("ok"):
                    raise RuntimeError(f"prepare {key} failed: {document}")
                self.plans[key] = document
            prepared = time.perf_counter()
            deadline = prepared + 30.0
            while connection.roundtrip(encode_get("/readyz"))[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
        finally:
            connection.close()
        ready = time.perf_counter()
        self.phases = {"spawn_s": listening - started,
                       "prepare_s": prepared - listening,
                       "ready_s": ready - prepared}
        return ready - started

    def _await_port(self) -> int:
        deadline = time.perf_counter() + 60.0
        marker = "listening on http://127.0.0.1:"
        while time.perf_counter() < deadline:
            if self._process.poll() is not None:
                break
            with open(self._log_path) as log:
                text = log.read()
            at = text.find(marker)
            if at >= 0 and "\n" in text[at:]:
                return int(text[at + len(marker):].split()[0].rstrip("/"))
            time.sleep(0.005)
        with open(self._log_path) as log:
            raise RuntimeError("server did not start:\n" + log.read()[-2000:])

    # ------------------------------------------------------------------
    def tree(self) -> List[int]:
        """Master pid followed by every live descendant."""
        pids = [self._process.pid]
        for pid in pids:
            pids.extend(_children(pid))
        return pids

    def cpu_seconds(self) -> Dict[str, float]:
        """utime+stime so far, split master / everything it forked."""
        pids = self.tree()
        return {"master": _cpu_seconds(pids[0]),
                "workers": sum(_cpu_seconds(pid) for pid in pids[1:])}

    def pss_mib(self) -> float:
        return sum(_status_field(pid, "smaps_rollup", "Pss:")
                   for pid in self.tree()) / 1024.0

    def master_threads(self) -> int:
        return _status_field(self._process.pid, "status", "Threads:")

    # ------------------------------------------------------------------
    def stop(self) -> Dict[str, int]:
        """SIGTERM, reap, and report what the shutdown left behind.

        The master joins its workers before exiting, so any of them still
        alive afterwards is an orphan.  The multiprocessing resource tracker
        it started is not: it lingers ~2 s after its parent by design, so it
        is killed rather than waited for (its only job left would be to
        unlink leaked blocks, which is exactly what is counted here first).
        """
        pids = self.tree()
        process, self._process = self._process, None
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        leaked = shm_blocks() - self._shm_before
        for name in leaked:
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
            except OSError:
                pass
        orphans = 0
        for pid in filter(_running, pids[1:]):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    command = handle.read()
                os.kill(pid, signal.SIGKILL)
            except OSError:
                continue  # exited in between
            # An empty command line is a process already tearing itself down.
            if command and b"resource_tracker" not in command:
                orphans += 1
                print(f"server.py: orphan {pid}: {command.replace(bytes(1), b' ')!r}",
                      file=sys.stderr)
        deadline = time.perf_counter() + 5.0
        while any(map(_running, pids[1:])) and time.perf_counter() < deadline:
            time.sleep(0.005)
        return {"leaked_shm": len(leaked), "orphan_procs": orphans}
