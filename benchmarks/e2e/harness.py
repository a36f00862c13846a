"""The measuring harness: one workload, one server, verified then timed.

Shared by ``run.py`` (end-to-end runs) and ``ladder.py`` (the traced run):
set the server up, verify against the oracle before any timing, warm up,
run closed-loop windows with ``gc`` off, and stop everything cleanly.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import gen
from httpclient import Connection
from server import Server
from workloads import WORKLOADS, Tally, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

WINDOWS = 5


class Profile:
    """How long and how large one run is (driver, full or ``--smoke``)."""

    def __init__(self, seconds: float, smoke: bool = False) -> None:
        self.size = gen.SIZES["smoke" if smoke else "full"]
        self.windows = 1 if smoke else WINDOWS
        self.window_s = seconds / self.windows
        # The event loop's inline path halves its rate after ~6k requests;
        # 5 s of warm-up puts every timed window past that transient.
        self.warmup_s = 0.3 if smoke else min(5.0, seconds / 3.0)
        self.setup_repeats = 1 if smoke else 3


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, min(len(ordered) - 1, int(share * len(ordered) + 0.5) - 1))]


def calibrate() -> float:
    """A fixed spin loop, in ms: the same number unless the machine drifted."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def host_ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks of the whole VM so far, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(field) for field in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def wait_for_host(cap_s: float = 75.0, limit: float = 0.10) -> float:
    """Hold the run while the host steals the VM's CPU; seconds held.

    Several times a day, for 1-4 minutes, a third of the VM's ticks are
    stolen and everything runs 10-20x slower: nothing measured then is the
    program's, and a set of ten runs started back to back would lose most of
    them.  Steal is ~0 otherwise, so the test is sharp.  Capped, so that a
    run always ends well inside the driver's limit.
    """
    clock = time.perf_counter
    started = clock()
    while True:
        stolen, ticks = host_ticks()
        sampled = clock() + 0.25
        while clock() < sampled:
            pass  # spin: a halted vCPU is never stolen from, a busy one is
        stolen_now, ticks_now = host_ticks()
        held = clock() - started - 0.25
        if (stolen_now - stolen) <= limit * (ticks_now - ticks) or held >= cap_s:
            return max(0.0, held)
        time.sleep(1.0)


@contextlib.contextmanager
def quiet_gc():
    """One collection up front, none inside the timed region."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# One window of closed-loop traffic against a live server
# ----------------------------------------------------------------------
def run_window(workload: Workload, server: Server,
               connections: Sequence[Connection], window: int,
               seconds: float) -> Dict[str, object]:
    """Run every client of ``workload`` for one window; raw observations."""
    tallies = [Tally() for _ in connections]
    with quiet_gc():
        stolen_before, ticks_before = host_ticks()
        cpu_before = server.cpu_seconds()
        own_before = time.process_time()
        started = time.perf_counter()
        loops = workload.loops(connections, tallies, window, started + seconds)
        threads = [threading.Thread(target=loop) for loop in loops]
        for thread in threads:
            thread.start()
        # This thread only waits: it samples the master's thread count
        # meanwhile (one small /proc read every 0.25 s).
        threads_peak = server.master_threads()
        for thread in threads:
            while thread.is_alive():
                threads_peak = max(threads_peak, server.master_threads())
                thread.join(0.25)
        wall = time.perf_counter() - started
        own = time.process_time() - own_before
        cpu_after = server.cpu_seconds()
        stolen_after, ticks_after = host_ticks()
    return {
        "tallies": tallies,
        "wall": wall,
        "requests": sum(tally.requests for tally in tallies),
        "answers": sum(tally.answers for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "latencies": {op: sorted(lat for tally in tallies
                                 for lat in tally.latencies.get(op, ()))
                      for op in sorted({op for tally in tallies for op in tally.latencies})},
        "master_cpu": cpu_after["master"] - cpu_before["master"],
        "worker_cpu": cpu_after["workers"] - cpu_before["workers"],
        "loadgen_cpu": own,
        "threads_peak": threads_peak,
        "stolen": (stolen_after - stolen_before) / max(1, ticks_after - ticks_before),
    }


def window_metrics(observed: Dict[str, object]) -> Dict[str, float]:
    """What one window says.  ``lat_floor_us`` is the request mix at the 10th
    percentile of each op: per op class (``access``, ``range``, ...) the p10
    of its round-trips, weighted by the class's share of the window's reads.
    A stall hits a request or it does not, so the low percentile repeats on a
    shared host where the median and the rate do not; taken per class, a
    slower ``batch_access`` or ``range`` moves it as much as a slower
    ``access``, whatever their order of cost."""
    requests = max(1, observed["requests"])
    by_op = observed["latencies"]
    latencies = sorted(lat for seconds in by_op.values() for lat in seconds) or [0.0]
    floor = sum(len(seconds) * percentile(seconds, 0.10) for seconds in by_op.values())
    return {
        "lat_floor_us": floor * 1e6 / len(latencies),
        "req_per_s": observed["requests"] / observed["wall"],
        "answers_per_s": observed["answers"] / observed["wall"],
        "lat_p50_us": percentile(latencies, 0.50) * 1e6,
        "lat_p99_us": percentile(latencies, 0.99) * 1e6,
        "server_cpu_us_per_req":
            (observed["master_cpu"] + observed["worker_cpu"]) * 1e6 / requests,
        "host_steal_share": observed["stolen"],
    }


class Run:
    """One workload against one freshly set-up server, start to clean stop."""

    def __init__(self, name: str, seed: int, profile: Profile, work_dir: str,
                 corrupt: bool = False) -> None:
        self.profile = profile
        self.work_dir = work_dir
        self.workload: Workload = WORKLOADS[name](profile.size, seed)
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.server: Optional[Server] = None
        self.connections: List[Connection] = []
        self.control: Optional[Connection] = None
        self.teardown = {"leaked_shm": 0, "orphan_procs": 0}
        self.setup_seconds: List[float] = []
        self.host_wait_s = 0.0

    def note(self, counts: Tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]

    def _stop_server(self) -> None:
        for key, value in self.server.stop().items():
            self.teardown[key] += value
        self.server = None

    def start(self, setup_repeats: int, warmup_s: float,
              extra_databases: Sequence[Tuple[str, str]] = (),
              extra_prepares: Optional[Dict[str, Dict]] = None) -> None:
        """Generate the input, set the server up (repeatedly), verify, warm up."""
        workload, profile = self.workload, self.profile
        self.host_wait_s = wait_for_host()
        path = os.path.join(self.work_dir, f"{workload.name}.json")
        gen.write_document(path, workload.document())
        prepares = {"main": workload.prepare_request(), **(extra_prepares or {})}
        databases = [(workload.database, path), *extra_databases]
        for _ in range(setup_repeats):
            if self.server is not None:
                self._stop_server()
            self.server = Server(SRC, self.work_dir, databases)
            self.setup_seconds.append(self.server.start(prepares))
        workload.bind(self.server.plans["main"], profile.windows + 1, profile.window_s)
        if self.corrupt:
            workload.oracle.corrupt(0)
        self.connections = [Connection(self.server.port)
                            for _ in range(workload.clients)]
        self.control = Connection(self.server.port)
        self.note(workload.verify(self.control))
        if self.failed:
            raise WrongAnswer(f"{workload.name}: {self.failed} of {self.attempted} "
                              f"verification probes disagree with the oracle")
        self.window(0, warmup_s)
        workload.reset_timings()

    def window(self, index: int, seconds: float) -> Dict[str, object]:
        """One window, then what it leaves to check; ``pss_mib`` is sampled
        in between, while the window's state is still in place."""
        observed = run_window(self.workload, self.server, self.connections,
                              index, seconds)
        observed["pss_mib"] = self.server.pss_mib()
        self.note((observed["requests"], observed["failed"]))
        self.note(self.workload.check_window(
            observed["tallies"], self.connections, self.control))
        return observed

    def write_path(self, probe: bool) -> Dict[str, float]:
        """Medians of the write-path round-trips timed since the warm-up.

        With ``probe`` a read-only workload first takes its turn on the write
        path (the traced run does; ``live_mixed`` writes in its windows).
        Empty when the workload has not written.
        """
        workload = self.workload
        if probe:
            self.note(workload.write_probe(self.connections, self.control))
        timings = workload.timings
        if not timings["write"]:
            return {}
        return {
            "write_lat_p50_ms": statistics.median(timings["write"]) * 1e3,
            "visible_lat_p50_ms": statistics.median(timings["visible"]) * 1e3,
            "compact_s": statistics.median(timings["compact"]),
            "compact_read_stall_ms": max(timings["stall"]) * 1e3,
        }

    def stop(self) -> None:
        for connection in self.connections + [self.control]:
            if connection is not None:
                connection.close()
        self.connections, self.control = [], None
        if self.server is not None:
            self._stop_server()


class WrongAnswer(Exception):
    """The server disagreed with the oracle before timing began."""


def run_end_to_end(name: str, seed: int, profile: Profile, work_dir: str,
                   corrupt: bool = False) -> Dict[str, object]:
    """``--trace 0``: verify, warm up, time the windows, report medians."""
    calib_before = calibrate()
    run = Run(name, seed, profile, work_dir, corrupt)
    try:
        run.start(profile.setup_repeats, profile.warmup_s)
        observed = [run.window(index + 1, profile.window_s)
                    for index in range(profile.windows)]
        write_path = run.write_path(probe=False)
    finally:
        run.stop()
    windows = [{**window_metrics(window), "server_pss_mb": window["pss_mib"]}
               for window in observed]
    measured = {key: statistics.median(window[key] for window in windows)
                for key in windows[0]}
    # Memory is a level, and live_mixed's climbs a step per compact whose
    # size jitters: the mean over the run repeats (2 %), any one sample,
    # the last included, does not (5-11 %).
    measured["server_pss_mb"] = statistics.fmean(
        window["server_pss_mb"] for window in windows)
    measured["setup_s"] = statistics.median(run.setup_seconds)
    measured["host_wait_s"] = run.host_wait_s
    measured.update(write_path)
    return {
        "workload": name, "seed": seed, "trace": 0,
        "attempted": run.attempted, "failed": run.failed,
        "measured": measured,
        "windows": windows,
        "write_timings": run.workload.timings,
        "hygiene": {"calib_ms": [calib_before, calibrate()], **run.teardown},
    }
