"""Connection-scaling harness: C keep-alive clients against a serve process.

The event-loop front-end's claim is that one thread multiplexes C
connections without a thread per client.  This harness measures it end to
end against *subprocess* servers (``repro serve``), so the server's own
resource story is observable from the outside:

* :class:`ServeProcess` — spawns ``repro serve`` on an ephemeral port and
  parses the bound address off its stdout banner.
* :func:`run_fleet` — C threads, each with one keep-alive
  :class:`~repro.service.client.HTTPSession`, replaying disjoint slices of a
  shared seeded workload behind a start barrier; wall-clock covers the whole
  fleet.
* :func:`sample_process` / a background monitor — ``/proc/<pid>/stat``
  CPU-seconds (utime+stime over ``SC_CLK_TCK``), ``/proc/<pid>/status``
  thread counts and ``/proc/<pid>/fd`` entry counts, sampled through the
  run, so the artifact reports master CPU-seconds per request and
  thread/FD counts beside wall-clock throughput.
* :func:`verify_http_identity` — the same workload replayed sequentially
  against every server *and* an in-process reference service; canonical
  responses (traces stripped) must match byte-for-byte before anything is
  timed.

Results serialize to ``BENCH_async_serving.json`` via
:func:`write_async_serving`, with ``connection_reuse`` recorded in the
metadata.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

_LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


# ----------------------------------------------------------------------
# Server subprocess
# ----------------------------------------------------------------------
class ServeProcess:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(
        self,
        db_path: str,
        workers: int = 0,
        extra_args: Sequence[str] = (),
        startup_timeout: float = 30.0,
    ) -> None:
        import repro

        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable, "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "serve", "--db", f"bench={db_path}", "--port", "0",
        ]
        if workers > 0:
            command += ["--workers", str(workers)]
        command += list(extra_args)
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.base_url = self._await_banner(startup_timeout)

    def _await_banner(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        lines: List[str] = []
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            lines.append(line.rstrip())
            match = _LISTEN_RE.search(line)
            if match:
                # Keep draining stdout so request logs never fill the pipe.
                threading.Thread(
                    target=self._drain_stdout, daemon=True
                ).start()
                return f"http://{match.group(1)}:{match.group(2)}"
        self.stop()
        raise RuntimeError(
            "repro serve never announced its port; output was:\n"
            + "\n".join(lines[-20:])
        )

    def _drain_stdout(self) -> None:
        try:
            for _line in self.process.stdout:
                pass
        except (ValueError, OSError):
            pass

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self, timeout: float = 15.0) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# /proc sampling
# ----------------------------------------------------------------------
def sample_process(pid: int) -> Optional[Dict[str, float]]:
    """One ``/proc`` snapshot: ``cpu_seconds``, ``threads``, ``fds``.

    Returns ``None`` where ``/proc`` is unavailable (non-Linux) or the
    process exited mid-sample — callers treat that as "no resource story".
    """
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            # The comm field may contain spaces; fields resume after ") ".
            fields = handle.read().rsplit(") ", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            status = handle.read()
        match = re.search(r"^Threads:\s+(\d+)", status, re.MULTILINE)
        threads = int(match.group(1)) if match else 0
        fds = len(os.listdir(f"/proc/{pid}/fd"))
    except (OSError, IndexError, ValueError):
        return None
    return {
        "cpu_seconds": (utime + stime) / float(_CLK_TCK),
        "threads": float(threads),
        "fds": float(fds),
    }


class _ProcMonitor:
    """Samples a pid in the background; keeps the peak thread/FD counts."""

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid = pid
        self.interval = interval
        self.threads_peak = 0
        self.fds_peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            sample = sample_process(self.pid)
            if sample is not None:
                self.threads_peak = max(self.threads_peak, int(sample["threads"]))
                self.fds_peak = max(self.fds_peak, int(sample["fds"]))
            self._stop.wait(self.interval)

    def __enter__(self) -> "_ProcMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


# ----------------------------------------------------------------------
# Client fleet
# ----------------------------------------------------------------------
@dataclass
class ConnScaleResult:
    """One timed cell: a server at one concurrency level."""

    label: str
    concurrency: int
    requests: int
    seconds: float
    errors: int = 0
    master_cpu_seconds: Optional[float] = None
    threads_peak: Optional[int] = None
    fds_peak: Optional[int] = None

    @property
    def throughput(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else float("inf")

    @property
    def cpu_us_per_request(self) -> Optional[float]:
        if self.master_cpu_seconds is None or not self.requests:
            return None
        return self.master_cpu_seconds * 1e6 / self.requests

    def to_dict(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "label": self.label,
            "concurrency": self.concurrency,
            "requests": self.requests,
            "seconds": round(self.seconds, 6),
            "throughput_rps": round(self.throughput, 1),
            "errors": self.errors,
        }
        if self.master_cpu_seconds is not None:
            entry["master_cpu_seconds"] = round(self.master_cpu_seconds, 4)
            entry["cpu_us_per_request"] = round(self.cpu_us_per_request, 2)
        if self.threads_peak is not None:
            entry["threads_peak"] = self.threads_peak
        if self.fds_peak is not None:
            entry["fds_peak"] = self.fds_peak
        return entry


def run_fleet(
    base_url: str,
    payloads: Sequence[Mapping],
    concurrency: int,
    pid: Optional[int] = None,
    label: str = "",
) -> ConnScaleResult:
    """Replay ``payloads`` from ``concurrency`` keep-alive clients.

    Request *i* goes to client ``i % concurrency``, so every client holds
    one connection for its whole slice and the server sees exactly
    ``concurrency`` concurrent keep-alive connections.  A barrier aligns
    the start; wall-clock covers first-send to last-response.
    """
    from repro.service.client import HTTPSession

    slices = [list(payloads[i::concurrency]) for i in range(concurrency)]
    barrier = threading.Barrier(concurrency + 1)
    errors = [0] * concurrency

    def drive(slot: int) -> None:
        with HTTPSession(base_url) as session:
            barrier.wait()
            for payload in slices[slot]:
                try:
                    status, document = session.post_json("/v1/query", dict(payload))
                except OSError:
                    errors[slot] += 1
                    continue
                if status != 200 or not document.get("ok", False):
                    errors[slot] += 1

    threads = [
        threading.Thread(target=drive, args=(slot,), daemon=True)
        for slot in range(concurrency)
    ]
    for thread in threads:
        thread.start()

    before = sample_process(pid) if pid is not None else None
    monitor = _ProcMonitor(pid) if pid is not None else None
    if monitor is not None:
        monitor.__enter__()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if monitor is not None:
        monitor.__exit__()
    after = sample_process(pid) if pid is not None else None

    cpu = None
    if before is not None and after is not None:
        cpu = max(0.0, after["cpu_seconds"] - before["cpu_seconds"])
    return ConnScaleResult(
        label=label or f"C={concurrency}",
        concurrency=concurrency,
        requests=len(payloads),
        seconds=elapsed,
        errors=sum(errors),
        master_cpu_seconds=cpu,
        threads_peak=monitor.threads_peak if monitor is not None else None,
        fds_peak=monitor.fds_peak if monitor is not None else None,
    )


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
def _canonical(document) -> str:
    if isinstance(document, dict):
        document = {k: v for k, v in document.items() if k != "trace"}
    return json.dumps(document, sort_keys=True)


def replay_canonical(base_url: str, payloads: Sequence[Mapping]) -> List[str]:
    """Sequential replay over one keep-alive session, canonical responses."""
    from repro.service.client import HTTPSession

    answers: List[str] = []
    with HTTPSession(base_url) as session:
        for payload in payloads:
            _status, document = session.post_json("/v1/query", dict(payload))
            answers.append(_canonical(document))
    return answers


def verify_http_identity(
    servers: Mapping[str, str],
    payloads: Sequence[Mapping],
    reference_service=None,
) -> Dict[str, object]:
    """Every server (and optionally an in-process service) must agree.

    ``servers`` maps label -> base URL.  Returns ``{"checked", "servers",
    "mismatches": [...]}``; an empty mismatch list is the precondition for
    timing anything.
    """
    columns: Dict[str, List[str]] = {}
    if reference_service is not None:
        columns["in-process"] = [
            _canonical(reference_service.execute(dict(payload)))
            for payload in payloads
        ]
    for label, base_url in servers.items():
        columns[label] = replay_canonical(base_url, payloads)

    labels = list(columns)
    baseline_label = labels[0]
    baseline = columns[baseline_label]
    mismatches: List[Dict[str, object]] = []
    for label in labels[1:]:
        for index, (want, got) in enumerate(zip(baseline, columns[label])):
            if want != got:
                mismatches.append({
                    "index": index,
                    "request": dict(payloads[index]),
                    baseline_label: want,
                    label: got,
                })
                if len(mismatches) >= 5:
                    break
    return {
        "checked": len(payloads),
        "servers": labels,
        "mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# Artifact
# ----------------------------------------------------------------------
def write_async_serving(
    path: str,
    identity: Mapping[str, object],
    results: Sequence[ConnScaleResult],
    metadata: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Serialize the identity check and the connection-scaling runs."""
    runs = [result.to_dict() for result in results]
    metadata = dict(metadata or {})
    metadata.setdefault("connection_reuse", "keep-alive")
    document: Dict[str, object] = {
        "artifact": "async_serving",
        "metadata": metadata,
        "identity": dict(identity),
        "runs": runs,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document
