"""A prefork worker pool serving access ops from attached shm snapshots.

Architecture (master-dispatch over per-worker pipes):

* The master process keeps the full :class:`~repro.service.QueryService` and
  the HTTP listener.  ``start()`` forks N worker processes, each holding two
  channels to the master and *no* service state: a duplex **control pipe**
  (attach/detach/ping/metrics/stats/shutdown, always request→reply under the
  master's per-worker lock) and a **serve socket** (a ``socketpair`` carrying
  length-prefixed request/response frames, see
  :mod:`repro.service.dispatch`).  The frame protocol is what lets the
  event-loop front-end register worker sockets in its selector and read
  replies incrementally without blocking; the threaded front-end drives the
  same frames synchronously.
* When a LEX plan with a published shared-memory image is prepared, the
  master **exports** it: every worker attaches the ``(fingerprint, epoch)``
  block by name — an O(1) map (:meth:`InstanceSnapshot.attach`), no pickling,
  no rebuild — and acks.  The export registry records which workers serve
  which epoch.
* Routable requests (see :mod:`repro.service.dispatch`) are sent to the
  worker picked by fingerprint + leading-rank shard affinity; the worker
  executes against its :class:`~repro.core.snapshot.SnapshotInstance` and
  returns the **pre-encoded JSON response bytes**, so answer serialization
  runs on a worker core instead of the master's interpreter.
* **Cross-process epoch barrier**: when a live compaction publishes a new
  epoch, :meth:`epoch_swap` freezes the export (requests fall back to the
  master's merged-delta view, so answers stay bit-identical mid-swap),
  re-attaches every live worker to the new block, and only then retires the
  old epoch through the publisher — extending the in-process refcounting of
  PR 6 across process boundaries.  A worker that died mid-barrier is simply
  dropped from the ready set; re-attachment happens on respawn.
* **Health**: a dead worker (crash, ``kill -9``) is detected either by a
  failed pipe roundtrip or by :meth:`check_health` (wired to ``/healthz``),
  and respawned automatically; its requests fall back inline meanwhile.
  Respawned workers re-attach every current export before serving.

Each worker keeps its own :class:`~repro.obs.metrics.MetricsRegistry`
(``repro_pool_worker_*`` families, worker id as a label); the master scrapes
them over the pipes and aggregates at ``GET /metrics``.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import socket
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import POOL_DISPATCHES, POOL_WORKERS, WORKER_RESTARTS

_WORKER_FAMILY_PREFIX = "repro_pool_worker"


# ----------------------------------------------------------------------
# Worker process main loop
# ----------------------------------------------------------------------
class _PageReader:
    """A worker's reader over its attached image: ``read_op``'s view of a
    :class:`~repro.core.snapshot.SnapshotInstance` whose batched reads stay
    columnar (:class:`~repro.core.snapshot.AnswerPage`) up to the encoder."""

    __slots__ = ("access", "inverted_access", "batch_access", "range_access", "count")

    def __init__(self, instance) -> None:
        self.access = instance.access
        self.inverted_access = instance.inverted_access
        self.batch_access = instance.page
        self.range_access = instance.range_page
        self.count = instance.count


class _Attachment:
    __slots__ = ("epoch", "snapshot", "reader", "seconds")

    def __init__(self, epoch, snapshot, reader, seconds):
        self.epoch = epoch
        self.snapshot = snapshot
        self.reader = reader
        self.seconds = seconds


def _worker_main(worker_id: int, conn, serve_sock, obs_enabled: bool) -> None:
    """The worker loop: attach/serve/report until shutdown or EOF.

    Runs in a separate process.  All state lives here: the attachments map
    (fingerprint → attached image + serving facade) and a private metrics
    registry whose families carry the worker id as a label.  The loop
    multiplexes the control pipe and the serve socket with
    :func:`multiprocessing.connection.wait`, so a burst of serve frames
    cannot starve an attach (and vice versa).
    """
    import os

    from multiprocessing.connection import wait as _channel_wait

    from repro.core import snapshot as snapshot_module
    from repro.obs import TRACER
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import DEFAULT_HZ, PROFILER, maybe_start_from_env
    from repro.service.dispatch import (
        FRAME_MISS,
        REQUEST_HEADER,
        RESPONSE_HEADER,
        SPAN_DROPPED,
        encode_response,
        execute_read,
        recv_exact,
        span_limit_from_env,
    )
    from repro.service.protocol import TRACE_KEY

    # A forked worker inherits the master's owned-name set, but owns nothing:
    # drop the stale ownership.  Names this worker attaches are re-added below
    # *before* each attach — the fork-started worker shares the master's
    # resource tracker (pool.start() ensures it runs pre-fork), so the worker
    # must NOT unregister a name there: the master's publish registered it
    # exactly once and the master's unlink consumes that registration.
    snapshot_module._OWNED_NAMES.clear()

    # The fork-inherited global tracer carries the master's retained traces
    # and enablement; reset it so the worker's ring holds only its own spans
    # (the shipped subtrees are built fresh per frame, never from the ring).
    TRACER.reset()
    if obs_enabled:
        TRACER.enable()
    else:
        TRACER.disable()
    # The master's sampler thread (if any) did not survive the fork; honor
    # continuous profiling in this process too when the env asks for it.
    maybe_start_from_env()

    wid = str(worker_id)
    pid = os.getpid()
    span_limit = span_limit_from_env()
    profile_window = False  # did a master-driven window start our profiler?
    registry = MetricsRegistry(enabled=obs_enabled)
    requests_total = registry.counter(
        "repro_pool_worker_requests_total",
        "Requests served by pool workers, by op and outcome.",
        ("worker", "op", "status"),
    )
    request_seconds = registry.histogram(
        "repro_pool_worker_request_seconds",
        "In-worker serve latency by op (excludes pipe transit).",
        ("worker", "op"),
    )
    answers_total = registry.counter(
        "repro_pool_worker_answers_total",
        "Answers produced by pool workers' batched/range reads.",
        ("worker", "op"),
    )
    pages_total = registry.counter(
        "repro_pool_worker_pages_total",
        "Answer pages encoded by pool workers, by encoder: spliced from "
        "pre-rendered value fragments, or the json.dumps fallback.",
        ("worker", "encoder"),
    )
    attached_plans = registry.gauge(
        "repro_pool_worker_attached_plans",
        "Snapshot images currently attached in each pool worker.",
        ("worker",),
    )

    attachments: Dict[str, _Attachment] = {}

    def _close(entry: _Attachment) -> None:
        try:
            entry.snapshot.close()
        except Exception:
            pass

    def _serve_frame() -> bool:
        """Answer one length-prefixed request frame; False on master EOF."""
        header = recv_exact(serve_sock, REQUEST_HEADER.size)
        if header is None:
            return False
        seq, length = REQUEST_HEADER.unpack(header)
        payload = recv_exact(serve_sock, length) if length else b""
        if payload is None:
            return False
        try:
            request = json.loads(payload)
        except ValueError:
            serve_sock.sendall(RESPONSE_HEADER.pack(seq, 0, FRAME_MISS, 0))
            return True
        trace_ctx = request.pop(TRACE_KEY, None) if isinstance(request, dict) else None
        fingerprint = request.get("plan") if isinstance(request, Mapping) else None
        entry = attachments.get(fingerprint)
        if entry is None:
            serve_sock.sendall(RESPONSE_HEADER.pack(seq, 0, FRAME_MISS, 0))
            return True
        op = request.get("op")
        started = time.perf_counter()
        span_len = 0
        span_payload = b""
        if trace_ctx is not None and TRACER.enabled:
            # The worker's own span subtree: timed here, shipped back after
            # the body, grafted into the master's trace.  The subtree is
            # built per frame (not retained in the worker's ring), so churn
            # and respawns cannot leak spans across requests.
            with TRACER.span("worker:serve", worker=wid, pid=pid, op=op) as root:
                with TRACER.span("worker:execute"):
                    response = execute_read(entry.reader, fingerprint, request)
                with TRACER.span("worker:encode"):
                    status, body = encode_response(response)
            try:
                span_payload = json.dumps(
                    root.to_dict(), separators=(",", ":")
                ).encode("utf-8")
            except (TypeError, ValueError):  # pragma: no cover - defensive
                span_payload = b""
            if len(span_payload) > span_limit:
                span_payload = b""
                span_len = SPAN_DROPPED
            else:
                span_len = len(span_payload)
        else:
            response = execute_read(entry.reader, fingerprint, request)
            status, body = encode_response(response)
        seconds = time.perf_counter() - started
        # One vectored write per response: the pre-encoded body bytes go to
        # the socket as-is and travel unmodified to the client socket; span
        # bytes trail the body so they never touch the client-bound payload.
        frame = RESPONSE_HEADER.pack(seq, len(body), status, span_len)
        parts = [frame, memoryview(body)]
        if span_payload:
            parts.append(span_payload)
        sent = serve_sock.sendmsg(parts)
        total = len(frame) + len(body) + len(span_payload)
        if sent < total:  # kernel buffer full: finish the frame blocking
            view = memoryview(frame + body + span_payload)
            while sent < total:
                sent += serve_sock.send(view[sent:])
        op_label = op if isinstance(op, str) else "invalid"
        outcome = "ok" if status == 200 else str(status)
        requests_total.inc((wid, op_label, outcome))
        request_seconds.observe(seconds, (wid, op_label))
        page = response.get("answers")
        if page is not None:
            answers_total.inc((wid, op_label), len(page))
            pages_total.inc((wid, page.encoder))
        return True

    running = True
    while running:
        try:
            channels = _channel_wait([conn, serve_sock])
        except OSError:
            break
        if serve_sock in channels:
            try:
                if not _serve_frame():
                    break
            except (BrokenPipeError, OSError):
                break
        if conn not in channels:
            continue
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        try:
            if kind == "attach":
                fingerprint, epoch, name = message[1], message[2], message[3]
                try:
                    started = time.perf_counter()
                    snapshot_module._OWNED_NAMES.add(name)
                    snapshot = snapshot_module.InstanceSnapshot.attach(name)
                    reader = _PageReader(snapshot_module.SnapshotInstance(snapshot))
                    seconds = time.perf_counter() - started
                except Exception as exc:
                    conn.send(("attach_failed", fingerprint, epoch,
                               f"{type(exc).__name__}: {exc}"))
                    continue
                old = attachments.get(fingerprint)
                attachments[fingerprint] = _Attachment(epoch, snapshot, reader, seconds)
                if old is not None:
                    _close(old)
                attached_plans.set(len(attachments), (wid,))
                conn.send(("attached", fingerprint, epoch, {
                    "carrier": snapshot.carrier,
                    "seconds": round(seconds, 6),
                    "count": snapshot.count,
                }))
            elif kind == "detach":
                fingerprint = message[1]
                old = attachments.pop(fingerprint, None)
                if old is not None:
                    _close(old)
                attached_plans.set(len(attachments), (wid,))
                conn.send(("detached", fingerprint))
            elif kind == "ping":
                conn.send(("pong", worker_id, len(attachments)))
            elif kind == "metrics":
                conn.send(("metrics", registry.snapshot()))
            elif kind == "stats":
                conn.send(("stats", {
                    fingerprint: {
                        "worker": worker_id,
                        "epoch": entry.epoch,
                        "carrier": entry.snapshot.carrier,
                        "seconds": round(entry.seconds, 6),
                        "count": entry.snapshot.count,
                    }
                    for fingerprint, entry in attachments.items()
                }))
            elif kind == "profile":
                snapshot = PROFILER.snapshot()
                snapshot["worker"] = worker_id
                conn.send(("profile", snapshot))
            elif kind == "profile_start":
                hz = message[1] if len(message) > 1 and message[1] else DEFAULT_HZ
                if not PROFILER.running:
                    # A bounded window wants a fresh corpus; continuous
                    # profiling (env-started) keeps accumulating untouched.
                    PROFILER.reset()
                    profile_window = PROFILER.start(hz)
                conn.send(("profiling", worker_id, profile_window))
            elif kind == "profile_stop":
                if profile_window:
                    PROFILER.stop()
                    profile_window = False
                conn.send(("profiling", worker_id, False))
            elif kind == "shutdown":
                conn.send(("bye", worker_id))
                break
            else:
                conn.send(("error", f"unknown message kind {kind!r}"))
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # defensive: a bug must not kill the loop
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    for entry in attachments.values():
        _close(entry)
    for channel in (conn, serve_sock):
        try:
            channel.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Master-side pool
# ----------------------------------------------------------------------
class _Worker:
    """Master-side handle of one worker slot (survives respawns)."""

    __slots__ = ("index", "process", "conn", "serve_sock", "lock",
                 "serve_lock", "seq", "alive", "restarts")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None         # control pipe (locked request→reply)
        self.serve_sock = None   # frame socket (threaded or event-loop serve)
        self.lock = threading.Lock()
        self.serve_lock = threading.Lock()
        #: frame correlation ids; shared by the threaded and event-loop
        #: serve paths (``next()`` is atomic under the GIL), unique per
        #: in-flight frame on this worker's socket.
        self.seq = itertools.count(1)
        self.alive = False
        self.restarts = 0


class _Export:
    """One plan's published state as the workers see it."""

    __slots__ = ("fingerprint", "epoch", "name", "offsets", "ready")

    def __init__(self, fingerprint: str, epoch: int, name: str,
                 offsets: Optional[Tuple[int, ...]]) -> None:
        self.fingerprint = fingerprint
        self.epoch = epoch
        self.name = name
        self.offsets = offsets
        self.ready: set = set()  # worker indexes attached at self.epoch


def pool_supported() -> bool:
    """Whether this interpreter can run the pool (NumPy + POSIX shm)."""
    try:
        from multiprocessing import shared_memory  # noqa: F401

        from repro.engine.backends import HAS_NUMPY
    except ImportError:  # pragma: no cover - exotic platforms
        return False
    return HAS_NUMPY


class WorkerPool:
    """N forked workers serving access ops from attached snapshot images."""

    def __init__(
        self,
        workers: int = 2,
        *,
        request_timeout: float = 30.0,
        control_timeout: float = 10.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"pool needs at least one worker, got {workers}")
        self.request_timeout = request_timeout
        self.control_timeout = control_timeout
        self._workers = [_Worker(index) for index in range(workers)]
        self._exports: Dict[str, _Export] = {}
        # Publisher (query-plan) fingerprint → export (spec) fingerprint.
        # Shared-memory names are derived from the publisher's fingerprint,
        # while requests (and therefore exports) are keyed by the spec
        # fingerprint; epoch swaps arrive with only the publisher side.
        self._routes: Dict[str, str] = {}
        self._lock = threading.Lock()          # exports + lifecycle state
        self._respawn_lock = threading.Lock()  # one respawn at a time
        self._running = False
        self._closing = False
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()
        self._dispatched = 0
        self._inline_fallbacks = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running and not self._closing

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def start(self) -> bool:
        """Fork the workers; returns False when the platform cannot pool."""
        if self._running:
            return True
        if not pool_supported():
            return False
        try:
            # Start the resource tracker BEFORE forking so every worker
            # shares the master's tracker (a late-started per-child tracker
            # would unlink the master's live blocks when that child exits).
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals shifted
            pass
        for worker in self._workers:
            self._spawn(worker)
        self._running = True
        POOL_WORKERS.set(len(self.alive_workers()))
        return True

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        parent_sock, child_sock = socket.socketpair()
        from repro.obs import obs_enabled

        process = self._ctx.Process(
            target=_worker_main,
            args=(worker.index, child_conn, child_sock, obs_enabled()),
            name=f"repro-worker-{worker.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        child_sock.close()
        worker.process = process
        worker.conn = parent_conn
        worker.serve_sock = parent_sock
        worker.seq = itertools.count(1)
        worker.alive = True

    def close(self) -> None:
        """Graceful shutdown: ask each worker to exit, then reap."""
        self._closing = True
        for worker in self._workers:
            if not worker.alive or worker.conn is None:
                continue
            with worker.lock:
                try:
                    worker.conn.send(("shutdown",))
                    worker.conn.poll(1.0)
                except (OSError, BrokenPipeError, EOFError):
                    pass
        for worker in self._workers:
            process = worker.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
            worker.alive = False
            for channel in (worker.conn, worker.serve_sock):
                if channel is not None:
                    try:
                        channel.close()
                    except OSError:
                        pass
        self._running = False
        POOL_WORKERS.set(0)

    def alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers if w.alive]

    # ------------------------------------------------------------------
    # Worker communication
    # ------------------------------------------------------------------
    def _roundtrip(self, worker: _Worker, message: tuple,
                   timeout: Optional[float] = None):
        """One locked send/recv against a worker; None marks the worker dead."""
        if not worker.alive or worker.conn is None:
            return None
        timeout = self.control_timeout if timeout is None else timeout
        with worker.lock:
            if not worker.alive:
                return None
            try:
                worker.conn.send(message)
                if not worker.conn.poll(timeout):
                    raise TimeoutError(f"worker {worker.index} unresponsive")
                return worker.conn.recv()
            except (OSError, BrokenPipeError, EOFError, TimeoutError):
                self._mark_dead(worker)
                return None

    def _mark_dead(self, worker: _Worker) -> None:
        """Called with worker.lock held (or during single-threaded teardown)."""
        if not worker.alive:
            return
        worker.alive = False
        with self._lock:
            for export in self._exports.values():
                export.ready.discard(worker.index)
        POOL_WORKERS.set(len(self.alive_workers()))
        if not self._closing:
            thread = threading.Thread(
                target=self._respawn, args=(worker,),
                name=f"repro-respawn-{worker.index}", daemon=True,
            )
            thread.start()

    def _respawn(self, worker: _Worker) -> None:
        with self._respawn_lock:
            if worker.alive or self._closing:
                return
            process = worker.process
            if process is not None:
                try:
                    process.join(timeout=0.5)
                except (OSError, ValueError):
                    pass
            for channel in (worker.conn, worker.serve_sock):
                if channel is not None:
                    try:
                        channel.close()
                    except OSError:
                        pass
            with worker.lock:
                self._spawn(worker)
            worker.restarts += 1
            WORKER_RESTARTS.inc((str(worker.index),))
            POOL_WORKERS.set(len(self.alive_workers()))
            # Re-attach every current export so the fresh worker can serve.
            with self._lock:
                exports = list(self._exports.values())
            for export in exports:
                reply = self._roundtrip(
                    worker, ("attach", export.fingerprint, export.epoch, export.name)
                )
                if reply is not None and reply[0] == "attached":
                    with self._lock:
                        current = self._exports.get(export.fingerprint)
                        if current is not None and current.epoch == reply[2]:
                            current.ready.add(worker.index)

    def check_health(self) -> Dict[str, object]:
        """Detect externally-killed workers and respawn them (``/healthz``)."""
        for worker in self._workers:
            process = worker.process
            if worker.alive and process is not None and not process.is_alive():
                with worker.lock:
                    self._mark_dead(worker)
        # Respawns run on daemon threads; give a just-detected death a
        # moment so a monitoring probe right after `kill -9` sees recovery.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if all(w.alive for w in self._workers) or self._closing:
                break
            time.sleep(0.05)
        alive = len(self.alive_workers())
        POOL_WORKERS.set(alive)
        return {
            "workers": len(self._workers),
            "alive": alive,
            "restarts": sum(w.restarts for w in self._workers),
        }

    def readiness(self) -> Dict[str, object]:
        """Per-worker readiness for ``/readyz``: structured, cheap, no I/O.

        Ready means: the pool is running and not draining, every worker slot
        is alive, and every export's ready set covers every live worker —
        i.e. each worker is attached at the current epoch of every published
        plan (a mid-swap frozen export or a still-respawning worker reports
        not-ready rather than silently serving inline).
        """
        with self._lock:
            draining = self._closing
            exports = {
                fingerprint: {
                    "epoch": export.epoch,
                    "ready_workers": sorted(export.ready),
                }
                for fingerprint, export in self._exports.items()
            }
        workers = [
            {
                "worker": worker.index,
                "pid": worker.process.pid if worker.process is not None else None,
                "alive": worker.alive,
                "restarts": worker.restarts,
            }
            for worker in self._workers
        ]
        alive_set = {w.index for w in self._workers if w.alive}
        all_alive = len(alive_set) == len(self._workers)
        attached = all(
            alive_set <= set(info["ready_workers"]) for info in exports.values()
        )
        ready = bool(self._running and not draining and all_alive and attached)
        return {
            "ready": ready,
            "draining": draining,
            "workers": workers,
            "exports": exports,
        }

    def scrape_profiles(self) -> List[Dict[str, object]]:
        """Each live worker's profiler snapshot (folded stacks + counts)."""
        documents: List[Dict[str, object]] = []
        for worker in self.alive_workers():
            reply = self._roundtrip(worker, ("profile",))
            if reply is not None and reply[0] == "profile" and isinstance(reply[1], dict):
                documents.append(reply[1])
        return documents

    def profile_control(self, action: str, hz: Optional[float] = None) -> None:
        """Broadcast a bounded profiling window start/stop to every worker."""
        message = ("profile_start", hz) if action == "start" else ("profile_stop",)
        for worker in self.alive_workers():
            self._roundtrip(worker, message)

    # ------------------------------------------------------------------
    # Exports and the epoch barrier
    # ------------------------------------------------------------------
    @staticmethod
    def _offsets_of(engine) -> Optional[Tuple[int, ...]]:
        instance = getattr(getattr(engine, "_snapshot", None), "base", None)
        instance = getattr(instance, "_instance", None)
        if instance is None or not getattr(instance, "is_sharded", False):
            return None
        offsets = [0]
        for shard in instance.shards:
            offsets.append(offsets[-1] + shard.count)
        return tuple(offsets)

    def ensure_export(self, plan) -> None:
        """Export a prepared plan's published image to every worker (idempotent).

        Cheap on the hot path: an epoch-match early-out under one lock.
        """
        if not self.running:
            return
        engine = plan.engine
        publisher = getattr(engine, "_publisher", None)
        if publisher is None:
            return
        fingerprint = plan.fingerprint
        epoch = engine.base_epoch
        with self._lock:
            export = self._exports.get(fingerprint)
            if export is not None and export.epoch == epoch:
                return
            self._routes[publisher.fingerprint] = fingerprint
        if epoch not in publisher.epochs:
            return
        from repro.core.snapshot import shm_name

        self._bind(fingerprint, epoch, shm_name(publisher.fingerprint, epoch),
                   self._offsets_of(engine))

    def _bind(self, fingerprint: str, epoch: int, name: str,
              offsets: Optional[Tuple[int, ...]]) -> None:
        export = _Export(fingerprint, epoch, name, offsets)
        with self._lock:
            self._exports[fingerprint] = export
        for worker in self.alive_workers():
            reply = self._roundtrip(worker, ("attach", fingerprint, epoch, name))
            if reply is not None and reply[0] == "attached":
                with self._lock:
                    if self._exports.get(fingerprint) is export:
                        export.ready.add(worker.index)

    def epoch_swap(self, instance, new_epoch: int, old_epoch: int) -> None:
        """The cross-process barrier behind a live compaction's epoch swap.

        Called by the service's publish listener *after* the new epoch's
        buffers are published and *before* the old epoch is retired.  The
        export is frozen first (its ready set empties, so requests fall back
        to the master's merged view — bit-identical mid-swap), every live
        worker re-attaches, and only then does the publisher drop the old
        block.  Workers that die mid-barrier are skipped: they re-attach the
        current epoch on respawn.
        """
        publisher = getattr(instance, "_publisher", None)
        try:
            if publisher is None:
                return
            with self._lock:
                fingerprint = self._routes.get(publisher.fingerprint)
                export = self._exports.get(fingerprint) if fingerprint else None
                if export is not None:
                    export.ready.clear()  # freeze: route inline until re-acked
            if fingerprint is None:
                return
            if new_epoch not in publisher.epochs:
                # Capture failed for the new base (empty result, no NumPy…):
                # there is nothing the workers could serve — drop the export.
                if export is not None:
                    self.detach(fingerprint)
                return
            from repro.core.snapshot import shm_name

            self._bind(fingerprint, new_epoch,
                       shm_name(publisher.fingerprint, new_epoch),
                       self._offsets_of(instance))
        finally:
            if publisher is not None and old_epoch != new_epoch:
                publisher.retire(old_epoch)

    def detach(self, fingerprint: str) -> None:
        """Drop an export (plan evicted/invalidated); workers release the image."""
        with self._lock:
            export = self._exports.pop(fingerprint, None)
            for source, target in list(self._routes.items()):
                if target == fingerprint:
                    del self._routes[source]
        if export is None:
            return
        for worker in self.alive_workers():
            self._roundtrip(worker, ("detach", fingerprint))

    def export_epoch(self, fingerprint: str) -> Optional[int]:
        with self._lock:
            export = self._exports.get(fingerprint)
            return export.epoch if export is not None else None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def export_current(self, fingerprint: str, epoch: int) -> bool:
        """Whether an export is live at ``epoch`` with at least one ready worker.

        The event loop's zero-I/O routability check: when this is False the
        request is served inline and the (blocking) :meth:`ensure_export`
        catch-up runs on the loop's executor instead.
        """
        with self._lock:
            export = self._exports.get(fingerprint)
            return (export is not None and export.epoch == epoch
                    and bool(export.ready))

    def route(self, fingerprint: str, request: Mapping,
              expected_epoch: Optional[int] = None) -> Optional[_Worker]:
        """The worker a routable request should go to — no I/O, or ``None``.

        Deterministic fingerprint+shard affinity, exactly the pick
        :meth:`dispatch` makes; split out so the event loop can decide
        routability on the loop thread and do the frame I/O itself.
        """
        from repro.service.dispatch import pick_worker

        with self._lock:
            export = self._exports.get(fingerprint)
            if export is None or not export.ready:
                return None
            if expected_epoch is not None and export.epoch != expected_epoch:
                return None
            ready = export.ready.copy()
            offsets = export.offsets
        index = pick_worker(fingerprint, request, offsets, len(self._workers))
        if index not in ready:
            candidates = sorted(ready)
            if not candidates:
                return None
            index = candidates[index % len(candidates)]
        worker = self._workers[index]
        if not worker.alive or worker.serve_sock is None:
            return None
        return worker

    def note_dispatched(self, worker_index: int, outcome: str) -> None:
        """Record a routing outcome (shared by both serve paths)."""
        POOL_DISPATCHES.inc((str(worker_index), outcome))
        with self._lock:
            if outcome == "routed":
                self._dispatched += 1
            else:
                self._inline_fallbacks += 1

    def _serve_roundtrip(self, worker: _Worker, request: Mapping,
                         trace_id: Optional[str] = None) -> Optional[Tuple]:
        """One blocking frame exchange on the serve socket (threaded path).

        Returns ``(status, body bytes, shipped Span | None)``; the span slot
        carries the worker's stitched-in subtree when the request traveled
        with trace context and the worker shipped one back.
        """
        from repro.service.dispatch import (
            FRAME_MISS, RESPONSE_HEADER, SPAN_DROPPED, decode_shipped_spans,
            pack_request_frame, recv_exact,
        )

        sock = worker.serve_sock
        if sock is None or not worker.alive:
            return None
        with worker.serve_lock:
            if not worker.alive or worker.serve_sock is not sock:
                return None
            seq = next(worker.seq) & 0xFFFFFFFF
            try:
                sock.settimeout(self.request_timeout)
                sock.sendall(pack_request_frame(seq, request, trace_id))
                while True:
                    header = recv_exact(sock, RESPONSE_HEADER.size)
                    if header is None:
                        raise OSError("worker serve socket closed")
                    rseq, length, status, span_len = RESPONSE_HEADER.unpack(header)
                    body = recv_exact(sock, length) if length else b""
                    if length and body is None:
                        raise OSError("worker serve socket closed mid-frame")
                    span_bytes = b""
                    if span_len and span_len != SPAN_DROPPED:
                        span_bytes = recv_exact(sock, span_len)
                        if span_bytes is None:
                            raise OSError("worker serve socket closed mid-frame")
                    if rseq == seq:
                        if status == FRAME_MISS:
                            return None
                        return status, body, decode_shipped_spans(span_len, span_bytes)
                    # A stale reply from an earlier timed-out exchange: drop
                    # it and keep reading for ours.
            except (OSError, ValueError):
                with worker.lock:
                    self._mark_dead(worker)
                return None

    def dispatch(self, fingerprint: str, request: Mapping,
                 expected_epoch: Optional[int] = None,
                 trace_id: Optional[str] = None) -> Optional[Tuple]:
        """Route one request; ``(status, body bytes, Span | None)`` or ``None``
        for inline fallback."""
        worker = self.route(fingerprint, request, expected_epoch)
        if worker is None:
            return None
        alive_before = worker.alive
        result = self._serve_roundtrip(worker, request, trace_id)
        if result is not None:
            self.note_dispatched(worker.index, "routed")
            return result
        self.note_dispatched(
            worker.index, "miss" if worker.alive and alive_before else "failed"
        )
        return None

    # ------------------------------------------------------------------
    # Introspection (metrics + stats aggregation)
    # ------------------------------------------------------------------
    def scrape_metrics(self) -> Dict[str, Dict]:
        """Each live worker's registry snapshot, keyed by worker id."""
        snapshots: Dict[str, Dict] = {}
        for worker in self.alive_workers():
            reply = self._roundtrip(worker, ("metrics",))
            if reply is not None and reply[0] == "metrics":
                snapshots[str(worker.index)] = reply[1]
        return snapshots

    def render_worker_metrics(self) -> str:
        """Worker registries as Prometheus text (appended to the master's)."""
        from repro.obs.metrics import render_snapshot_prometheus

        merged = _merge_worker_snapshots(self.scrape_metrics())
        return render_snapshot_prometheus(merged) if merged else ""

    def attachments(self) -> Dict[str, List[Dict[str, object]]]:
        """Per-plan attach info across workers: carrier, seconds, epoch."""
        by_plan: Dict[str, List[Dict[str, object]]] = {}
        for worker in self.alive_workers():
            reply = self._roundtrip(worker, ("stats",))
            if reply is None or reply[0] != "stats":
                continue
            for fingerprint, info in reply[1].items():
                by_plan.setdefault(fingerprint, []).append(info)
        for infos in by_plan.values():
            infos.sort(key=lambda info: info.get("worker", 0))
        return by_plan

    def stats(self) -> Dict[str, object]:
        with self._lock:
            exports = {
                fingerprint: {
                    "epoch": export.epoch,
                    "shm_name": export.name,
                    "ready_workers": sorted(export.ready),
                }
                for fingerprint, export in self._exports.items()
            }
            dispatched = self._dispatched
            fallbacks = self._inline_fallbacks
        return {
            "workers": [
                {
                    "worker": worker.index,
                    "pid": worker.process.pid if worker.process is not None else None,
                    "alive": worker.alive,
                    "restarts": worker.restarts,
                }
                for worker in self._workers
            ],
            "exports": exports,
            "dispatched": dispatched,
            "inline_fallbacks": fallbacks,
        }


def _merge_worker_snapshots(snapshots: Mapping[str, Mapping]) -> Dict[str, Dict]:
    """Merge per-worker registry snapshots into one multi-family document.

    Worker label sets are disjoint (each worker labels its own series with
    its id), so merging is pure concatenation of each family's value lists.
    """
    merged: Dict[str, Dict] = {}
    for snapshot in snapshots.values():
        for name, family in snapshot.items():
            if not name.startswith(_WORKER_FAMILY_PREFIX):
                continue
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "type": family.get("type"),
                    "help": family.get("help"),
                    "labels": list(family.get("labels", ())),
                    "values": list(family.get("values", ())),
                }
            else:
                target["values"] = list(target["values"]) + list(family.get("values", ()))
    return merged
