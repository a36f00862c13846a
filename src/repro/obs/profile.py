"""Continuous sampling profiler + build-memory attribution (stdlib only).

Two capabilities live here, both designed around the same contract as the
rest of :mod:`repro.obs`: near-zero cost when off, no third-party deps,
safe to run inside the master *and* every pool worker.

**Sampling profiler** — :class:`SamplingProfiler` runs a daemon thread that
wakes ``hz`` times per second, walks ``sys._current_frames()``, and counts
one *folded stack* (the collapsed-flamegraph format: frames joined by
``;``, outermost first) per sampled thread.  Sampling is statistical: the
cost is one frame walk per tick regardless of request rate, so it can stay
on continuously (``repro serve --profile-hz 97`` / ``REPRO_PROFILE_HZ``)
or be switched on for a bounded window (``repro profile --seconds N``).
Each process keeps its own :data:`PROFILER`; the master merges worker
snapshots (fetched over the control pipe) into one folded-stack corpus for
``GET /debug/profile``, labelling frames only by counts — folded output
from several processes concatenates losslessly.

**Build-memory attribution** — :func:`build_memory` gates ``tracemalloc``
around a plan build so the executor's per-stage funnel can record how many
bytes each stage allocated (and the peak), feeding ``plan.stats`` and the
``explain``/``stats`` ops.  ``tracemalloc`` costs real time (every
allocation takes a hook), which is why it is opt-in per build via
``REPRO_BUILD_MEMORY=1`` rather than always-on.

Sampling uses prime-ish default rates (97 Hz, not 100) so the sampler does
not phase-lock with periodic work and systematically miss or over-count it.
"""

from __future__ import annotations

import os
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

from repro.obs import PROFILE_SAMPLES

__all__ = [
    "DEFAULT_HZ",
    "MAX_STACK_DEPTH",
    "SamplingProfiler",
    "PROFILER",
    "hz_from_env",
    "maybe_start_from_env",
    "merge_folded",
    "render_folded",
    "build_memory",
    "memory_tracking_enabled",
]

#: Default sampling rate when none is given.  Prime, so the sampler drifts
#: relative to 10ms/100ms periodic work instead of aliasing against it.
DEFAULT_HZ = 97

#: Frames kept per sampled stack.  Deep recursion beyond this folds into the
#: innermost frames, which are the ones that matter for attribution.
MAX_STACK_DEPTH = 64


def hz_from_env(default: float = 0.0) -> float:
    """The continuous-profiling rate from ``REPRO_PROFILE_HZ`` (0 = off)."""
    raw = os.environ.get("REPRO_PROFILE_HZ")
    if raw is None:
        return default
    try:
        hz = float(raw)
    except ValueError:
        return default
    return hz if hz > 0 else 0.0


def _frame_label(frame) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{code.co_name}"


def _fold_stack(frame) -> str:
    """One ``sys._current_frames()`` frame → a folded stack, outermost first."""
    frames: List[str] = []
    while frame is not None and len(frames) < MAX_STACK_DEPTH:
        frames.append(_frame_label(frame))
        frame = frame.f_back
    frames.reverse()
    return ";".join(frames)


class SamplingProfiler:
    """A wall-clock sampling profiler over ``sys._current_frames()``.

    One instance per process (see :data:`PROFILER`).  While running, a
    daemon thread samples every live thread except itself; each sample
    increments one folded-stack counter.  When stopped, the accumulated
    counts stay readable until :meth:`reset` — a bounded-window profile is
    ``reset(); start(hz); sleep(N); stop(); snapshot()``.

    Thread-safe: sampling, snapshotting and start/stop may race freely.
    Cost when off is the cost of this object existing — nothing runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: Dict[str, int] = {}
        self._samples = 0
        self._hz = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def hz(self) -> float:
        return self._hz

    def start(self, hz: float = DEFAULT_HZ) -> bool:
        """Start sampling at ``hz``; ``False`` if already running."""
        if hz <= 0:
            return False
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return False
            self._hz = float(hz)
            self._stop.clear()
            thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True,
            )
            self._thread = thread
        thread.start()
        return True

    def stop(self) -> None:
        """Stop the sampling thread (idempotent); keeps accumulated counts."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)

    def reset(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._samples = 0

    # -- sampling -------------------------------------------------------
    def _run(self) -> None:
        interval = 1.0 / self._hz
        own_id = threading.get_ident()
        while not self._stop.wait(interval):
            self.sample_once(skip_thread=own_id)

    def sample_once(self, skip_thread: Optional[int] = None) -> int:
        """Take one sample of every live thread; returns stacks counted.

        Public so tests (and the bounded-window path) can sample
        deterministically without depending on timer scheduling.
        """
        frames = sys._current_frames()
        folded = [
            _fold_stack(frame)
            for thread_id, frame in frames.items()
            if thread_id != skip_thread
        ]
        if not folded:
            return 0
        with self._lock:
            for stack in folded:
                self._stacks[stack] = self._stacks.get(stack, 0) + 1
            self._samples += len(folded)
        PROFILE_SAMPLES.inc((), len(folded))
        return len(folded)

    # -- reads ----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The profile as a JSON-safe document (merged across threads)."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "samples": self._samples,
                "hz": self._hz,
                "running": self.running,
                "stacks": dict(self._stacks),
            }

    def render_folded(self) -> str:
        with self._lock:
            stacks = dict(self._stacks)
        return render_folded(stacks)


#: The process-wide profiler (master and each worker get their own by fork
#: semantics: the sampler thread does not survive ``fork``, so workers call
#: :func:`maybe_start_from_env` after spawn).
PROFILER = SamplingProfiler()


def maybe_start_from_env() -> bool:
    """Start :data:`PROFILER` when ``REPRO_PROFILE_HZ`` asks for it."""
    hz = hz_from_env()
    if hz <= 0:
        return False
    return PROFILER.start(hz)


def merge_folded(documents: Iterable[Dict[str, object]]) -> Dict[str, int]:
    """Merge ``snapshot()`` documents from several processes into one corpus.

    Folded-stack counts are additive, so merging is a sum per stack — the
    master uses this to combine its own profile with every worker's.
    """
    merged: Dict[str, int] = {}
    for document in documents:
        stacks = document.get("stacks") if isinstance(document, dict) else None
        if not isinstance(stacks, dict):
            continue
        for stack, count in stacks.items():
            if isinstance(stack, str) and isinstance(count, int):
                merged[stack] = merged.get(stack, 0) + count
    return merged


def render_folded(stacks: Dict[str, int]) -> str:
    """Collapsed-flamegraph text: ``stack count`` per line, heaviest first.

    The output feeds ``flamegraph.pl`` / speedscope unmodified.
    """
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(
            stacks.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Build-memory attribution (tracemalloc gate)
# ----------------------------------------------------------------------
def memory_tracking_enabled() -> bool:
    raw = os.environ.get("REPRO_BUILD_MEMORY")
    if raw is None:
        return False
    return raw.strip().lower() not in ("", "0", "false", "off", "no")


@contextmanager
def build_memory(enabled: Optional[bool] = None):
    """Gate ``tracemalloc`` around one plan build.

    Yields ``True`` when memory tracking is active for the enclosed build —
    either because this context started ``tracemalloc`` (and will stop it on
    exit) or because something else already had it running.  The executor's
    stage funnel then records per-stage allocation deltas.  Yields ``False``
    and does nothing when disabled: the common case stays free.
    """
    if enabled is None:
        enabled = memory_tracking_enabled()
    if not enabled:
        yield False
        return
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        yield True
    finally:
        if started_here:
            tracemalloc.stop()


def stage_memory_probe():
    """A pair ``(current_bytes, reset_peak)`` reading for stage deltas.

    Returns ``None`` unless ``tracemalloc`` is tracing.  Splitting the probe
    out keeps the executor free of tracemalloc imports on the common path.
    """
    if not tracemalloc.is_tracing():
        return None
    current, _peak = tracemalloc.get_traced_memory()
    return current


def stage_memory_delta(before: Optional[int]):
    """Finish a stage probe: ``(delta_bytes, peak_bytes)`` or ``None``.

    ``peak_bytes`` is the high-water mark since the last reset; callers
    reset the peak at stage entry so it is per-stage, via
    :func:`reset_stage_peak`.
    """
    if before is None or not tracemalloc.is_tracing():
        return None
    current, peak = tracemalloc.get_traced_memory()
    return (current - before, peak)


def reset_stage_peak() -> None:
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
