"""Per-request tracing: trace ids, span trees, bounded retention.

A :class:`Tracer` hands out **request contexts** (one per served request,
each with a process-unique trace id) and nested **spans** (one per
interesting stage inside the request).  Spans time themselves with the
monotonic clock, form a tree via a thread-local stack, and the finished
trace — the root span with all descendants — is retained in a ring buffer of
the last N traces, addressable by trace id (``repro trace <id>`` and the
service's ``trace`` op read from it).

Layers that already measure their own stage durations (the plan executor's
build stages, which also populate ``plan.stats``) attach those measurements
as **events**: completed child spans with an externally measured duration,
so one instrumentation point feeds both the historical report and the trace
tree.

Overhead contract: when the tracer is disabled every entry point returns a
shared no-op context manager after a single attribute check — no allocation,
no lock, no clock read — so tracing can stay compiled into the hot paths.
Spans created on worker-pool threads (parallel layer builds) attach to that
thread's active trace, if any; otherwise they are dropped, never mixed into
another request's tree.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional

#: Trace ids are 16 hex chars, unique per process: a per-process random base
#: xor a golden-ratio-multiplied counter.  ~10× cheaper than ``uuid.uuid4``,
#: which matters because one id is minted per served request.
_ID_BASE = random.Random().getrandbits(64)
_ID_COUNTER = itertools.count()
_ID_MASK = 0xFFFFFFFFFFFFFFFF


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "seconds", "rows", "attrs", "children", "_started")

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.seconds: float = 0.0
        self.rows: Optional[int] = None
        self.attrs = attrs or {}
        self.children: List["Span"] = []
        self._started = time.perf_counter()

    def finish(self) -> None:
        self.seconds = time.perf_counter() - self._started

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "name": self.name,
            "seconds": round(self.seconds, 9),
        }
        if self.rows is not None:
            document["rows"] = self.rows
        if self.attrs:
            document["attrs"] = {key: str(value) for key, value in self.attrs.items()}
        if self.children:
            document["children"] = [child.to_dict() for child in self.children]
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "Span":
        """Rebuild a span tree from its wire shape (:meth:`to_dict`).

        The inverse direction exists for cross-process stitching: a pool
        worker serializes its ``worker:*`` subtree onto the response frame
        and the master grafts the rebuilt spans into the request's trace, so
        one ``repro trace <id>`` shows both sides of the process boundary.
        Malformed fields are clamped rather than raised — a corrupt span
        payload must never take down the serving path.
        """
        name = document.get("name")
        span = cls(name if isinstance(name, str) else "?")
        try:
            span.seconds = float(document.get("seconds", 0.0))
        except (TypeError, ValueError):
            span.seconds = 0.0
        rows = document.get("rows")
        span.rows = rows if isinstance(rows, int) and not isinstance(rows, bool) else None
        attrs = document.get("attrs")
        if isinstance(attrs, dict):
            span.attrs = {str(key): str(value) for key, value in attrs.items()}
        children = document.get("children")
        if isinstance(children, list):
            span.children = [cls.from_dict(child) for child in children
                             if isinstance(child, dict)]
        return span


def format_span_tree(document: Dict[str, object], indent: str = "") -> str:
    """Render a span-tree JSON document (``Span.to_dict`` shape) as text.

    Works on the wire shape, not on :class:`Span` objects, so the CLI can
    pretty-print a tree fetched from a remote server.
    """
    seconds = float(document.get("seconds", 0.0))
    line = f"{document.get('name', '?')}  {seconds * 1000:.3f}ms"
    rows = document.get("rows")
    if rows is not None:
        line += f"  rows={rows}"
    attrs = document.get("attrs") or {}
    if attrs:
        line += "  " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    lines = [indent + line]
    children = document.get("children") or []
    for i, child in enumerate(children):
        last = i == len(children) - 1
        connector = "└─ " if last else "├─ "
        child_indent = indent + ("   " if last else "│  ")
        child_text = format_span_tree(child, child_indent)
        # Replace the child's own leading indent with the connector.
        lines.append(indent + connector + child_text[len(child_indent):])
    return "\n".join(lines)


class _NullContext:
    """The shared do-nothing context manager of a disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Context manager pushing one span onto the thread's active trace."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, *exc) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._span:
            stack.pop()
        self._span.finish()
        return False


class RequestTrace:
    """Context manager for one served request; exposes the trace id."""

    __slots__ = ("trace_id", "root", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: Optional[Dict[str, object]]) -> None:
        self._tracer = tracer
        self.trace_id = tracer.new_trace_id()
        self.root = Span(name, attrs)

    def __enter__(self) -> "RequestTrace":
        self._tracer._stack().append(self.root)
        return self

    def __exit__(self, *exc) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1] is self.root:
            stack.pop()
        self.root.finish()
        self._tracer._retain(self)
        return False

    def add_event(self, name: str, seconds: float,
                  rows: Optional[int] = None) -> None:
        """Attach an externally timed, finished span directly to the root.

        For traces driven by :meth:`Tracer.open_request`, where no thread
        owns the trace and :meth:`Tracer.event`'s thread-local stack cannot
        apply.
        """
        span = Span(name)
        span.seconds = seconds
        span.rows = rows
        self.root.children.append(span)

    def add_span(self, span: Span) -> None:
        """Graft a finished span subtree onto the root (remote stitching).

        The subtree usually arrives as a worker's serialized ``worker:*``
        spans (:meth:`Span.from_dict`), already timed by the worker's own
        clock; the master attaches it as one child so the stitched tree
        reads end-to-end.
        """
        self.root.children.append(span)

    def set_status(self, status: object) -> None:
        """Record the request's outcome as a root attribute.

        ``repro trace --list`` and :meth:`Tracer.recent` surface it, and the
        rendered span tree shows it alongside the other root attrs.
        """
        self.root.attrs["status"] = str(status)


class Tracer:
    """Trace-id allocation, span nesting and bounded trace retention."""

    def __init__(self, enabled: bool = True, retain: int = 256) -> None:
        self.enabled = enabled
        self.retain_limit = max(1, retain)
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, tuple]" = OrderedDict()
        self._local = threading.local()

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()

    # -- internals ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _retain(self, request: RequestTrace) -> None:
        # (root, when) — the summary dict is built lazily at read time so the
        # per-request cost stays at one lock + one OrderedDict insert.
        record = (request.root, time.time())
        with self._lock:
            self._traces[request.trace_id] = record
            while len(self._traces) > self.retain_limit:
                self._traces.popitem(last=False)

    # -- entry points ---------------------------------------------------
    @staticmethod
    def new_trace_id() -> str:
        return "%016x" % (_ID_BASE ^ (next(_ID_COUNTER) * 0x9E3779B97F4A7C15 & _ID_MASK))

    def request(self, name: str, **attrs):
        """A root span context for one served request (``None`` if disabled)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return RequestTrace(self, name, attrs or None)

    def span(self, name: str, **attrs):
        """A nested span context under the thread's current span.

        Spans outside any request context still time themselves but are not
        retained (there is no trace to attach them to) — they *are* attached
        when a parent exists, which is the common case on the serving path.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        span = Span(name, attrs or None)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        return _SpanContext(self, span)

    def open_request(self, name: str, **attrs) -> Optional[RequestTrace]:
        """A request trace *not* bound to the calling thread.

        The event loop serves one request across many callbacks (parse on the
        loop thread, execute on an executor thread or in a worker process,
        write back on the loop thread), so the thread-local span stack of
        :meth:`request` cannot carry it.  The caller holds the returned
        object, attaches externally timed events with
        :meth:`RequestTrace.add_event`, and finishes it with
        :meth:`close_request`.  ``None`` when disabled.
        """
        if not self.enabled:
            return None
        return RequestTrace(self, name, attrs or None)

    def close_request(self, request: Optional[RequestTrace]) -> None:
        """Finish and retain a trace from :meth:`open_request` (idempotent-safe
        for ``None`` so call sites need no enabled-check)."""
        if request is None:
            return
        request.root.finish()
        self._retain(request)

    def annotate(self, trace_id: str, events=(), **attrs) -> bool:
        """Add finished child spans and root attributes to a retained trace.

        An inline response's trace is retained when :meth:`request` exits,
        before the front-end has written the response; what the front-end
        measured around it (``events``: ``(name, seconds)`` pairs) and who
        served it (``attrs``) can only be known then.  Works because
        :meth:`get` builds the document lazily from the live ``Span`` tree at
        read time.  Returns ``False`` when the trace aged out of the ring.
        """
        if not self.enabled:
            return False
        with self._lock:
            record = self._traces.get(trace_id)
        if record is None:
            return False
        root = record[0]
        root.attrs.update(attrs)
        for name, seconds in events:
            span = Span(name)
            span.seconds = seconds
            root.children.append(span)
        return True

    def event(self, name: str, seconds: float, rows: Optional[int] = None) -> None:
        """Attach an externally timed, already-finished span to the current one.

        This is how stage timings measured by other machinery (the executor's
        ``ExecutionReport``) appear in the trace without being timed twice.
        No-op when disabled or when the calling thread has no active trace.
        """
        if not self.enabled:
            return
        stack = getattr(self._local, "stack", None)
        if not stack:
            return
        span = Span(name)
        span.seconds = seconds
        span.rows = rows
        stack[-1].children.append(span)

    # -- reads ----------------------------------------------------------
    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        """The retained trace document for ``trace_id`` (``None`` if aged out)."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return None
            root, when = record
            return {
                "id": trace_id,
                "name": root.name,
                "seconds": round(root.seconds, 9),
                "when": when,
                "root": root.to_dict(),
            }

    def recent(self, limit: int = 20) -> List[Dict[str, object]]:
        """Summaries of the most recent traces, newest first.

        Each entry carries the short op name (the root name minus its
        ``op:`` prefix) and the recorded outcome status, so ``repro trace
        --list`` can render a useful table without fetching every tree.
        """
        with self._lock:
            records = list(self._traces.items())[-limit:]
        summaries = []
        for trace_id, (root, when) in reversed(records):
            name = root.name
            summaries.append({
                "id": trace_id,
                "name": name,
                "op": name[3:] if name.startswith("op:") else name,
                "status": str(root.attrs.get("status", "")),
                "seconds": round(root.seconds, 9),
                "when": when,
            })
        return summaries
