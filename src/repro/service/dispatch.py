"""Lane choice, worker routing and the one read-op table of the serving tier.

The master keeps the full :class:`~repro.service.QueryService` (databases,
plan cache, mutation log); worker processes hold only *attached* shared-memory
snapshot images (:class:`~repro.core.snapshot.SnapshotInstance` facades).
A front-end serves each request on one of three **lanes**
(:func:`choose_lane`):

* **loop** — a read of at most :data:`LOOP_LANE_MAX_ANSWERS` answers on a
  cached plan whose served view is current runs to completion on the thread
  that parsed it, against a reader *pinned* together with the epoch check
  (:meth:`~repro.service.service.PreparedPlan.pinned_reader`): it can never
  sync, rebuild or compact there, and no thread or process is woken.
* **worker** — a larger routable read (:data:`ROUTABLE_OPS`) on a published
  plan goes to the pool worker picked by plan fingerprint hash + the shard of
  the request's leading rank (one worker's touched shards stay hot in its
  page cache); it answers from its attached image and returns the response
  *pre-encoded as JSON bytes*, off the master's interpreter.  There a page of
  answers stays columnar from the kernel to the socket: the worker's reader
  returns an :class:`~repro.core.snapshot.AnswerPage`, :func:`read_op` passes
  it through, and :func:`encode_response` splices its rows from value
  fragments the worker rendered once — no tuple, list or boxed value per
  answer.
* **executor** — everything that can build, refresh, rebuild, compact, scrape
  or block (prepare, mutations, the first read after a write, ``enum`` top-k,
  stats/metrics/explain/selection, malformed or unroutable oversized reads)
  runs in the master, off the event-loop thread.

:func:`read_op` is the only implementation of the read ops: the master's
handlers call it with the plan's synced reader, the loop lane with the pinned
one, a worker (through the never-raising :func:`execute_read`) with its
attached image — so the three lanes' responses for one epoch are
byte-identical (modulo the ``trace`` id only the master's tracer appends):
by construction up to the encoder, and because a spliced page is, fragment
by fragment, what ``json.dumps`` writes for the same answers
(``tests/property/test_property_page_bytes.py``).

Distributed tracing rides the same frames without touching the bodies:
request frames carry trace context inside the JSON payload under the
reserved :data:`~repro.service.protocol.TRACE_KEY`, and response frames
append the worker's serialized ``worker:*`` span subtree *after* the body
(see the response-header layout below), bounded by
:func:`span_limit_from_env` with a drop sentinel on overflow.  The master
stitches shipped subtrees into its own trace so ``repro trace <id>`` shows
both sides of the process boundary.
"""

from __future__ import annotations

import json
import os
import struct
from bisect import bisect_right
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.access import plain_ints, validate_rank
from repro.core.snapshot import AnswerPage
from repro.exceptions import OutOfBoundsError
from repro.service.protocol import (
    STATUS_BY_CODE,
    TRACE_KEY,
    ServiceError,
    decode_answer,
    encode_answer,
    encode_answers,
    error_for,
    error_response,
)

#: Ops a worker can serve from an attached snapshot image alone.
ROUTABLE_OPS = frozenset({"access", "batch_access", "range", "inverted_access", "count"})

#: The largest read a front-end answers on the thread that parsed it.  An
#: inline batch does not cost the 1.3 us per answer of the ladder's 1 024-rank
#: slope: it is two shard walks of ~30 NumPy calls each, however few ranks
#: they carry, plus ~2 us per answer with its JSON.  Re-measured in-process on
#: the 2-shard n = 1e5 image (``read_op`` + ``json.dumps``; paired runs on a
#: host about 2x slower than the one that priced the hand-off): 1 rank
#: 40-56 us, 64 ranks 180-240 us, 128 ranks 300-400 us (62, 310 and 535 us
#: before a page was decoded column by column).  A hand-off costs ~190 us on
#: the faster host (``pool`` 95 + ``service.route`` 95 to a worker; 60-250 us
#: for the two thread wake-ups through the executor), so a read of <= 128
#: answers is finished in about the time it takes to wake anyone else, and
#: the same figure bounds how long one request holds the event loop (~0.2 ms
#: there).  A constant, not an option: one value is in use, and the property
#: it depends on (answers requested) is visible in every request.
LOOP_LANE_MAX_ANSWERS = 128


def answers_requested(request: Mapping) -> Optional[int]:
    """How many answers a read op asks for; ``None`` when the request is not
    a read or its size fields are malformed (never the loop lane's: the
    executor lane produces the structured 4xx)."""
    op = request.get("op")
    if op == "access":
        return 1 if type(request.get("k")) is int else None
    if op == "batch_access":
        ks = request.get("ks")
        # Ranks are checked here only when the batch could take the loop
        # lane; a larger one is validated by whoever serves it.
        if type(ks) is not list or (len(ks) <= LOOP_LANE_MAX_ANSWERS
                                    and not plain_ints(ks)):
            return None
        return len(ks)
    if op == "range":
        lo, hi = request.get("lo"), request.get("hi")
        return hi - lo if type(lo) is int and type(hi) is int and lo <= hi else None
    if op == "topk":
        k = request.get("k")
        return k if type(k) is int and k >= 0 else None
    if op == "inverted_access":
        return 1 if type(request.get("answer")) is list else None
    return 0 if op == "count" else None


def choose_lane(request: Mapping, reader, published: bool) -> str:
    """``"loop"``, ``"worker"`` or ``"executor"`` for one request — pure.

    ``reader``: the pinned reader of the cached plan the request names;
    ``None`` when there is none, the plan is ``enum``, or its served view is
    behind the live epoch.  ``published``: that reader is the plan's
    published base image and a pool is running.
    """
    size = answers_requested(request)
    if size is None or reader is None:
        return "executor"
    if size <= LOOP_LANE_MAX_ANSWERS:
        return "loop"
    return "worker" if published and request["op"] in ROUTABLE_OPS else "executor"


def _fnv1a(text: str) -> int:
    """Tiny stable string hash (``hash()`` is salted per process)."""
    value = 0x811C9DC5
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 0x01000193) & 0xFFFFFFFF
    return value


def leading_rank(request: Mapping) -> int:
    """The first rank a request touches (0 when it names none)."""
    op = request.get("op")
    try:
        if op == "access":
            return int(request.get("k", 0))
        if op == "range":
            return int(request.get("lo", 0))
        if op == "batch_access":
            ks = request.get("ks")
            if isinstance(ks, (list, tuple)) and ks:
                return int(ks[0])
    except (TypeError, ValueError):
        return 0
    return 0


def shard_of_request(request: Mapping, offsets: Optional[Sequence[int]]) -> int:
    """The shard of the request's leading rank in the published offset table."""
    if not offsets or len(offsets) <= 2:
        return 0
    k = leading_rank(request)
    if k < 0:
        return 0
    return max(0, min(bisect_right(offsets, k) - 1, len(offsets) - 2))


def pick_worker(
    fingerprint: str,
    request: Mapping,
    offsets: Optional[Sequence[int]],
    worker_count: int,
) -> int:
    """Deterministic worker index: fingerprint hash + leading-rank shard.

    All requests for one (plan, shard) land on one worker, and distinct
    plans spread across workers via the fingerprint hash.
    """
    if worker_count <= 1:
        return 0
    shard = shard_of_request(request, offsets)
    return (_fnv1a(fingerprint) + shard) % worker_count


# ----------------------------------------------------------------------
# The read ops (one table: master handlers, loop lane, workers)
# ----------------------------------------------------------------------
def required(request: Mapping, field: str):
    if field not in request:
        raise ServiceError("bad_request", f"request is missing the {field!r} field")
    return request[field]


def rank_field(request: Mapping, field: str) -> int:
    """A required rank field, with type errors mapped to ``bad_request``.

    Client-supplied ranks are validated here at the protocol boundary so the
    engines' ``TypeError`` never has to be caught wholesale by the callers —
    a blanket TypeError handler would misreport genuine server bugs as
    client errors.
    """
    try:
        return validate_rank(required(request, field))
    except TypeError as exc:
        raise ServiceError("bad_request", str(exc)) from None


def read_op(reader, fingerprint: str, request: Mapping) -> Dict[str, object]:
    """One read op against anything with ``access`` / ``batch_access`` /
    ``range_access`` / ``inverted_access`` / ``count``: the response fields
    after ``ok`` and ``op``, in wire order.

    ``reader`` is a single-epoch object — a plan's synced or pinned view, a
    SUM engine, a worker's attached image — so ``count`` followed by a range
    read (``topk``) cannot straddle a mutation.  Raises
    :class:`ServiceError`, :class:`OutOfBoundsError` or
    :class:`NotAnAnswerError`; an engine ``TypeError`` is a server bug and
    propagates as one.
    """
    op = request.get("op")
    if op == "access":
        k = rank_field(request, "k")
        return {"plan": fingerprint, "k": k, "answer": encode_answer(reader.access(k))}
    if op == "batch_access":
        ks = required(request, "ks")
        if not isinstance(ks, (list, tuple)):
            raise ServiceError("bad_request", "'ks' must be an array of ranks")
        if not plain_ints(ks):
            try:
                # Scoped, so only the *client's* TypeError becomes
                # bad_request.  A list of plain ints (what a JSON array of
                # ranks parses to) passes as it is, and the engine's
                # ``validate_ranks`` accepts it by the same test.
                ks = [validate_rank(k) for k in ks]
            except TypeError as exc:
                raise ServiceError("bad_request", str(exc)) from None
        answers = reader.batch_access(ks)
        return {"plan": fingerprint, "answers": encode_answers(answers)}
    if op == "range":
        lo = rank_field(request, "lo")
        hi = rank_field(request, "hi")
        answers = reader.range_access(lo, hi)
        return {"plan": fingerprint, "lo": lo, "hi": hi,
                "answers": encode_answers(answers)}
    if op == "inverted_access":
        answer = decode_answer(required(request, "answer"))
        return {"plan": fingerprint, "k": reader.inverted_access(answer)}
    if op == "topk":
        k = rank_field(request, "k")
        if k < 0:
            raise OutOfBoundsError(f"top-k size must be non-negative, got {k}")
        answers = reader.range_access(0, min(k, reader.count))
        return {"plan": fingerprint, "answers": encode_answers(answers)}
    if op == "count":
        return {"plan": fingerprint, "count": reader.count}
    raise ServiceError("bad_request", f"op {op!r} is not a read op")


def execute_read(reader, fingerprint: str, request: Mapping) -> Dict[str, object]:
    """:func:`read_op` as a complete response; never raises (the worker's
    entry point)."""
    try:
        response = {"ok": True, "op": request.get("op")}
        response.update(read_op(reader, fingerprint, request))
        return response
    except Exception as exc:
        return error_for(exc)


#: The name ``benchmarks/e2e/rungs.py`` (frozen) loads this entry point by.
execute_snapshot_op = execute_read


# ----------------------------------------------------------------------
# Serve-frame wire format (master ↔ worker request sockets)
# ----------------------------------------------------------------------
# Routable requests travel over a dedicated ``socketpair`` per worker as
# length-prefixed frames, so the master's event loop can read replies
# incrementally from a non-blocking socket (``multiprocessing.Connection``
# can block mid-message after ``poll()`` says ready).  Sequence numbers
# correlate replies with suspended connections; frames never interleave
# because each side writes one frame atomically under its own serialization
# (the worker is single-threaded, the master writes under a per-worker lock
# or from the single loop thread).
#
# Request frame:  ``!II``   (seq, payload_len)  + JSON request bytes
# Response frame: ``!IIHI`` (seq, body_len, status, span_len)
#                 + pre-encoded JSON body + span-tree JSON bytes
#   status == 0  → the worker does not have the plan/epoch attached (a
#   "miss"); the body is empty and the master serves the request inline.
#   span_len     → length of the worker's serialized ``worker:*`` span
#   subtree trailing the body (0 when the request carried no trace context
#   or the worker's tracer is off); the sentinel :data:`SPAN_DROPPED` means
#   the subtree exceeded :func:`span_limit_from_env` and was dropped — no
#   span bytes follow and the master increments the drop counter.  Span
#   bytes ride *outside* the body so routed response bodies stay
#   bit-identical to the inline path.
REQUEST_HEADER = struct.Struct("!II")
RESPONSE_HEADER = struct.Struct("!IIHI")

#: status value a worker sends when it cannot serve the frame from an image.
FRAME_MISS = 0

#: span_len sentinel: the worker produced a span subtree but it exceeded the
#: size bound, so it was dropped instead of shipped.
SPAN_DROPPED = 0xFFFFFFFF

#: Default bound (bytes) on a serialized span subtree riding a response
#: frame.  Worker subtrees are a handful of spans — kilobytes, not megabytes
#: — so the bound exists to cap pathological attr blowups, not normal use.
DEFAULT_SPAN_LIMIT = 16384


def span_limit_from_env() -> int:
    """The span-payload byte bound, overridable via ``REPRO_TRACE_SPAN_LIMIT``.

    Read by each worker at start (workers fork after the master's env is
    final), so tests can force tiny bounds to exercise the drop path.
    """
    try:
        limit = int(os.environ.get("REPRO_TRACE_SPAN_LIMIT", DEFAULT_SPAN_LIMIT))
    except ValueError:
        return DEFAULT_SPAN_LIMIT
    return max(0, limit)


def pack_request_frame(seq: int, request: Mapping,
                       trace_id: Optional[str] = None) -> bytes:
    """Pack one request frame, optionally injecting trace context.

    The context travels inside the JSON payload under :data:`TRACE_KEY` —
    no wire-format change on the request side, and workers without tracing
    simply pop and ignore it.
    """
    if trace_id is not None:
        request = dict(request)
        request[TRACE_KEY] = {"id": trace_id}
    payload = json.dumps(request, separators=(",", ":")).encode("utf-8")
    return REQUEST_HEADER.pack(seq & 0xFFFFFFFF, len(payload)) + payload


def pack_response_frame(seq: int, status: int, body: bytes,
                        span_payload: Optional[bytes] = None,
                        span_limit: int = DEFAULT_SPAN_LIMIT) -> bytes:
    """Pack one response frame, appending the span subtree when it fits.

    Oversized payloads become the :data:`SPAN_DROPPED` sentinel with no
    trailing bytes — the response body always ships intact regardless of
    what tracing does.
    """
    if not span_payload:
        span_len = 0
        span_payload = b""
    elif len(span_payload) > span_limit:
        span_len = SPAN_DROPPED
        span_payload = b""
    else:
        span_len = len(span_payload)
    header = RESPONSE_HEADER.pack(seq & 0xFFFFFFFF, len(body), status, span_len)
    return header + body + span_payload


def decode_shipped_spans(span_len: int, span_bytes: bytes):
    """The master-side end of span shipping: frame fields → ``Span`` or ``None``.

    Shared by both serve paths (the blocking roundtrip and the event loop's
    incremental frame parser) so the shipped/dropped counters are bumped in
    exactly one place.  A :data:`SPAN_DROPPED` sentinel or a corrupt payload
    yields ``None`` — tracing degradation never fails a response.
    """
    from repro.obs import TRACE_SPANS_DROPPED, TRACE_SPANS_SHIPPED
    from repro.obs.trace import Span

    if span_len == SPAN_DROPPED:
        TRACE_SPANS_DROPPED.inc()
        return None
    if not span_bytes:
        return None
    try:
        document = json.loads(span_bytes)
    except ValueError:
        return None
    if not isinstance(document, dict):
        return None
    span = Span.from_dict(document)
    count = 1
    stack = list(span.children)
    while stack:
        count += 1
        stack.extend(stack.pop().children)
    TRACE_SPANS_SHIPPED.inc((), count)
    return span


def recv_exact(sock, size: int) -> Optional[bytes]:
    """Read exactly ``size`` bytes from a blocking socket (``None`` on EOF)."""
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if len(chunks) != 1 else chunks[0]


def encode_response(response: Mapping) -> Tuple[int, bytes]:
    """(HTTP status, JSON bytes) for a worker response — serialization runs
    in the worker process, which is the point of routing.

    A response whose ``answers`` are an :class:`AnswerPage` is spliced: the
    other fields through ``json.dumps``, the rows from the page's
    pre-rendered value fragments — the bytes ``json.dumps`` would write for
    the same answers as lists, which is also the fallback when a value has
    no fragment.  Never raises: a response ``json`` cannot encode becomes the
    structured 500 the other lanes answer with.
    """
    if response.get("ok"):
        status = 200
    else:
        error = response.get("error")
        code = error.get("code", "bad_request") if isinstance(error, Mapping) else "bad_request"
        status = STATUS_BY_CODE.get(code, 400)
    try:
        page = response.get("answers")
        if not isinstance(page, AnswerPage):
            return status, json.dumps(response).encode("utf-8")
        rows = page.json_rows() if next(reversed(response)) == "answers" else None
        if rows is None:
            return status, json.dumps({**response, "answers": page.tuples()}).encode("utf-8")
        head = {key: value for key, value in response.items() if key != "answers"}
        text = json.dumps(head)[:-1] + ', "answers": [' + rows + "]}"
        return status, text.encode("utf-8")
    except (TypeError, ValueError) as exc:
        return 500, json.dumps(error_response(
            "internal", f"response not JSON-representable: {exc}"
        )).encode("utf-8")
