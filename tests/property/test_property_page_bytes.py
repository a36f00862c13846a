"""Property tests: a worker's spliced page body ≡ ``json.dumps`` of the answers.

A pool worker keeps a page of answers columnar and dictionary-coded up to the
socket and writes its rows from per-value ``json.dumps`` fragments
(:class:`~repro.core.snapshot.AnswerPage`).  That is only an accelerator if
the bytes are the ones ``json.dumps`` writes for the same answers as lists —
for every value ``json`` has a spelling of its own for (ints beyond 2**53,
``-0.0``, ``1e+22``, ``NaN``, ``Infinity``, escapes, ``null``, booleans,
nested arrays), in every order, across shard cuts, for duplicated, unsorted
and empty batches, and for the error bodies of rejected ones.
"""

import json
import math

import pytest

from hypothesis import assume, given, settings, strategies as st

from repro import Atom, ConjunctiveQuery, Database, LexDirectAccess, LexOrder, Relation
from repro.engine.backends import available_backends

pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.snapshot import AnswerPage, InstanceSnapshot, capture  # noqa: E402
from repro.service.dispatch import encode_response, execute_read  # noqa: E402
from repro.service.pool import _PageReader  # noqa: E402

BACKENDS = [None] + (["columnar"] if "columnar" in available_backends() else [])

PATH_QUERY = ConjunctiveQuery(
    ("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))], name="Qpath"
)

#: Mutually orderable value families — one per variable, so a LEX order exists.
FAMILIES = {
    "ints": [0, -1, 7, 2**53 + 1, -(2**53) - 1, 2**62, 2**64 + 3, -(2**70)],
    "floats": [-0.0, 1.5, -2.25, 1e22, 1e-7, math.inf, -math.inf],
    "strings": ["", "a", 'q"uote', "back\\slash", "line\nfeed", "\x00\x1f",
                "é", "β", "\u2028", "😀", "</script>"],
    "bools": [False, True],
    "tuples": [(None, 0), (None, -3), (None, 2**60), (None, 5)],
    "nothing": [None],
}
#: ``nan`` breaks ``==`` (joins) and ``<`` (shard routing), so it only ever
#: rides the last, non-join variable.
LAST_ONLY = {"nans": [math.nan, 0.5, -0.0, math.inf]}


@st.composite
def databases(draw):
    values = {
        "x": FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))],
        "y": FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))],
        "z": {**FAMILIES, **LAST_ONLY}[
            draw(st.sampled_from(sorted({**FAMILIES, **LAST_ONLY})))],
    }

    def rows(left, right):
        cell = st.tuples(st.sampled_from(values[left]), st.sampled_from(values[right]))
        return draw(st.lists(cell, min_size=1, max_size=10, unique_by=repr))

    return rows("x", "y"), rows("y", "z")


def attached_image(rows, backend, descending, shards):
    """The image a worker would attach (``None`` when there is nothing to
    capture), after the same serialize/parse round trip."""
    database = Database([
        Relation("R", ("x", "y"), rows[0], backend=backend),
        Relation("S", ("y", "z"), rows[1], backend=backend),
    ])
    access = LexDirectAccess(
        PATH_QUERY, database, LexOrder(("x", "y", "z"), descending),
        shards=shards, backend=backend)
    snapshot = capture(access._instance)
    if snapshot is None:
        return None
    return InstanceSnapshot.from_buffer(snapshot.to_bytes()).instance()


def bodies(image, request):
    """(the worker's spliced body, ``json.dumps`` of the un-paged response,
    the worker-side response)."""
    paged = execute_read(_PageReader(image), "p", request)
    status, spliced = encode_response(paged)
    plain = execute_read(image, "p", request)
    assert status == (200 if plain["ok"] else 404)
    return spliced, json.dumps(plain).encode("utf-8"), paged


@settings(max_examples=120, deadline=None)
@given(
    rows=databases(),
    backend=st.sampled_from(BACKENDS),
    descending=st.sets(st.sampled_from(["x", "y", "z"])).map(tuple),
    shards=st.sampled_from([None, 2, 3]),
    data=st.data(),
)
def test_spliced_body_is_json_dumps_of_the_answers(rows, backend, descending, shards, data):
    image = attached_image(rows, backend, descending, shards)
    assume(image is not None)
    count = image.count
    rank = st.integers(0, count - 1)
    batches = [
        [],
        list(range(count)),
        list(range(count))[::-1],
        data.draw(st.lists(rank, max_size=3 * count), label="ks"),
    ]
    for ks in batches:
        request = {"op": "batch_access", "plan": "p", "ks": ks}
        spliced, plain, paged = bodies(image, request)
        assert spliced == plain
        assert isinstance(paged["answers"], AnswerPage)
        # No silent fallback: the rows really came from the fragments.
        assert paged["answers"].encoder == "fragments"
        assert len(paged["answers"]) == len(ks)
        # Compared by repr: stricter than == (-0.0 vs 0.0, True vs 1) and
        # total on nan.
        assert list(map(repr, image.page(ks).tuples())) == [
            repr(image.access(k)) for k in ks]
    lo = data.draw(st.integers(0, count), label="lo")
    hi = data.draw(st.integers(lo, count), label="hi")
    spliced, plain, paged = bodies(image, {"op": "range", "plan": "p", "lo": lo, "hi": hi})
    assert spliced == plain
    assert paged["answers"].encoder == "fragments"
    assert list(map(repr, image.range_page(lo, hi).tuples())) == [
        repr(image.access(k)) for k in range(lo, hi)]
    # Rejected pages: the same error bytes, paged reader or not.
    bad = data.draw(st.sampled_from([count, -1, count + 2**70]), label="bad")
    for request in ({"op": "batch_access", "plan": "p", "ks": [0, bad, -5]},
                    {"op": "range", "plan": "p", "lo": 0, "hi": count + 1}):
        spliced, plain, paged = bodies(image, request)
        assert spliced == plain
        assert paged["ok"] is False
