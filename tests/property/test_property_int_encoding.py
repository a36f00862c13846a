"""Property: the NumPy encoding of an int column ≡ the Python encoding.

A column whose values are all exactly ``int`` and fit int64 is encoded by
``np.unique``; every other column takes the general Python path.  Both must
give what the reference below gives: a sorted set for the domain, an index
dict for the codes, and the checks that reject ``==``-equal values with
distinguishable representations.  Same codes, same code dtype, and a domain
whose every value has the reference's type and repr; inputs the reference
rejects raise :class:`ColumnEncodingError` on either path.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.engine.backends import available_backends

if "columnar" not in available_backends():
    pytest.skip("the columnar backend requires NumPy", allow_module_level=True)

import numpy as np

from repro.engine.backends import columnar
from repro.engine.backends.columnar import ColumnEncodingError

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

#: Values at and just past both int64 bounds, plus the usual small suspects.
EDGES = [INT64_MIN - 1, INT64_MIN, INT64_MIN + 1, -1, 0, 1,
         INT64_MAX - 1, INT64_MAX, INT64_MAX + 1]

ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(INT64_MIN - 8, INT64_MAX + 8),
    st.sampled_from(EDGES),
)


def with_duplicates(values):
    """Columns drawn (with repetition) from a small pool of ``values``."""
    return st.lists(values, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


int_columns = st.one_of(
    st.lists(ints, min_size=1, max_size=40),
    with_duplicates(ints),
    ints.map(lambda value: [value]),
)

#: Columns that must stay on the Python path (the mixes may draw no
#: bool / float / None at all; those draws are int columns and filtered out).
other_columns = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=20),
    with_duplicates(st.one_of(st.integers(-2, 3), st.booleans())),
    with_duplicates(st.one_of(
        st.integers(-3, 3),
        st.sampled_from([-1.0, 0.0, 1.0, 2.0, 2.5]),
    )),
    with_duplicates(st.one_of(st.integers(-3, 3), st.none())),
    st.lists(st.none(), min_size=1, max_size=5),
).filter(lambda values: any(type(value) is not int for value in values))


def reference_encoding(values):
    """Codes and domain from a sorted set and an index dict, with the
    representation checks the encoder has always applied."""
    try:
        domain = sorted(set(values))
    except TypeError as exc:
        raise ColumnEncodingError(str(exc)) from None
    if any(value != value for value in domain):
        raise ColumnEncodingError("NaN")
    index = {value: code for code, value in enumerate(domain)}
    for value in values:
        representative = domain[index[value]]
        if type(representative) is not type(value):
            raise ColumnEncodingError(f"{representative!r} vs {value!r}")
        if type(value) is float and value == 0.0 and str(representative) != str(value):
            raise ColumnEncodingError("-0.0 vs 0.0")
    dtype = np.int32 if len(domain) < 2 ** 31 else np.int64
    return [index[value] for value in values], domain, dtype


def takes_numpy_path(values) -> bool:
    return all(type(value) is int and INT64_MIN <= value <= INT64_MAX
               for value in values)


def check_against_reference(values):
    assert (columnar._encode_int_column(values) is not None) == takes_numpy_path(values)
    try:
        expected_codes, expected_domain, expected_dtype = reference_encoding(values)
    except ColumnEncodingError:
        with pytest.raises(ColumnEncodingError):
            columnar._encode_column(values)
        return
    codes, domain = columnar._encode_column(values)
    assert codes.dtype == expected_dtype
    assert codes.tolist() == expected_codes
    assert domain.dtype == object
    assert [(type(value), repr(value)) for value in domain] == [
        (type(value), repr(value)) for value in expected_domain]


@settings(max_examples=200, deadline=None)
@given(int_columns)
def test_int_columns_match_the_reference(values):
    check_against_reference(tuple(values))


@settings(max_examples=200, deadline=None)
@given(other_columns)
def test_other_columns_match_the_reference(values):
    check_against_reference(tuple(values))
