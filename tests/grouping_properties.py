"""Hypothesis property of ``first_appearance``: every route gives the codes
and keys of the dict coder ``conftest.reference_codes``, key types and
signs of zero included.

Arrays are drawn for each route: small-span integer, bool and
integer-valued float arrays for the table, and for the dict wide int64
and uint64 ranges, infinities, NaN and non-integer reals (as arrays) and
lists of text and tuples.  ``test_subgroup`` runs the property; see
``test_aggregator_properties`` for why this module is imported late.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import reference_codes
from grouprisk.subgroup import first_appearance

FLOATS = st.one_of(st.floats(), st.integers(-2**60, 2**60).map(float),
                   st.sampled_from([-0.0, 0.0, 1.0, math.inf, -math.inf,
                                    math.nan]))
# (dtype, level strategy); None is a list of Python objects
LEVELS = [
    (bool, st.booleans()),
    (np.uint8, st.integers(0, 255)),
    (np.int8, st.integers(-128, 127)),
    (np.int64, st.integers(-3, 3)),
    (np.int64, st.integers(2**63 - 8, 2**63 - 1)),
    (np.int64, st.integers(-2**63, -2**63 + 7)),
    (np.int64, st.integers(-2**63, 2**63 - 1)),
    (np.uint64, st.integers(2**64 - 8, 2**64 - 1)),
    (np.uint64, st.integers(0, 2**64 - 1)),
    (float, st.sampled_from([-0.0, 0.0, -1.0, 2.0, 3.0])),
    (float, st.sampled_from([-0.25, 0.5, 0.7, 1.5, 2.0])),
    (float, FLOATS),
    (np.float32, st.floats(width=32)),
    (None, st.text(max_size=2)),
    (None, st.tuples(st.sampled_from(["a", "b"]), st.text(max_size=1))),
]


@st.composite
def coded_values(draw):
    """An array (or list) of 1 to 40 values from a pool of up to 6 levels."""
    dtype, levels = draw(st.sampled_from(LEVELS))
    pool = draw(st.lists(levels, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=40))
    values = [pool[i] for i in picks]
    return values if dtype is None else np.array(values, dtype=dtype)


def _typed(keys):
    # repr tells -0.0 from 0.0, nan from other values and True from 1
    return [(type(k), repr(k)) for k in keys]


@settings(max_examples=400, deadline=None)
@given(coded_values())
def numpy_routes_match_the_dict(values):
    objects = values.tolist() if isinstance(values, np.ndarray) else values
    codes, first = first_appearance(values)
    expected_codes, expected_keys = reference_codes(objects)
    np.testing.assert_array_equal(codes, expected_codes)
    assert codes.dtype == expected_codes.dtype
    assert _typed([objects[i] for i in first]) == _typed(expected_keys)
    if isinstance(values, np.ndarray):
        assert _typed(values[first].tolist()) == _typed(expected_keys)
