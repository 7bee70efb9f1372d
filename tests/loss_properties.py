"""Hypothesis property of ``LossSpec.values`` and ``grads``: for any finite
labels they give the bits of ``conftest.closed_form_loss``, as the
``values`` docstring states, except where a product over- or underflows
and at the hinge gradient of a +0.0 label.

Scores are any floats, 0 of either sign, the kink of a +-1 label, +-1e300,
+-inf and NaN, and scores just short of a label's kink, where a small
label times the small hinge loss underflows.  ``test_subgroup`` runs the property; see
``test_aggregator_properties`` for why this module is imported late.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import closed_form_loss
from grouprisk import LossSpec

# tiny labels as well, whose products underflow
LABELS = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-290, 1e-290))
SCORES = st.one_of(st.floats(),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300,
                                    math.inf, -math.inf, math.nan]))
# below TINY a halving is inexact; above HUGE a doubling may overflow
TINY, HUGE = 2.0 ** -1021, 2.0 ** 1022


def _inexact(y, s):
    """Where a product that the closed forms and the step form in
    different orders leaves the normal range, so the two may round
    differently: y * s, y * max(0, 1 - y*s), y * (1 + tanh(-y*s/2)) and
    y / 2."""
    out = (y != 0.0) & (np.abs(y) < TINY)
    for b in (s, np.maximum(0.0, 1.0 - y * s),
              1.0 + np.tanh(-0.5 * y * s)):
        p = np.abs(y * b)
        out |= np.isfinite(b) & (b != 0.0) & (y != 0.0) & ((p < TINY)
                                                         | (p > HUGE))
    return out


@st.composite
def labelled_scores(draw):
    n = draw(st.integers(1, 20))
    y = np.array(draw(st.lists(LABELS, min_size=n, max_size=n)))
    s = np.array(draw(st.lists(SCORES, min_size=n, max_size=n)))
    for i in np.flatnonzero(y != 0.0):
        if draw(st.booleans()):
            with np.errstate(over="ignore"):
                s[i] = (1.0 - draw(st.floats(1e-30, 1e-5))) / y[i]
    return y, s


@settings(max_examples=400, deadline=None)
@given(labelled_scores(),
       st.sampled_from(["hinge", "squared_hinge", "logistic", "linear"]))
def closed_forms_for_any_finite_label(case, kind):
    y, s = case
    loss = LossSpec(kind)
    with np.errstate(all="ignore"):
        got = loss.values(y, s), loss.grads(y, s)
        scalar = loss.values(y[0], s[0]), loss.grads(y[0], s[0])
        values, grads = closed_form_loss(kind, y, s)
        exact = ~_inexact(y, s)
        if kind == "hinge":
            # the stated exception: 0.0 - y * 1.0 is +0.0 where -y is -0.0
            zero = (y == 0.0) & ~np.signbit(y) & (1.0 - y * s > 0.0)
            assert not np.signbit(got[1][zero]).any()
            grads = np.where(zero, 0.0, grads)
    for a, b in zip(got, (values, grads)):
        assert a[exact].tobytes() == b[exact].tobytes()
    # a 0-d input takes the same step
    assert [x.tobytes() for x in scalar] == [x[:1].tobytes() for x in got]
