"""Hypothesis properties of ``AggregatorSpec.value`` and ``.weights``.

Also: the two evaluation routes of the cvar value return the same bits,
and so do the two atom merges and the training epoch's equal-probability
route.

Atoms are drawn with zero probabilities, tied values and cvar levels
within ``PROB_TOL`` of 0 left in.  ``test_aggregator_properties`` runs
each property; see there why this module is imported late.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from grouprisk import AggregatorSpec, DiscreteRandomVariable, aggregate
from grouprisk.riskvar import (PROB_TOL, _cvar_merged, _cvar_small, _merge,
                               _merge_equal)

VALUES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-2.5, 0.0, 1.0]))
# zeros of both signs as well
SIGNED_ZERO_VALUES = st.one_of(st.floats(-1e3, 1e3),
                               st.sampled_from([-2.5, -0.0, 0.0, 1.0]))
ALPHAS = st.one_of(st.floats(0.0, 1e-11, exclude_min=True),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
# cvar levels within PROB_TOL of 1 as well
EDGE_ALPHAS = st.one_of(ALPHAS, st.floats(1.0 - PROB_TOL, 1.0, exclude_max=True))
# infinities and NaN as well, as training's risks may hold
EXTENDED_VALUES = st.one_of(st.floats(-1e3, 1e3),
                            st.sampled_from([-2.5, 0.0, 1.0, math.inf,
                                             -math.inf, math.nan]))


@st.composite
def atoms(draw, equal=False, values=VALUES, max_atoms=8):
    """(values, probs) with at least one positive-probability atom.

    ``equal`` puts the same probability on every positive atom, as top_k
    requires.
    """
    n = draw(st.integers(1, max_atoms))
    values = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    if equal:
        mass = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                      min_size=n, max_size=n)))
    else:
        mass = np.array(draw(st.lists(st.one_of(st.just(0.0),
                                                st.floats(1e-3, 1.0)),
                                      min_size=n, max_size=n)))
    mass[draw(st.integers(0, n - 1))] = 1.0
    return values, mass / mass.sum()


@st.composite
def specs_with_atoms(draw, alphas=ALPHAS):
    kind = draw(st.sampled_from(["expectation", "cvar", "sd_penalty", "top_k",
                                 "max"]))
    values, probs = draw(atoms(equal=kind == "top_k"))
    if kind == "cvar":
        spec = AggregatorSpec.cvar(draw(alphas))
    elif kind == "sd_penalty":
        spec = AggregatorSpec.sd_penalty(draw(st.floats(0.0, 5.0)))
    elif kind == "top_k":
        spec = AggregatorSpec.top_k(draw(st.integers(1, int((probs > 0).sum()))))
    else:
        spec = AggregatorSpec(kind)
    return spec, values, probs


def _tail_mass(spec, probs):
    """1 - alpha of a cvar or top_k spec, None for the other kinds."""
    if spec.kind == "cvar":
        return 1.0 - spec.alpha
    if spec.kind == "top_k":
        return spec.k / int((probs > 0).sum())
    return None


def _euler_scale(spec, values, probs):
    """Magnitude the Euler residual is measured against.

    Tail aggregators divide by the tail mass 1 - alpha; sd_penalty's
    weights divide by the standard deviation, which amplifies the rounding
    of the centred values by max|v| / sd.
    """
    scale = max(1.0, float(np.abs(values).max()))
    tail = _tail_mass(spec, probs)
    if tail is not None:
        return scale / tail
    if spec.kind == "sd_penalty":
        centred = values - float(np.dot(values, probs))
        sd = float(np.sqrt(np.dot(probs, centred * centred)))
        if sd > 0.0:
            return scale * (1.0 + spec.lam * scale / sd)
    return scale


@settings(max_examples=400, deadline=None)
@given(specs_with_atoms())
def value_is_weights_dot_values(case):
    # Euler's identity for positively homogeneous measures
    spec, values, probs = case
    weights, _ = spec.weights(values, probs)
    residual = abs(spec.value(values, probs) - float(np.dot(weights, values)))
    assert residual <= 1e-12 * _euler_scale(spec, values, probs)


@settings(max_examples=300, deadline=None)
@given(atoms(), ALPHAS)
def cvar_weights_form_a_risk_envelope(case, alpha):
    values, probs = case
    weights, rho = AggregatorSpec.cvar(alpha).weights(values, probs)
    # the quantile search's PROB_TOL slack may leave the tail that much
    # heavier than 1 - alpha
    assert abs(float(weights.sum()) - 1.0) <= 2.0 * PROB_TOL / (1.0 - alpha)
    assert np.all(weights >= 0.0)
    assert np.all(weights <= probs / (1.0 - alpha))
    assert rho in values[probs > 0.0]


@settings(max_examples=200, deadline=None)
@given(atoms(equal=True), st.data())
def top_k_is_cvar_at_one_minus_k_over_n(case, data):
    values, probs = case
    n = int((probs > 0.0).sum())
    k = data.draw(st.integers(1, n))
    top_k = AggregatorSpec.top_k(k)
    if k == n:
        assert top_k.value(values, probs) == AggregatorSpec.expectation().value(
            values, probs)
    else:
        cvar = AggregatorSpec.cvar(1.0 - k / n)
        assert top_k.value(values, probs) == cvar.value(values, probs)
        np.testing.assert_array_equal(top_k.weights(values, probs)[0],
                                      cvar.weights(values, probs)[0])


@settings(max_examples=200, deadline=None)
@given(specs_with_atoms())
def aggregate_is_spec_value(case):
    spec, values, probs = case
    Z = DiscreteRandomVariable(values, probs)
    assert aggregate(Z, spec) == spec.value(values, probs)


def _bits(x):
    return None if x is None else np.asarray(x, float).tobytes()


@settings(max_examples=200, deadline=None)
@given(specs_with_atoms(alphas=EDGE_ALPHAS))
def fused_call_matches_value_and_weights(case):
    # the training epoch's single call has the bits of ``value``; the
    # public ``weights`` is that call's tail, so the weights digests and
    # the properties above check the weights
    spec, values, probs = case
    value, _, _ = spec._value_weights(values, probs)
    assert _bits(value) == _bits(spec.value(values, probs))


@settings(max_examples=300, deadline=None)
@given(atoms(values=SIGNED_ZERO_VALUES, max_atoms=16), EDGE_ALPHAS)
def cvar_routes_agree(case, alpha):
    # the plain-Python small-input route has the bits of the numpy route
    values, probs = case
    small = _cvar_small(values.tolist(), probs.tolist(), alpha)
    assert _bits(small) == _bits(_cvar_merged(*_merge(values, probs), alpha))


@st.composite
def tied_values(draw):
    """+0.0-normalised values, as training passes them: 1 to 300 draws
    from a pool of 1 to 5 values, so that runs of many lengths tie (all of
    them with a pool of one), or up to 64 free draws."""
    if draw(st.booleans()):
        values = draw(st.lists(EXTENDED_VALUES, min_size=1, max_size=64))
    else:
        pool = draw(st.lists(EXTENDED_VALUES, min_size=1, max_size=5))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                              max_size=300))
        values = [pool[i] for i in picks]
    return np.array(values) + 0.0


@settings(max_examples=150, deadline=None)
@given(tied_values(), st.one_of(st.none(), st.floats(1e-9, 1.0)))
def equal_merge_matches_merge(values, p0):
    # the sort-based merge has the bits of np.unique and bincount
    probs = np.full(values.size, 1.0 / values.size if p0 is None else p0)
    uv, up = _merge_equal(values, np.cumsum(probs))
    expected_uv, expected_up = _merge(values, probs)
    assert _bits(uv) == _bits(expected_uv)
    assert _bits(up) == _bits(expected_up)


@settings(max_examples=100, deadline=None)
@given(tied_values(), EDGE_ALPHAS, st.data())
def equal_atoms_route_matches_fused_call(values, alpha, data):
    # training's per-instance call, with the level and the merged
    # probabilities fixed once, has the bits of the general call
    n = values.size
    probs = np.full(n, 1.0 / n)
    spec = data.draw(st.sampled_from([AggregatorSpec.cvar(alpha),
                                      AggregatorSpec.top_k(
                                          data.draw(st.integers(1, n)))]))
    got = spec._value_weights(values, probs, spec._equal_atoms(probs))
    expected = spec._value_weights(values, probs)
    assert [_bits(x) for x in got] == [_bits(x) for x in expected]
