"""Property tests for ``AggregatorSpec``; the properties are in
``aggregator_properties``.

hypothesis is imported when the first of these tests runs, not when the
suite is collected.  Importing it changes the process's heap layout: in
the same process the numpy-bound grid oracle of the wall-time-limited
acceptance criterion 1 then takes about six times the page faults and
runs about 40% slower.
"""

import pytest


def _properties():
    pytest.importorskip("hypothesis")
    import aggregator_properties
    return aggregator_properties


def test_value_is_weights_dot_values():
    _properties().value_is_weights_dot_values()


def test_cvar_weights_form_a_risk_envelope():
    _properties().cvar_weights_form_a_risk_envelope()


def test_top_k_is_cvar_at_one_minus_k_over_n():
    _properties().top_k_is_cvar_at_one_minus_k_over_n()


def test_aggregate_is_spec_value():
    _properties().aggregate_is_spec_value()


def test_fused_call_matches_value_and_weights():
    _properties().fused_call_matches_value_and_weights()


def test_cvar_routes_agree():
    _properties().cvar_routes_agree()


def test_equal_merge_matches_merge():
    _properties().equal_merge_matches_merge()


def test_equal_atoms_route_matches_fused_call():
    _properties().equal_atoms_route_matches_fused_call()
