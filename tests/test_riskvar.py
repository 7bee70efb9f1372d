"""Unit tests for discrete variables and the risk/deviation measures."""

import warnings

import numpy as np
import pytest

from grouprisk import (AggregatorSpec, DiscreteRandomVariable, ParameterError,
                       aggregate, cvar, cvar_deviation, expectation, quantile,
                       sd_deviation)

from conftest import grid_cvar, random_variable


def drv(atoms):
    return DiscreteRandomVariable.from_atoms(atoms)


UNIFORM_1234 = DiscreteRandomVariable.uniform([1.0, 2.0, 3.0, 4.0])


class TestVariableValidation:
    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            DiscreteRandomVariable(np.array([]), np.array([]))

    def test_rejects_negative_prob(self):
        with pytest.raises(ParameterError):
            drv([(1.0, 1.5), (2.0, -0.5)])

    def test_rejects_bad_total(self):
        with pytest.raises(ParameterError):
            drv([(1.0, 0.6), (2.0, 0.5)])

    def test_rejects_nonfinite_value(self):
        with pytest.raises(ParameterError):
            drv([(np.inf, 1.0)])

    def test_allows_zero_prob_atoms(self):
        Z = drv([(1.0, 1.0), (99.0, 0.0)])
        assert Z.values.size == 2


class TestExpectation:
    def test_constant(self):
        assert expectation(drv([(5.0, 1.0)])) == 5.0

    def test_uniform_mean(self):
        assert expectation(UNIFORM_1234) == 2.5

    def test_weighted_sum(self):
        assert expectation(drv([(0.0, 0.9), (10.0, 0.1)])) == pytest.approx(1.0)


class TestQuantile:
    def test_uniform_lower_convention(self):
        assert quantile(UNIFORM_1234, 0.5) == 2.0

    def test_constant(self):
        for a in (0.01, 0.4, 0.99):
            assert quantile(drv([(7.0, 1.0)]), a) == 7.0

    def test_cdf_inversion(self):
        assert quantile(drv([(0.0, 0.9), (10.0, 0.1)]), 0.95) == 10.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ParameterError):
            quantile(UNIFORM_1234, alpha)


class TestCvar:
    def test_constant_translation(self):
        assert cvar(drv([(5.0, 1.0)]), 0.3) == 5.0

    def test_uniform_half(self):
        assert cvar(UNIFORM_1234, 0.5) == pytest.approx(3.5)

    def test_uniform_top_quarter(self):
        assert cvar(UNIFORM_1234, 0.75) == pytest.approx(4.0)

    def test_two_point_tail(self):
        assert cvar(drv([(0.0, 0.5), (10.0, 0.5)]), 0.9) == pytest.approx(10.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ParameterError):
            cvar(UNIFORM_1234, alpha)

    def test_duplicate_atoms_merge(self):
        split_atoms = drv([(1.0, 0.25), (1.0, 0.25), (3.0, 0.5)])
        merged = drv([(1.0, 0.5), (3.0, 0.5)])
        for a in (0.2, 0.5, 0.8):
            assert cvar(split_atoms, a) == cvar(merged, a)

    def test_zero_prob_atoms_ignored(self):
        Z = drv([(1.0, 0.5), (3.0, 0.5), (1000.0, 0.0)])
        assert cvar(Z, 0.999) == pytest.approx(3.0)
        assert aggregate(Z, AggregatorSpec.max_value()) == 3.0


class TestCvarDeviation:
    def test_constant_is_exactly_zero(self):
        assert cvar_deviation(drv([(5.0, 1.0)]), 0.5) == 0.0

    def test_uniform(self):
        assert cvar_deviation(UNIFORM_1234, 0.5) == pytest.approx(1.0)

    def test_two_point(self):
        assert cvar_deviation(drv([(0.0, 0.5), (10.0, 0.5)]), 0.9) == pytest.approx(5.0)


class TestSdDeviation:
    def test_constant(self):
        assert sd_deviation(drv([(4.2, 1.0)])) == 0.0

    def test_two_equal_prob_atoms_half_gap(self, rng):
        for _ in range(50):
            a, b = rng.uniform(-10, 10, 2)
            Z = drv([(a, 0.5), (b, 0.5)])
            assert sd_deviation(Z) == pytest.approx(0.5 * abs(a - b), abs=1e-12)

    def test_skewed(self):
        assert sd_deviation(drv([(0.0, 0.9), (10.0, 0.1)])) == pytest.approx(3.0)

    def test_squared_matches_brute_force(self, rng):
        for _ in range(200):
            Z = random_variable(rng, max_atoms=12)
            mean = sum(v * p for v, p in Z.atoms)
            brute = sum(p * (v - mean) ** 2 for v, p in Z.atoms)
            assert sd_deviation(Z) ** 2 == pytest.approx(brute, abs=1e-12)


class TestAggregate:
    def test_cvar_quadrangle_example(self):
        spec = AggregatorSpec.cvar(0.5)
        lhs = aggregate(UNIFORM_1234, spec)
        assert lhs == pytest.approx(3.5)
        rhs = expectation(UNIFORM_1234) + cvar_deviation(UNIFORM_1234, 0.5)
        assert abs(lhs - rhs) <= 1e-12

    def test_sd_penalty(self):
        Z = drv([(1.0, 0.5), (3.0, 0.5)])
        assert aggregate(Z, AggregatorSpec.sd_penalty(2.0)) == pytest.approx(4.0)

    def test_max(self):
        assert aggregate(UNIFORM_1234, AggregatorSpec.max_value()) == 4.0

    def test_top_k_mean(self):
        assert aggregate(UNIFORM_1234, AggregatorSpec.top_k(2)) == pytest.approx(3.5)

    def test_top_k_counts_duplicates(self):
        Z = DiscreteRandomVariable.uniform([5.0, 5.0, 1.0])
        assert aggregate(Z, AggregatorSpec.top_k(2)) == pytest.approx(5.0)

    def test_top_k_requires_equal_probs(self):
        Z = drv([(1.0, 0.7), (2.0, 0.3)])
        with pytest.raises(ParameterError):
            aggregate(Z, AggregatorSpec.top_k(1))

    def test_top_k_rejects_large_k(self):
        with pytest.raises(ParameterError):
            aggregate(UNIFORM_1234, AggregatorSpec.top_k(5))

    def test_cvar_weights_skip_zero_probability_quantile_atom(self):
        # alpha within PROB_TOL of 0 with the lowest value on a
        # zero-probability atom: rho must come from the positive atoms
        spec = AggregatorSpec.cvar(1e-13)
        values, probs = np.array([0.1, 0.5, 0.9]), np.array([0.0, 0.5, 0.5])
        weights, rho = spec.weights(values, probs)
        assert rho == 0.5
        assert weights[0] == 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(weights @ values) == pytest.approx(
            spec.value(values, probs), abs=1e-12)

    @pytest.mark.parametrize("spec, values, probs, expected", [
        (AggregatorSpec.cvar(0.5), [np.inf, 1.0], [0.5, 0.5], np.inf),
        (AggregatorSpec.top_k(1), [1.0, np.inf], [0.5, 0.5], np.inf),
        (AggregatorSpec.cvar(0.5), [np.inf, -np.inf], [0.5, 0.5], np.inf),
        (AggregatorSpec.cvar(0.5), [np.inf, np.nan], [0.5, 0.5], np.nan),
        # the upper half: 0.4 at 3 and 0.1 at 1
        (AggregatorSpec.cvar(0.5), [-np.inf, 1.0, 3.0], [0.3, 0.3, 0.4], 2.6),
        (AggregatorSpec.cvar(0.5), [-np.inf, 1.0], [0.6, 0.4], -np.inf),
        # alpha = 1 - 9/10 rounds below 0.1: the top 9 atoms are still finite
        (AggregatorSpec.top_k(9), [-np.inf] + list(range(1, 10)), [0.1] * 10,
         5.0),
        # sd_penalty: an infinite atom makes the sd infinite
        (AggregatorSpec.sd_penalty(1.0), [np.inf, 1.0], [0.5, 0.5], np.inf),
        (AggregatorSpec.sd_penalty(0.0), [np.inf, 1.0], [0.5, 0.5], np.inf),
        (AggregatorSpec.sd_penalty(1.0), [np.nan, 1.0], [0.5, 0.5], np.nan),
        (AggregatorSpec.sd_penalty(2.0), [np.inf, -np.inf], [0.5, 0.5], np.nan),
        # -inf mean plus an infinite penalty
        (AggregatorSpec.sd_penalty(1.0), [-np.inf, 1.0], [0.5, 0.5], np.nan),
        (AggregatorSpec.sd_penalty(0.0), [-np.inf, 1.0], [0.5, 0.5], -np.inf),
        (AggregatorSpec.sd_penalty(1.0), [-np.inf, -np.inf], [0.5, 0.5],
         -np.inf),
        # a zero-probability NaN atom does not count: mean 2, sd 1
        (AggregatorSpec.sd_penalty(1.0), [np.nan, 1.0, 3.0], [0.0, 0.5, 0.5],
         3.0),
        (AggregatorSpec.sd_penalty(1.0), [1.0, np.inf, 3.0], [0.5, 0.0, 0.5],
         3.0),
        # expectation: only positive-probability atoms count
        (AggregatorSpec.expectation(), [np.inf, 1.0], [0.0, 1.0], 1.0),
        (AggregatorSpec.expectation(), [np.nan, 1.0, 3.0], [0.0, 0.5, 0.5],
         2.0),
        (AggregatorSpec.expectation(), [np.inf, 1.0], [0.5, 0.5], np.inf),
        (AggregatorSpec.expectation(), [-np.inf, 1.0], [0.5, 0.5], -np.inf),
        (AggregatorSpec.expectation(), [np.inf, -np.inf], [0.5, 0.5], np.nan),
        (AggregatorSpec.expectation(), [np.nan, 1.0], [0.5, 0.5], np.nan),
        (AggregatorSpec.top_k(2), [np.inf, -np.inf], [0.5, 0.5], np.nan),
    ])
    def test_tail_value_of_nonfinite_atoms(self, spec, values, probs, expected):
        values, probs = np.array(values, dtype=float), np.array(probs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spec.value(values, probs)
            fused, weights, rho = spec._value_weights(values, probs)
            public = spec.weights(values, probs)
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        # training's fused call gives the same value, and finite weights
        # with it or none, as the public weights do
        np.testing.assert_array_equal(fused, got)
        if np.isfinite(got):
            assert np.isfinite(weights).all()
            # zero-probability atoms get no weight
            assert not weights[probs == 0.0].any()
        else:
            assert weights is None
            np.testing.assert_equal(public, (None, rho))

    @pytest.mark.parametrize("spec", [AggregatorSpec.cvar(0.5),
                                      AggregatorSpec.top_k(1),
                                      AggregatorSpec.max_value()])
    def test_no_positive_probability_atom(self, spec):
        values, probs = np.array([1.0, 2.0]), np.array([0.0, 0.0])
        for call in (spec.value, spec.weights, spec._value_weights):
            with pytest.raises(ParameterError,
                               match="no atom has positive probability"):
                call(values, probs)

    def test_no_positive_probability_atom_sums_to_zero(self):
        values, probs = np.array([1.0, 2.0]), np.array([0.0, 0.0])
        for spec in (AggregatorSpec.expectation(),
                     AggregatorSpec.sd_penalty(1.0)):
            assert spec.value(values, probs) == 0.0

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            AggregatorSpec.cvar(1.0)
        with pytest.raises(ParameterError):
            AggregatorSpec.sd_penalty(-0.1)
        with pytest.raises(ParameterError):
            AggregatorSpec.top_k(0)
        with pytest.raises(ParameterError):
            AggregatorSpec("percentile")


class TestCvarProperties:
    def test_grid_oracle_equivalence(self, rng):
        for _ in range(100):
            Z = random_variable(rng)
            alpha = float(rng.uniform(0.01, 0.99))
            assert cvar(Z, alpha) == pytest.approx(grid_cvar(Z, alpha, 20_001),
                                                   abs=1e-6)

    def test_quadrangle_identity(self, rng):
        for _ in range(300):
            Z = random_variable(rng)
            alpha = float(rng.uniform(0.01, 0.99))
            lhs = aggregate(Z, AggregatorSpec.cvar(alpha))
            rhs = expectation(Z) + cvar_deviation(Z, alpha)
            assert abs(lhs - rhs) <= 1e-12

    def test_tail_count_consistency(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 15))
            k = int(rng.integers(1, n))
            Z = DiscreteRandomVariable.uniform(rng.uniform(-10, 10, n))
            alpha = 1.0 - k / n
            top_k_mean = float(np.sort(Z.values)[-k:].mean())
            assert cvar(Z, alpha) == pytest.approx(top_k_mean, abs=1e-12)

    def test_limits(self, rng):
        for _ in range(100):
            Z = random_variable(rng)
            assert cvar(Z, 1e-9) == pytest.approx(expectation(Z), abs=1e-6)
            assert cvar(Z, 1.0 - 1e-9) == pytest.approx(float(Z.values.max()),
                                                        abs=1e-6)

    def test_monotone_in_alpha(self, rng):
        for _ in range(100):
            Z = random_variable(rng)
            a1, a2 = sorted(rng.uniform(0.01, 0.99, 2))
            assert cvar(Z, a1) <= cvar(Z, a2) + 1e-12

    def test_deviation_nonnegative_zero_iff_constant(self, rng):
        for _ in range(100):
            Z = random_variable(rng)
            alpha = float(rng.uniform(0.01, 0.99))
            dev = cvar_deviation(Z, alpha)
            assert dev >= -1e-12
            if float(np.ptp(Z.values)) > 1e-6:
                assert dev > 0.0
        const = drv([(3.0, 0.4), (3.0, 0.6)])
        assert cvar_deviation(const, 0.5) == 0.0
