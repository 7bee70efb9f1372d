"""Unit tests for inequality indices, Lorenz curves, and majorization."""

import numpy as np
import pytest

from grouprisk import (ParameterError, UndefinedMetricError,
                       UnsupportedAxiomError, check_inequality_axiom,
                       coefficient_of_variation, cvar_deviation,
                       cvar_inequality, deviation_from_inequality,
                       from_deviation, inequality_from_deviation, lorenz_curve,
                       lorenz_dominates, majorized_by, pigou_dalton_pair,
                       risk_from_inequality, sd_deviation, spread_over_mean)

CV = coefficient_of_variation()


class TestIndexFromDeviation:
    def test_constant_vector(self):
        assert inequality_from_deviation([3.0, 3.0, 3.0], sd_deviation) == 0.0

    def test_cv_example(self):
        assert inequality_from_deviation([1.0, 3.0], sd_deviation) == pytest.approx(
            0.5)

    def test_zero_mean_input(self):
        assert inequality_from_deviation([0.0, 0.0], sd_deviation) == 0.0

    def test_rejects_negative_entries(self):
        with pytest.raises(ParameterError):
            CV([1.0, -2.0])

    @pytest.mark.parametrize("x", [[1.0, -2.0], [1.0, np.inf], [np.nan, 1.0]])
    def test_every_public_path_rejects_bad_entries(self, x):
        for index in (CV, cvar_inequality(0.5), spread_over_mean(),
                      from_deviation("sd", sd_deviation),
                      lambda v: inequality_from_deviation(v, sd_deviation)):
            with pytest.raises(ParameterError):
                index(x)

    def test_cvar_index_rejects_its_level_when_built(self):
        with pytest.raises(ParameterError):
            cvar_inequality(1.0)

    def test_cv_matches_independent_computation(self, rng):
        for _ in range(100):
            x = rng.uniform(0.1, 10.0, int(rng.integers(2, 12)))
            direct = float(np.sqrt(np.mean((x - x.mean()) ** 2)) / x.mean())
            assert CV(x) == pytest.approx(direct, abs=1e-12)

    def test_scaled_cv_has_the_bits_of_the_wrapped_deviation(self, rng):
        scaled = coefficient_of_variation(2.5)
        wrapped = from_deviation("wrapped", lambda Z: 2.5 * sd_deviation(Z))
        assert scaled.name == "scaled_cv(lambda=2.5)"
        assert coefficient_of_variation(1.0).name == "coefficient_of_variation"
        for _ in range(100):
            x = rng.uniform(0.1, 10.0, int(rng.integers(2, 12)))
            assert scaled(x) == wrapped(x)


class TestRoundTrips:
    def test_deviation_recovers_sigma(self):
        d = deviation_from_inequality([1.0, 3.0], CV)
        assert d == pytest.approx(1.0)

    def test_risk_on_constants(self):
        # a normalised index vanishes on constants, so the risk is the
        # constant itself
        for c in (0.5, 2.0, 7.0):
            assert risk_from_inequality([c, c, c, c], CV) == pytest.approx(
                c, abs=1e-12)

    def test_risk_permutation_invariant(self, rng):
        for index in (CV, cvar_inequality(0.8)):
            for _ in range(50):
                x = rng.uniform(0.1, 10.0, 8)
                assert risk_from_inequality(x, index) == pytest.approx(
                    risk_from_inequality(rng.permutation(x), index), abs=1e-12)

    def test_risk_is_mean_plus_deviation_exactly(self, rng):
        for _ in range(50):
            x = rng.uniform(0.1, 10.0, 6)
            lhs = risk_from_inequality(x, CV)
            rhs = float(x.mean()) + deviation_from_inequality(x, CV)
            assert lhs == rhs

    def test_index_of_induced_deviation_round_trip(self, rng):
        for index in (CV, spread_over_mean(), cvar_inequality(0.7)):
            for _ in range(100):
                x = rng.uniform(0.1, 10.0, int(rng.integers(2, 10)))

                def induced(Z, _idx=index):
                    return deviation_from_inequality(Z.values, _idx)

                again = inequality_from_deviation(x, induced)
                assert again == pytest.approx(index(x), abs=1e-12)

    def test_deviation_of_induced_index_round_trip(self, rng):
        for dev in (sd_deviation, lambda Z: cvar_deviation(Z, 0.6)):
            index = from_deviation("wrapped", dev)
            for _ in range(100):
                x = rng.uniform(0.1, 10.0, int(rng.integers(2, 10)))
                from grouprisk import DiscreteRandomVariable
                Z = DiscreteRandomVariable.uniform(x)
                assert deviation_from_inequality(x, index) == pytest.approx(
                    dev(Z), abs=1e-12)


class TestLorenzCurve:
    def test_perfect_equality_diagonal(self):
        curve = lorenz_curve([1.0, 1.0, 1.0])
        np.testing.assert_allclose(curve.shares, curve.ps)

    def test_concentrated_vector(self):
        curve = lorenz_curve([0.0, 0.0, 2.0])
        np.testing.assert_allclose(curve.ps, [0.0, 1 / 3, 2 / 3, 1.0])
        np.testing.assert_allclose(curve.shares, [0.0, 0.0, 0.0, 1.0])

    def test_permutation_invariance(self, rng):
        x = rng.uniform(0.0, 5.0, 7) + 0.1
        a = lorenz_curve(x)
        b = lorenz_curve(rng.permutation(x))
        np.testing.assert_allclose(a.shares, b.shares)

    def test_zero_mean_error(self):
        with pytest.raises(UndefinedMetricError):
            lorenz_curve([0.0, 0.0])

    def test_endpoints_monotone_convex(self, rng):
        for _ in range(50):
            x = rng.uniform(0.0, 10.0, int(rng.integers(2, 10))) + 0.01
            curve = lorenz_curve(x)
            assert curve.shares[0] == 0.0
            assert curve.shares[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(curve.shares) >= -1e-15)
            slopes = np.diff(curve.shares) / np.diff(curve.ps)
            assert np.all(np.diff(slopes) >= -1e-9)


class TestMajorization:
    def test_flat_majorized_by_spread(self):
        assert majorized_by([2.0, 2.0], [1.0, 3.0])

    def test_spread_not_majorized_by_flat(self):
        assert not majorized_by([1.0, 3.0], [2.0, 2.0])

    def test_permutations_both_ways(self, rng):
        x = rng.uniform(0.0, 5.0, 6)
        y = rng.permutation(x)
        assert majorized_by(x, y) and majorized_by(y, x)

    def test_unequal_totals(self):
        assert not majorized_by([1.0, 1.0], [1.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            majorized_by([1.0], [1.0, 2.0])


class TestLorenzDominance:
    def test_flat_dominates_spread(self):
        assert lorenz_dominates([1.0, 1.0], [0.0, 2.0])
        assert not lorenz_dominates([0.0, 2.0], [1.0, 1.0])

    def test_self_dominance(self, rng):
        x = rng.uniform(0.1, 5.0, 8)
        assert lorenz_dominates(x, x)

    def test_majorization_implies_dominance(self, rng):
        for _ in range(200):
            x, y = pigou_dalton_pair(rng, int(rng.integers(3, 9)))
            assert majorized_by(x, y)
            assert lorenz_dominates(x, y)

    def test_different_lengths_compare_via_knots(self):
        # same distribution at different resolutions
        assert lorenz_dominates([1.0, 3.0], [1.0, 1.0, 3.0, 3.0])
        assert lorenz_dominates([1.0, 1.0, 3.0, 3.0], [1.0, 3.0])


class TestAxiomChecker:
    def test_unsupported_structural_axioms(self):
        for ax in ("I8", "I9", "I10"):
            with pytest.raises(UnsupportedAxiomError):
                check_inequality_axiom(CV, ax, 10)

    def test_unknown_axiom(self):
        with pytest.raises(ParameterError):
            check_inequality_axiom(CV, "I42", 10)

    def test_cv_core_axioms_pass(self):
        for ax in ("I1", "I2", "I4", "I5", "I6", "I7", "I11"):
            rep = check_inequality_axiom(CV, ax, 300, seed=5)
            assert rep.passed, (ax, rep.counterexample)

    def test_cv_is_strictly_schur_convex(self):
        assert check_inequality_axiom(CV, "I3", 1000, seed=5).passed

    def test_cv_transfers_clear_the_tolerance(self):
        # transfers across gaps near 1e-6 once moved the CV by less than
        # the 1e-9 tolerance, a spurious I3 counterexample at these seeds
        assert check_inequality_axiom(CV, "I3", 1000, seed=39).passed
        assert check_inequality_axiom(CV, "I7", 1000, seed=64).passed

    def test_cvar_index_schur_convex_weakly(self, rng):
        """Tail-average indices respect majorization but admit exact ties.

        A transfer confined strictly below the tail leaves the index
        unchanged, so the strict I3 search finds a counterexample, while
        the weak inequality I(x) <= I(y) holds on every sampled pair.
        """
        index = cvar_inequality(0.5)
        rep = check_inequality_axiom(index, "I3", 1000, seed=5)
        assert not rep.passed
        ce = rep.counterexample
        assert ce["lhs"] <= ce["rhs"] + 1e-9
        for _ in range(300):
            x, y = pigou_dalton_pair(rng, int(rng.integers(3, 9)))
            assert index(x) <= index(y) + 1e-9

    def test_cvar_index_tie_construction(self):
        """Explicit tie: moving mass between the two lowest of four equal
        weights never touches the top-half tail average."""
        index = cvar_inequality(0.5)
        y = np.array([1.0, 2.0, 3.0, 10.0])
        x = np.array([1.4, 1.6, 3.0, 10.0])
        assert majorized_by(x, y)
        assert index(x) == pytest.approx(index(y), abs=1e-12)

    def test_cvar_index_other_axioms(self):
        index = cvar_inequality(0.7)
        for ax in ("I1", "I2", "I4", "I5", "I6", "I11"):
            rep = check_inequality_axiom(index, ax, 300, seed=9)
            assert rep.passed, (ax, rep.counterexample)

    def test_zero_index_fails_normalization(self):
        zero = from_deviation("zero", lambda Z: 0.0)
        assert not check_inequality_axiom(zero, "I5", 200, seed=1).passed
        assert not check_inequality_axiom(zero, "I3", 200, seed=1).passed
        assert check_inequality_axiom(zero, "I2", 200, seed=1).passed

    def test_spread_over_mean_reproducible(self):
        index = spread_over_mean()
        a = check_inequality_axiom(index, "I6", 500, seed=3)
        b = check_inequality_axiom(index, "I6", 500, seed=3)
        assert a.passed == b.passed
        assert a.counterexample == b.counterexample

    def test_seed_determinism(self):
        a = check_inequality_axiom(CV, "I3", 100, seed=12)
        b = check_inequality_axiom(CV, "I3", 100, seed=12)
        assert a.to_dict() == b.to_dict()
