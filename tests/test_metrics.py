"""Unit tests for the evaluation metrics."""

import numpy as np
import pytest

from grouprisk import (Dataset, DiscreteRandomVariable, LinearModel, LossSpec,
                       ParameterError, UndefinedMetricError, covariance_metric,
                       dp_violation, evaluate, mean_difference_01,
                       mutual_information_metric, pairwise_disagreement,
                       partition, predictions_from_scores, subgroup_loss_gap,
                       subgroup_risks, weighted_risk)


def two_group_partition(sizes):
    s = np.concatenate([np.full(n, g) for g, n in enumerate(sizes)])
    ds = Dataset(np.ones((s.size, 1)), np.ones(s.size), s)
    return ds, partition(ds)


class TestMeanDifference:
    def test_perfect_predictions(self):
        ds, part = two_group_partition([5, 5])
        assert mean_difference_01(ds.labels, ds.labels, part) == 0.0

    def test_hand_arithmetic(self):
        # group 0: 10 rows, 2 errors; group 1: 10 rows, 5 errors
        _, part = two_group_partition([10, 10])
        labels = np.ones(20)
        preds = labels.copy()
        preds[:2] = -1.0
        preds[10:15] = -1.0
        assert mean_difference_01(preds, labels, part) == pytest.approx(0.3)

    def test_group_swap_symmetry(self):
        _, part = two_group_partition([10, 10])
        labels = np.ones(20)
        preds = labels.copy()
        preds[:2] = -1.0
        preds[10:15] = -1.0
        swapped = Dataset(np.ones((20, 1)), labels,
                          np.concatenate([np.ones(10), np.zeros(10)]).astype(int))
        part_swapped = partition(swapped)
        assert mean_difference_01(preds, labels, part) == pytest.approx(
            mean_difference_01(preds, labels, part_swapped))

    def test_requires_two_groups(self):
        _, part = two_group_partition([4, 4, 4])
        with pytest.raises(ParameterError):
            mean_difference_01(np.ones(12), np.ones(12), part)


class TestDpViolation:
    def test_identical_distributions(self):
        _, part = two_group_partition([4, 4])
        preds = np.array([1.0, -1, 1, -1, 1, -1, 1, -1])
        assert dp_violation(preds, part) == 0.0

    def test_extreme(self):
        _, part = two_group_partition([3, 3])
        preds = np.array([1.0, 1, 1, -1, -1, -1])
        assert dp_violation(preds, part) == 1.0

    def test_three_group_pairwise_max(self):
        _, part = two_group_partition([10, 10, 10])
        preds = np.full(30, -1.0)
        preds[:2] = 1.0        # rate 0.2
        preds[10:15] = 1.0     # rate 0.5
        preds[20:29] = 1.0     # rate 0.9
        assert dp_violation(preds, part) == pytest.approx(0.7)

    def test_bounds(self, rng):
        for _ in range(30):
            m = 30
            s = rng.integers(0, 3, m)
            ds = Dataset(np.ones((m, 1)), np.ones(m), s)
            preds = rng.choice([-1.0, 1.0], m)
            v = dp_violation(preds, partition(ds))
            assert 0.0 <= v <= 1.0


class TestCovariance:
    def test_constant_predictions(self, rng):
        s = rng.normal(size=50)
        assert covariance_metric(np.ones(50), s) == pytest.approx(0.0, abs=1e-12)

    def test_identity_bernoulli(self):
        a = np.array([0.0, 1.0] * 50)
        assert covariance_metric(a, a) == pytest.approx(0.25)

    def test_permutation_baseline(self, rng):
        m = 4000
        s = rng.choice([0.0, 1.0], m)
        a = rng.permutation(s)
        bound = 3.0 * np.sqrt(s.var() * a.var() / m)
        assert abs(covariance_metric(a, s)) < bound


class TestMutualInformation:
    def test_independent_is_zero(self):
        _, part = two_group_partition([4, 4])
        preds = np.array([1.0, 1, -1, -1, 1, 1, -1, -1])
        assert mutual_information_metric(preds, part) == pytest.approx(0.0,
                                                                       abs=1e-12)

    def test_identity_coupling(self):
        _, part = two_group_partition([10, 10])
        preds = np.concatenate([np.full(10, -1.0), np.full(10, 1.0)])
        assert mutual_information_metric(preds, part) == pytest.approx(np.log(2.0))

    def test_nonnegative_and_bounded(self, rng):
        for _ in range(50):
            m = 40
            n_groups = int(rng.integers(2, 5))
            s = rng.integers(0, n_groups, m)
            ds = Dataset(np.ones((m, 1)), np.ones(m), s)
            part = partition(ds)
            mi = mutual_information_metric(rng.choice([-1.0, 1.0], m), part)
            assert 0.0 <= mi <= min(np.log(2.0), np.log(part.n)) + 1e-12


class TestPairwiseDisagreement:
    def test_perfect_separation(self):
        scores = np.array([3.0, 2.0, -1.0, -2.0])
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        assert pairwise_disagreement(scores, labels) == 0.0

    def test_reversed(self):
        scores = np.array([-3.0, -2.0, 1.0, 2.0])
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        assert pairwise_disagreement(scores, labels) == 1.0

    def test_all_ties(self):
        scores = np.zeros(6)
        labels = np.array([1.0, 1, 1, -1, -1, -1])
        assert pairwise_disagreement(scores, labels) == pytest.approx(0.5)

    def test_single_class(self):
        with pytest.raises(UndefinedMetricError):
            pairwise_disagreement(np.array([1.0, 2.0]), np.array([1.0, 1.0]))

    def test_brute_force_agreement(self, rng):
        for _ in range(30):
            m = 25
            scores = np.round(rng.normal(size=m), 1)  # induce some ties
            labels = rng.choice([-1.0, 1.0], m)
            if np.all(labels == labels[0]):
                continue
            pos = scores[labels == 1.0]
            neg = scores[labels == -1.0]
            bad = sum((sp < sn) + 0.5 * (sp == sn) for sp in pos for sn in neg)
            brute = bad / (pos.size * neg.size)
            assert pairwise_disagreement(scores, labels) == pytest.approx(brute)

    def test_one_search_keeps_the_bits_of_two(self, rng):
        # untied scores take one binary search, tied ones two; both must
        # give the bits of the two-search rank sum
        def two_searches(scores, labels):
            s, q = np.sort(scores), np.sort(scores[labels == 1.0])
            n_pos, n_neg = q.size, scores.size - q.size
            rank_sum = 0.5 * float((np.searchsorted(s, q, side="left")
                                    + np.searchsorted(s, q, side="right")
                                    + 1).sum())
            return 1.0 - (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

        for m, decimals in ((7, None), (1001, 1), (1001, None), (50_000, 2),
                            (50_000, None)):
            scores = rng.normal(size=m)
            if decimals is not None:
                scores = np.round(scores, decimals)
            labels = rng.choice([-1.0, 1.0], m)
            labels[:2] = 1.0, -1.0
            expected = two_searches(scores, labels)
            assert pairwise_disagreement(scores, labels) == expected
            # tied infinities, and NaN, which no comparison orders
            for special in (np.inf, -np.inf, np.nan):
                spoilt = scores.copy()
                spoilt[[0, 1, m - 1]] = special
                assert pairwise_disagreement(spoilt, labels) == \
                    two_searches(spoilt, labels)

    def test_negation_complement_without_ties(self, rng):
        scores = rng.normal(size=30)
        labels = rng.choice([-1.0, 1.0], 30)
        labels[0], labels[1] = 1.0, -1.0
        total = (pairwise_disagreement(scores, labels)
                 + pairwise_disagreement(-scores, labels))
        assert total == pytest.approx(1.0)


class TestSubgroupLossGap:
    def test_constant(self):
        Z = DiscreteRandomVariable.uniform([2.0, 2.0, 2.0])
        assert subgroup_loss_gap(Z) == 0.0

    def test_two_atoms(self):
        Z = DiscreteRandomVariable.uniform([1.0, 3.0])
        assert subgroup_loss_gap(Z) == 2.0

    def test_gap_is_twice_sd_for_equal_prob_pairs(self, rng):
        from grouprisk import sd_deviation
        for _ in range(20):
            a, b = rng.uniform(-5, 5, 2)
            Z = DiscreteRandomVariable.uniform([a, b])
            assert subgroup_loss_gap(Z) == pytest.approx(2.0 * sd_deviation(Z),
                                                         abs=1e-12)

    def test_ignores_zero_prob_atoms(self):
        Z = DiscreteRandomVariable.from_atoms([(1.0, 0.5), (2.0, 0.5),
                                               (50.0, 0.0)])
        assert subgroup_loss_gap(Z) == 1.0


class TestEvaluate:
    def test_report_fields(self, rng):
        m = 60
        X = rng.normal(size=(m, 2))
        y = rng.choice([-1.0, 1.0], m)
        s = rng.integers(0, 2, m)
        ds = Dataset(X, y, s)
        part = partition(ds)
        report = evaluate(LinearModel(rng.normal(size=2), 0.1), ds, part,
                          LossSpec("squared_hinge"))
        d = report.to_dict()
        assert 0.0 <= d["zero_one_risk"] <= 1.0
        assert set(d["subgroup_zero_one"]) == {0, 1}
        assert d["mean_difference"] is not None
        assert d["pairwise_disagreement"] is not None
        assert d["subgroup_loss_gap"] >= 0.0

    def test_row_permutation_invariance(self, rng):
        m = 40
        X = rng.normal(size=(m, 2))
        y = rng.choice([-1.0, 1.0], m)
        s = rng.integers(0, 2, m)
        model = LinearModel(rng.normal(size=2), 0.0)
        ds = Dataset(X, y, s)
        perm = rng.permutation(m)
        ds2 = Dataset(X[perm], y[perm], s[perm])
        r1 = evaluate(model, ds, partition(ds), LossSpec("hinge")).to_dict()
        r2 = evaluate(model, ds2, partition(ds2), LossSpec("hinge")).to_dict()
        for key in ("zero_one_risk", "dp_violation", "covariance",
                    "mutual_information_nats", "pairwise_disagreement",
                    "subgroup_loss_gap", "mean_difference"):
            assert r1[key] == pytest.approx(r2[key], abs=1e-12)

    def test_subgroup_risks_kept_out_of_dict(self, rng):
        m = 50
        ds = Dataset(rng.normal(size=(m, 2)), rng.choice([-1.0, 1.0], m),
                     rng.integers(0, 3, m))
        part = partition(ds)
        model, loss = LinearModel(rng.normal(size=2), 0.2), LossSpec("logistic")
        report = evaluate(model, ds, part, loss)
        assert "subgroup_risks" not in report.to_dict()
        risks = report.subgroup_risks
        np.testing.assert_array_equal(
            risks.values, subgroup_risks(model, ds, part, loss).values)
        # the sweep's risk column: the same bits as weighted_risk
        assert float(np.dot(part.probs, risks.values)) == \
            weighted_risk(model, ds, part, loss)

    def test_sign_zero_predicts_positive(self):
        assert predictions_from_scores(np.array([0.0]))[0] == 1.0
