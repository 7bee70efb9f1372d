"""Unit tests for datasets, losses, partitions, and subgroup risks."""

import warnings

import numpy as np
import pytest

from conftest import closed_form_loss, reference_codes
from grouprisk import (Dataset, InputError, LinearModel, LossSpec,
                       ParameterError, SynthSpec, expectation, generate_synth,
                       margins, partition, subgroup_risks, weighted_risk)
from grouprisk.subgroup import first_appearance


def toy_dataset():
    X = np.array([[1.0], [-1.0], [0.0], [2.0]])
    y = np.array([1.0, 1.0, 1.0, -1.0])
    s = np.array([0, 0, 1, 1])
    return Dataset(X, y, s)


def random_dataset(rng, m=40, d=3, groups=3):
    X = rng.normal(size=(m, d))
    y = rng.choice([-1.0, 1.0], size=m)
    s = rng.integers(0, groups, size=m)
    return Dataset(X, y, s)


class TestLosses:
    def test_hinge(self):
        loss = LossSpec("hinge")
        y = np.array([1.0, 1.0, -1.0])
        s = np.array([2.0, 0.5, 0.5])
        np.testing.assert_allclose(loss.values(y, s), [0.0, 0.5, 1.5])

    def test_squared_hinge(self):
        loss = LossSpec("squared_hinge")
        np.testing.assert_allclose(loss.values(np.array([1.0]), np.array([0.0])),
                                   [1.0])

    def test_logistic_overflow_safe(self):
        loss = LossSpec("logistic")
        y = np.array([1.0, -1.0, 1.0])
        s = np.array([1000.0, 1000.0, 0.0])
        vals = loss.values(y, s)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(1000.0)
        assert vals[2] == pytest.approx(np.log(2.0))
        assert np.all(np.isfinite(loss.grads(y, s)))

    def test_zero_one_sign_convention(self):
        loss = LossSpec("zero_one")
        y = np.array([1.0, -1.0])
        s = np.array([0.0, 0.0])
        np.testing.assert_allclose(loss.values(y, s), [0.0, 1.0])
        with pytest.raises(ParameterError):
            loss.grads(y, s)

    def test_linear(self):
        loss = LossSpec("linear")
        np.testing.assert_allclose(
            loss.values(np.array([1.0, -1.0]), np.array([2.0, 2.0])), [-2.0, 2.0])

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            LossSpec("absolute")

    def test_one_pass_values_and_grads_keep_the_bits(self, rng):
        # the training epoch's in-place pass, whole and in two blocks, and
        # the public values and grads give the closed forms' bits, at the
        # kink, off the float range and on a NaN score included
        y = rng.choice([-1.0, 1.0], 400)
        s = np.concatenate([rng.normal(size=379) * 3, y[379:395],
                            [0.0, -0.0, 1e300, -np.inf, np.nan]])
        for kind in ("hinge", "squared_hinge", "logistic", "linear"):
            loss = LossSpec(kind)
            step = loss._values_grads_into(y)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = closed_form_loss(kind, y, s)
                got = [(loss.values(y, s), loss.grads(y, s))]
                for blocks in ([slice(0, 400)],
                               [slice(0, 236), slice(236, 400)]):
                    v, g = s.copy(), np.empty_like(s)
                    for blk in blocks:
                        step(blk, v, g)
                    got.append((v, g))
            for i, pair in enumerate(got):
                for a, b in zip(pair, expected):
                    assert a.tobytes() == b.tobytes(), (kind, i)

    def test_grads_do_not_warn_for_the_values_they_drop(self):
        # grads runs the one-pass step, which also forms the loss values; an
        # overflow or NaN there is not the grads', which on these inputs are
        # the closed forms' and need no warning of their own
        y = np.array([1.0])
        for kind, s, expected in (("squared_hinge", -1e300, -2e300),
                                  ("logistic", np.nan, np.nan)):
            s = np.array([s])
            with np.errstate(over="ignore", invalid="ignore"):
                want = closed_form_loss(kind, y, s)[1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = LossSpec(kind).grads(y, s)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == np.array([expected]).tobytes()

    def test_closed_forms_for_any_finite_label(self):
        # hypothesis is imported here, not at collection; see
        # test_aggregator_properties
        pytest.importorskip("hypothesis")
        import loss_properties
        loss_properties.closed_forms_for_any_finite_label()

    def test_zero_d_inputs_give_numpy_scalars(self):
        for kind in ("zero_one", "hinge", "squared_hinge", "logistic", "linear"):
            loss = LossSpec(kind)
            calls = (loss.values, loss.grads) if loss.convex else (loss.values,)
            for call in calls:
                for y, s in ((1.0, 0.5), (np.float64(-1.0), np.array(2.0))):
                    assert type(call(y, s)) is np.float64, (kind, call)

    def test_convexity_along_chords(self, rng):
        for kind in ("hinge", "squared_hinge", "logistic", "linear"):
            loss = LossSpec(kind)
            y = rng.choice([-1.0, 1.0], size=20)
            a, b = rng.normal(size=20), rng.normal(size=20)
            mid = loss.values(y, 0.5 * (a + b))
            bound = 0.5 * (loss.values(y, a) + loss.values(y, b))
            assert np.all(mid <= bound + 1e-9)


class TestDatasetValidation:
    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            Dataset(np.ones((2, 1)), np.array([1.0, 0.0]), np.array([0, 1]))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Dataset(np.ones((0, 1)), np.array([]), np.array([]))

    def test_rejects_weighting_key_mismatch(self):
        with pytest.raises(InputError):
            Dataset(np.ones((2, 1)), np.array([1.0, -1.0]), np.array([0, 1]),
                    group_weighting={0: 0.5, 2: 0.5})

    def test_rejects_weighting_bad_sum(self):
        with pytest.raises(InputError):
            Dataset(np.ones((2, 1)), np.array([1.0, -1.0]), np.array([0, 1]),
                    group_weighting={0: 0.5, 1: 0.6})


class TestPartition:
    def test_categorical_counts(self):
        ds = Dataset(np.ones((5, 1)), np.array([1.0, -1, 1, -1, 1]),
                     np.array([0, 0, 1, 1, 1]))
        part = partition(ds, "categorical")
        np.testing.assert_array_equal(part.sizes, [2, 3])
        np.testing.assert_allclose(part.probs, [0.4, 0.6])

    def test_group_weighting_overrides(self):
        ds = Dataset(np.ones((5, 1)), np.array([1.0, -1, 1, -1, 1]),
                     np.array([0, 0, 1, 1, 1]), group_weighting={0: 0.9, 1: 0.1})
        part = partition(ds, "categorical")
        np.testing.assert_allclose(part.probs, [0.9, 0.1])

    def test_first_appearance_order(self):
        ds = Dataset(np.ones((4, 1)), np.array([1.0, 1, 1, 1]),
                     np.array([7, 3, 7, 3]))
        part = partition(ds, "categorical")
        np.testing.assert_array_equal(part.group_ids, [0, 1, 0, 1])

    def test_per_instance_reals(self):
        ds = Dataset(np.ones((3, 1)), np.array([1.0, 1, 1]),
                     np.array([1.2, 3.4, 1.2]))
        part = partition(ds, "per_instance")
        assert part.n == 3
        np.testing.assert_allclose(part.probs, [1 / 3] * 3)

    def test_categorical_rejects_reals(self):
        ds = Dataset(np.ones((2, 1)), np.array([1.0, 1]), np.array([1.5, 2.0]))
        with pytest.raises(ParameterError):
            partition(ds, "categorical")

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            partition(toy_dataset(), "pairwise")

    @pytest.mark.parametrize("s, ids", [
        (np.array([-3, -7, -3, -5]), [0, 1, 0, 2]),
        (np.array([2**63 - 1, -2**63, 0, -2**63]), [0, 1, 2, 1]),
        (np.array([2**63 - 2, 2**63 - 1, 2**63 - 2]), [0, 1, 0]),
        (np.array([-2**63 + 1, -2**63, -2**63]), [0, 1, 1]),
        (np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64), [0, 1, 0]),
        (np.array([200, 3, 200, 255], dtype=np.uint8), [0, 1, 0, 2]),
        (np.array([True, False, False, True]), [0, 1, 1, 0]),
        (np.array([np.inf, -np.inf, 1.0, np.inf, -np.inf]), [0, 1, 2, 0, 1]),
        (np.array([-0.0, 3.0, 0.0, -2.0]), [0, 1, 0, 2]),
        (np.array([1e300, -1e300, 1e300]), [0, 1, 0]),
        (np.array(["b", "a", "b", "c"]), [0, 1, 0, 2]),
    ])
    def test_categorical_codes_of_every_dtype(self, s, ids):
        ds = Dataset(np.ones((s.size, 1)), np.ones(s.size), s)
        part = partition(ds)
        np.testing.assert_array_equal(part.group_ids, ids)
        np.testing.assert_array_equal(part.sizes, np.bincount(ids))
        np.testing.assert_array_equal(part.probs, np.bincount(ids) / s.size)

    @pytest.mark.parametrize("zero", [-0.0, 0.0])
    def test_weighting_looks_up_zeros_of_either_sign(self, zero):
        # -0.0 == 0.0, so both rows are one group whichever sign the key has
        s = np.array([-0.0, 2.0, 0.0, -1.0, 2.0])
        ds = Dataset(np.ones((5, 1)), np.ones(5), s,
                     group_weighting={zero: 0.5, 2.0: 0.3, -1.0: 0.2})
        part = partition(ds)
        np.testing.assert_array_equal(part.group_ids, [0, 1, 0, 2, 1])
        np.testing.assert_array_equal(part.probs, [0.5, 0.3, 0.2])

    def test_weighting_of_bool_and_uint8_groups(self):
        for s, w in ((np.array([True, False, True]), {True: 0.7, False: 0.3}),
                     (np.array([9, 4, 9], dtype=np.uint8), {9: 0.7, 4: 0.3})):
            part = partition(Dataset(np.ones((3, 1)), np.ones(3), s,
                                     group_weighting=w))
            np.testing.assert_array_equal(part.group_ids, [0, 1, 0])
            np.testing.assert_array_equal(part.probs, [0.7, 0.3])


class TestFirstAppearance:
    def test_numpy_routes_match_the_dict(self):
        # hypothesis is imported here, not at collection; see
        # test_aggregator_properties
        pytest.importorskip("hypothesis")
        import grouping_properties
        grouping_properties.numpy_routes_match_the_dict()

    def test_synth_groups_at_workload_scale(self):
        s = generate_synth(SynthSpec(m=1_000_000, seed=3)).sensitive
        codes, first = first_appearance(s)
        expected_codes, expected_keys = reference_codes(s.tolist())
        np.testing.assert_array_equal(codes, expected_codes)
        assert s[first].tolist() == expected_keys

    def test_each_nan_is_its_own_group(self):
        codes, first = first_appearance(np.array([np.nan, 1.0, np.nan, 1.0]))
        np.testing.assert_array_equal(codes, [0, 1, 2, 1])
        np.testing.assert_array_equal(first, [0, 1, 2])

    def test_empty(self):
        for values in ([], np.array([]), np.array([], dtype=int)):
            codes, first = first_appearance(values)
            assert codes.size == 0 and first.size == 0


class TestSubgroupRisks:
    def test_single_group_is_mean_loss(self, rng):
        ds = random_dataset(rng, groups=1)
        part = partition(ds)
        model = LinearModel(rng.normal(size=ds.d), 0.3)
        Z = subgroup_risks(model, ds, part, LossSpec("hinge"))
        assert Z.values.size == 1
        expected = LossSpec("hinge").values(ds.labels, model.scores(ds.features))
        assert Z.values[0] == pytest.approx(float(expected.mean()))
        assert Z.probs[0] == 1.0

    def test_hand_computed_group_means(self):
        # per-point hinge losses under w=1, b=0 are [0, 2, 1, 3]
        ds = toy_dataset()
        model = LinearModel(np.array([1.0]), 0.0)
        Z = subgroup_risks(model, ds, partition(ds), LossSpec("hinge"))
        np.testing.assert_allclose(Z.values, [1.0, 2.0])
        np.testing.assert_allclose(Z.probs, [0.5, 0.5])

    def test_per_instance_atoms_are_losses(self, rng):
        ds = random_dataset(rng)
        model = LinearModel(rng.normal(size=ds.d), -0.1)
        Z = subgroup_risks(model, ds, partition(ds, "per_instance"),
                           LossSpec("squared_hinge"))
        direct = LossSpec("squared_hinge").values(ds.labels,
                                                  model.scores(ds.features))
        np.testing.assert_array_equal(Z.values, direct)

    def test_row_permutation_invariance(self, rng):
        ds = random_dataset(rng)
        model = LinearModel(rng.normal(size=ds.d), 0.0)
        perm = rng.permutation(ds.m)
        shuffled = Dataset(ds.features[perm], ds.labels[perm], ds.sensitive[perm])
        a = subgroup_risks(model, ds, partition(ds), LossSpec("hinge"))
        b = subgroup_risks(model, shuffled, partition(shuffled), LossSpec("hinge"))
        pairs_a = sorted(zip(a.values.tolist(), a.probs.tolist()))
        pairs_b = sorted(zip(b.values.tolist(), b.probs.tolist()))
        np.testing.assert_allclose(pairs_a, pairs_b, atol=1e-12)

    def test_removing_group_leaves_other_atoms(self, rng):
        ds = random_dataset(rng, groups=3)
        model = LinearModel(rng.normal(size=ds.d), 0.2)
        full = subgroup_risks(model, ds, partition(ds), LossSpec("logistic"))
        keep = ds.sensitive != 1
        reduced_ds = Dataset(ds.features[keep], ds.labels[keep],
                             ds.sensitive[keep])
        reduced = subgroup_risks(model, reduced_ds, partition(reduced_ds),
                                 LossSpec("logistic"))
        kept_values = {round(v, 12) for v in reduced.values.tolist()}
        for g, v in enumerate(full.values.tolist()):
            if g != 1:
                assert round(v, 12) in kept_values

    def test_subgroup_risk_convex_in_model(self, rng):
        ds = random_dataset(rng)
        part = partition(ds)
        loss = LossSpec("squared_hinge")
        for _ in range(50):
            w1, w2 = rng.normal(size=ds.d), rng.normal(size=ds.d)
            b1, b2 = rng.normal(size=2)
            mid = subgroup_risks(LinearModel(0.5 * (w1 + w2), 0.5 * (b1 + b2)),
                                 ds, part, loss).values
            ends = 0.5 * (subgroup_risks(LinearModel(w1, b1), ds, part,
                                         loss).values
                          + subgroup_risks(LinearModel(w2, b2), ds, part,
                                           loss).values)
            assert np.all(mid <= ends + 1e-9)


class TestWeightedRisk:
    def test_empirical_probs_give_sample_mean(self, rng):
        for _ in range(20):
            ds = random_dataset(rng)
            model = LinearModel(rng.normal(size=ds.d), 0.1)
            direct = float(LossSpec("hinge").values(
                ds.labels, model.scores(ds.features)).mean())
            assert weighted_risk(model, ds, partition(ds),
                                 LossSpec("hinge")) == pytest.approx(direct,
                                                                     abs=1e-12)

    def test_uniform_weighting_averages_groups(self, rng):
        m0, m1 = 10, 90
        X = rng.normal(size=(m0 + m1, 2))
        y = rng.choice([-1.0, 1.0], size=m0 + m1)
        s = np.array([0] * m0 + [1] * m1)
        ds = Dataset(X, y, s, group_weighting={0: 0.5, 1: 0.5})
        model = LinearModel(rng.normal(size=2), 0.0)
        part = partition(ds)
        Z = subgroup_risks(model, ds, part, LossSpec("hinge"))
        assert weighted_risk(model, ds, part, LossSpec("hinge")) == pytest.approx(
            0.5 * (Z.values[0] + Z.values[1]), abs=1e-12)


class TestMargins:
    def test_zero_model(self):
        ds = toy_dataset()
        Z = margins(LinearModel.zeros(1), ds)
        np.testing.assert_array_equal(Z.values, np.zeros(4))

    def test_single_point(self):
        ds = Dataset(np.array([[2.0]]), np.array([1.0]), np.array([0]))
        Z = margins(LinearModel(np.array([1.0]), 0.0), ds)
        assert Z.values[0] == -2.0
        assert Z.probs[0] == 1.0

    def test_equals_linear_loss_per_instance(self, rng):
        ds = random_dataset(rng)
        model = LinearModel(rng.normal(size=ds.d), 0.7)
        a = margins(model, ds)
        b = subgroup_risks(model, ds, partition(ds, "per_instance"),
                           LossSpec("linear"))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_expectation_matches_mean_margin(self, rng):
        ds = random_dataset(rng)
        model = LinearModel(rng.normal(size=ds.d), 0.0)
        Z = margins(model, ds)
        direct = float((-ds.labels * model.scores(ds.features)).mean())
        assert expectation(Z) == pytest.approx(direct, abs=1e-12)
