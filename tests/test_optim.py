"""Unit tests for the variational objective, its subgradient, and training."""

import sys
import threading
import warnings

import numpy as np
import pytest

from grouprisk import optim
from grouprisk import (AggregatorSpec, Dataset, LinearModel, LossSpec,
                       NumericalError, ParameterError, SynthSpec, TrainConfig,
                       alpha_sweep, cvar, cvar_objective, generate_synth,
                       partition, quantile, standardize, subgradient,
                       subgroup_risks, train, weighted_risk)


def two_group_dataset(rng, m=60):
    X = rng.normal(size=(m, 3))
    y = rng.choice([-1.0, 1.0], size=m)
    s = rng.integers(0, 2, size=m)
    return Dataset(X, y, s)


ALL_KINDS = (AggregatorSpec.cvar(0.9), AggregatorSpec.expectation(),
             AggregatorSpec.sd_penalty(1.0), AggregatorSpec.top_k(1),
             AggregatorSpec.max_value())


def config(agg, loss="squared_hinge", **kw):
    defaults = dict(l2_reg=1e-4, epochs=40, step_size=0.3,
                    step_decay="inv_sqrt", partition_mode="categorical")
    defaults.update(kw)
    return TrainConfig(aggregator=agg, loss=LossSpec(loss), **defaults)


class TestCvarObjective:
    def test_single_group_min_over_rho_is_group_risk(self, rng):
        ds = Dataset(rng.normal(size=(20, 2)), rng.choice([-1.0, 1.0], 20),
                     np.zeros(20, dtype=int))
        part = partition(ds)
        model = LinearModel(rng.normal(size=2), 0.1)
        loss = LossSpec("hinge")
        risk = weighted_risk(model, ds, part, loss)
        for alpha in (0.1, 0.5, 0.9):
            grid = np.linspace(risk - 2, risk + 2, 501)
            vals = [cvar_objective(model, r, ds, part, loss, alpha) for r in grid]
            assert min(min(vals),
                       cvar_objective(model, risk, ds, part, loss, alpha)
                       ) == pytest.approx(risk, abs=1e-9)

    def test_hand_evaluation(self):
        # subgroup risks {1, 3} with equal probability, alpha 0.5, rho 1
        X = np.array([[0.0], [0.0]])
        y = np.array([1.0, 1.0])
        ds = Dataset(X, y, np.array([0, 1]))
        part = partition(ds)
        # linear loss of row j is -score; craft scores via intercept-free model
        ds = Dataset(np.array([[-1.0], [-3.0]]), y, np.array([0, 1]))
        model = LinearModel(np.array([1.0]), 0.0)
        obj = cvar_objective(model, 1.0, ds, part, LossSpec("linear"), 0.5)
        assert obj == pytest.approx(3.0)

    def test_at_quantile_equals_cvar(self, rng):
        for _ in range(20):
            ds = two_group_dataset(rng)
            part = partition(ds)
            model = LinearModel(rng.normal(size=3), rng.normal())
            loss = LossSpec("squared_hinge")
            alpha = float(rng.uniform(0.05, 0.95))
            Z = subgroup_risks(model, ds, part, loss)
            rho = quantile(Z, alpha)
            assert cvar_objective(model, rho, ds, part, loss,
                                  alpha) == pytest.approx(cvar(Z, alpha),
                                                          abs=1e-12)

    def test_alpha_domain(self, rng):
        ds = two_group_dataset(rng)
        model = LinearModel.zeros(3)
        with pytest.raises(ParameterError):
            cvar_objective(model, 0.0, ds, partition(ds), LossSpec("hinge"), 1.0)

    def test_convex_in_model_and_rho(self, rng):
        ds = two_group_dataset(rng)
        part = partition(ds)
        loss = LossSpec("squared_hinge")
        alpha = 0.7
        for _ in range(100):
            w1, w2 = rng.normal(size=(2, 3))
            b1, b2 = rng.normal(size=2)
            r1, r2 = rng.uniform(-1, 3, size=2)
            mid = cvar_objective(LinearModel(0.5 * (w1 + w2), 0.5 * (b1 + b2)),
                                 0.5 * (r1 + r2), ds, part, loss, alpha)
            ends = 0.5 * (cvar_objective(LinearModel(w1, b1), r1, ds, part,
                                         loss, alpha)
                          + cvar_objective(LinearModel(w2, b2), r2, ds, part,
                                           loss, alpha))
            assert mid <= ends + 1e-9


class TestSubgradient:
    def test_dead_tail(self, rng):
        ds = two_group_dataset(rng)
        part = partition(ds)
        model = LinearModel(rng.normal(size=3), 0.0)
        loss = LossSpec("squared_hinge")
        rho = 1e6  # far above every subgroup risk
        g_w, g_b, g_rho = subgradient(model, rho, ds, part, loss, 0.5,
                                      l2_reg=0.01)
        np.testing.assert_allclose(g_w, 0.01 * model.weights)
        assert g_b == 0.0
        assert g_rho == 1.0

    def test_finite_differences_at_smooth_points(self, rng):
        ds = two_group_dataset(rng)
        part = partition(ds)
        loss = LossSpec("logistic")
        alpha = 0.6
        h = 1e-6
        checked = 0
        while checked < 25:
            w = rng.normal(size=3)
            b = float(rng.normal())
            model = LinearModel(w, b)
            risks = subgroup_risks(model, ds, part, loss).values
            rho = float(rng.uniform(risks.min() - 0.5, risks.max() + 0.5))
            if np.min(np.abs(risks - rho)) < 1e-3:
                continue
            checked += 1
            g_w, g_b, g_rho = subgradient(model, rho, ds, part, loss, alpha)

            def f(w_, b_, r_):
                return cvar_objective(LinearModel(w_, b_), r_, ds, part, loss,
                                      alpha)

            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (f(w + e, b, rho) - f(w - e, b, rho)) / (2 * h)
                assert g_w[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)
            fd_b = (f(w, b + h, rho) - f(w, b - h, rho)) / (2 * h)
            assert g_b == pytest.approx(fd_b, rel=1e-4, abs=1e-7)
            fd_rho = (f(w, b, rho + h) - f(w, b, rho - h)) / (2 * h)
            assert g_rho == pytest.approx(fd_rho, rel=1e-4, abs=1e-7)

    def test_linear_loss_active_tail_formula(self, rng):
        ds = two_group_dataset(rng, m=30)
        part = partition(ds, "per_instance")
        model = LinearModel(rng.normal(size=3), 0.2)
        loss = LossSpec("linear")
        alpha = 0.5
        losses = -ds.labels * model.scores(ds.features)
        rho = float(np.median(losses))
        g_w, g_b, _ = subgradient(model, rho, ds, part, loss, alpha)
        active = losses > rho
        m = ds.m
        expected_w = (1.0 / (1 - alpha)) * (1.0 / m) * (
            (-ds.labels[active])[:, None] * ds.features[active]).sum(axis=0)
        np.testing.assert_allclose(g_w, expected_w, atol=1e-12)
        assert g_b == pytest.approx(
            (1.0 / (1 - alpha)) * (1.0 / m) * (-ds.labels[active]).sum())


class TestTrain:
    def test_zero_one_rejected(self, rng):
        with pytest.raises(ParameterError):
            config(AggregatorSpec.cvar(0.5), loss="zero_one")

    def test_top_k_above_row_count_rejected(self, rng):
        ds = two_group_dataset(rng, m=10)
        with pytest.raises(ParameterError,
                           match="top_k with k=11 exceeds 10 atoms"):
            train(config(AggregatorSpec.top_k(11)), ds)

    def test_single_group_cvar_matches_expectation_training(self, rng):
        ds = Dataset(rng.normal(size=(30, 2)), rng.choice([-1.0, 1.0], 30),
                     np.zeros(30, dtype=int))
        for alpha in (0.2, 0.9):
            a = train(config(AggregatorSpec.cvar(alpha), epochs=25), ds)
            b = train(config(AggregatorSpec.expectation(), epochs=25), ds)
            np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
            np.testing.assert_array_equal(a.model.weights, b.model.weights)

    def test_top_k_full_tail_is_erm(self, rng):
        ds = two_group_dataset(rng, m=24)
        a = train(config(AggregatorSpec.top_k(24), epochs=30), ds)
        b = train(config(AggregatorSpec.expectation(), epochs=30,
                         partition_mode="per_instance"), ds)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.model.weights, b.model.weights)

    def test_top_k_equals_cvar_per_instance(self, rng):
        ds = two_group_dataset(rng, m=30)
        k = 6
        a = train(config(AggregatorSpec.top_k(k), epochs=30), ds)
        alpha = 1.0 - k / 30
        b = train(config(AggregatorSpec.cvar(alpha), epochs=30,
                         partition_mode="per_instance"), ds)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.rho == b.rho

    def test_determinism(self, rng):
        ds = two_group_dataset(rng)
        cfg = config(AggregatorSpec.cvar(0.8), epochs=35)
        a, b = train(cfg, ds), train(cfg, ds)
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.model.intercept == b.model.intercept
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.final_subgroup_risks.values,
                                      b.final_subgroup_risks.values)
        assert a.metrics == b.metrics

    def test_best_not_worse_than_first(self, rng):
        for agg in (AggregatorSpec.cvar(0.7), AggregatorSpec.expectation(),
                    AggregatorSpec.max_value(), AggregatorSpec.sd_penalty(1.0)):
            ds = two_group_dataset(rng)
            report = train(config(agg), ds)
            assert report.metrics["best_objective"] <= report.metrics[
                "initial_objective"]
            assert np.all(np.isfinite(report.objective_trace))

    def test_objective_decreases_from_zero_model(self, rng):
        ds = generate_synth(SynthSpec(m=200, seed=3))
        report = train(config(AggregatorSpec.cvar(0.9), epochs=120), ds)
        assert report.metrics["best_objective"] < report.metrics[
            "initial_objective"] * 0.9

    def test_rho_reported_for_cvar_only(self, rng):
        ds = two_group_dataset(rng)
        assert train(config(AggregatorSpec.cvar(0.6)), ds).rho is not None
        assert train(config(AggregatorSpec.expectation()), ds).rho is None
        assert train(config(AggregatorSpec.max_value()), ds).rho is None

    def test_exact_rho_update_beats_grid(self, rng):
        ds = two_group_dataset(rng)
        part = partition(ds)
        loss = LossSpec("squared_hinge")
        alpha = 0.65
        report = train(config(AggregatorSpec.cvar(alpha), epochs=10), ds)
        model = report.model
        risks = subgroup_risks(model, ds, part, loss)
        best = cvar_objective(model, report.rho, ds, part, loss, alpha)
        lo, hi = float(risks.values.min()), float(risks.values.max())
        for r in np.linspace(lo, hi, 1000):
            assert cvar_objective(model, float(r), ds, part, loss,
                                  alpha) >= best - 1e-9

    def test_numerical_abort(self, rng):
        ds = two_group_dataset(rng)
        cfg = config(AggregatorSpec.expectation(), step_size=1e150,
                     step_decay="constant", epochs=8)
        with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
            train(cfg, ds)
        assert err.value.trace is not None

    def test_overflow_raises_without_runtime_warnings(self):
        # the run of ``grouprisk train --lr 1e200 --epochs 20``: the
        # non-finite objective is reported once, as NumericalError
        ds = standardize(generate_synth(SynthSpec(m=320, seed=0)))[0]
        for agg in ALL_KINDS:
            cfg = config(agg, step_size=1e200, epochs=20)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NumericalError):
                    train(cfg, ds)
            assert not [w for w in caught
                        if issubclass(w.category, RuntimeWarning)], agg

    def test_single_row_objectives_finite(self):
        ds = generate_synth(SynthSpec(m=1))
        for agg in ALL_KINDS:
            for mode in ("categorical", "per_instance"):
                report = train(config(agg, partition_mode=mode), ds)
                assert np.all(np.isfinite(report.objective_trace)), (agg, mode)
                assert np.isfinite(report.metrics["best_objective"])

    def test_cvar_alpha_near_one_is_max(self):
        ds = generate_synth(SynthSpec(m=200, seed=4))
        report = train(config(AggregatorSpec.cvar(1.0 - 1e-13)), ds)
        risks = report.final_subgroup_risks.values
        w = report.model.weights
        assert report.metrics["best_objective"] == float(risks.max()) + \
            0.5 * 1e-4 * float(np.dot(w, w))
        assert report.rho == float(risks.max())

    def test_weight_overflow_is_numerical_error(self):
        # the step overflows the weights themselves, not only the scores
        ds = generate_synth(SynthSpec(m=400, seed=0))
        ds = Dataset(ds.features * 1e10, ds.labels, ds.sensitive)
        cfg = config(AggregatorSpec.cvar(0.5), loss="linear", step_size=1e300,
                     step_decay="constant", epochs=3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError) as err:
            train(cfg, ds)
        assert err.value.trace is not None

    def test_zero_l2_survives_an_overflowing_weight_norm(self):
        # weights near 1e160 square past the float range while the scores
        # stay near 1e20; without an L2 penalty the objective stays finite
        ds = generate_synth(SynthSpec(m=20, seed=0))
        ds = Dataset(ds.features * 1e-140, ds.labels, ds.sensitive)
        cfg = TrainConfig(AggregatorSpec.expectation(), LossSpec("linear"),
                          l2_reg=0.0, epochs=5, step_size=1e300,
                          step_decay="constant")
        report = train(cfg, ds)
        w = report.model.weights
        with np.errstate(over="ignore"):
            assert np.dot(w, w) == np.inf
        assert np.all(np.isfinite(report.objective_trace))
        assert report.metrics["best_epoch"] == 5.0
        part = partition(ds)
        assert np.isfinite(cvar_objective(report.model, 0.0, ds, part,
                                          LossSpec("linear"), 0.5))

    def test_per_instance_risks_match_the_bincount_mean(self):
        # the linear loss at the zero model is -0.0 on the positive rows;
        # the singleton-group mean must turn it into +0.0 as bincount does
        ds = generate_synth(SynthSpec(m=50, seed=2))
        part = partition(ds, "per_instance")
        for agg in (AggregatorSpec.cvar(0.5), AggregatorSpec.top_k(10),
                    AggregatorSpec.expectation()):
            # the huge L2 term keeps the zero model the best iterate
            report = train(config(agg, loss="linear", l2_reg=1e6, epochs=2,
                                  partition_mode="per_instance"), ds)
            assert report.metrics["best_epoch"] == 0.0
            risks = report.final_subgroup_risks.values
            expected = part.means(LossSpec("linear").values(
                ds.labels, report.model.scores(ds.features)))
            assert np.array_equal(np.signbit(risks), np.signbit(expected))
            assert not np.any(np.signbit(risks)), agg
            np.testing.assert_array_equal(risks, expected)

    def test_sd_penalty_flagged_nonconvex(self, rng):
        ds = two_group_dataset(rng)
        report = train(config(AggregatorSpec.sd_penalty(2.0)), ds)
        assert report.metrics["objective_convex"] == 0.0

    def test_group_weighting_drives_training(self, rng):
        # weight group 0 at 0.9: expectation training must favour it
        ds = generate_synth(SynthSpec(m=300, seed=8))
        tilted = Dataset(ds.features, ds.labels, ds.sensitive,
                         group_weighting={0: 0.9, 1: 0.1})
        plain = train(config(AggregatorSpec.expectation(), epochs=120), ds)
        favoured = train(config(AggregatorSpec.expectation(), epochs=120),
                         tilted)
        order = list(dict.fromkeys(ds.sensitive.tolist()))  # appearance order
        pos = order.index(0)
        assert favoured.final_subgroup_risks.values[pos] < \
            plain.final_subgroup_risks.values[pos]

    def test_max_ignores_zero_weight_group(self, rng):
        ds = two_group_dataset(rng)
        zeroed = Dataset(ds.features, ds.labels, ds.sensitive,
                         group_weighting={0: 1.0, 1: 0.0})
        report = train(config(AggregatorSpec.max_value(), epochs=5), zeroed)
        from grouprisk import LinearModel as LM
        from grouprisk.subgroup import group_risk_vector
        part = partition(zeroed)
        risks = group_risk_vector(report.model, zeroed, part,
                                  LossSpec("squared_hinge"))
        expected = float(risks[part.probs > 0].max()) + 0.5 * 1e-4 * float(
            report.model.weights @ report.model.weights)
        assert report.metrics["final_objective"] == pytest.approx(expected)

    def test_cvar_run_lowers_max_subgroup_risk(self):
        ds = generate_synth(SynthSpec(m=300, seed=11))
        erm = train(config(AggregatorSpec.expectation(), epochs=150), ds)
        fair = train(config(AggregatorSpec.cvar(0.9), epochs=150), ds)
        assert float(fair.final_subgroup_risks.values.max()) < float(
            erm.final_subgroup_risks.values.max())


class TestAlphaSweep:
    def test_cardinality_and_order(self, rng):
        ds = two_group_dataset(rng)
        reports = alpha_sweep(config(AggregatorSpec.cvar(0.5), epochs=10), ds,
                              [0.9, 0.1, 0.5])
        assert len(reports) == 3
        assert all(r.rho is not None for r in reports)

    def test_rejects_bad_alpha(self, rng):
        ds = two_group_dataset(rng)
        with pytest.raises(ParameterError):
            alpha_sweep(config(AggregatorSpec.cvar(0.5)), ds, [0.5, 1.0])


def _lp_optimum(ds, part, alpha):
    """Least hinge-loss cvar_alpha of the group risks over linear models, by
    the LP form of Rockafellar and Uryasev (2000); alpha None is the max.

    Variables (w, b, xi, rho, u): xi_i >= 1 - y_i (x_i.w + b) and xi >= 0
    are the hinge losses, and u_g >= R_g - rho with u >= 0 the excess of
    group g's mean loss R_g; the objective is rho + E[u] / (1 - alpha), or
    rho with u = 0 for the max.
    """
    from scipy import sparse
    from scipy.optimize import linprog
    X, y, G = ds.features, ds.labels, part.group_ids
    (m, d), n = X.shape, part.n
    hinge = sparse.hstack([sparse.csr_matrix(-y[:, None] * X),
                           sparse.csr_matrix(-y[:, None]), -sparse.identity(m),
                           sparse.csr_matrix((m, 1 + n))])
    means = sparse.csr_matrix((1.0 / part.sizes[G], (G, np.arange(m))),
                              shape=(n, m))
    excess = sparse.hstack([sparse.csr_matrix((n, d + 1)), means,
                            sparse.csr_matrix(-np.ones((n, 1))),
                            -sparse.identity(n)])
    cost = np.zeros(d + m + 2 + n)
    cost[d + 1 + m] = 1.0
    if alpha is not None:
        cost[d + 2 + m:] = part.probs / (1.0 - alpha)
    bounds = ([(None, None)] * (d + 1) + [(0, None)] * m + [(None, None)]
              + [(0, 0 if alpha is None else None)] * n)
    res = linprog(cost, A_ub=sparse.vstack([hinge, excess]).tocsc(),
                  b_ub=np.concatenate([-np.ones(m), np.zeros(n)]),
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


class TestLpOracle:
    """``train`` against the exact optimum of its problem as an LP: hinge
    loss, no L2 term, 200 epochs on the standardised 400-row synth data.

    The best objective can come no lower than the LP optimum (less the
    solver's 1e-7 tolerance), and stays within each case's gap bound, set
    at about 1.5 times the gap measured on this problem (cvar 1.7e-4, max
    9.0e-5, top_k 6.2e-5 at k = 280 and 3.1e-5 at k = 360).  For k <= m/2
    the zero model is optimal, so top_k takes k > m/2.
    """

    @pytest.mark.parametrize("agg, alpha, gap_bound", [
        (AggregatorSpec.cvar(0.5), 0.5, 2.5e-4),
        (AggregatorSpec.max_value(), None, 1.5e-4),
        (AggregatorSpec.top_k(280), 1.0 - 280 / 400, 1e-4),
        (AggregatorSpec.top_k(360), 1.0 - 360 / 400, 5e-5),
    ], ids=["cvar_0.5", "max", "top_k_280", "top_k_360"])
    def test_best_objective_near_the_lp_optimum(self, agg, alpha, gap_bound):
        pytest.importorskip("scipy")
        ds, _, _ = standardize(generate_synth(SynthSpec(seed=0)))
        lp = _lp_optimum(ds, partition(ds, optim.training_partition_mode(
            agg, "categorical")), alpha)
        report = train(TrainConfig(agg, LossSpec("hinge"), l2_reg=0.0,
                                   epochs=200), ds)
        best = report.metrics["best_objective"]
        assert lp - 1e-7 <= best <= lp + gap_bound, (lp, best)


def _report_text(report) -> str:
    risks = report.final_subgroup_risks
    return repr((report.objective_trace.tobytes(),
                 report.model.weights.tobytes(), report.model.intercept,
                 report.rho, risks.values.tobytes(), risks.probs.tobytes(),
                 sorted(report.metrics.items())))


def _force_blocks(monkeypatch, cpus):
    """Blocks of at least 3 rows on ``cpus`` CPUs: with 3, m = 7 splits
    into 2 blocks and m = 400 into 3."""
    monkeypatch.setattr(optim, "_MIN_BLOCK_ROWS", 3)
    monkeypatch.setattr(optim, "_usable_cpus", lambda: cpus)


class TestRowBlocks:
    """``train``'s row passes give the same bits on any number of blocks."""

    def test_reports_do_not_depend_on_the_blocks(self, monkeypatch):
        rng = np.random.default_rng(20)
        runs = [(m, agg, loss, mode) for m in (7, 400) for agg in ALL_KINDS
                for loss in ("hinge", "squared_hinge", "logistic", "linear")
                for mode in ("categorical", "per_instance")]
        data = {m: Dataset(rng.normal(size=(m, 8)),
                           rng.choice([-1.0, 1.0], m),
                           np.arange(m) % 3) for m in (7, 400)}

        def reports():
            return [_report_text(train(config(agg, loss, epochs=15,
                                              partition_mode=mode), data[m]))
                    for m, agg, loss, mode in runs]
        one_block = reports()
        _force_blocks(monkeypatch, 3)
        assert [len(optim._row_blocks(m)) for m in (1, 7, 400)] == [1, 2, 3]
        # more threads than cores, switching as often as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocked = reports()
        finally:
            sys.setswitchinterval(interval)
        for run, got, want in zip(runs, blocked, one_block):
            assert got == want, run

    def test_overflow_raises_without_runtime_warnings(self, monkeypatch):
        # the cases of TestTrain's test of the same name on two blocks:
        # each worker thread sets its own np.errstate
        _force_blocks(monkeypatch, 2)
        ds = standardize(generate_synth(SynthSpec(m=320, seed=0)))[0]
        assert len(optim._row_blocks(ds.m)) == 2
        for agg in ALL_KINDS:
            cfg = config(agg, step_size=1e200, epochs=20)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError):
                    train(cfg, ds)

    def test_no_thread_outlives_train(self, monkeypatch):
        _force_blocks(monkeypatch, 2)
        ds = standardize(generate_synth(SynthSpec(m=400, seed=0)))[0]
        before = threading.active_count()
        train(config(AggregatorSpec.cvar(0.9), epochs=5), ds)
        assert threading.active_count() == before
        with pytest.raises(NumericalError):
            train(config(AggregatorSpec.cvar(0.9), step_size=1e200,
                         epochs=20), ds)
        assert threading.active_count() == before
        # an error on a worker thread reaches the caller
        into = LossSpec._values_grads_into

        def failing(loss, labels):
            step = into(loss, labels)

            def checked(blk, v, g):
                if blk.start > 0:
                    raise ValueError("block failed")
                step(blk, v, g)
            return checked
        monkeypatch.setattr(LossSpec, "_values_grads_into", failing)
        with pytest.raises(ValueError, match="block failed"):
            train(config(AggregatorSpec.cvar(0.9), epochs=5), ds)
        assert threading.active_count() == before
