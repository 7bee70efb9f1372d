"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Two checks (4b and 10b) assert outcomes that cannot occur:

* 4b expects a convexity counterexample for the mean-plus-standard-
  deviation aggregator, but that functional is convex (the standard
  deviation is the norm of Z minus its mean, a seminorm, and the mean is
  linear), so an honest search must come back empty.  Its genuine failure
  is monotonicity, covered by the unit suite.
* 10b expects the tail-average-induced inequality index to be strictly
  Schur-convex, but a transfer confined strictly below the tail leaves
  the index exactly unchanged, so the strict search finds a tie.  The
  weak (non-strict) Schur property does hold and is covered by the unit
  suite.

Both are kept as stated and fail red; everything else must pass.
"""

import json
import time

import numpy as np
import pytest

from grouprisk import (AggregatorSpec, DiscreteRandomVariable, LinearModel,
                       LossSpec, SynthSpec, TrainConfig, check_axiom,
                       check_inequality_axiom, coefficient_of_variation, cvar,
                       cvar_deviation, cvar_inequality, cvar_objective,
                       deviation_from_inequality, expectation, from_deviation,
                       generate_synth, inequality_from_deviation,
                       lorenz_dominates, majorized_by, partition,
                       pigou_dalton_pair, risk_from_inequality, sd_deviation,
                       subgradient, subgroup_loss_gap, subgroup_risks, train)
from grouprisk import spread_over_mean
from grouprisk.cli import main as cli_main

from conftest import grid_cvar, random_variable


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {name}: {status}{suffix}")
    return ok


def _corpus(seed=20240817, n=1000):
    rng = np.random.default_rng(seed)
    return [(random_variable(rng), float(rng.uniform(0.01, 0.99)))
            for _ in range(n)]


CORPUS = _corpus()


def test_criterion_1_cvar_oracle_equivalence():
    """cvar matches dense-grid minimisation of the variational form.

    1000 seeded variables with up to 20 atoms, random alpha in
    (0.01, 0.99), a 100000-point grid spanning the support (augmented
    with the atom values, the kinks of the piecewise-linear objective),
    agreement within 1e-6, total runtime under 5 seconds.
    """
    start = time.perf_counter()
    worst = 0.0
    for Z, alpha in CORPUS:
        worst = max(worst, abs(cvar(Z, alpha) - grid_cvar(Z, alpha)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    assert _report("1 (cvar grid-oracle equivalence)", ok,
                   f"worst diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_quadrangle_identity():
    """aggregate cvar = expectation + cvar deviation, within 1e-12."""
    worst = 0.0
    for Z, alpha in CORPUS:
        lhs = cvar(Z, alpha)
        rhs = expectation(Z) + cvar_deviation(Z, alpha)
        worst = max(worst, abs(lhs - rhs))
    assert _report("2 (quadrangle identity)", worst <= 1e-12,
                   f"worst diff {worst:.2e}")


def test_criterion_3_alpha_limits():
    """cvar tends to the mean as alpha -> 0 and the max as alpha -> 1."""
    worst_low = worst_high = 0.0
    for Z, _ in CORPUS:
        v, _p = Z.support()
        worst_low = max(worst_low, abs(cvar(Z, 1e-9) - expectation(Z)))
        worst_high = max(worst_high, abs(cvar(Z, 1.0 - 1e-9) - float(v.max())))
    ok = worst_low <= 1e-6 and worst_high <= 1e-6
    assert _report("3 (alpha limits)", ok,
                   f"mean side {worst_low:.2e}, max side {worst_high:.2e}")


def test_criterion_4a_cvar_axiom_suite():
    """The tail-average aggregator survives 1000 trials per axiom."""
    start = time.perf_counter()
    spec = AggregatorSpec.cvar(0.7)
    failures = []
    for i, axiom in enumerate(("F1", "F2", "F3", "F5", "F6", "F7", "F8", "F9")):
        rep = check_axiom(spec, axiom, 1000, rng_seed=1000 + i)
        if not rep.passed:
            failures.append((axiom, rep.counterexample))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    assert _report("4a (cvar axiom suite)", ok,
                   f"{elapsed:.2f}s" + (f", failures {failures}" if failures
                                        else ""))


def test_criterion_4b_sd_convexity_counterexample():
    """Expected red: demands a convexity counterexample for mean + sigma.

    E(Z) + lam * sigma(Z) is convex in Z for every lam >= 0: sigma is the
    L2 seminorm of the linear map Z -> Z - E(Z), and seminorms are convex,
    so no counterexample exists and a sound falsifier returns empty
    handed.  The aggregator's real defect is monotonicity (see the unit
    suite), which is also why it stays a baseline rather than a
    recommended objective.  The assertion below states the original
    expectation verbatim and therefore fails.
    """
    rep = check_axiom(AggregatorSpec.sd_penalty(1.0), "F1", 1000, rng_seed=2024)
    found = not rep.passed
    _report("4b (sd convexity counterexample, impossible as stated)", found,
            "no counterexample exists: the functional is convex")
    assert found, ("no F1 counterexample found for the mean-plus-sigma "
                   "aggregator; none exists, since the functional is convex "
                   "(seminorm plus linear); its true failure is F3")


def test_criterion_5_top_k_equivalence():
    """Per-instance cvar at alpha = 1 - k/m is the top-k mean, and the
    trainer paths for the two aggregators coincide trace for trace."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(5, 200))
        k = int(rng.integers(1, m))
        losses = rng.uniform(0.0, 10.0, m)
        Z = DiscreteRandomVariable.uniform(losses)
        lhs = cvar(Z, 1.0 - k / m)
        rhs = float(np.sort(losses)[-k:].mean())
        worst = max(worst, abs(lhs - rhs))
    values_ok = worst <= 1e-12

    ds = generate_synth(SynthSpec(m=60, seed=5))
    k = 9
    base = dict(loss=LossSpec("squared_hinge"), epochs=40, step_size=0.4)
    rep_topk = train(TrainConfig(aggregator=AggregatorSpec.top_k(k), **base), ds)
    rep_cvar = train(TrainConfig(aggregator=AggregatorSpec.cvar(1.0 - k / 60),
                                 partition_mode="per_instance", **base), ds)
    traces_ok = (np.array_equal(rep_topk.objective_trace,
                                rep_cvar.objective_trace)
                 and np.array_equal(rep_topk.model.weights,
                                    rep_cvar.model.weights)
                 and rep_topk.model.intercept == rep_cvar.model.intercept)
    ok = values_ok and traces_ok
    assert _report("5 (top-k equivalence)", ok,
                   f"worst value diff {worst:.2e}, traces identical: "
                   f"{traces_ok}")


def test_criterion_6_objective_convexity():
    """200 random chords of the variational objective in (w, b, rho)."""
    ds = generate_synth(SynthSpec(seed=0))
    part = partition(ds)
    loss = LossSpec("squared_hinge")
    alpha = 0.8
    rng = np.random.default_rng(66)
    worst = -np.inf
    for _ in range(200):
        w1, w2 = rng.normal(size=(2, 2))
        b1, b2 = rng.normal(size=2)
        r1, r2 = rng.uniform(-1.0, 4.0, size=2)
        mid = cvar_objective(LinearModel(0.5 * (w1 + w2), 0.5 * (b1 + b2)),
                             0.5 * (r1 + r2), ds, part, loss, alpha)
        ends = 0.5 * (cvar_objective(LinearModel(w1, b1), r1, ds, part, loss,
                                     alpha)
                      + cvar_objective(LinearModel(w2, b2), r2, ds, part, loss,
                                       alpha))
        worst = max(worst, mid - ends)
    assert _report("6 (objective convexity)", worst <= 1e-9,
                   f"worst chord violation {worst:.2e}")


def test_criterion_7_subgradient_finite_differences():
    """Central finite differences agree within 1e-4 relative at 100
    random smooth points (smooth loss, rho away from every atom)."""
    ds = generate_synth(SynthSpec(m=120, seed=1))
    part = partition(ds)
    loss = LossSpec("logistic")
    alpha = 0.6
    rng = np.random.default_rng(77)
    h = 1e-6
    checked = 0
    worst = 0.0

    def rel_err(est, ref):
        return abs(est - ref) / max(1e-8, abs(ref))

    while checked < 100:
        w = rng.normal(size=2)
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

        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            worst = max(worst, rel_err(g_w[i],
                                       (f(w + e, b, rho) - f(w - e, b, rho))
                                       / (2 * h)))
        worst = max(worst, rel_err(g_b, (f(w, b + h, rho) - f(w, b - h, rho))
                                   / (2 * h)))
        worst = max(worst, rel_err(g_rho, (f(w, b, rho + h) - f(w, b, rho - h))
                                   / (2 * h)))
    assert _report("7 (subgradient finite differences)", worst <= 1e-4,
                   f"worst relative error {worst:.2e}")


def test_criterion_8_tradeoff_trend():
    """Averaged over 10 seeds, the subgroup risk gap is non-increasing and
    the overall risk non-decreasing in alpha, with at most one adjacent
    inversion in each sequence, in under 2 minutes."""
    start = time.perf_counter()
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    gaps = np.zeros((10, len(alphas)))
    risks = np.zeros((10, len(alphas)))
    for seed in range(10):
        ds = generate_synth(SynthSpec(seed=seed))
        for j, alpha in enumerate(alphas):
            cfg = TrainConfig(aggregator=AggregatorSpec.cvar(alpha),
                              loss=LossSpec("squared_hinge"), epochs=150,
                              step_size=0.5)
            rep = train(cfg, ds)
            gaps[seed, j] = subgroup_loss_gap(rep.final_subgroup_risks)
            risks[seed, j] = expectation(rep.final_subgroup_risks)
    elapsed = time.perf_counter() - start
    mean_gap = gaps.mean(axis=0)
    mean_risk = risks.mean(axis=0)
    gap_inversions = int(np.sum(np.diff(mean_gap) > 1e-9))
    risk_inversions = int(np.sum(np.diff(mean_risk) < -1e-9))
    ok = gap_inversions <= 1 and risk_inversions <= 1 and elapsed < 120.0
    assert _report("8 (tradeoff trend)", ok,
                   f"gap {np.round(mean_gap, 3).tolist()}, risk "
                   f"{np.round(mean_risk, 3).tolist()}, inversions "
                   f"({gap_inversions}, {risk_inversions}), {elapsed:.1f}s")


def test_criterion_9_inequality_round_trips():
    """Index/deviation round trips exact to 1e-12 on 500 positive-mean
    vectors, and the sigma-induced index is the coefficient of variation."""
    rng = np.random.default_rng(99)
    worst = 0.0
    cv = coefficient_of_variation()
    spread = spread_over_mean()
    for _ in range(500):
        x = rng.uniform(0.1, 10.0, int(rng.integers(2, 15)))
        for index in (cv, spread):
            # I -> D_I -> I round trip
            def induced_dev(Z, _idx=index):
                return deviation_from_inequality(Z.values, _idx)

            worst = max(worst, abs(inequality_from_deviation(x, induced_dev)
                                   - index(x)))
        for dev in (sd_deviation, lambda Z: cvar_deviation(Z, 0.7)):
            # D -> I_D -> D round trip
            index_of_dev = from_deviation("wrapped", dev)
            Z = DiscreteRandomVariable.uniform(x)
            worst = max(worst,
                        abs(deviation_from_inequality(x, index_of_dev)
                            - dev(Z)))
        direct_cv = float(np.sqrt(np.mean((x - x.mean()) ** 2)) / x.mean())
        worst = max(worst, abs(cv(x) - direct_cv))
        worst = max(worst, abs(risk_from_inequality(x, cv)
                               - (x.mean() + deviation_from_inequality(x, cv))))
    assert _report("9 (inequality round trips)", worst <= 1e-12,
                   f"worst diff {worst:.2e}")


def test_criterion_10a_majorization_lorenz_consistency():
    """On 500 constructed equal-mean pairs, majorization implies Lorenz
    dominance."""
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(500):
        x, y = pigou_dalton_pair(rng, int(rng.integers(3, 10)))
        if not (majorized_by(x, y) and lorenz_dominates(x, y)):
            ok = False
            break
    assert _report("10a (majorization implies Lorenz dominance)", ok)


def test_criterion_10b_cvar_index_strict_schur():
    """Expected red: demands that the tail-average index pass the strict
    Schur-convexity search.

    The index is Schur-convex but not strictly so: a mean-preserving
    transfer confined strictly below the tail leaves the tail average,
    hence the index, exactly unchanged, and the sampler finds such ties.
    The weak property is verified in the unit suite.  The assertion below
    states the original expectation verbatim and therefore fails.
    """
    rep = check_inequality_axiom(cvar_inequality(0.5), "I3", 1000, seed=2024)
    _report("10b (strict Schur-convexity of the tail index, impossible as "
            "stated)", rep.passed,
            "ties under below-tail transfers are unavoidable")
    assert rep.passed, ("strict Schur-convexity fails for the tail-average "
                        "index: transfers confined below the tail give exact "
                        "ties; only the weak Schur property holds")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    """Two identical train invocations emit byte-identical JSON once the
    timing block is removed."""
    argv = ["train", "--data", "synth", "--aggregator", "cvar", "--alpha",
            "0.9", "--loss", "squared_hinge", "--seed", "1", "--epochs", "60"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    a, b = json.loads(out1), json.loads(out2)
    ta = a.pop("timings")
    tb = b.pop("timings")
    identical = (code1 == code2 == 0
                 and json.dumps(a, sort_keys=True) == json.dumps(b,
                                                                 sort_keys=True)
                 and ta.keys() == tb.keys())
    with capsys.disabled():
        _report("11 (cli determinism modulo timings)", identical)
    assert identical
