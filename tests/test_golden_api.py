"""Golden API outputs: falsifier reports and aggregator values, pinned by SHA-256.

The CLI goldens (``test_golden.py``) reach only the fairness falsifier on
expectation, cvar and sd_penalty.  This suite pins, one SHA-256 per case:

- ``check_axiom`` reports for every aggregator kind and fairness axiom;
- ``check_inequality_axiom`` reports for four indices and every
  inequality axiom;
- ``AggregatorSpec.value``, ``AggregatorSpec.weights``, ``cvar`` and
  ``quantile`` over a seeded corpus of 1 to 40 atoms with tied values,
  -0.0 next to +0.0 and zero probabilities;
- ``LossSpec.values`` and ``grads`` for every loss kind on labels of +-1
  and scores at 0, -0.0, the kink, +-1e300, +-inf and NaN, also as 0-d
  inputs and broadcast against one score;
- ``train`` reports (objective trace, weights, intercept, rho, final
  risks and metrics) for top_k at four k, and for per-instance and
  categorical cvar at four alphas, under the four training losses at
  m = 1, 7 and 400 rows; the rows repeat, so per-instance risks tie in
  runs of many lengths.  Likewise expectation, sd_penalty and max on the
  categorical partition, and every kind on three groups whose third has
  weight 0 through ``group_weighting`` and on five groups that hold the
  same rows, so their risks tie at every iterate.  Also a 3000-row hinge
  run where most risks tie at exactly 0, and a per-instance run whose
  objective overflows, pinned by its ``NumericalError`` and partial trace.

A case's canonical text is the report's JSON (sorted keys), one
``repr`` per corpus entry or one ``repr`` per training run, so every bit
of every float counts.  Errors are part of the output as ``error: ...``
lines.  The digests pin the numpy and BLAS build they were made with:
regenerate them only after an environment change, and name any case
whose digest a code change alters.

    python tests/test_golden_api.py --print CASE...   # canonical outputs
    python tests/test_golden_api.py --digests         # digests as JSON
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from grouprisk import (AggregatorSpec, Dataset, DiscreteRandomVariable,
                       LossSpec, TrainConfig, check_axiom,
                       check_inequality_axiom, coefficient_of_variation, cvar,
                       cvar_inequality, from_deviation, quantile,
                       sd_deviation, spread_over_mean, train)
from grouprisk.errors import GroupRiskError
from grouprisk.inequality import INEQUALITY_AXIOMS
from grouprisk.riskvar import FAIRNESS_AXIOMS

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_api_digests.json")

TRIALS = 100

_SPECS = {
    "expectation": AggregatorSpec.expectation(),
    "cvar": AggregatorSpec.cvar(0.7),
    "sd_penalty": AggregatorSpec.sd_penalty(1.5),
    "top_k": AggregatorSpec.top_k(3),
    "max": AggregatorSpec.max_value(),
}

_INDICES = {
    "cvar_inequality": cvar_inequality(0.7),
    "coefficient_of_variation": coefficient_of_variation(),
    "spread_over_mean": spread_over_mean(),
    "scaled_cv": from_deviation("scaled_cv(lambda=2.5)",
                                lambda Z: 2.5 * sd_deviation(Z)),
}

# cvar levels within PROB_TOL of 0 and of 1 as well as inside
_ALPHAS = {"1e-13": 1e-13, "0.3": 0.3, "0.9": 0.9, "1-1e-13": 1.0 - 1e-13}

_VALUE_SPECS = {
    "expectation": AggregatorSpec.expectation(),
    **{f"cvar_{name}": AggregatorSpec.cvar(a) for name, a in _ALPHAS.items()},
    "sd_penalty": AggregatorSpec.sd_penalty(0.5),
    "top_k_1": AggregatorSpec.top_k(1),
    "top_k_3": AggregatorSpec.top_k(3),
    "max": AggregatorSpec.max_value(),
}


def _weights(spec):
    """``spec.weights`` with its array as a list, so repr keeps every bit."""
    def fn(values, probs):
        weights, rho = spec.weights(values, probs)
        return np.asarray(weights).tolist(), rho
    return fn


def corpus(size=300, seed=16):
    """Seeded (values, probs) pairs of 1 to 40 atoms.

    Values are continuous, or on a half-integer grid so that many tie;
    about a fifth are zeros of either sign.  Every other pair puts equal
    probability on its positive atoms, as top_k requires; about a fifth
    of the atoms carry probability zero.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(size):
        n = int(rng.integers(1, 41))
        if i % 3 == 0:
            values = rng.uniform(-5.0, 5.0, n)
        else:
            values = rng.integers(-4, 5, n) * 0.5
        zeros = rng.random(n) < 0.2
        negative = rng.random(n) < 0.5
        values[zeros & negative] = -0.0
        values[zeros & ~negative] = 0.0
        if i % 2 == 0:
            mass = np.ones(n)
        else:
            mass = rng.uniform(0.05, 1.0, n) ** 2
        mass[rng.random(n) < 0.2] = 0.0
        mass[int(rng.integers(0, n))] = 1.0
        out.append((values, mass / mass.sum()))
    return out


_TRAIN_LOSSES = ("hinge", "squared_hinge", "logistic", "linear")


def loss_inputs(seed=23):
    """(labels, scores) pairs of +-1 labels: every label against the edge
    scores and the kink y * s = 1, seeded normal scores, 0-d pairs, and
    the labels against one 0-d score."""
    edges = [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
    y = np.repeat([1.0, -1.0], len(edges))
    s = np.array(edges * 2)
    rng = np.random.default_rng(seed)
    y2 = rng.choice([-1.0, 1.0], 50)
    out = [(y, s), (y2, rng.normal(size=50) * 3.0), (y, np.float64(0.5))]
    out += [(np.float64(label), np.float64(score))
            for label in (1.0, -1.0) for score in edges]
    return out


def _loss_case(fn):
    """Case text: one line per ``loss_inputs`` pair, the result's shape
    and its values."""
    def line(y, s):
        out = fn(y, s)
        return np.shape(out), np.asarray(out).tolist()
    return lambda: "\n".join(_line(line, y, s) for y, s in loss_inputs())

_TRAIN_SIZES = (1, 7, 400)


def train_dataset(m, seed, scale=1.0):
    """m rows drawn with repetition from about m/4 distinct seeded rows,
    features times ``scale``, three categorical groups."""
    rng = np.random.default_rng(seed)
    pool = max(1, m // 4)
    X = rng.normal(size=(pool, 3)) * scale
    y = rng.choice([-1.0, 1.0], size=pool)
    rows = rng.integers(0, pool, m)
    return Dataset(X[rows], y[rows], rng.integers(0, 3, m))


def separable_dataset(m, seed):
    """m distinct rows labelled by a linear rule with a wide margin, so
    that training drives most hinge losses to exactly 0."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, 3)) * 3.0
    y = np.where(X @ np.array([1.0, -2.0, 0.5]) > 0.0, 1.0, -1.0)
    return Dataset(X, y, np.zeros(m, dtype=int))


def _train_line(aggregator, loss, dataset, mode="per_instance", **kw) -> str:
    options = dict(l2_reg=1e-4, epochs=25, step_size=0.5,
                   step_decay="inv_sqrt", partition_mode=mode)
    options.update(kw)
    config = TrainConfig(aggregator=aggregator, loss=LossSpec(loss), **options)
    try:
        r = train(config, dataset)
    except GroupRiskError as exc:
        trace = getattr(exc, "trace", None)
        return f"error: {exc}; trace {None if trace is None else trace.tolist()!r}"
    risks = r.final_subgroup_risks
    return repr((r.objective_trace.tolist(), r.model.weights.tolist(),
                 r.model.intercept, r.rho, risks.values.tolist(),
                 risks.probs.tolist(), sorted(r.metrics.items())))


def _train_case(loss, m, runs):
    """Case text: one line per (aggregator, mode) run on one dataset."""
    def text():
        ds = train_dataset(m, seed=10 * m + _TRAIN_LOSSES.index(loss))
        return "\n".join(_train_line(agg, loss, ds, mode) for agg, mode in runs)
    return text


def weighted_dataset(m, seed):
    """``train_dataset`` with group weights 0.6, 0.4 and 0 on its three
    groups: the third group's risk never counts."""
    ds = train_dataset(m, seed)
    return Dataset(ds.features, ds.labels, ds.sensitive,
                   {0: 0.6, 1: 0.4, 2: 0.0})


def tied_dataset(groups, rows, seed):
    """The same ``rows`` seeded rows in each of ``groups`` groups, in the
    same order, so every group risk ties with every other at every
    iterate."""
    base = train_dataset(rows, seed)
    return Dataset(np.tile(base.features, (groups, 1)),
                   np.tile(base.labels, groups),
                   np.repeat(np.arange(groups), rows))


def _kinds_case(loss, dataset):
    """Case text: one line per aggregator kind, categorical partition."""
    return lambda: "\n".join(_train_line(spec, loss, dataset, "categorical")
                             for spec in _SPECS.values())


def _train_cases() -> dict:
    out = {}
    for m in _TRAIN_SIZES:
        top_ks = sorted({max(1, k) for k in (1, m // 3, 9 * m // 10, m)})
        for loss in _TRAIN_LOSSES:
            out[f"train_top_k_{loss}_m{m}"] = _train_case(
                loss, m, [(AggregatorSpec.top_k(k), "per_instance")
                          for k in top_ks])
            for mode in ("per_instance", "categorical"):
                out[f"train_cvar_{mode}_{loss}_m{m}"] = _train_case(
                    loss, m, [(AggregatorSpec.cvar(a), mode)
                              for a in _ALPHAS.values()])
            out[f"train_kinds_categorical_{loss}_m{m}"] = _train_case(
                loss, m, [(_SPECS[kind], "categorical")
                          for kind in ("expectation", "sd_penalty", "max")])
    for loss in _TRAIN_LOSSES:
        out[f"train_zero_weight_group_{loss}"] = _kinds_case(
            loss, weighted_dataset(400, 7))
        out[f"train_five_tied_groups_{loss}"] = _kinds_case(
            loss, tied_dataset(5, 40, 8))
    out["train_hinge_ties_m3000"] = lambda: _train_line(
        AggregatorSpec.top_k(2700), "hinge", separable_dataset(3000, 5),
        epochs=30)
    # scores near 1e30 make the squared hinge oscillate until it overflows
    out["train_overflow"] = lambda: _train_line(
        AggregatorSpec.cvar(0.5), "squared_hinge",
        train_dataset(50, 3, scale=1e30), step_size=1.0,
        step_decay="constant", epochs=200)
    return out


def _line(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except GroupRiskError as exc:
        return f"error: {exc}"


def _corpus_case(fn):
    return lambda: "\n".join(_line(fn, v, p) for v, p in corpus())


def _report_case(falsifier, subject, axiom, seed):
    return lambda: json.dumps(
        falsifier(subject, axiom, TRIALS, seed).to_dict(), sort_keys=True)


def cases() -> dict:
    """Case name -> zero-argument function returning the canonical text."""
    out = {}
    # each falsifier case runs on its own seed, its index in this table
    for kind, spec in _SPECS.items():
        for ax in FAIRNESS_AXIOMS:
            out[f"check_axiom_{kind}_{ax}"] = _report_case(
                check_axiom, spec, ax, len(out))
    for name, index in _INDICES.items():
        for ax in INEQUALITY_AXIOMS:
            out[f"check_inequality_axiom_{name}_{ax}"] = _report_case(
                check_inequality_axiom, index, ax, len(out))
    for name, spec in _VALUE_SPECS.items():
        out[f"value_{name}"] = _corpus_case(spec.value)
        out[f"weights_{name}"] = _corpus_case(_weights(spec))
    for name, alpha in _ALPHAS.items():
        out[f"cvar_{name}"] = _corpus_case(
            lambda v, p, a=alpha: cvar(DiscreteRandomVariable(v, p), a))
        out[f"quantile_{name}"] = _corpus_case(
            lambda v, p, a=alpha: quantile(DiscreteRandomVariable(v, p), a))
    for kind in ("zero_one",) + _TRAIN_LOSSES:
        loss = LossSpec(kind)
        out[f"loss_values_{kind}"] = _loss_case(loss.values)
        out[f"loss_grads_{kind}"] = _loss_case(loss.grads)
    out.update(_train_cases())
    return out


def digest(name) -> str:
    return hashlib.sha256(cases()[name]().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def expected():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(cases()))
def test_golden_api(name, expected):
    assert digest(name) == expected[name], (
        f"{name}: print it with `python tests/test_golden_api.py --print "
        f"{name}` here and at the parent commit, and diff")


def test_every_api_case_has_a_digest(expected):
    assert sorted(expected) == sorted(cases())


def _main(argv):
    all_cases = cases()
    if argv[:1] == ["--digests"]:
        print(json.dumps({n: digest(n) for n in sorted(all_cases)}, indent=1,
                         sort_keys=True))
    elif argv[:1] == ["--print"]:
        for name in argv[1:] or sorted(all_cases):
            print(f"== {name}")
            print(all_cases[name]())
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
