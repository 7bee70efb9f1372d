"""Shared oracles and samplers for the test suite."""

import numpy as np
import pytest

from grouprisk import DiscreteRandomVariable


def random_variable(rng, max_atoms=20, min_atoms=2):
    """Random discrete variable with bounded-away-from-zero probabilities."""
    n = int(rng.integers(min_atoms, max_atoms + 1))
    values = rng.uniform(-10.0, 10.0, n)
    weights = rng.uniform(0.05, 1.0, n)
    return DiscreteRandomVariable(values, weights / weights.sum())


def grid_cvar(Z, alpha, n_points=100_000):
    """Dense-grid minimisation of the variational expression.

    Independent oracle: evaluates r + E[(Z - r)+]/(1 - alpha) over a
    uniform grid spanning the support, augmented with the atom values
    (the objective is piecewise linear, so its kinks are the only
    candidate minimisers a uniform grid can miss).  Suffix sums over the
    sorted, unmerged atoms keep the sweep fast; the minimum is taken over
    the uniform points and the atom values separately, which is the
    minimum over their union without sorting it.
    """
    v, p = Z.support()
    order = np.argsort(v, kind="mergesort")
    v, p = v[order], p[order]
    suffix_p = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])
    suffix_pv = np.concatenate([np.cumsum((p * v)[::-1])[::-1], [0.0]])

    def f_min(grid):
        idx = np.searchsorted(v, grid, side="right")
        return (grid + (suffix_pv[idx] - grid * suffix_p[idx])
                / (1.0 - alpha)).min()

    return float(min(f_min(np.linspace(v.min(), v.max(), n_points)),
                     f_min(v)))


def reference_codes(values):
    """Dict coder: codes in order of first appearance, plus the keys.

    ``subgroup.first_appearance`` codes numeric arrays in numpy; on the
    Python objects of the same values (an array's ``.tolist()``) this
    gives the codes and keys it must reproduce.
    """
    seen = {}
    codes = np.fromiter((seen.setdefault(v, len(seen)) for v in values),
                        dtype=int, count=len(values))
    return codes, list(seen)


def closed_form_loss(kind, y, s):
    """Values and grads of a training loss by its closed form; the
    reference for ``LossSpec``, whose one-pass step must give these bits."""
    hinge = np.maximum(0.0, 1.0 - y * s)
    if kind == "hinge":
        return hinge, np.where(1.0 - y * s > 0.0, -y, 0.0)
    if kind == "squared_hinge":
        return hinge ** 2, -2.0 * y * hinge
    if kind == "logistic":
        return (np.logaddexp(0.0, -y * s),
                -y * 0.5 * (1.0 + np.tanh(-0.5 * y * s)))
    return -y * s, -y * np.ones_like(s)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
