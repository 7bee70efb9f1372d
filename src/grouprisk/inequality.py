"""Inequality indices on nonnegative vectors and their risk counterparts.

A vector x of n nonnegative entries is read as a random variable under
uniform probabilities 1/n.  An inequality index I and a deviation measure
D on such variables determine each other through

    I_D(x) = D(x) / E(x)   (0 when E(x) = 0)
    D_I(x) = E(x) * I(x)
    R_I(x) = E(x) + D_I(x)

so the coefficient of variation is the index induced by the standard
deviation.  The module also provides the Lorenz curve (cumulative share
of the total held by the poorest fraction p), majorization of equal-sum
vectors by sorted partial sums, and ``check_inequality_axiom``, a seeded
falsifier for the index axioms: symmetry, scale invariance, strict
Schur-convexity on sampled transfer pairs, population replication,
normalization, constant addition, Lorenz compatibility (checked as the
conjunction of the first four), and convexity on constant-sum slices.

Transfer pairs for the Schur check are built directly: start from a
random y and repeatedly move mass from a larger to a smaller coordinate
without letting them cross; every such step preserves the mean and
produces a vector majorized by y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ParameterError, UndefinedMetricError,
                     UnsupportedAxiomError)
from .riskvar import (DiscreteRandomVariable, FalsificationReport,
                      _check_alpha, _cvar_value, _falsify, _moments, _tol)

INEQUALITY_AXIOMS = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I11")

_REPLICATION_FACTORS = (2, 3, 5)

_MIN_TRANSFER_GAP = 1e-2


def _as_income_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size < 1:
        raise ParameterError("income vectors need at least one entry")
    if not np.isfinite(v).all() or (v < 0.0).any():
        raise ParameterError("income vector entries must be finite and >= 0")
    return v


@dataclass(frozen=True)
class InequalityMeasure:
    """Named inequality index, a callable on nonnegative vectors."""

    name: str
    fn: Callable[[np.ndarray], float]

    def __call__(self, x) -> float:
        return float(self.fn(_as_income_vector(x)))


def _over_mean(deviation: Callable[[np.ndarray, np.ndarray], float]):
    """Index v -> D(v)/E(v) on a validated vector; 0 at E = 0.

    ``deviation`` takes the values and their uniform probabilities 1/n.
    """

    def index(v: np.ndarray) -> float:
        mean = float(v.mean())
        if mean == 0.0:
            return 0.0
        return float(deviation(v, np.full(v.size, 1.0 / v.size))) / mean

    return index


def inequality_from_deviation(x, deviation: Callable[[DiscreteRandomVariable],
                                                     float]) -> float:
    """Index D(X)/E(X) of a vector under a deviation measure; 0 at E = 0."""
    return from_deviation("inequality_from_deviation", deviation)(x)


def from_deviation(name: str,
                   deviation: Callable[[DiscreteRandomVariable], float]
                   ) -> InequalityMeasure:
    """Wrap any deviation measure on discrete variables as an index."""
    return InequalityMeasure(name, _over_mean(
        lambda v, p: deviation(DiscreteRandomVariable(v, p))))


def coefficient_of_variation(lam: float = 1.0) -> InequalityMeasure:
    """Standard deviation over mean, the index induced by sigma, scaled by
    ``lam``; any lam other than 1 names it ``scaled_cv(lambda=lam)``.

    Evaluated as ``lam * _moments(v, p)[2] / v.mean()`` on the vector the
    measure's call validated, with no ``DiscreteRandomVariable`` built:
    the bits of ``from_deviation`` with ``lam * sd_deviation``.
    """
    name = ("coefficient_of_variation" if lam == 1.0 else
            f"scaled_cv(lambda={lam})")
    return InequalityMeasure(name,
                             _over_mean(lambda v, p: lam * _moments(v, p)[2]))


def cvar_inequality(alpha: float) -> InequalityMeasure:
    """Index induced by the cvar deviation at level alpha in (0, 1).

    Evaluated as ``(_cvar_value(v, p, alpha) - dot(v, p)) / v.mean()`` on
    the vector the measure's call validated, with no
    ``DiscreteRandomVariable`` built: the bits of ``from_deviation`` with
    ``cvar_deviation``.  Up to ``SMALL_ATOMS`` entries the cvar takes its
    plain-Python route.
    """
    _check_alpha(alpha)
    return InequalityMeasure(f"cvar_inequality(alpha={alpha})", _over_mean(
        lambda v, p: _cvar_value(v, p, alpha) - float(np.dot(v, p))))


def spread_over_mean() -> InequalityMeasure:
    """Max-min spread normalised by the mean; 0 on an all-zero vector."""
    return InequalityMeasure("spread_over_mean",
                             _over_mean(lambda v, p: np.ptp(v)))


def deviation_from_inequality(x, index: Callable[[np.ndarray], float]) -> float:
    """Deviation E(x) * I(x) induced by an inequality index."""
    v = _as_income_vector(x)
    return float(v.mean()) * float(index(v))


def risk_from_inequality(x, index: Callable[[np.ndarray], float]) -> float:
    """Risk E(x) + E(x) * I(x); literally expectation plus the deviation."""
    v = _as_income_vector(x)
    return float(v.mean()) + deviation_from_inequality(v, index)


# ---------------------------------------------------------------------------
# Lorenz curves and majorization


@dataclass(frozen=True, eq=False)
class LorenzCurve:
    """Piecewise-linear curve through knots (k/n, share of the k poorest)."""

    ps: np.ndarray
    shares: np.ndarray

    @property
    def knots(self):
        return list(zip(self.ps.tolist(), self.shares.tolist()))

    def value(self, p) -> np.ndarray:
        return np.interp(np.asarray(p, float), self.ps, self.shares)


def lorenz_curve(x) -> LorenzCurve:
    """Lorenz curve of a vector with positive mean.

    Knot k/n carries the fraction of the total held by the k smallest
    entries, so the curve runs from (0, 0) to (1, 1), is non-decreasing,
    and is convex.
    """
    v = _as_income_vector(x)
    total = float(v.sum())
    if total <= 0.0:
        raise UndefinedMetricError("Lorenz curve is undefined for zero-mean input")
    n = v.size
    shares = np.concatenate([[0.0], np.cumsum(np.sort(v)) / total])
    return LorenzCurve(np.arange(n + 1) / n, shares)


def majorized_by(x, y, tol: float = 1e-12) -> bool:
    """True when x is majorized by y: equal totals and dominated partial sums.

    Every top-k partial sum of the decreasing rearrangement of x must be
    at most y's, within ``tol`` scaled by the magnitude of the totals.
    """
    vx = _as_income_vector(x)
    vy = _as_income_vector(y)
    if vx.size != vy.size:
        raise ParameterError("majorization compares vectors of equal length")
    cx = np.cumsum(np.sort(vx)[::-1])
    cy = np.cumsum(np.sort(vy)[::-1])
    scale = max(1.0, float(cx[-1]), float(cy[-1]))
    if abs(float(cx[-1] - cy[-1])) > tol * scale:
        return False
    return bool(np.all(cx <= cy + tol * scale))


def lorenz_dominates(x, y, tol: float = 1e-12) -> bool:
    """True when the Lorenz curve of x lies weakly above that of y."""
    lx = lorenz_curve(x)
    ly = lorenz_curve(y)
    ps = np.union1d(lx.ps, ly.ps)
    return bool(np.all(lx.value(ps) >= ly.value(ps) - tol))


def pigou_dalton_pair(rng: np.random.Generator, n: int,
                      transfers: int | None = None):
    """Sample (x, y) with x obtained from y by mean-preserving transfers.

    Each transfer moves a random fraction of the gap from a larger to a
    smaller coordinate, so x is majorized by y by construction and, after
    at least one genuine transfer, is not a permutation of y.
    """
    y = rng.uniform(0.1, 10.0, n)
    x = y.copy()
    if transfers is None:
        transfers = int(rng.integers(1, 4))
    done = 0
    attempts = 0
    while done < transfers and attempts < 50:
        attempts += 1
        i, j = rng.choice(n, size=2, replace=False)
        if x[i] < x[j]:
            i, j = j, i
        gap = x[i] - x[j]
        # draws lie in [0.1, 10]; a transfer across a smaller gap can move
        # a strictly Schur-convex index by less than the 1e-9 tolerance
        if gap <= _MIN_TRANSFER_GAP:
            continue
        delta = float(rng.uniform(0.2, 0.5)) * gap
        x[i] -= delta
        x[j] += delta
        done += 1
    if done == 0:
        return pigou_dalton_pair(rng, n, transfers)
    return x, y


# ---------------------------------------------------------------------------
# Axiom falsification


def _sample_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.1, 10.0, n)


def _check_i1(index, rng):
    n = int(rng.integers(2, 9))
    x = _sample_vector(rng, n)
    perm = rng.permutation(n)
    a, b = index(x[perm]), index(x)
    if abs(a - b) > _tol(a, b):
        return {"x": x.tolist(), "permutation": perm.tolist(), "lhs": a, "rhs": b}
    return None


def _check_i2(index, rng):
    n = int(rng.integers(2, 9))
    x = _sample_vector(rng, n)
    lam = float(rng.uniform(0.1, 10.0))
    a, b = index(lam * x), index(x)
    if abs(a - b) > _tol(a, b):
        return {"x": x.tolist(), "lambda": lam, "lhs": a, "rhs": b}
    return None


def _check_i3(index, rng):
    n = int(rng.integers(3, 9))
    x, y = pigou_dalton_pair(rng, n)
    a, b = index(x), index(y)
    # strict Schur-convexity: a genuine transfer must strictly lower the index
    if a >= b - _tol(a, b):
        return {"x": x.tolist(), "y": y.tolist(), "lhs": a, "rhs": b}
    return None


def _check_i4(index, rng):
    n = int(rng.integers(2, 7))
    x = _sample_vector(rng, n)
    r = int(rng.choice(_REPLICATION_FACTORS))
    a, b = index(np.tile(x, r)), index(x)
    if abs(a - b) > _tol(a, b):
        return {"x": x.tolist(), "r": r, "lhs": a, "rhs": b}
    return None


def _check_i5(index, rng):
    n = int(rng.integers(2, 9))
    x = _sample_vector(rng, n)
    while float(np.ptp(x)) < 0.5:
        x = _sample_vector(rng, n)
    a = index(x)
    if a < -_tol(a):
        return {"x": x.tolist(), "value": a, "reason": "negative index"}
    if a <= _tol(a):
        return {"x": x.tolist(), "value": a, "reason": "zero on non-constant"}
    c = float(rng.uniform(0.1, 10.0))
    b = index(np.full(n, c))
    if abs(b) > _tol(b):
        return {"x": [c] * n, "value": b, "reason": "nonzero on constant"}
    return None


def _check_i6(index, rng):
    n = int(rng.integers(2, 9))
    x = _sample_vector(rng, n)
    c = float(rng.uniform(0.1, 10.0))
    a, b = index(x + c), index(x)
    if a > b + _tol(a, b):
        return {"x": x.tolist(), "c": c, "lhs": a, "rhs": b}
    return None


def _check_i7(index, rng):
    # Lorenz compatibility holds exactly when I1, I2, I3, and I4 all do.
    for sub, checker in (("I1", _check_i1), ("I2", _check_i2),
                         ("I3", _check_i3), ("I4", _check_i4)):
        ce = checker(index, rng)
        if ce is not None:
            ce["via"] = sub
            return ce
    return None


def _check_i11(index, rng):
    n = int(rng.integers(2, 9))
    x = _sample_vector(rng, n)
    y = _sample_vector(rng, n)
    y = y * (x.sum() / y.sum())
    t = float(rng.uniform(0.1, 0.9))
    lhs = index((1.0 - t) * x + t * y)
    rhs = (1.0 - t) * index(x) + t * index(y)
    if lhs > rhs + _tol(lhs, rhs):
        return {"x": x.tolist(), "y": y.tolist(), "t": t, "lhs": lhs, "rhs": rhs}
    return None


_INEQUALITY_CHECKS = {
    "I1": _check_i1,
    "I2": _check_i2,
    "I3": _check_i3,
    "I4": _check_i4,
    "I5": _check_i5,
    "I6": _check_i6,
    "I7": _check_i7,
    "I11": _check_i11,
}

_STRUCTURAL_AXIOMS = ("I8", "I9", "I10")


def check_inequality_axiom(index: Callable[[np.ndarray], float], axiom: str,
                           trials: int, seed: int = 0) -> FalsificationReport:
    """Search for a counterexample to one inequality-index axiom.

    I8, I9, and I10 quantify over partitions and aggregation functions and
    have no mechanical falsifier here; requesting them raises.
    """
    ax = str(axiom).upper()
    if ax in _STRUCTURAL_AXIOMS:
        raise UnsupportedAxiomError(
            f"axiom {ax} is structural (existence-style) and not checkable here")
    if ax not in _INEQUALITY_CHECKS:
        raise ParameterError(f"unknown axiom tag {axiom!r}")
    name = getattr(index, "name", getattr(index, "__name__", "index"))
    return _falsify(_INEQUALITY_CHECKS[ax], index, ax, str(name), trials, seed)
