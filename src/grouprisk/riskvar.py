"""Finite discrete random variables and risk/deviation measures on them.

A variable is a finite set of (value, probability) atoms.  All measures
ignore atoms with zero probability, and atoms sharing a value are merged
(probabilities summed) before quantile or tail computations.  The merge
has two routes with the same bits.  ``_merge`` takes any atoms: it finds
the distinct values with ``np.unique`` and adds each one's probabilities
with ``bincount``, in index order.  ``_merge_equal`` serves training on
the per-instance partition, where every probability is the same p > 0
and no value is -0.0: it sorts the values and gives a run of L equal
ones the L-fold sequential sum of p, looked up in a cumulative sum built
once per run.  Since every term is p, that is the sum ``bincount`` forms
in any index order.  -0.0 is kept out because a merged zero takes the
sign of the zero that sorts first, and the two routes' sorts may order
-0.0 and +0.0 differently.

The central measure is the conditional value at risk at level ``alpha``,
the mean of the upper ``1 - alpha`` tail.  It is computed exactly through
its variational form

    cvar(Z, alpha) = min over r of  { r + E[(Z - r)+] / (1 - alpha) },

which for a discrete variable is a piecewise-linear convex function of r
whose minimum is attained at an atom value.  The implementation therefore
evaluates the expression at every distinct atom value and takes the
minimum; no interpolation or tail-count formula is involved.  It has two
routes with the same bits: plain Python for up to ``SMALL_ATOMS`` finite
atoms, where numpy's per-call overhead would dominate (the falsifiers
evaluate a few atoms tens of thousands of times), and numpy beyond, as in
training.

Aggregators combine a variable into a scalar risk: plain expectation,
cvar, expectation plus a standard-deviation penalty, the mean of the k
largest equal-probability atoms, or the maximum.  ``AggregatorSpec`` holds
that choice behind two methods on parallel (values, probs) arrays:
``value`` returns the risk, ignoring zero-probability atoms, and
``weights`` one weight per atom (the risk-envelope element of the dual
view) whose dot product with the values reproduces the risk, so the
weights are a subgradient in the atom values; a risk that is not finite
has none (None).  top_k is cvar at level 1 - k/n over its n
equal-probability atoms, and the plain expectation at k = n.
``check_axiom`` is a seeded falsifier that searches for counterexamples
to the risk-measure axioms (convexity, positive homogeneity,
monotonicity, continuity along segments, translation, aversity, law
invariance, behaviour on constants, and nonnegativity of the induced
deviation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError

PROB_TOL = 1e-12

# Largest atom count for the plain-Python cvar route.  Measured on a 2-vCPU
# x86 machine (Python 3.11, numpy 2.4): at 8 atoms it takes 3 us against
# 22 us for the numpy route, and the two cost about the same (25-35 us)
# near 64 distinct atoms.  Beyond that numpy wins: at 2e5 atoms, the
# per-instance hinge risks at the end of a top_k run, it takes 15 ms
# against 195 ms in plain Python.
SMALL_ATOMS = 64

# Falsifier tolerances: relative for equalities, slack for inequalities.
AXIOM_TOL = 1e-9

AGGREGATOR_KINDS = ("expectation", "cvar", "sd_penalty", "top_k", "max")

FAIRNESS_AXIOMS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9")


@dataclass(frozen=True, eq=False)
class DiscreteRandomVariable:
    """Finitely supported random variable given by parallel value/prob arrays.

    Invariants: at least one atom, probabilities nonnegative and summing
    to one within ``PROB_TOL``.  Zero-probability atoms are allowed; every
    measure in this module ignores them.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if values.size == 0:
            raise ParameterError("a discrete random variable needs at least one atom")
        if values.shape != probs.shape:
            raise ParameterError("values and probabilities must have equal length")
        if not np.all(np.isfinite(values)):
            raise ParameterError("atom values must be finite")
        if np.any(probs < 0.0):
            raise ParameterError("atom probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ParameterError(f"atom probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_atoms(cls, atoms) -> "DiscreteRandomVariable":
        pairs = list(atoms)
        return cls(np.array([v for v, _ in pairs]), np.array([p for _, p in pairs]))

    @classmethod
    def uniform(cls, values) -> "DiscreteRandomVariable":
        values = np.asarray(values, dtype=float).reshape(-1)
        return cls(values, np.full(values.size, 1.0 / values.size))

    @property
    def atoms(self):
        return list(zip(self.values.tolist(), self.probs.tolist()))

    def support(self):
        """Values and probabilities of the positive-probability atoms."""
        mask = self.probs > 0.0
        return self.values[mask], self.probs[mask]


@dataclass(frozen=True)
class AggregatorSpec:
    """Tagged choice of aggregator over a subgroup-risk variable.

    kind is one of ``expectation``, ``cvar`` (requires ``alpha`` strictly
    inside (0, 1)), ``sd_penalty`` (requires ``lam >= 0``), ``top_k``
    (requires integer ``k >= 1``, equal-probability atoms) or ``max``.
    """

    kind: str
    alpha: Optional[float] = None
    lam: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ParameterError(f"unknown aggregator kind {self.kind!r}")
        if self.kind == "cvar":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ParameterError("cvar aggregator needs alpha strictly in (0, 1)")
        if self.kind == "sd_penalty":
            if self.lam is None or self.lam < 0.0:
                raise ParameterError("sd_penalty aggregator needs lambda >= 0")
        if self.kind == "top_k":
            if self.k is None or int(self.k) != self.k or self.k < 1:
                raise ParameterError("top_k aggregator needs a positive integer k")

    @classmethod
    def expectation(cls):
        return cls("expectation")

    @classmethod
    def cvar(cls, alpha: float):
        return cls("cvar", alpha=alpha)

    @classmethod
    def sd_penalty(cls, lam: float):
        return cls("sd_penalty", lam=lam)

    @classmethod
    def top_k(cls, k: int):
        return cls("top_k", k=k)

    @classmethod
    def max_value(cls):
        return cls("max")

    def describe(self) -> str:
        if self.kind == "cvar":
            return f"cvar(alpha={self.alpha})"
        if self.kind == "sd_penalty":
            return f"sd_penalty(lambda={self.lam})"
        if self.kind == "top_k":
            return f"top_k(k={self.k})"
        return self.kind

    def _tail_level(self, p: np.ndarray) -> Optional[float]:
        """cvar level over the positive probabilities ``p``.

        top_k is cvar at 1 - k/n over its n atoms, which must carry equal
        probabilities; None stands for k = n, the plain expectation.
        """
        if self.kind == "cvar":
            return self.alpha
        if float(p.max() - p.min()) > PROB_TOL:
            raise ParameterError("top_k requires equal-probability atoms")
        if self.k > p.size:
            raise ParameterError(f"top_k with k={self.k} exceeds {p.size} atoms")
        return None if self.k == p.size else 1.0 - self.k / p.size

    def value(self, values: np.ndarray, probs: np.ndarray) -> float:
        """Risk of the atoms (values, probs); zero-probability atoms do not count.

        With no positive-probability atom, cvar, top_k and max raise
        ``ParameterError``; expectation and sd_penalty return 0.0.

        Atoms that are not finite give no numpy warning.  A NaN atom, or
        both +inf and -inf ones, make the mean nan, else an infinite atom
        makes it inf or -inf; the expectation (and top_k at k = n) is that
        mean.  sd_penalty adds lam * inf to it for lam > 0 unless every atom
        is equal, so -inf atoms then give nan (-inf + inf).  For cvar and
        top_k at k < n, a NaN atom gives nan, else a +inf atom inf; -inf
        atoms give -inf when they hold more than the level alpha (1 - k/n)
        by over ``PROB_TOL``, else they drop out of the tail.
        """
        if self.kind == "expectation":
            mean = _quiet_mean(values, probs)
            if math.isfinite(mean):
                return mean
            return _mean_sd_extended(values, probs, None)
        if self.kind == "sd_penalty":
            mean = _quiet_mean(values, probs)
            # an inf or NaN atom, even at zero probability, makes the mean
            # non-finite; the moments of such atoms warn
            if not math.isfinite(mean):
                return _mean_sd_extended(values, probs, self.lam)
            return mean + self.lam * _moments(values, probs, mean)[2]
        _, v, p = _positive_atoms(values, probs)
        if self.kind == "max":
            return float(v.max())
        alpha = self._tail_level(p)
        if alpha is None:
            return _quiet_mean(v, p)
        return _cvar_value(v, p, alpha)

    def weights(self, values: np.ndarray, probs: np.ndarray):
        """Per-atom weights c with ``value`` = dot(c, values), and rho or None.

        expectation (and top_k at k = n): ``probs``.  cvar and top_k: the
        risk envelope at the threshold rho, the lower quantile of the
        positive-probability atoms; p/(1 - alpha) above rho, and on the
        atoms at rho the share that brings the tail mass to 1 - alpha.  max:
        an even split over the positive-probability atoms within 1e-12 of
        the largest.  sd_penalty: p(1 + lam (v - mean)/sd), or p on a
        constant variable; over the positive-probability atoms alone when a
        zero-probability one is not finite.  None, with cvar's rho, when
        ``value`` is not finite.
        """
        return self._value_weights(values, probs)[1:]

    def _equal_atoms(self, probs: np.ndarray):
        """What ``_value_weights`` fixes once for a run of calls whose
        probabilities are all exactly ``probs[0] > 0`` and whose values are
        never -0.0, as on ``train``'s per-instance partition.

        For cvar and top_k: the tail level, and ``sums`` with ``sums[L - 1]``
        the merged probability of L tied atoms.  None for the other kinds.
        Raises top_k's ``ParameterError`` for k above the atom count.
        """
        if self.kind not in ("cvar", "top_k"):
            return None
        return (self._tail_level(probs),
                np.cumsum(np.full(probs.size, probs[0])))

    def _value_weights(self, values: np.ndarray, probs: np.ndarray,
                       equal=None):
        """(``value``, ``weights``): the one place that builds the weights.

        cvar and top_k merge the atoms once for both the value and rho.  No
        kind gives weights (None) when the value is not finite: a NaN
        quantile has no atom at it to carry the tail share, and the moments
        of infinite atoms are not numbers.  ``equal``, from
        ``_equal_atoms(probs)``, skips the positive-atom gather and the
        level, and merges by sorting (``_merge_equal``).
        """
        if self.kind not in ("cvar", "top_k"):
            value = self.value(values, probs)
            if not math.isfinite(value):
                return value, None, None
            if self.kind == "expectation":
                return value, probs, None
            if self.kind == "max":
                top = (probs > 0.0) & (values >= value - 1e-12)
                return value, top / float(top.sum()), None
            return value, _sd_weights(values, probs, self.lam), None
        if equal is None:
            _, v, p = _positive_atoms(values, probs)
            alpha = self._tail_level(p)
        else:
            v, p = values, probs
            alpha, sums = equal
        if alpha is None:
            value = _quiet_mean(v, p)
            return value, probs if math.isfinite(value) else None, None
        uv, up = _merge(v, p) if equal is None else _merge_equal(v, sums)
        value, rho = _cvar_extended(uv, up, alpha), _quantile_merged(uv, up, alpha)
        # free the copies before the envelope allocates its own
        del v, p, uv, up
        if not np.isfinite(value):
            return value, None, rho
        return value, _envelope(values, probs, alpha, rho), rho


def _positive_atoms(values: np.ndarray, probs: np.ndarray):
    """The mask of positive probabilities and the atoms it keeps.

    Raises ``ParameterError`` when it keeps none.  A boolean index beats
    ``compress`` on masks that keep nearly every atom, as this one does.
    """
    mask = probs > 0.0
    v = values[mask]
    if not v.size:
        raise ParameterError("no atom has positive probability")
    return mask, v, probs[mask]


def _quiet_mean(values: np.ndarray, probs: np.ndarray) -> float:
    """dot(values, probs) with nan, not a RuntimeWarning, for inf - inf and
    0 * inf: ``np.vdot`` runs the same ddot as ``np.dot`` on 1-D float
    arrays but does not check the floating-point status.

    vdot adds the ddot to 0.0, which turns a -0.0 into +0.0; a zero is
    therefore taken from ``np.dot``, which cannot warn when vdot's sum of
    the same products is finite.
    """
    mean = float(np.vdot(values, probs))
    return float(np.dot(values, probs)) if mean == 0.0 else mean


def _sd_weights(values: np.ndarray, probs: np.ndarray, lam: float):
    """sd_penalty's ``weights`` at a finite value: 0 on zero-probability
    atoms when one of them is inf or NaN, as the others are then finite."""
    mean = _quiet_mean(values, probs)
    if not math.isfinite(mean):
        mask = probs > 0.0
        weights = np.zeros_like(probs)
        weights[mask] = _sd_weights(values[mask], probs[mask], lam)
        return weights
    _, centred, sd = _moments(values, probs, mean)
    if sd > 0.0:
        return probs * (1.0 + lam * centred / sd)
    return probs.copy()


def _mean_sd_extended(values: np.ndarray, probs: np.ndarray,
                      lam: Optional[float]) -> float:
    """The expectation (``lam`` None) or sd_penalty's value when the mean of
    all atoms is not finite, as ``value`` documents: over the
    positive-probability atoms alone, 0.0 when there are none."""
    mask = np.asarray(probs) > 0.0
    v, p = np.asarray(values)[mask], np.asarray(probs)[mask]
    mean = _quiet_mean(v, p)
    if lam is None or not v.size:
        return mean
    lo, hi = float(v.min()), float(v.max())
    if math.isfinite(lo) and math.isfinite(hi):
        # zero-probability atoms held the non-finite values, or the mean of
        # finite ones overflowed
        return mean + lam * _moments(v, p, mean)[2]
    if math.isnan(mean):  # a NaN atom, or both +inf and -inf ones
        return math.nan
    return mean + lam * math.inf if lam > 0.0 and lo != hi else mean


def expectation(Z: DiscreteRandomVariable) -> float:
    """Probability-weighted mean of the atom values."""
    return float(np.dot(Z.values, Z.probs))


def _moments(values: np.ndarray, probs: np.ndarray,
             mean: Optional[float] = None):
    """Mean, centred values and standard deviation of the atoms.

    ``mean``, when given, is dot(values, probs) computed by the caller.
    """
    if mean is None:
        mean = float(np.dot(values, probs))
    centred = values - mean
    return mean, centred, float(np.sqrt(np.dot(probs, centred * centred)))


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie strictly in (0, 1), got {alpha!r}")


def _merge(values: np.ndarray, probs: np.ndarray):
    """Distinct values in ascending order and the summed probability of each.

    ``np.unique`` treats -0.0 and +0.0 as one value and all NaNs as one;
    ``bincount`` adds each value's probabilities in index order, starting
    from 0.0.
    """
    uv, inverse = np.unique(values, return_inverse=True)
    return uv, np.bincount(inverse, weights=probs, minlength=uv.size)


def _merge_equal(values: np.ndarray, sums: np.ndarray):
    """``_merge(values, full(n, p))`` for p > 0, given
    ``sums = cumsum(full(n, p))``, without ``np.unique``'s inverse.

    A run of L equal values in the sorted copy merges to ``sums[L - 1]``:
    the L-fold sequential sum of p, which is what ``bincount`` adds up in
    any index order since every term is p.  The values must hold no -0.0:
    a merged zero takes the sign of the zero that sorts first, and
    ``np.sort`` and ``np.unique``'s argsort may order -0.0 and +0.0
    differently.  NaNs merge into one last atom, as there.
    """
    s = np.sort(values)
    start = np.empty(s.size, dtype=bool)
    start[0] = True
    np.not_equal(s[1:], s[:-1], out=start[1:])
    if s[-1] != s[-1]:
        # NaN sorts last and is unequal to itself; keep only the first
        start[int(np.searchsorted(s, s[-1])) + 1:] = False
    first = np.flatnonzero(start)
    return s[first], sums[np.diff(first, append=s.size) - 1]


def _quantile_merged(uv: np.ndarray, up: np.ndarray, alpha: float) -> float:
    """Lower quantile inf{z : F(z) >= alpha} of ``_merge``'s output."""
    cum = np.cumsum(up)
    # 1e-12 slack so accumulated rounding cannot skip the boundary atom.
    idx = int(np.searchsorted(cum, alpha - PROB_TOL, side="left"))
    idx = min(idx, uv.size - 1)
    return float(uv[idx])


def quantile(Z: DiscreteRandomVariable, alpha: float) -> float:
    """Lower quantile of Z at level alpha in (0, 1)."""
    _check_alpha(alpha)
    # the support only: at alpha near 0 a zero-probability atom below wins
    return _quantile_merged(*_merge(*Z.support()), alpha)


def _cvar_value(values: np.ndarray, probs: np.ndarray, alpha: float) -> float:
    """Exact cvar of the atoms via the variational form, alpha in [0, 1).

    Up to ``SMALL_ATOMS`` finite atoms take the plain-Python route
    ``_cvar_small``, the rest ``_merge`` and ``_cvar_extended``; both
    return the same bits.
    """
    if values.size <= SMALL_ATOMS:
        v = values.tolist()
        # a finite sum rules out inf and NaN atoms
        if math.isfinite(sum(v)):
            return _cvar_small(v, probs.tolist(), alpha)
    return _cvar_extended(*_merge(values, probs), alpha)


def _cvar_extended(uv: np.ndarray, up: np.ndarray, alpha: float) -> float:
    """``_cvar_merged`` on merged atoms that need not be finite.

    Atoms that are not finite get the variational form's value in extended
    arithmetic, without numpy warnings, as ``AggregatorSpec.value``
    documents; finite atoms go to ``_cvar_merged`` unchanged.
    """
    # NaN sorts last and gives nan; else a +inf atom, always in the tail,
    # gives inf
    if not math.isfinite(uv[-1]):
        return float(uv[-1])
    if uv[0] == -math.inf:
        # r + E[(Z - r)+]/(1 - alpha) falls without bound as r -> -inf
        # exactly when the -inf atom holds more than alpha; the PROB_TOL
        # slack of _quantile_merged keeps a rounded alpha = 1 - k/n from
        # counting a -inf atom of mass exactly alpha as heavier
        if up[0] > alpha + PROB_TOL:
            return -math.inf
        uv, up = uv[1:], up[1:]
    return _cvar_merged(uv, up, alpha)


def _cvar_small(values: list, probs: list, alpha: float) -> float:
    """``_cvar_merged(*_merge(values, probs), alpha)`` on Python floats.

    Merges in index order, the order ``bincount`` adds in, and walks the
    sorted distinct values from the top with running suffix sums seeded
    like the reversed ``cumsum``, so every operation rounds as there.
    """
    merged = {}
    for v, p in zip(values, probs):
        merged[v] = merged.get(v, 0.0) + p
    keys = sorted(merged)
    inv = 1.0 / (1.0 - alpha)
    top = keys.pop()
    # f(top) = top + inv * (0.0 - top * 0.0), which turns -0.0 into +0.0
    best = top + 0.0
    tail_p = merged[top]
    tail_pv = tail_p * top
    for r in reversed(keys):
        f = r + inv * (tail_pv - r * tail_p)
        if f < best:
            best = f
        p = merged[r]
        tail_p += p
        tail_pv += p * r
    return best


def _cvar_merged(uv: np.ndarray, up: np.ndarray, alpha: float) -> float:
    """Exact cvar of ``_merge``'s output via the variational form.

    Evaluates f(r) = r + (1/(1-alpha)) * sum_i p_i * max(v_i - r, 0) at
    every distinct atom value r; the convex piecewise-linear f attains its
    minimum there.  Suffix sums keep this O(n log n).
    """
    inv = 1.0 / (1.0 - alpha)
    # tail_p[j] / tail_pv[j]: total prob and prob-weighted value strictly
    # above uv[j], summed from the top down into reversed views
    tail_p = np.empty_like(up)
    tail_pv = np.empty_like(up)
    tail_p[-1] = tail_pv[-1] = 0.0
    np.cumsum(up[:0:-1], out=tail_p[-2::-1])
    pv = up * uv
    np.cumsum(pv[:0:-1], out=tail_pv[-2::-1])
    del pv
    # f = uv + inv * (tail_pv - uv * tail_p), in place
    f = np.multiply(uv, tail_p, out=tail_p)
    np.subtract(tail_pv, f, out=f)
    f *= inv
    f += uv
    return float(f.min())


def _envelope(values: np.ndarray, probs: np.ndarray, alpha: float,
              rho: float) -> np.ndarray:
    """The cvar risk envelope at rho described in ``AggregatorSpec.weights``."""
    above = values > rho
    at = values == rho
    # compress picks the same elements as a boolean index, several times faster
    p_above = float(probs.compress(above).sum())
    p_at = float(probs.compress(at).sum())
    theta = min(max(((1.0 - alpha) - p_above) / p_at, 0.0), 1.0)
    # the bits of where(above, 1.0, 0.0) + where(at, theta, 0.0): theta >= +0.0
    tail = above + at * theta
    np.multiply(probs, tail, out=tail)
    tail /= 1.0 - alpha
    return tail


def cvar(Z: DiscreteRandomVariable, alpha: float) -> float:
    """Conditional value at risk: mean of the upper (1 - alpha) tail.

    Computed by exact minimisation of the variational expression over the
    distinct atom values (see module docstring), never by sorting the tail.
    """
    _check_alpha(alpha)
    v, p = Z.support()
    return _cvar_value(v, p, alpha)


def cvar_deviation(Z: DiscreteRandomVariable, alpha: float) -> float:
    """Deviation counterpart of cvar: cvar(Z, alpha) - E(Z).

    Nonnegative, and zero exactly when Z is constant.
    """
    return cvar(Z, alpha) - expectation(Z)


def sd_deviation(Z: DiscreteRandomVariable) -> float:
    """Probability-weighted standard deviation sqrt(E[Z^2] - E[Z]^2).

    Evaluated through the centred sum sqrt(sum_i p_i (z_i - mean)^2),
    which is the same quantity without the catastrophic cancellation the
    raw-moment difference suffers on near-constant variables.
    """
    return _moments(Z.values, Z.probs)[2]


def aggregate(Z: DiscreteRandomVariable, spec: AggregatorSpec) -> float:
    """Apply an aggregator to a subgroup-risk variable (``spec.value``)."""
    return spec.value(Z.values, Z.probs)


# ---------------------------------------------------------------------------
# Axiom falsification


@dataclass(frozen=True)
class FalsificationReport:
    """Outcome of a sampled search for an axiom violation."""

    axiom: str
    measure: str
    trials: int
    passed: bool
    counterexample: Optional[dict]
    seed: int

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "measure": self.measure,
            "trials": self.trials,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "seed": self.seed,
        }


def _tol(*xs) -> float:
    return AXIOM_TOL * max(1.0, *(abs(x) for x in xs))


def _sample_space(rng: np.random.Generator, spec: AggregatorSpec, uniform=False):
    """Shared sample space: a size and a probability vector.

    top_k needs equal probabilities and at least k atoms; otherwise half
    the trials use skewed probabilities so violations that need unbalanced
    groups are reachable.
    """
    low = spec.k if spec.kind == "top_k" else 2
    n = int(rng.integers(max(low, 2), max(low, 2) + 7))
    if uniform or spec.kind == "top_k" or rng.random() < 0.5:
        probs = np.full(n, 1.0 / n)
    else:
        w = rng.uniform(0.05, 1.0, n) ** 2
        probs = w / w.sum()
    return n, probs


def _sample_values(rng: np.random.Generator, n: int, min_spread: float = 0.0):
    while True:
        z = rng.uniform(-5.0, 5.0, n)
        if float(np.ptp(z)) >= min_spread:
            return z


def _ce(**kv) -> dict:
    out = {}
    for k, v in kv.items():
        out[k] = v.tolist() if isinstance(v, np.ndarray) else v
    return out


def _check_f1(spec, rng):
    """Convexity: R((1-t)Z + tZ') <= (1-t)R(Z) + tR(Z')."""
    n, probs = _sample_space(rng, spec)
    z = _sample_values(rng, n)
    variant = int(rng.integers(0, 3))
    if variant == 0:
        z2 = _sample_values(rng, n)
    elif variant == 1:
        z2 = -z
    else:
        z2 = z * rng.choice([-1.0, 1.0], size=n)
    t = float(rng.uniform(0.1, 0.9))
    lhs = spec.value((1.0 - t) * z + t * z2, probs)
    rhs = (1.0 - t) * spec.value(z, probs) + t * spec.value(z2, probs)
    if lhs > rhs + _tol(lhs, rhs):
        return _ce(values=z, values2=z2, probs=probs, t=t, lhs=lhs, rhs=rhs)
    return None


def _check_f2(spec, rng):
    """Positive homogeneity: R(0) = 0 and R(cZ) = cR(Z) for c > 0."""
    n, probs = _sample_space(rng, spec)
    r0 = spec.value(np.zeros(n), probs)
    if abs(r0) > AXIOM_TOL:
        return _ce(values=np.zeros(n), probs=probs, lhs=r0, rhs=0.0)
    z = _sample_values(rng, n)
    c = float(rng.uniform(0.1, 10.0))
    lhs = spec.value(c * z, probs)
    rhs = c * spec.value(z, probs)
    if abs(lhs - rhs) > _tol(lhs, rhs):
        return _ce(values=z, probs=probs, c=c, lhs=lhs, rhs=rhs)
    return None


def _check_f3(spec, rng):
    """Monotonicity: Z <= Z' pointwise implies R(Z) <= R(Z')."""
    n, probs = _sample_space(rng, spec)
    z = _sample_values(rng, n)
    variant = int(rng.integers(0, 3))
    if variant == 0:
        z2 = z + np.abs(rng.normal(0.0, 1.0, n))
    elif variant == 1:
        delta = np.abs(rng.normal(0.0, 1.0, n))
        delta[rng.random(n) < 0.5] = 0.0
        z2 = z + delta
    else:
        # Raise the low coordinates toward a cap; the classic breaker for
        # deviation-penalised aggregators.
        cap = float(rng.uniform(np.median(z), np.max(z)))
        z2 = np.maximum(z, cap)
    lhs = spec.value(z, probs)
    rhs = spec.value(z2, probs)
    if lhs > rhs + _tol(lhs, rhs):
        return _ce(values=z, values2=z2, probs=probs, lhs=lhs, rhs=rhs)
    return None


def _check_f4(spec, rng):
    """Continuity surrogate: R along a sampled segment has no jumps."""
    n, probs = _sample_space(rng, spec)
    z, z2 = _sample_values(rng, n), _sample_values(rng, n)
    t = float(rng.uniform(0.05, 0.9))
    h = 1e-6
    a = spec.value((1.0 - t) * z + t * z2, probs)
    b = spec.value((1.0 - t - h) * z + (t + h) * z2, probs)
    if abs(a - b) > 1e-2:
        return _ce(values=z, values2=z2, probs=probs, t=t, lhs=a, rhs=b)
    return None


def _check_f5(spec, rng):
    """Translation: R(Z + C) = R(Z) + C."""
    n, probs = _sample_space(rng, spec)
    z = _sample_values(rng, n)
    c = float(rng.uniform(-5.0, 5.0))
    lhs = spec.value(z + c, probs)
    rhs = spec.value(z, probs) + c
    if abs(lhs - rhs) > _tol(lhs, rhs):
        return _ce(values=z, probs=probs, c=c, lhs=lhs, rhs=rhs)
    return None


def _check_f6(spec, rng):
    """Aversity: R(Z) > E(Z) for non-constant Z."""
    n, probs = _sample_space(rng, spec)
    z = _sample_values(rng, n, min_spread=0.5)
    r = spec.value(z, probs)
    e = float(np.dot(probs, z))
    if r - e <= _tol(r, e):
        return _ce(values=z, probs=probs, lhs=r, rhs=e)
    return None


def _check_f7(spec, rng):
    """Law invariance: permuting equal-probability atoms leaves R unchanged."""
    n, probs = _sample_space(rng, spec, uniform=True)
    z = _sample_values(rng, n)
    perm = rng.permutation(n)
    lhs = spec.value(z[perm], probs)
    rhs = spec.value(z, probs)
    if abs(lhs - rhs) > _tol(lhs, rhs):
        return _ce(values=z, probs=probs, permutation=perm, lhs=lhs, rhs=rhs)
    return None


def _check_f8(spec, rng):
    """Constants: R of a constant variable equals the constant."""
    n, probs = _sample_space(rng, spec)
    c = float(rng.uniform(-5.0, 5.0))
    lhs = spec.value(np.full(n, c), probs)
    if abs(lhs - c) > _tol(lhs, c):
        return _ce(values=np.full(n, c), probs=probs, lhs=lhs, rhs=c)
    return None


def _check_f9(spec, rng):
    """Induced deviation R - E is >= 0, zero exactly on constants."""
    n, probs = _sample_space(rng, spec)
    z = _sample_values(rng, n, min_spread=0.5)
    dev = spec.value(z, probs) - float(np.dot(probs, z))
    if dev < -_tol(dev):
        return _ce(values=z, probs=probs, deviation=dev, reason="negative deviation")
    if dev <= _tol(dev):
        return _ce(values=z, probs=probs, deviation=dev, reason="zero on non-constant")
    c = float(rng.uniform(-5.0, 5.0))
    dev_c = spec.value(np.full(n, c), probs) - c
    if abs(dev_c) > _tol(dev_c, c):
        return _ce(values=np.full(n, c), probs=probs, deviation=dev_c,
                   reason="nonzero on constant")
    return None


_FAIRNESS_CHECKS: dict[str, Callable] = {
    "F1": _check_f1,
    "F2": _check_f2,
    "F3": _check_f3,
    "F4": _check_f4,
    "F5": _check_f5,
    "F6": _check_f6,
    "F7": _check_f7,
    "F8": _check_f8,
    "F9": _check_f9,
}


def _falsify(checker: Callable, subject, axiom: str, name: str, trials: int,
             seed: int) -> FalsificationReport:
    """Trial loop shared by the risk and the inequality axiom falsifiers.

    Calls ``checker(subject, rng)`` up to ``trials`` times on one rng
    seeded with ``seed``; the first counterexample, tagged with its trial
    index, fails the report.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        ce = checker(subject, rng)
        if ce is not None:
            ce["trial"] = trial
            return FalsificationReport(axiom, name, trials, False, ce, seed)
    return FalsificationReport(axiom, name, trials, True, None, seed)


def check_axiom(measure: AggregatorSpec, axiom: str, trials: int,
                rng_seed: int = 0) -> FalsificationReport:
    """Search for a counterexample to one axiom over sampled variable pairs.

    Pairs share a finite sample space and its probabilities, so pointwise
    ordering and convex combination are well defined.  This is
    falsification by sampling, not a proof: a pass means no violation was
    found in ``trials`` attempts at the module tolerances.
    """
    ax = str(axiom).upper()
    if ax not in _FAIRNESS_CHECKS:
        raise ParameterError(f"unknown axiom tag {axiom!r}")
    return _falsify(_FAIRNESS_CHECKS[ax], measure, ax, measure.describe(),
                    trials, rng_seed)
