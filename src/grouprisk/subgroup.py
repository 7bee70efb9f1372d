"""Datasets, linear models, base losses, and empirical subgroup risks.

The sensitive feature partitions the rows into groups; the per-group mean
loss of a linear model becomes a discrete random variable (one atom per
group, weighted by the group probabilities) that the risk measures in
``riskvar`` aggregate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, ParameterError
from .riskvar import PROB_TOL, DiscreteRandomVariable

LOSS_KINDS = ("zero_one", "hinge", "squared_hinge", "logistic", "linear")

PARTITION_MODES = ("categorical", "per_instance")


def _margin_in_place(y, s):
    """max(0, 1 - y*s), the hinge loss, written into s."""
    np.multiply(y, s, out=s)
    np.subtract(1.0, s, out=s)
    return np.maximum(0.0, s, out=s)


def _zero_one(y, s):
    # sign(0) counts as +1
    pred = np.where(s >= 0.0, 1.0, -1.0)
    return (pred != y).astype(float)


@dataclass(frozen=True)
class LossSpec:
    """Tagged base loss with value and score-subgradient.

    zero_one is evaluation only (no subgradient); the other kinds are
    convex in the score.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ParameterError(f"unknown loss kind {self.kind!r}")

    @property
    def convex(self) -> bool:
        return self.kind != "zero_one"

    def values(self, labels: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Loss per score: max(0, 1 - y*s), its square, log(1 + exp(-y*s)),
        -y*s, or zero_one's 1 where the sign of s (+1 at 0) is not y.

        Values and ``grads`` have the bits of these closed forms for any
        finite labels unless a product over- or underflows, as multiplying
        by -1, -2 or -0.5 is exact otherwise; but the hinge grad at a +0.0
        label is +0.0, not -y = -0.0.
        """
        if self.kind == "zero_one":
            return _zero_one(np.asarray(labels, float), np.asarray(scores, float))
        return self._values_grads(labels, scores)[0]

    def grads(self, labels: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Subgradient of the loss with respect to the score, elementwise."""
        # the loss values computed alongside are dropped, with their warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return self._values_grads(labels, scores)[1]

    def _values_grads(self, labels, scores):
        """``_values_grads_into``'s step on a float copy of the broadcast
        scores; numpy scalars for 0-d inputs."""
        y, s = np.broadcast_arrays(np.asarray(labels, float),
                                   np.asarray(scores, float))
        v, g = s.astype(float), np.empty(s.shape)
        self._values_grads_into(y)(..., v, g)
        return v[()], g[()]

    def _values_grads_into(self, labels: np.ndarray):
        """Function ``step(blk, v, g)`` for a slice ``blk`` of the rows.

        ``v[blk]`` holds the scores on entry; ``step`` writes the loss
        values there and the grads into ``g[blk]``, in place, so a call
        allocates nothing row-sized.  ``values`` and ``grads`` run it too.
        """
        y = np.asarray(labels, float)
        if self.kind == "hinge":
            def step(blk, v, g):
                yb = y[blk]
                h = _margin_in_place(yb, v[blk])
                # where(h > 0, -y, 0.0): 0.0 - (y * 0.0) is +0.0
                g = np.greater(h, 0.0, out=g[blk])
                np.multiply(yb, g, out=g)
                np.subtract(0.0, g, out=g)
        elif self.kind == "squared_hinge":
            def step(blk, v, g):
                yb = y[blk]
                h = _margin_in_place(yb, v[blk])
                g = np.multiply(yb, h, out=g[blk])
                g *= -2.0
                np.multiply(h, h, out=h)
        elif self.kind == "logistic":
            def step(blk, v, g):
                s, g, yb = v[blk], g[blk], y[blk]
                np.multiply(yb, s, out=g)
                np.multiply(g, -1.0, out=s)
                g *= -0.5
                np.tanh(g, out=g)
                np.add(1.0, g, out=g)
                np.multiply(yb, g, out=g)
                g *= -0.5
                np.logaddexp(0.0, s, out=s)
        elif self.kind == "linear":
            def step(blk, v, g):
                s = np.multiply(y[blk], v[blk], out=v[blk])
                s *= -1.0
                np.multiply(y[blk], -1.0, out=g[blk])
        else:
            raise ParameterError(f"loss {self.kind!r} has no subgradient")
        return step


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense features, labels in {-1, +1}, one sensitive value per row.

    ``sensitive`` holds either integer group codes or raw reals.  An
    optional ``group_weighting`` maps each observed sensitive value to a
    nonnegative weight; weights must sum to one and the keys must cover
    exactly the observed values.
    """

    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    group_weighting: Optional[dict] = None

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float).reshape(-1)
        s = np.asarray(self.sensitive).reshape(-1)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise InputError("features must be a nonempty 2-d matrix")
        if y.shape[0] != X.shape[0] or s.shape[0] != X.shape[0]:
            raise InputError("labels and sensitive values must match the row count")
        if not np.all(np.isfinite(X)):
            raise InputError("features must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise InputError("labels must be -1 or +1")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "sensitive", s)
        if self.group_weighting is not None:
            w = self.group_weighting
            keys = set(w.keys())
            seen = set(np.unique(s).tolist())
            if keys != seen:
                raise InputError(
                    f"group weighting keys {sorted(map(repr, keys))} do not cover "
                    f"observed sensitive values {sorted(map(repr, seen))}")
            vals = np.array([float(w[k]) for k in w], dtype=float)
            if np.any(vals < 0.0):
                raise InputError("group weights must be nonnegative")
            if abs(vals.sum() - 1.0) > PROB_TOL:
                raise InputError("group weights must sum to 1")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset, preserving the group weighting when it still covers."""
        sub_sensitive = self.sensitive[idx]
        weighting = self.group_weighting
        if weighting is not None:
            seen = set(np.unique(sub_sensitive).tolist())
            if set(weighting.keys()) != seen:
                weighting = None
        return Dataset(self.features[idx], self.labels[idx], sub_sensitive,
                       weighting)


@dataclass(frozen=True, eq=False)
class GroupPartition:
    """Row-to-group assignment plus per-group sizes and probabilities."""

    group_ids: np.ndarray
    sizes: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        gid = np.asarray(self.group_ids, dtype=int).reshape(-1)
        sizes = np.asarray(self.sizes, dtype=int).reshape(-1)
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if sizes.size != probs.size:
            raise InputError("sizes and probabilities must have equal length")
        if np.any(sizes < 1):
            raise InputError("every group needs at least one row")
        if int(sizes.sum()) != gid.size:
            raise InputError("group sizes must sum to the row count")
        if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise InputError("group probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "group_ids", gid)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.sizes.size

    def means(self, values: np.ndarray) -> np.ndarray:
        """Per-group mean of one value per row, in group order."""
        return (np.bincount(self.group_ids, weights=values, minlength=self.n)
                / self.sizes)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Weight vector plus intercept; scores are x . w + b."""

    weights: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if not np.all(np.isfinite(w)) or not np.isfinite(self.intercept):
            raise ParameterError("model parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "intercept", float(self.intercept))

    @classmethod
    def zeros(cls, d: int) -> "LinearModel":
        return cls(np.zeros(d), 0.0)

    def scores(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, float) @ self.weights + self.intercept


def first_appearance(values):
    """Codes 0..n-1 in order of first appearance, plus each code's first row.

    Values equal under ``==`` share a code: -0.0 and 0.0 do, NaNs never.
    Numeric arrays of finite integers spanning fewer numbers than rows are
    coded in numpy by a table of first rows, all other input by a dict.
    """
    kind = values.dtype.kind if isinstance(values, np.ndarray) else ""
    if kind in ("b", "i", "u", "f") and values.size:
        m, lo = values.size, values.min()
        span = values.max().item() - lo.item()  # Python numbers: no wrap
        if span < m and (kind != "f" or np.array_equal(values, np.rint(values))):
            slots = np.subtract(values, lo,
                                dtype=float if kind == "f" else np.intp)
            slots = slots.astype(np.intp, copy=False)
            first = np.full(int(span) + 1, m)
            np.minimum.at(first, slots, np.arange(m))
            order = np.argsort(first)  # values no row holds (m) sort last
            return np.argsort(order)[slots], np.sort(first[first < m])
        values = values.tolist()
    # C-speed passes: each value's first row, then each row's code
    rows: dict = {}
    deque(map(rows.setdefault, values, range(len(values))), maxlen=0)
    code = dict(zip(rows, range(len(rows))))
    return (np.fromiter(map(code.__getitem__, values), int, len(values)),
            np.fromiter(rows.values(), int, len(rows)))


def partition(dataset: Dataset, mode: str = "categorical") -> GroupPartition:
    """Group the rows by sensitive value, or one singleton group per row.

    Categorical mode requires integer-coded sensitive values and yields
    one group per distinct value in ``first_appearance`` order (-0.0 and
    0.0 are one group), with probabilities from ``dataset.group_weighting``
    when present and the empirical frequencies otherwise.  Per-instance
    mode gives every row its own group with probability 1/m (the route
    for real-valued sensitive features).
    """
    if mode not in PARTITION_MODES:
        raise ParameterError(f"unknown partition mode {mode!r}")
    m = dataset.m
    if mode == "per_instance":
        return GroupPartition(np.arange(m), np.ones(m, dtype=int),
                              np.full(m, 1.0 / m))
    s = dataset.sensitive
    if s.dtype.kind == "f" and not np.all(s == np.rint(s)):
        raise ParameterError(
            "categorical partition requires integer-coded sensitive values; "
            "use per_instance mode for real-valued sensitive features")
    codes, first = first_appearance(s)
    sizes = np.bincount(codes, minlength=first.size)
    w = dataset.group_weighting
    probs = (sizes / m if w is None
             else np.array([float(w[v]) for v in s[first].tolist()]))
    return GroupPartition(codes, sizes, probs)


def group_risk_vector(model: LinearModel, dataset: Dataset,
                      part: GroupPartition, loss: LossSpec) -> np.ndarray:
    """Per-group mean losses, in group order, via a fixed reduction order."""
    if model.weights.shape[0] != dataset.d:
        raise ParameterError("model dimension does not match the dataset")
    if part.group_ids.shape[0] != dataset.m:
        raise ParameterError("partition does not match the dataset")
    return part.means(loss.values(dataset.labels, model.scores(dataset.features)))


def subgroup_risks(model: LinearModel, dataset: Dataset, part: GroupPartition,
                   loss: LossSpec) -> DiscreteRandomVariable:
    """The subgroup-risk variable: one atom per group at its mean loss."""
    return DiscreteRandomVariable(group_risk_vector(model, dataset, part, loss),
                                  part.probs)


def weighted_risk(model: LinearModel, dataset: Dataset, part: GroupPartition,
                  loss: LossSpec) -> float:
    """Expectation of the subgroup risks under the group probabilities.

    With empirical probabilities this equals the plain sample mean loss.
    """
    return float(np.dot(part.probs, group_risk_vector(model, dataset, part, loss)))


def margins(model: LinearModel, dataset: Dataset) -> DiscreteRandomVariable:
    """Per-instance margin variable with atoms (-y*score, 1/m).

    Identical to the subgroup risks under the linear loss with the
    per-instance partition; exposed so the soft-margin connection can be
    inspected directly.
    """
    if model.weights.shape[0] != dataset.d:
        raise ParameterError("model dimension does not match the dataset")
    vals = -dataset.labels * model.scores(dataset.features)
    return DiscreteRandomVariable(vals, np.full(dataset.m, 1.0 / dataset.m))
