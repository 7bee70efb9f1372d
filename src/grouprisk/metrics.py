"""Post-hoc accuracy and fairness metrics for trained classifiers.

All metrics are pure functions of predictions, scores, labels, and the
group partition; none of them enter the training objective.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ParameterError, UndefinedMetricError
from .riskvar import DiscreteRandomVariable
from .subgroup import Dataset, GroupPartition, LinearModel, LossSpec


@dataclass(frozen=True)
class EvaluationReport:
    """Bundle of evaluation metrics; fields are None when undefined.

    ``subgroup_risks``, the per-group mean losses under the evaluation
    loss, is kept for callers and left out of ``to_dict``.
    """

    zero_one_risk: float
    subgroup_zero_one: dict
    mean_difference: Optional[float]
    dp_violation: float
    covariance: float
    mutual_information_nats: float
    pairwise_disagreement: Optional[float]
    subgroup_loss_gap: float
    subgroup_risks: DiscreteRandomVariable

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "subgroup_risks"}


def predictions_from_scores(scores: np.ndarray) -> np.ndarray:
    """Hard labels from scores; a score of exactly zero predicts +1."""
    return np.where(np.asarray(scores, float) >= 0.0, 1.0, -1.0)


def mean_difference_01(predictions: np.ndarray, labels: np.ndarray,
                       part: GroupPartition) -> float:
    """Absolute difference of the two subgroup zero-one error rates."""
    if part.n != 2:
        raise ParameterError(f"mean difference needs exactly 2 groups, got {part.n}")
    err = part.means((np.asarray(predictions) != np.asarray(labels)).astype(float))
    return float(abs(err[0] - err[1]))


def dp_violation(predictions: np.ndarray, part: GroupPartition) -> float:
    """Largest gap between per-group prediction rates, over both labels."""
    worst = 0.0
    preds = np.asarray(predictions, float)
    for a in (-1.0, 1.0):
        rates = part.means((preds == a).astype(float))
        worst = max(worst, float(np.ptp(rates)))
    return worst


def covariance_metric(predictions: np.ndarray, sensitive: np.ndarray) -> float:
    """Empirical covariance E[A*S] - E[A]*E[S]."""
    a = np.asarray(predictions, float)
    s = np.asarray(sensitive, float)
    if a.shape != s.shape:
        raise ParameterError("predictions and sensitive values must align")
    return float(np.mean(a * s) - np.mean(a) * np.mean(s))


def mutual_information_metric(predictions: np.ndarray,
                              part: GroupPartition) -> float:
    """Plug-in mutual information of (prediction, group) in nats.

    Uses the empirical joint with the 0*log(0) = 0 convention; clamped at
    zero against rounding.
    """
    preds = np.asarray(predictions, float)
    m = preds.shape[0]
    mi = 0.0
    p_group = part.sizes / m
    for a in (-1.0, 1.0):
        mask = (preds == a).astype(float)
        joint = np.bincount(part.group_ids, weights=mask, minlength=part.n) / m
        p_a = float(mask.mean())
        nz = joint > 0.0
        if p_a > 0.0:
            mi += float(np.sum(joint[nz] * np.log(joint[nz] / (p_a * p_group[nz]))))
    return max(mi, 0.0)


def pairwise_disagreement(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of (positive, negative) pairs ranked wrongly, ties count 1/2.

    Computed as one minus the rank-based area under the ROC curve.
    """
    s = np.asarray(scores, float)
    y = np.asarray(labels, float)
    pos = y == 1.0
    n_pos = int(pos.sum())
    n_neg = s.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("pairwise disagreement needs both classes")
    # A tied block's average rank is (#scores below + #scores at or below
    # + 1) / 2, summed exactly in integers; with no ties (nor NaN) the second
    # count is the first plus one.  Sorted queries help the binary searches.
    sorted_s = np.sort(s)
    s_pos = np.sort(s[pos])
    below = int(np.searchsorted(sorted_s, s_pos, side="left").sum())
    at_or_below = (below + n_pos if np.all(sorted_s[1:] > sorted_s[:-1]) else
                   int(np.searchsorted(sorted_s, s_pos, side="right").sum()))
    rank_sum = 0.5 * float(below + at_or_below + n_pos)
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return 1.0 - auc


def subgroup_loss_gap(risks: DiscreteRandomVariable) -> float:
    """Spread max - min of the positive-probability subgroup risks."""
    v, _ = risks.support()
    return float(np.ptp(v))


def evaluate(model: LinearModel, dataset: Dataset, part: GroupPartition,
             loss: LossSpec) -> EvaluationReport:
    """Full evaluation bundle for one model on one dataset.

    mean_difference is None unless there are exactly two groups, and
    pairwise_disagreement is None when only one class is present.
    """
    scores = model.scores(dataset.features)
    preds = predictions_from_scores(scores)
    errors = (preds != dataset.labels).astype(float)
    sub_err = part.means(errors)
    try:
        pd_value = pairwise_disagreement(scores, dataset.labels)
    except UndefinedMetricError:
        pd_value = None
    risks = DiscreteRandomVariable(part.means(loss.values(dataset.labels, scores)),
                                   part.probs)
    return EvaluationReport(
        zero_one_risk=float(errors.mean()),
        subgroup_zero_one={int(g): float(sub_err[g]) for g in range(part.n)},
        mean_difference=(mean_difference_01(preds, dataset.labels, part)
                         if part.n == 2 else None),
        dp_violation=dp_violation(preds, part),
        covariance=covariance_metric(preds, dataset.sensitive),
        mutual_information_nats=mutual_information_metric(preds, part),
        pairwise_disagreement=pd_value,
        subgroup_loss_gap=subgroup_loss_gap(risks),
        subgroup_risks=risks,
    )
