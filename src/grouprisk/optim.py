"""Subgradient training of linear models under subgroup-risk aggregators.

The trainer minimises the aggregate of the subgroup risks plus an L2 term
on the weights over (weights, intercept) by plain subgradient descent from
zero initialisation.  Each pass scores the current iterate once and takes
the loss values and gradients from one pass over the scores.  The group
risks give the objective and the descent direction, one coefficient per
group on that group's mean loss gradient, from one aggregator call with
the bits of ``AggregatorSpec.value`` and ``AggregatorSpec.weights``.  For
the cvar aggregator the scalar threshold rho of the variational form is
not descended: the weights are taken at the exact minimiser for the
current model, the lower alpha-quantile of the subgroup risks.  The top-k
aggregator always trains on the per-instance partition, where it is cvar
at alpha = 1 - k/m (the plain mean at k = m), so its objectives and
optimisation traces coincide with per-instance cvar training at that
alpha.

On the per-instance partition every group has probability exactly 1/m,
so the tail level (alpha, or 1 - k/m) is fixed once per run, and each
epoch merges tied risks with one sort instead of ``np.unique`` and a
``bincount`` (``riskvar._merge_equal``, with the same bits).

The row-wise passes of an epoch (the scores, the loss values and grads,
and the per-row coefficients times the grads) write into per-run
buffers, and once the blocks reach ``_MIN_BLOCK_ROWS`` rows they run on
up to one thread per usable CPU, one contiguous block of rows each.  The
reductions (the group ``bincount``, ``X.T @ coef`` and the coefficient
sum) stay whole on the calling thread, so the outputs do not depend on
the thread count.  The BLAS thread count is left untouched.  With one
BLAS thread, as the golden digests pin, scoring by blocks gives the bits
of one ``X @ w``.  A multi-threaded BLAS splits each call between its own
threads, so on large inputs the scores then depend on its thread count
(on one block too) and on the blocks.

At the exact rho the quantile atom itself is active with the fractional
tail weight ((1 - alpha) - P[risk > rho]) / P[risk = rho], so the descent
direction stays informative when several groups tie (in particular at the
zero model, where every group has the same risk).  The standalone
``subgradient`` function instead keeps the documented convention of a
strict tail and zero weight on ties, which is what finite-difference
checks at smooth points exercise.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ParameterError
from .riskvar import AggregatorSpec, DiscreteRandomVariable, _check_alpha
from .subgroup import (Dataset, GroupPartition, LinearModel, LossSpec,
                       group_risk_vector, partition)

STEP_DECAYS = ("constant", "inv_sqrt")

# Fewest rows per block before ``train`` splits its row passes over
# threads.  Measured on a 2-vCPU x86 machine (numpy 2.4, one BLAS thread,
# medians of 7 runs), 100 cvar epochs of the squared hinge on two groups
# took 0.12 s on one block and on two at 1e5 rows, 0.24 against 0.20 s at
# 2e5 and 0.36 against 0.30 s at 3e5; 30 per-instance top_k epochs, where
# the aggregator's sorts dominate, 0.26 against 0.24 s at 2e5.  Blocks of
# 5e4 rows gain nothing, and the gains at 2e5 rows are within the machine's
# drift of about 10%, so every input of up to 2e5 rows stays on one block.
_MIN_BLOCK_ROWS = 150_000


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    The loss must be convex (zero_one is evaluation only).  step_decay
    ``inv_sqrt`` divides the base step by sqrt(epoch index), the usual
    safe schedule for nonsmooth objectives.
    """

    aggregator: AggregatorSpec
    loss: LossSpec
    l2_reg: float = 1e-4
    epochs: int = 200
    step_size: float = 0.5
    step_decay: str = "inv_sqrt"
    partition_mode: str = "categorical"

    def __post_init__(self):
        if not self.loss.convex:
            raise ParameterError("training requires a convex loss")
        if self.epochs < 1:
            raise ParameterError("epochs must be at least 1")
        if self.step_size <= 0.0:
            raise ParameterError("step_size must be positive")
        if self.l2_reg < 0.0:
            raise ParameterError("l2_reg must be nonnegative")
        if self.step_decay not in STEP_DECAYS:
            raise ParameterError(f"unknown step decay {self.step_decay!r}")


@dataclass(frozen=True, eq=False)
class TrainReport:
    """Best iterate found, with the objective trace and summary metrics."""

    model: LinearModel
    rho: Optional[float]
    objective_trace: np.ndarray
    final_subgroup_risks: DiscreteRandomVariable
    metrics: dict


def _l2_term(weights: np.ndarray, l2_reg: float) -> float:
    if l2_reg == 0.0:
        # dot(w, w) can overflow to inf while the scores stay finite, and
        # 0 * inf is nan; for a finite dot this is the product's signed zero
        return 0.0 * l2_reg
    return 0.5 * l2_reg * float(np.dot(weights, weights))


def cvar_objective(model: LinearModel, rho: float, dataset: Dataset,
                   part: GroupPartition, loss: LossSpec, alpha: float,
                   l2_reg: float = 0.0) -> float:
    """Variational objective rho + E[(risks - rho)+]/(1 - alpha) (+ L2).

    With uniform group probabilities this is the empirical tail-average
    objective over the subgroup risks.
    """
    _check_alpha(alpha)
    risks = group_risk_vector(model, dataset, part, loss)
    excess = np.maximum(risks - rho, 0.0)
    return (rho + float(np.dot(part.probs, excess)) / (1.0 - alpha)
            + _l2_term(model.weights, l2_reg))


def subgradient(model: LinearModel, rho: float, dataset: Dataset,
                part: GroupPartition, loss: LossSpec, alpha: float,
                l2_reg: float = 0.0):
    """Subgradient of ``cvar_objective`` at (model, rho).

    Returns (weight gradient, intercept gradient, rho gradient).  Groups
    whose risk exactly equals rho take subgradient zero, so only the
    strict tail contributes; at smooth points this matches central finite
    differences.
    """
    _check_alpha(alpha)
    risks = group_risk_vector(model, dataset, part, loss)
    inv = 1.0 / (1.0 - alpha)
    active = risks > rho
    g_rho = 1.0 - inv * float(part.probs[active].sum())
    coef_group = np.where(active, part.probs, 0.0) * inv / part.sizes
    coef = coef_group[part.group_ids] * loss.grads(
        dataset.labels, model.scores(dataset.features))
    g_w = dataset.features.T @ coef + l2_reg * model.weights
    g_b = float(coef.sum())
    return g_w, g_b, g_rho


def training_partition_mode(aggregator: AggregatorSpec, mode: str) -> str:
    """Partition mode ``train`` runs on: per instance for top_k, else ``mode``."""
    return "per_instance" if aggregator.kind == "top_k" else mode


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_blocks(m: int) -> list:
    """Contiguous row slices, one per thread, for ``train``'s row passes.

    Every block but the last starts and ends on a multiple of 4 rows:
    OpenBLAS's gemv kernel scores rows in fours from the start of each
    call, and a row scored in another position of its four can round
    differently, so with one BLAS thread these blocks give the bits of
    one ``X @ w``.
    """
    n = max(1, min(_usable_cpus(), m // _MIN_BLOCK_ROWS))
    size = -(-m // n)
    size += -size % 4
    return [slice(lo, lo + size) for lo in range(0, m, size)]


def train(config: TrainConfig, dataset: Dataset) -> TrainReport:
    """Run subgradient descent and return the best iterate by objective.

    Deterministic: zero initialisation, exact rho updates, fixed reduction
    orders; identical config and dataset reproduce the report bit for bit,
    whatever the number of row blocks.
    """
    spec = config.aggregator
    mode = training_partition_mode(spec, config.partition_mode)
    per_instance = mode == "per_instance"
    part = partition(dataset, mode)
    X = dataset.features
    m = dataset.m
    loss_step = config.loss._values_grads_into(dataset.labels)
    w = np.zeros(dataset.d)
    b = 0.0
    # objectives[i] belongs to iterate i; pass i records it, then steps
    objectives = np.empty(config.epochs + 1)
    best_epoch = 0
    # every singleton group has probability exactly 1/m and every risk is
    # + 0.0-normalised: fix the tail level and the merged probabilities of
    # tied risks for the run
    equal = spec._equal_atoms(part.probs) if per_instance else None
    # per-run row buffers, in one allocation that is returned to the
    # system whole when the run ends: the scores become the loss values in
    # place, and the grads become the coefficients times the grads.  On
    # the per-instance partition the values are the risks, so the best
    # iterate's stay in one buffer while the epochs write the other.
    buf = np.empty((2 + per_instance, m))
    buffers = list(buf[1:])
    values, grads = buffers[0], buf[0]
    blocks = _row_blocks(m)

    def scores_losses(blk):
        # np.errstate is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            v = values[blk]
            np.matmul(X[blk], w, out=v)
            v += b
            loss_step(blk, values, grads)
            if per_instance:
                # the singleton-group mean: + 0.0 turns -0.0 into +0.0 as
                # the bincount does
                v += 0.0

    def scale_grads(blk):
        with np.errstate(over="ignore", invalid="ignore"):
            g = grads[blk]
            if per_instance:
                np.multiply(coef_group[blk], g, out=g)
            else:
                # group ids are in range; the default mode="raise" would
                # buffer the whole output
                c = np.take(coef_group, part.group_ids[blk], out=values[blk],
                            mode="clip")
                np.multiply(c, g, out=g)

    # one thread per block after the first, which runs on this thread; a
    # barrier starts each pass and ends it.  concurrent.futures would
    # import logging, which costs every process 4 ms and 0.7 MB.
    barrier = threading.Barrier(len(blocks))
    rows_pass, errors = None, []

    def worker(blk):
        try:
            while True:
                barrier.wait()
                try:
                    rows_pass(blk)
                except BaseException as exc:
                    errors.append(exc)
                barrier.wait()
        except threading.BrokenBarrierError:
            return  # train is done

    def run(job):
        """``job`` on every block, the first on this thread."""
        nonlocal rows_pass
        rows_pass = job
        barrier.wait()
        job(blocks[0])
        barrier.wait()
        if errors:
            raise errors[0]

    threads = []
    try:
        for blk in blocks[1:]:
            thread = threading.Thread(target=worker, args=(blk,))
            thread.start()
            threads.append(thread)
        # overflow surfaces as a non-finite objective, raised as NumericalError
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.epochs + 1):
                run(scores_losses)
                risks = values if per_instance else part.means(values)
                value, coef_group, rho = spec._value_weights(risks, part.probs,
                                                             equal)
                obj = value + _l2_term(w, config.l2_reg)
                if not np.isfinite(obj):
                    raise NumericalError(
                        f"objective became non-finite at epoch {epoch}",
                        trace=objectives[1:epoch].copy())
                objectives[epoch] = obj
                if epoch == 0 or obj < objectives[best_epoch]:
                    best_epoch, best_w, best_b = epoch, w, b
                    best_risks, best_rho = risks, rho
                    if per_instance:
                        buffers.reverse()
                        values = buffers[0]
                if epoch == config.epochs:
                    break
                if not per_instance:
                    coef_group = coef_group / part.sizes
                run(scale_grads)
                g_w = X.T @ grads + config.l2_reg * w
                step = config.step_size
                if config.step_decay == "inv_sqrt":
                    step /= np.sqrt(epoch + 1.0)
                w = w - step * g_w
                b = b - step * float(grads.sum())
    finally:
        barrier.abort()
        for thread in threads:
            thread.join()

    metrics = {
        "initial_objective": float(objectives[0]),
        "best_objective": float(objectives[best_epoch]),
        "best_epoch": float(best_epoch),
        "final_objective": float(objectives[-1]),
        "objective_convex": 0.0 if spec.kind == "sd_penalty" else 1.0,
    }
    # a copy: the report keeps none of the run's buffers
    final_risks = DiscreteRandomVariable(best_risks.copy(), part.probs)
    return TrainReport(model=LinearModel(best_w, best_b), rho=best_rho,
                       objective_trace=objectives[1:],
                       final_subgroup_risks=final_risks, metrics=metrics)


def alpha_sweep(config_template: TrainConfig, dataset: Dataset,
                alphas: Sequence[float]) -> list[TrainReport]:
    """Independent cvar training runs, one per alpha, ordered by alpha."""
    alphas = sorted(float(a) for a in alphas)
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ParameterError(f"sweep alpha must lie in (0, 1), got {a!r}")
    return [train(replace(config_template, aggregator=AggregatorSpec.cvar(a)),
                  dataset)
            for a in alphas]
