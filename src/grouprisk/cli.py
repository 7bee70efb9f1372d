"""Command-line front end: train, sweep, and axiom suites.

Exit codes are a stable contract: 0 success, 2 flag or domain errors,
3 ingestion errors, 4 numerical failures, 5 axiom results that deviate
from the documented expectation table.  All randomness flows from
``--seed``; two runs with identical flags produce identical output up to
the ``timings`` block.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (GroupRiskError, InputError, NumericalError,
                     ParameterError)
from .riskvar import AggregatorSpec, FAIRNESS_AXIOMS, check_axiom
from .subgroup import LossSpec, partition
from .optim import TrainConfig, TrainReport, train, training_partition_mode
from .metrics import evaluate
from .data import CsvSchema, SynthSpec, generate_synth, load_csv, split, standardize
from .inequality import (INEQUALITY_AXIOMS, check_inequality_axiom,
                         coefficient_of_variation, cvar_inequality,
                         from_deviation)

SWEEP_HEADER = ("alpha,risk,subgroup_gap,dp_violation,mean_difference,"
                "pairwise_disagreement")

# Per suite: its axioms, its falsifier, and per measure family the subject
# built from the parameter and the axioms it is expected to fail.  The
# mean-plus-deviation aggregator is convex (a seminorm plus a linear map),
# so its genuine failure among the risk axioms is monotonicity F3, and the
# tail-average index keeps ties under transfers confined below its
# quantile, which breaks the strict Schur-convexity check I3 and with it I7.
MEASURES = {
    "fairness": (FAIRNESS_AXIOMS, check_axiom, {
        "expectation": (lambda _: AggregatorSpec.expectation(), {"F6", "F9"}),
        "cvar": (AggregatorSpec.cvar, set()),
        "sd": (AggregatorSpec.sd_penalty, {"F3"}),
    }),
    "inequality": (INEQUALITY_AXIOMS, check_inequality_axiom, {
        "expectation": (lambda _: from_deviation("zero_deviation",
                                                 lambda Z: 0.0),
                        {"I3", "I5", "I7"}),
        "cvar": (cvar_inequality, {"I3", "I7"}),
        "sd": (coefficient_of_variation, set()),
    }),
}


def _parse_measure(tag: str):
    """Parse expectation | cvar:alpha | sd:lambda into (family, parameter)."""
    if tag == "expectation":
        return "expectation", None
    family, colon, raw = tag.partition(":")
    if not colon or family not in ("cvar", "sd"):
        raise ParameterError(f"unknown measure tag {tag!r}")
    try:
        param = float(raw)
    except ValueError:
        raise ParameterError(f"bad measure parameter in {tag!r}") from None
    if family == "cvar" and not 0.0 < param < 1.0:
        raise ParameterError("cvar measure needs alpha strictly in (0, 1)")
    if family == "sd" and param < 0.0:
        raise ParameterError("sd measure needs lambda >= 0")
    if family == "sd" and param == 0.0:
        # a zero penalty is the plain expectation; use its table
        return "expectation", None
    return family, param


def _aggregator_from_flags(args) -> AggregatorSpec:
    name = args.aggregator
    if name == "erm":
        return AggregatorSpec.expectation()
    if name == "cvar":
        return AggregatorSpec.cvar(args.alpha)
    if name == "sd":
        return AggregatorSpec.sd_penalty(args.lam)
    if name == "topk":
        if args.k is None:
            raise ParameterError("--aggregator topk requires --k")
        return AggregatorSpec.top_k(args.k)
    return AggregatorSpec.max_value()


def _load_dataset(args):
    if args.data == "synth":
        return generate_synth(SynthSpec(seed=args.seed))
    if args.label_col is None or args.sensitive_col is None:
        raise ParameterError(
            "CSV input needs --label-col, --sensitive-col and --positive-token")
    schema = CsvSchema(label_column=args.label_col,
                       sensitive_column=args.sensitive_col,
                       positive_label_token=args.positive_token or "1",
                       sensitive_kind=args.sensitive_kind,
                       include_sensitive=not args.exclude_sensitive)
    return load_csv(args.data, schema)


def _partition_mode(args) -> str:
    """The data's partition: per instance for a real sensitive column."""
    if args.data != "synth" and args.sensitive_kind == "real":
        return "per_instance"
    return "categorical"


def _config(args, aggregator: AggregatorSpec) -> TrainConfig:
    return TrainConfig(aggregator=aggregator,
                       loss=LossSpec(args.loss),
                       l2_reg=args.l2,
                       epochs=args.epochs,
                       step_size=args.lr,
                       step_decay=args.decay,
                       partition_mode=training_partition_mode(
                           aggregator, _partition_mode(args)))


def _prepare(args, aggregators):
    """Load the data, build the configs, split, then standardize.

    ``aggregators()`` is called after the data is loaded and the train
    fraction checked, so flag errors come before the split's errors on a
    one-row file.  The unsplit dataset is released once split.  Returns
    the configs, the standardized train and test sets (test is None at
    ``--train-frac 1``) and whether the split was stratified.
    """
    dataset = _load_dataset(args)
    if not 0.0 < args.train_frac <= 1.0:
        raise ParameterError(
            f"--train-frac must lie in (0, 1], got {args.train_frac!r}")
    configs = [_config(args, aggregator) for aggregator in aggregators()]
    if args.train_frac < 1.0:
        # split randomness derives from the run seed, offset so the draw
        # is independent of the synthetic generator's
        train_ds, test_ds, stratified = split(dataset, args.train_frac,
                                              seed=args.seed + 1)
    else:
        train_ds, test_ds, stratified = dataset, None, True
    del dataset
    train_ds, test_ds, _ = standardize(train_ds, test_ds)
    return configs, train_ds, test_ds, stratified


def _evaluation_block(report: TrainReport, dataset, mode: str, loss: LossSpec):
    if dataset is None:
        return None
    part = partition(dataset, mode)
    return evaluate(report.model, dataset, part, loss).to_dict()


def _report_to_dict(report: TrainReport) -> dict:
    risks = report.final_subgroup_risks
    return {
        "weights": report.model.weights.tolist(),
        "intercept": report.model.intercept,
        "rho": report.rho,
        "objective_trace": report.objective_trace.tolist(),
        "final_subgroup_risks": {
            "values": risks.values.tolist(),
            "probs": risks.probs.tolist(),
        },
        "metrics": report.metrics,
    }


def _check_output(output):
    """Raise the ``--output`` error before any work if it cannot be written.

    Looks at the path and permissions only, so nothing is created or
    truncated; ``_emit`` still reports a write that fails later.
    """
    if output is None or output == "-":
        return
    parent = os.path.dirname(output) or "."
    if os.path.isdir(output):
        reason = errno.EISDIR
    elif not os.path.isdir(parent):
        reason = errno.ENOENT
    elif not os.access(output if os.path.exists(output) else parent, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise ParameterError(
        f"--output {output}: cannot write ({os.strerror(reason)})")


def _emit(text: str, output):
    if not text.endswith("\n"):
        text += "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(
                f"--output {output}: cannot write ({exc.strerror})") from None


def cmd_train(args) -> int:
    started = time.perf_counter()
    [config], train_ds, test_ds, stratified = _prepare(
        args, lambda: [_aggregator_from_flags(args)])
    report = train(config, train_ds)
    # evaluated on the data's groups, whatever partition training ran on
    mode = _partition_mode(args)
    artifact = {
        "tool": "grouprisk",
        "version": __version__,
        "seed": args.seed,
        "config": {
            "data": args.data,
            "aggregator": config.aggregator.describe(),
            "loss": config.loss.kind,
            "l2_reg": config.l2_reg,
            "epochs": config.epochs,
            "step_size": config.step_size,
            "step_decay": config.step_decay,
            "partition_mode": config.partition_mode,
            "train_frac": args.train_frac,
            "stratified_split": stratified,
        },
        "train": _report_to_dict(report),
        "evaluation": {
            "train": _evaluation_block(report, train_ds, mode, config.loss),
            "test": _evaluation_block(report, test_ds, mode, config.loss),
        },
        "timings": {"total_seconds": time.perf_counter() - started},
    }
    _emit(json.dumps(artifact, indent=2, sort_keys=True), args.output)
    return 0


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def cmd_sweep(args) -> int:
    try:
        alphas = sorted(float(a) for a in args.alphas.split(","))
    except ValueError:
        raise ParameterError(f"cannot parse --alphas {args.alphas!r}") from None
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ParameterError(f"sweep alpha must lie in (0, 1), got {a!r}")
    configs, train_ds, test_ds, _ = _prepare(
        args, lambda: [AggregatorSpec.cvar(a) for a in alphas])
    eval_ds = train_ds if test_ds is None else test_ds
    part = partition(eval_ds, _partition_mode(args))
    lines = [SWEEP_HEADER]
    try:
        for alpha, config in zip(alphas, configs):
            report = train(config, train_ds)
            ev = evaluate(report.model, eval_ds, part, config.loss)
            lines.append(",".join([
                _fmt(alpha),
                _fmt(np.dot(part.probs, ev.subgroup_risks.values)),
                _fmt(ev.subgroup_loss_gap),
                _fmt(ev.dp_violation),
                _fmt(ev.mean_difference),
                _fmt(ev.pairwise_disagreement),
            ]))
    except NumericalError:
        _emit("\n".join(lines), args.output)
        raise
    _emit("\n".join(lines), args.output)
    return 0


def cmd_axioms(args) -> int:
    family, param = _parse_measure(args.measure)
    axioms, check, families = MEASURES[args.suite]
    build, expected_failures = families[family]
    subject = build(param)
    results, mismatches = {}, []
    for i, ax in enumerate(axioms):
        rep = check(subject, ax, args.trials, args.seed + i).to_dict()
        rep["expected_pass"] = ax not in expected_failures
        if rep["passed"] != rep["expected_pass"]:
            mismatches.append(ax)
        results[ax] = rep
    payload = {
        "tool": "grouprisk",
        "version": __version__,
        "measure": args.measure,
        "suite": args.suite,
        "trials": args.trials,
        "seed": args.seed,
        "axioms": results,
        "mismatches": mismatches,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return 5 if mismatches else 0


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", default="synth",
                   help="'synth' or a path to a CSV file")
    p.add_argument("--label-col", default=None)
    p.add_argument("--sensitive-col", default=None)
    p.add_argument("--positive-token", default=None)
    p.add_argument("--sensitive-kind", default="categorical",
                   choices=["categorical", "real"])
    p.add_argument("--exclude-sensitive", action="store_true",
                   help="do not append the sensitive value to the features")
    p.add_argument("--loss", default="squared_hinge",
                   choices=["hinge", "squared_hinge", "logistic", "linear"])
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--decay", default="inv_sqrt",
                   choices=["constant", "inv_sqrt"])
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="output path, default stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouprisk",
        description="Train linear classifiers under subgroup-risk aggregators "
                    "and audit risk and inequality measures.")
    parser.add_argument("--version", action="version",
                        version=f"grouprisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="one training run, JSON artifact")
    _add_common_flags(p_train)
    p_train.add_argument("--aggregator", default="cvar",
                         choices=["erm", "cvar", "sd", "topk", "max"])
    p_train.add_argument("--alpha", type=float, default=0.9)
    p_train.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_train.add_argument("--k", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="cvar runs across alphas, CSV rows")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--alphas", required=True,
                         help="comma-separated alphas, e.g. 0.1,0.5,0.9")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ax = sub.add_parser("axioms", help="run an axiom falsification suite")
    p_ax.add_argument("--measure", required=True,
                      help="expectation, cvar:ALPHA, or sd:LAMBDA")
    p_ax.add_argument("--suite", default="fairness",
                      choices=["fairness", "inequality"])
    p_ax.add_argument("--trials", type=int, default=1000)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.add_argument("--output", default=None)
    p_ax.set_defaults(func=cmd_axioms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_output(args.output)
        return args.func(args)
    except GroupRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InputError):
            return 3
        return 4 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
