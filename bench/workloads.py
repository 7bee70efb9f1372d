"""Workload definitions of the grouprisk benchmark.

Each workload is a closed loop with one client: an operation starts when
the previous one has finished, and nothing runs concurrently.  Inputs are
a pure function of the workload seed; the program receives only the
generated inputs (a CSV file, an in-memory dataset, or CLI flags).

Every workload has an untraced operation (timed from outside) and a traced
operation that repeats the same call sequence in-process through the
public API, with a span around each call into a layer.  The layers are
the package's modules: cli, data, subgroup, optim, riskvar, metrics and
inequality.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from grouprisk import (AggregatorSpec, CsvSchema, DiscreteRandomVariable,
                       LinearModel, LossSpec, SynthSpec, TrainConfig,
                       aggregate, check_axiom, check_inequality_axiom,
                       coefficient_of_variation, cvar_inequality, evaluate,
                       generate_synth, load_csv,
                       pairwise_disagreement, partition, quantile, split,
                       standardize, subgradient, subgroup_risks, train)
from grouprisk import cli
from grouprisk.inequality import INEQUALITY_AXIOMS
from grouprisk.riskvar import FAIRNESS_AXIOMS
from grouprisk.subgroup import group_risk_vector
from tracing import NullTracer

# best_objective must match aggregate(subgroup_risks(model)) + L2 within
# OBJECTIVE_RTOL * max(1, |best_objective|).  The trainer and aggregate()
# reach cvar and top_k through different reductions, so equality is only
# up to rounding.
OBJECTIVE_RTOL = 1e-9

# One sentence per workload on why it was chosen; BENCHMARK.json repeats it.
WHY = {
    "csv_train": "CSV ingestion dominates (load_csv, split, process start); "
                 "exercises per-row parsing and CLI start-up, with training "
                 "only about 15% of an operation.",
    "synth_train_1m": "The epoch dominates at 1e6 rows with 2 groups, so a "
                      "fused epoch shows here and a many-group aggregator "
                      "change shows nothing.",
    "topk_per_instance": "top_k at k=0.9m trains cvar over 2e5 singleton "
                         "groups, so the aggregator's per-epoch sorts "
                         "dominate: the many-group side of every aggregator "
                         "change.",
    "axioms": "Falsifier suites make thousands of numpy calls on at most 8 "
              "atoms: Python-overhead bound, the opposite of "
              "synth_train_1m.",
}

# What each per-layer metric should move, on which workload, and where it
# should move nothing.  Later performance changes cite rows by layer.
PREDICTIONS = [
    {"layer": "cli", "metrics": ["cli.startup_s", "cli.main_s"],
     "moves": ["op_s_p50"], "on": ["csv_train", "axioms"],
     "not_on": ["synth_train_1m", "topk_per_instance"]},
    {"layer": "data", "metrics": ["data.load_csv.s", "data.load_csv.rows_per_s",
                                  "data.split.s", "data.standardize.s"],
     "moves": ["op_s_p50", "csv_rows_per_s", "peak_rss_mb"],
     "on": ["csv_train"],
     "not_on": ["synth_train_1m", "topk_per_instance", "axioms"]},
    {"layer": "data", "metrics": ["data.generate_synth.s"],
     "moves": ["setup_s"], "on": ["synth_train_1m", "topk_per_instance"],
     "not_on": ["op_s_p50 on every workload"]},
    {"layer": "subgroup", "metrics": ["subgroup.partition.s",
                                      "subgroup.partition.groups"],
     "moves": ["op_s_p50"], "on": ["csv_train"], "not_on": ["axioms"]},
    {"layer": "subgroup", "metrics": ["subgroup.LinearModel.scores.s",
                                      "subgroup.LossSpec.values.s",
                                      "subgroup.LossSpec.grads.s",
                                      "subgroup.group_risk_vector.s"],
     "moves": ["row_epochs_per_s"], "on": ["synth_train_1m"],
     "not_on": ["axioms"]},
    {"layer": "riskvar", "metrics": ["riskvar.aggregate.s", "riskvar.quantile.s"],
     "moves": ["row_epochs_per_s"], "on": ["topk_per_instance"],
     "not_on": ["synth_train_1m"]},
    {"layer": "riskvar", "metrics": ["riskvar.check_axiom.s",
                                     "riskvar.check_axiom.trials",
                                     "riskvar.check_axiom.trials_per_s"],
     "moves": ["trials_per_s"], "on": ["axioms"],
     "not_on": ["csv_train", "synth_train_1m", "topk_per_instance"]},
    {"layer": "optim", "metrics": ["optim.train.s", "optim.train.s_per_epoch",
                                   "optim.train.epochs", "optim.train.best_epoch",
                                   "optim.train.improving_epochs",
                                   "optim.subgradient.s"],
     "moves": ["row_epochs_per_s", "best_objective"],
     "on": ["synth_train_1m", "topk_per_instance"], "not_on": ["axioms"]},
    {"layer": "optim", "metrics": ["optim.epoch.residual_s"],
     "moves": ["row_epochs_per_s"], "on": ["synth_train_1m"],
     "not_on": ["axioms"]},
    {"layer": "metrics", "metrics": ["metrics.evaluate.s",
                                     "metrics.pairwise_disagreement.s"],
     "moves": ["op_s_p50"], "on": ["synth_train_1m"],
     "not_on": ["topk_per_instance", "axioms"]},
    {"layer": "inequality", "metrics": ["inequality.check_inequality_axiom.s",
                                        "inequality.check_inequality_axiom.trials",
                                        "inequality.check_inequality_axiom.trials_per_s"],
     "moves": ["trials_per_s"], "on": ["axioms"],
     "not_on": ["csv_train", "synth_train_1m", "topk_per_instance"]},
]


@dataclass
class OpResult:
    """What one operation produced: its artifact, work done and memory."""

    artifact: Optional[str] = None  # canonical JSON, timings removed
    work: float = 0.0
    rss_mb: Optional[float] = None
    error: Optional[str] = None
    payload: object = None  # parsed artifact, for the checks


@dataclass
class Inputs:
    seed: int
    files: str
    data: dict = field(default_factory=dict)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _unlink(path: str):
    """Remove an earlier operation's output so a stale file cannot pass."""
    if os.path.exists(path):
        os.remove(path)


def run_cli(args, out_dir: str, tag: str):
    """Run one ``grouprisk`` process; return (exit code, peak RSS in MB)."""
    with open(os.path.join(out_dir, tag + ".stderr"), "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "grouprisk.cli", *args],
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _read_artifact(path: str):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj.pop("timings", None)
    return obj


def _improving_epochs(report) -> int:
    """Epochs whose objective beat every earlier one, the start included."""
    best = report.metrics["initial_objective"]
    improving = 0
    for obj in report.objective_trace.tolist():
        if obj < best:
            best, improving = obj, improving + 1
    return improving


def _record_train(tr, config, dataset):
    report = tr.call("optim.train", train, config, dataset)
    tr.count("optim.train.epochs", config.epochs)
    tr.count("optim.train.best_epoch", report.metrics["best_epoch"])
    tr.count("optim.train.improving_epochs", _improving_epochs(report))
    return report


def _replay_epoch(tr, dataset, part, model, loss, spec, alpha, eval_sets=()):
    """Time each building block of one epoch once, at the trained model."""
    with tr.span("replay"):
        scores = tr.call("subgroup.LinearModel.scores", model.scores,
                         dataset.features)
        tr.call("subgroup.LossSpec.values", loss.values, dataset.labels, scores)
        tr.call("subgroup.LossSpec.grads", loss.grads, dataset.labels, scores)
        risks = tr.call("subgroup.group_risk_vector", group_risk_vector, model,
                        dataset, part, loss)
        Z = DiscreteRandomVariable(risks, part.probs)
        tr.call("riskvar.aggregate", aggregate, Z, spec)
        rho = tr.call("riskvar.quantile", quantile, Z, alpha)
        tr.call("optim.subgradient", subgradient, model, rho, dataset, part,
                loss, alpha)
        for ds in eval_sets:
            tr.call("metrics.pairwise_disagreement", pairwise_disagreement,
                    model.scores(ds.features), ds.labels)


def _objective_error(best: float, recomputed: float) -> Optional[str]:
    if abs(best - recomputed) > OBJECTIVE_RTOL * max(1.0, abs(best)):
        return (f"best_objective {best!r} differs from the recomputed "
                f"{recomputed!r}")
    return None


def _recomputed_objective(weights, intercept, dataset, part, loss, spec,
                          l2_reg) -> float:
    model = LinearModel(np.asarray(weights, float), intercept)
    Z = subgroup_risks(model, dataset, part, loss)
    return aggregate(Z, spec) + 0.5 * l2_reg * float(np.dot(model.weights,
                                                            model.weights))


class Workload:
    name = ""
    work_unit = ""       # name of the throughput metric
    work_unit_label = ""
    cli = False          # operations are grouprisk processes

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def setup(self, tr, seed: int, files: str) -> Inputs:
        raise NotImplementedError

    def op(self, inp: Inputs) -> OpResult:
        raise NotImplementedError

    def traced_op(self, inp: Inputs, tr) -> OpResult:
        raise NotImplementedError

    def verify(self, inp: Inputs, res: OpResult) -> Optional[str]:
        """Deep check of one result; returns the failure reason or None."""
        raise NotImplementedError

    def feature_bytes(self, inp: Inputs) -> Optional[int]:
        return None

    def cli_startup(self, tr, files: str):
        """One ``grouprisk --version`` process: the CLI's start-up cost."""
        with tr.span("cli.startup"):
            code, _ = run_cli(["--version"], files, "version")
        if code != 0:
            raise RuntimeError(f"grouprisk --version exited {code}")


# ---------------------------------------------------------------------------
# csv_train


def write_csv(path: str, rows: int, seed: int):
    """3 numeric columns, a 4-level text column, 5 unequal string groups.

    Labels follow a linear rule with a group-dependent flip rate, so the
    groups have different risks and cvar training has something to learn.
    """
    rng = np.random.default_rng(seed)
    regions = ["north", "south", "east", "west", "centre"]
    colours = ["red", "green", "blue", "grey"]
    g = rng.choice(5, size=rows, p=[0.4, 0.25, 0.15, 0.12, 0.08])
    c = rng.integers(0, 4, rows)
    X = rng.standard_normal((rows, 3)) + 0.3 * g[:, None]
    logit = (X @ np.array([1.5, -1.0, 0.5])
             + np.array([0.5, -0.2, 0.0, 0.3])[c] - 0.3 * g)
    flip = rng.random(rows) < np.array([0.02, 0.08, 0.15, 0.25, 0.35])[g]
    label = (logit >= 0.0) != flip
    lines = ["x1,x2,x3,colour,region,label"]
    lines.extend(f"{a:.6f},{b:.6f},{d:.6f},{colours[ci]},{regions[gi]},{int(yi)}"
                 for a, b, d, ci, gi, yi in zip(X[:, 0].tolist(), X[:, 1].tolist(),
                                                X[:, 2].tolist(), c.tolist(),
                                                g.tolist(), label.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class CsvTrain(Workload):
    name = "csv_train"
    work_unit = "csv_rows_per_s"
    work_unit_label = "rows/s"
    cli = True
    ROWS = 200_000
    SCHEMA = CsvSchema(label_column="label", sensitive_column="region",
                       positive_label_token="1")
    ALPHA = 0.9
    LOSS = "logistic"
    EPOCHS = 20

    @property
    def rows(self) -> int:
        return max(200, int(self.ROWS * self.scale))

    def setup(self, tr, seed, files):
        path = os.path.join(files, "train.csv")
        write_csv(path, self.rows, seed)
        self.cli_startup(tr, files)
        return Inputs(seed, files, {"csv": path})

    def _args(self, inp, out):
        return ["train", "--data", inp.data["csv"], "--label-col", "label",
                "--sensitive-col", "region", "--positive-token", "1",
                "--aggregator", "cvar", "--alpha", str(self.ALPHA),
                "--loss", self.LOSS, "--epochs", str(self.EPOCHS),
                "--seed", str(inp.seed), "--output", out]

    def _result(self, code, out, rss=None) -> OpResult:
        if code != 0:
            return OpResult(error=f"grouprisk train exited {code}")
        try:
            obj = _read_artifact(out)
        except (OSError, ValueError) as exc:
            return OpResult(error=f"unreadable artifact: {exc}")
        return OpResult(canonical(obj), self.rows, rss, payload=obj)

    def op(self, inp):
        out = os.path.join(inp.files, "artifact.json")
        _unlink(out)
        code, rss = run_cli(self._args(inp, out), inp.files, "train")
        return self._result(code, out, rss)

    def traced_op(self, inp, tr):
        """``cli.main`` in-process, then cmd_train's call sequence traced."""
        self.cli_startup(tr, inp.files)
        out = os.path.join(inp.files, "artifact.json")
        _unlink(out)
        code = tr.call("cli.main", cli.main, self._args(inp, out))
        loss = LossSpec(self.LOSS)
        config = TrainConfig(aggregator=AggregatorSpec.cvar(self.ALPHA),
                             loss=loss, epochs=self.EPOCHS)
        with tr.span("op"):
            dataset = tr.call("data.load_csv", load_csv, inp.data["csv"],
                              self.SCHEMA)
            tr.count("data.load_csv.rows", dataset.m)
            train_ds, test_ds, _ = tr.call("data.split", split, dataset, 0.8,
                                           seed=inp.seed + 1)
            train_ds, test_ds, _ = tr.call("data.standardize", standardize,
                                           train_ds, test_ds)
            report = _record_train(tr, config, train_ds)
            for ds in (train_ds, test_ds):
                part = tr.call("subgroup.partition", partition, ds)
                tr.call("metrics.evaluate", evaluate, report.model, ds, part, loss)
        part = partition(train_ds)
        tr.count("subgroup.partition.groups", part.n)
        _replay_epoch(tr, train_ds, part, report.model, loss, config.aggregator,
                      self.ALPHA, (train_ds, test_ds))
        return self._result(code, out)

    def _train_set(self, inp):
        if "train_set" not in inp.data:
            dataset = load_csv(inp.data["csv"], self.SCHEMA)
            train_ds, test_ds, _ = split(dataset, 0.8, seed=inp.seed + 1)
            train_ds = standardize(train_ds, test_ds)[0]
            inp.data["train_set"] = (train_ds, partition(train_ds))
        return inp.data["train_set"]

    def verify(self, inp, res):
        obj = res.payload
        try:
            tr_block, cfg = obj["train"], obj["config"]
            best = tr_block["metrics"]["best_objective"]
            train_ds, part = self._train_set(inp)
            recomputed = _recomputed_objective(
                tr_block["weights"], tr_block["intercept"], train_ds, part,
                LossSpec(self.LOSS), AggregatorSpec.cvar(self.ALPHA),
                cfg["l2_reg"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed train artifact: {exc!r}"
        return _objective_error(best, recomputed)

    def best_objective(self, res):
        return res.payload["train"]["metrics"]["best_objective"]

    def feature_bytes(self, inp):
        # 3 numeric + 4 one-hot colour + 5 one-hot region columns
        return self.rows * 12 * 8


# ---------------------------------------------------------------------------
# synth_train_1m and topk_per_instance


class _LibraryTrain(Workload):
    """Training through the library on standardised generate_synth data."""

    work_unit = "row_epochs_per_s"
    work_unit_label = "rows*epochs/s"
    M = 0
    EPOCHS = 0
    LOSS = ""
    MODE = "categorical"

    @property
    def m(self) -> int:
        return max(200, int(self.M * self.scale))

    def spec(self) -> AggregatorSpec:
        raise NotImplementedError

    def alpha(self) -> float:
        raise NotImplementedError

    def config(self) -> TrainConfig:
        return TrainConfig(aggregator=self.spec(), loss=LossSpec(self.LOSS),
                           epochs=self.EPOCHS)

    def setup(self, tr, seed, files):
        dataset = tr.call("data.generate_synth", generate_synth,
                          SynthSpec(m=self.m, seed=seed))
        dataset = tr.call("data.standardize", standardize, dataset)[0]
        return Inputs(seed, files, {"dataset": dataset})

    def _op(self, inp, tr):
        """The operation itself; returns (result, train report)."""
        raise NotImplementedError

    def op(self, inp):
        return self._op(inp, NullTracer())[0]

    def traced_op(self, inp, tr):
        self.cli_startup(tr, inp.files)
        with tr.span("op"):
            res, report = self._op(inp, tr)
        dataset = inp.data["dataset"]
        part = partition(dataset, self.MODE)
        tr.count("subgroup.partition.groups", part.n)
        _replay_epoch(tr, dataset, part, report.model, LossSpec(self.LOSS),
                      self.spec(), self.alpha(), self.eval_sets(inp))
        return res

    def eval_sets(self, inp):
        return ()

    def _train_artifact(self, report) -> dict:
        return {"weights": report.model.weights.tolist(),
                "intercept": report.model.intercept,
                "rho": report.rho,
                "objective_trace": report.objective_trace.tolist(),
                "metrics": report.metrics}

    def verify(self, inp, res):
        obj = res.payload
        dataset = inp.data["dataset"]
        if "part" not in inp.data:
            inp.data["part"] = partition(dataset, self.MODE)
        try:
            t = obj["train"]
            recomputed = _recomputed_objective(
                t["weights"], t["intercept"], dataset, inp.data["part"],
                LossSpec(self.LOSS), self.spec(), self.config().l2_reg)
            return _objective_error(t["metrics"]["best_objective"], recomputed)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed train artifact: {exc!r}"

    def best_objective(self, res):
        return res.payload["train"]["metrics"]["best_objective"]

    def feature_bytes(self, inp):
        return self.m * 2 * 8


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SynthTrain1m(_LibraryTrain):
    name = "synth_train_1m"
    M = 1_000_000
    EPOCHS = 100
    LOSS = "squared_hinge"
    ALPHA = 0.9

    def spec(self):
        return AggregatorSpec.cvar(self.ALPHA)

    def alpha(self):
        return self.ALPHA

    def eval_sets(self, inp):
        return (inp.data["dataset"],)

    def _op(self, inp, tr):
        config, dataset = self.config(), inp.data["dataset"]
        report = _record_train(tr, config, dataset)
        part = tr.call("subgroup.partition", partition, dataset)
        ev = tr.call("metrics.evaluate", evaluate, report.model, dataset, part,
                     config.loss)
        obj = {"train": self._train_artifact(report), "evaluation": ev.to_dict()}
        res = OpResult(canonical(obj), self.m * self.EPOCHS, _peak_rss_mb(),
                       payload=obj)
        return res, report


class TopKPerInstance(_LibraryTrain):
    name = "topk_per_instance"
    M = 200_000
    EPOCHS = 30
    LOSS = "hinge"
    MODE = "per_instance"

    @property
    def k(self) -> int:
        # k <= m/2 keeps the zero model optimal on this noisy data
        return int(round(0.9 * self.m))

    def spec(self):
        return AggregatorSpec.top_k(self.k)

    def alpha(self):
        return 1.0 - self.k / self.m

    def _op(self, inp, tr):
        report = _record_train(tr, self.config(), inp.data["dataset"])
        obj = {"train": self._train_artifact(report)}
        res = OpResult(canonical(obj), self.m * self.EPOCHS, _peak_rss_mb(),
                       payload=obj)
        return res, report


# ---------------------------------------------------------------------------
# axioms


class Axioms(Workload):
    name = "axioms"
    work_unit = "trials_per_s"
    work_unit_label = "trials/s"
    cli = True
    MEASURES = ("cvar:0.7", "sd:1.0")
    SUITES = ("fairness", "inequality")
    TRIALS = 1000

    @property
    def trials(self) -> int:
        return max(100, int(self.TRIALS * self.scale))

    def setup(self, tr, seed, files):
        self.cli_startup(tr, files)
        runs = [(m, s) for m in self.MEASURES for s in self.SUITES]
        return Inputs(seed, files, {"runs": runs})

    def _args(self, inp, measure, suite, out):
        return ["axioms", "--measure", measure, "--suite", suite,
                "--trials", str(self.trials), "--seed", str(inp.seed),
                "--output", out]

    def _outputs(self, inp):
        for i, (measure, suite) in enumerate(inp.data["runs"]):
            out = os.path.join(inp.files, f"axioms{i}.json")
            _unlink(out)
            yield measure, suite, out

    def _result(self, codes, outs, rss=None) -> OpResult:
        bad = [c for c in codes if c != 0]
        if bad:
            return OpResult(error=f"grouprisk axioms exited {bad}")
        try:
            payloads = [_read_artifact(out) for out in outs]
        except (OSError, ValueError) as exc:
            return OpResult(error=f"unreadable axioms payload: {exc}")
        return OpResult(canonical(payloads), _trials_run(payloads), rss,
                        payload=payloads)

    def op(self, inp):
        codes, rss, outs = [], [], []
        for measure, suite, out in self._outputs(inp):
            code, peak = run_cli(self._args(inp, measure, suite, out), inp.files,
                                 "axioms")
            codes.append(code)
            rss.append(peak)
            outs.append(out)
        return self._result(codes, outs, max(rss))

    def traced_op(self, inp, tr):
        """``cli.main`` per suite in-process, then cmd_axioms' loop traced."""
        self.cli_startup(tr, inp.files)
        codes, outs = [], []
        for measure, suite, out in self._outputs(inp):
            codes.append(tr.call("cli.main", cli.main,
                                 self._args(inp, measure, suite, out)))
            outs.append(out)
        with tr.span("op"):
            fair = ineq = 0
            for measure, suite in inp.data["runs"]:
                alpha_or_lam = float(measure.split(":")[1])
                if suite == "fairness":
                    spec = (AggregatorSpec.cvar(alpha_or_lam)
                            if measure.startswith("cvar")
                            else AggregatorSpec.sd_penalty(alpha_or_lam))
                    for i, ax in enumerate(FAIRNESS_AXIOMS):
                        rep = tr.call("riskvar.check_axiom", check_axiom, spec,
                                      ax, self.trials, rng_seed=inp.seed + i)
                        fair += _report_trials(rep.to_dict())
                else:
                    # as cmd_axioms: sd:1.0 is the coefficient of variation
                    index = (cvar_inequality(alpha_or_lam)
                             if measure.startswith("cvar")
                             else coefficient_of_variation())
                    for i, ax in enumerate(INEQUALITY_AXIOMS):
                        rep = tr.call("inequality.check_inequality_axiom",
                                      check_inequality_axiom, index, ax,
                                      self.trials, seed=inp.seed + i)
                        ineq += _report_trials(rep.to_dict())
        tr.count("riskvar.check_axiom.trials", fair)
        tr.count("inequality.check_inequality_axiom.trials", ineq)
        return self._result(codes, outs)

    def verify(self, inp, res):
        try:
            for p in res.payload:
                if p["mismatches"]:
                    return (f"{p['measure']} {p['suite']}: axioms "
                            f"{p['mismatches']} deviate from the expectation table")
                if p["trials"] != self.trials or not p["axioms"]:
                    return f"{p['measure']} {p['suite']}: incomplete payload"
        except (KeyError, TypeError) as exc:
            return f"malformed axioms payload: {exc!r}"
        return None

    def best_objective(self, res):
        return None


def _report_trials(rep: dict) -> int:
    """Trials a falsifier actually ran: it stops at its first counterexample."""
    if rep["passed"]:
        return rep["trials"]
    return rep["counterexample"]["trial"] + 1


def _trials_run(payloads) -> int:
    return sum(_report_trials(rep) for p in payloads for rep in p["axioms"].values())


WORKLOADS = {w.name: w for w in (CsvTrain, SynthTrain1m, TopKPerInstance, Axioms)}
