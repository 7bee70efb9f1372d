#!/usr/bin/env python3
"""Benchmark of the grouprisk library and CLI.

Run from the repository root; the program is taken from ``./src``:

    python3 bench/run.py --workload csv_train --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run sets the workload up ``SETUP_REPEATS`` times from ``--seed`` (the
median is ``setup_s``), runs operations in a closed loop until
``--seconds`` have passed, and then checks every operation's output.
Workloads, their reasons and the per-layer prediction table live in
``workloads.py``.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics:

- ``op_s_p50``: median seconds per operation over the run's operations;
- ``setup_s``: median seconds of one set-up;
- ``peak_rss_mb``: peak resident memory of the process that runs the
  operation (the ``grouprisk`` processes for the CLI workloads, the
  benchmark process itself for the library workloads).

Lines before it also give the workload's throughput (``csv_rows_per_s``,
``row_epochs_per_s`` or ``trials_per_s``; a fixed amount of work per
operation over the operation time, so it is not gated separately),
``best_objective`` for the training workloads, ``error_rate``, the
environment and a ``record`` line with every operation's time.

With ``--trace 1`` half of ``--seconds`` runs untraced operations and half
runs traced ones: the same call sequence in-process with a span around
each call into a layer, then one replay of each epoch building block at
the trained model.  ``metrics`` are then the per-layer metrics (``LAYER``)
plus the tracing overhead: the traced ``op`` span's median minus the
untraced median of the same sequence in-process.  For the library
workloads that is the untraced operation; for the CLI workloads it is
``cli.main_s``, since the traced sequence cannot run inside the
``grouprisk`` process.  Layers a workload does not call are timed on
small companion inputs (``PROBES``) so every traced run reports the whole
table; those values should not move with the workload.  Spans are written
to ``.bench_out/trace-<workload>-seed<seed>.json`` when the run ends.

``--workload all`` runs the four workloads in turn in one process and
prefixes each metric with the workload name.  The library workloads then
report the process's peak memory so far, which includes the workloads
before them; their own ``peak_rss_mb`` comes from a single-workload run.

Exit status is 0 whenever the benchmark ran, also when checks failed
(``correct`` is then false); it is 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import NullTracer, Tracer

# workloads.py is imported inside functions: it loads numpy, which must
# start after limit_blas_threads() has set the BLAS environment.

SETUP_REPEATS = 5

END_TO_END = {"op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER = {
    "cli.startup_s": "s", "cli.main_s": "s",
    "data.load_csv.s": "s", "data.load_csv.rows_per_s": "rows/s",
    "data.split.s": "s", "data.standardize.s": "s", "data.generate_synth.s": "s",
    "subgroup.partition.s": "s", "subgroup.partition.groups": "count",
    "subgroup.LinearModel.scores.s": "s", "subgroup.LossSpec.values.s": "s",
    "subgroup.LossSpec.grads.s": "s", "subgroup.group_risk_vector.s": "s",
    "riskvar.aggregate.s": "s", "riskvar.quantile.s": "s",
    "riskvar.check_axiom.s": "s", "riskvar.check_axiom.trials": "count",
    "riskvar.check_axiom.trials_per_s": "trials/s",
    "optim.train.s": "s", "optim.train.s_per_epoch": "s",
    "optim.train.epochs": "count", "optim.train.best_epoch": "count",
    "optim.train.improving_epochs": "count", "optim.subgradient.s": "s",
    "optim.epoch.residual_s": "s",
    "metrics.evaluate.s": "s", "metrics.pairwise_disagreement.s": "s",
    "inequality.check_inequality_axiom.s": "s",
    "inequality.check_inequality_axiom.trials": "count",
    "inequality.check_inequality_axiom.trials_per_s": "trials/s",
    "trace.op_s_p50": "s", "trace.untraced_op_s_p50": "s",
    "trace.overhead_s": "s",
}

# Blocks of one epoch replayed once each; the rest of an epoch (the second
# forward pass, the group weights, the gradient matmul and the update) is
# optim.epoch.residual_s.
EPOCH_BLOCKS = ("subgroup.group_risk_vector.s", "subgroup.LossSpec.grads.s",
                "riskvar.aggregate.s", "riskvar.quantile.s")

# Companion workloads and scales that time the layers a workload skips.
PROBES = (("csv_train", 0.01), ("axioms", 0.1), ("topk_per_instance", 0.01))

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Pin BLAS to one thread, before numpy loads; children inherit it.

    With d <= 12 columns the matmuls gain nothing from a second thread,
    and on a 2-core machine a second, spinning BLAS thread doubled the CPU
    time of a 1e6-row epoch and made its wall time about three times
    noisier (coefficient of variation 0.18 against 0.05).
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _llc_bytes():
    best = None
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        factor = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        value = int(size.rstrip("KM")) * factor
        if best is None or level > best[0]:
            best = (level, value)
    return best


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = _llc_bytes()
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "llc_level": llc and llc[0],
        "llc_bytes": llc and llc[1],
        "note": "every workload's feature matrix fits in the last-level "
                "cache; no number here is a memory-bandwidth measurement",
    }


def derive(row: dict) -> dict:
    """Per-operation layer metrics from one operation's spans and counters."""
    out = dict(row)
    for span, name in (("cli.startup.s", "cli.startup_s"),
                       ("cli.main.s", "cli.main_s")):
        if span in out:
            out[name] = out.pop(span)
    if "data.load_csv.s" in out and "data.load_csv.rows" in out:
        out["data.load_csv.rows_per_s"] = (out["data.load_csv.rows"]
                                           / out["data.load_csv.s"])
    if "optim.train.s" in out and "optim.train.epochs" in out:
        per_epoch = out["optim.train.s"] / out["optim.train.epochs"]
        out["optim.train.s_per_epoch"] = per_epoch
        if all(b in out for b in EPOCH_BLOCKS):
            out["optim.epoch.residual_s"] = per_epoch - sum(out[b]
                                                            for b in EPOCH_BLOCKS)
    for layer in ("riskvar.check_axiom", "inequality.check_inequality_axiom"):
        if layer + ".s" in out and layer + ".trials" in out:
            out[layer + ".trials_per_s"] = out[layer + ".trials"] / out[layer + ".s"]
    return out


def layer_medians(tracer) -> dict:
    values: dict = {}
    for row in tracer.per_op().values():
        for name, v in derive(row).items():
            values.setdefault(name, []).append(v)
    return {name: statistics.median(v) for name, v in values.items()}


def _safe(fn, *args):
    """An operation that raises counts as failed; the run goes on."""
    from workloads import OpResult
    try:
        return fn(*args)
    except Exception:
        return OpResult(error=traceback.format_exc(limit=3).strip())


def check_results(workload, inp, results, reasons) -> int:
    """Deep-check every result and compare artifacts; returns failures."""
    reference = None
    failed = 0
    for res in results:
        reason = res.error or workload.verify(inp, res)
        if reason is None:
            if reference is None:
                reference = res.artifact
            elif res.artifact != reference:
                reason = "artifact differs from the run's first operation"
        if reason is not None:
            failed += 1
            reasons.append(reason)
    return failed


def _probe_layers(missing, seed, files, make) -> tuple:
    """Time the missing layers on the companion inputs, first probe first."""
    files = os.path.join(files, "probe")
    os.makedirs(files, exist_ok=True)
    filled, spans, results = {}, [], []
    for name, scale in PROBES:
        workload, tracer = make(name, scale), Tracer()
        inp = workload.setup(tracer, seed, files)
        tracer.op = "probe"
        results.append((workload, inp, _safe(workload.traced_op, inp, tracer)))
        for metric, value in layer_medians(tracer).items():
            if metric in missing:
                filled.setdefault(metric, value)
        spans.extend(s._asdict() for s in tracer.spans)
    return filled, spans, results


def run_workload(name, seed, seconds, trace, scale, files, make=None):
    """Set up, run the closed loop, check; returns a result dict."""
    from workloads import WORKLOADS
    make = make or (lambda n, s: WORKLOADS[n](s))
    workload = make(name, scale)
    tracer = Tracer() if trace else NullTracer()

    setup_times, inp = [], None
    for rep in range(SETUP_REPEATS):
        inp = None
        gc.collect()
        tracer.op = f"setup{rep}"
        t0 = time.perf_counter()
        inp = workload.setup(tracer, seed, files)
        setup_times.append(time.perf_counter() - t0)

    op_times, results = [], []
    budget = seconds / 2.0 if trace else float(seconds)
    start = time.perf_counter()
    while not op_times or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        res = _safe(workload.op, inp)
        op_times.append(time.perf_counter() - t0)
        results.append(res)
    untraced = list(results)
    if trace:
        start, i = time.perf_counter(), 0
        while i == 0 or time.perf_counter() - start < budget:
            tracer.op = f"op{i}"
            results.append(_safe(workload.traced_op, inp, tracer))
            i += 1

    reasons: list = []
    failed = check_results(workload, inp, results, reasons)
    attempted = len(results)
    op_p50 = statistics.median(op_times)
    ok = [r for r in untraced if r.error is None]
    out = {
        "workload": name, "seed": seed, "scale": scale,
        "attempted": attempted, "failed": failed, "failures": reasons[:5],
        "op_seconds": op_times, "setup_seconds": setup_times,
        "feature_bytes_computed": workload.feature_bytes(inp),
        # metric: (value, unit, sample count)
        "summary": {
            "op_s_p50": (op_p50, "s", len(op_times)),
            workload.work_unit: (sum(r.work for r in untraced) / sum(op_times),
                                 workload.work_unit_label, len(op_times)),
            "setup_s": (statistics.median(setup_times), "s", SETUP_REPEATS),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in ok) if ok
                            else 0.0, "MB", len(ok)),
            "error_rate": (failed / attempted, "ratio", attempted),
        },
    }
    if ok and workload.best_objective(ok[0]) is not None:
        out["summary"]["best_objective"] = (workload.best_objective(ok[0]),
                                            "objective", len(ok))
    if not trace:
        out["metrics"] = {k: out["summary"][k][0] for k in END_TO_END}
        return out

    layers = layer_medians(tracer)
    traced_p50 = layers.get("op.s", 0.0)
    # the CLI workloads' untraced in-process twin is cli.main on the same argv
    untraced_p50 = layers.get("cli.main_s", 0.0) if workload.cli else op_p50
    layers.update({"trace.op_s_p50": traced_p50,
                   "trace.untraced_op_s_p50": untraced_p50,
                   "trace.overhead_s": traced_p50 - untraced_p50})
    missing = [n for n in LAYER if n not in layers]
    probe_spans = []
    if missing:
        filled, probe_spans, probe_results = _probe_layers(missing, seed, files,
                                                           make)
        layers.update(filled)
        for w, p_inp, res in probe_results:
            out["attempted"] += 1
            out["failed"] += check_results(w, p_inp, [res], out["failures"])
    unmeasured = [k for k in LAYER if k not in layers]
    if unmeasured:
        raise RuntimeError(f"layer metrics not measured: {unmeasured}")
    out["metrics"] = {k: layers[k] for k in LAYER}
    out["trace"] = {"spans": [s._asdict() for s in tracer.spans],
                    "counts": tracer.counts,
                    "probe_spans": probe_spans}
    return out


def _print_human(res, units):
    name = res["workload"]
    print(f"# {name} seed={res['seed']} operations={res['attempted']} "
          f"failed={res['failed']} feature_matrix_bytes_computed="
          f"{res['feature_bytes_computed']}")
    for metric, (value, unit, n) in res["summary"].items():
        print(f"{name} {metric} {value!r} {unit} (n={n})")
    for metric, value in res["metrics"].items():
        if metric not in res["summary"]:
            print(f"{name} {metric} {value!r} {units[metric]}")
    for reason in res["failures"]:
        print(f"{name} FAILED: {reason.splitlines()[-1]}")


def use_program(root: Path):
    """Point this process and its children at ``root/src``; None when it works."""
    src = root / "src"
    if not (src / "grouprisk" / "__init__.py").is_file():
        return f"no grouprisk package under {src}; run from the repository root"
    limit_blas_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))
    import grouprisk
    if not Path(grouprisk.__file__).resolve().is_relative_to(src.resolve()):
        return f"imported grouprisk from {grouprisk.__file__}, not {src}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="csv_train, synth_train_1m, topk_per_instance, "
                             "axioms, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size factor in (0, 1]; the self-test "
                             "uses a tiny one")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 0.0 < args.scale <= 1.0:
        parser.error("--seconds must be positive and --scale in (0, 1]")

    root = Path.cwd()
    error = use_program(root)
    if error:
        print("error: " + error, file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")

    units = dict(LAYER if args.trace else END_TO_END)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    files = tempfile.mkdtemp(prefix="run-", dir=out_root)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace,
                               args.scale, files)
            trace = res.pop("trace", None)
            if trace is not None:
                with open(out_root / f"trace-{name}-seed{args.seed}.json", "w",
                          encoding="utf-8") as fh:
                    json.dump(trace, fh)
            _print_human(res, units)
            print("record " + json.dumps(res, sort_keys=True))
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            prefix = "" if len(names) == 1 else name + "."
            for metric, value in res["metrics"].items():
                merged["metrics"][prefix + metric] = {"value": value,
                                                      "unit": units[metric]}
    finally:
        shutil.rmtree(files, ignore_errors=True)
    merged["correct"] = merged["failed"] == 0
    print(json.dumps(merged), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
