#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload at a tiny size, untraced and traced, and asserts that
the last line names exactly the metrics of BENCHMARK.json with their
units, that the human-readable lines carry the end-to-end summary, and
that no operation failed.  Then it feeds corrupted artifacts through the
checks and asserts that each one is counted as a failed operation.

Run from the repository root:  python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 7
SCALE = 0.01


def _fail(message: str):
    raise SystemExit("selftest FAILED: " + message)


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        _fail(f"{workload} trace={trace} exited {proc.returncode}: "
              f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_outputs(spec: dict, workloads):
    for name, workload in workloads.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = _run(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                _fail(f"{name} trace={trace}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                _fail(f"{name} trace={trace}: metrics {got} != {expected}")
            for metric, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(
                        v["value"]):
                    _fail(f"{name}: {metric} = {v['value']!r}")
            summary = ["op_s_p50", workload.work_unit, "setup_s", "peak_rss_mb",
                       "error_rate"]
            if name != "axioms":
                summary.append("best_objective")
            for metric in summary:
                if not any(line.startswith(f"{name} {metric} ") for line in lines):
                    _fail(f"{name} trace={trace}: no printed {metric}")
            print(f"ok {name} trace={trace}: {len(result['metrics'])} metrics")


def check_corruption(run, workloads, files: str):
    from tracing import NullTracer
    from workloads import OpResult, canonical

    # one corrupted artifact among good ones, through the whole run loop
    base = workloads["topk_per_instance"]

    class Corrupting(base):
        ops = 0

        def op(self, inp):
            res = super().op(inp)
            Corrupting.ops += 1
            if Corrupting.ops == 2:
                res.payload["train"]["metrics"]["best_objective"] += 1e-6
                res.artifact = canonical(res.payload)
            return res

    out = run.run_workload("topk_per_instance", SEED, 0.5, 0, SCALE, files,
                           make=lambda n, s: Corrupting(s))
    if out["failed"] != 1 or out["attempted"] < 3:
        _fail(f"corrupted objective counted as {out['failed']} failures "
              f"of {out['attempted']}")
    print(f"ok corrupted best_objective: 1 of {out['attempted']} failed")

    def expect_failure(label, workload, inp, good, bad):
        reasons = []
        if run.check_results(workload, inp, [good, bad], reasons) != 1:
            _fail(f"{label} was not counted as a failure")
        print(f"ok {label}: {reasons[0].splitlines()[-1]}")

    synth = workloads["synth_train_1m"](SCALE)
    inp = synth.setup(NullTracer(), SEED, files)
    good = synth.op(inp)
    bad = copy.deepcopy(good)
    bad.payload["evaluation"]["zero_one_risk"] += 0.5
    bad.artifact = canonical(bad.payload)
    expect_failure("artifact differing from the first", synth, inp, good, bad)

    axioms = workloads["axioms"](SCALE)
    inp = axioms.setup(NullTracer(), SEED, files)
    good = axioms.op(inp)
    bad = copy.deepcopy(good)
    bad.payload[0]["mismatches"] = ["F1"]
    expect_failure("axioms payload with a mismatch", axioms, inp, good, bad)
    expect_failure("non-zero exit code", axioms, inp, good,
                   OpResult(error="grouprisk axioms exited [5]"))


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import run
    error = run.use_program(ROOT)
    if error:
        _fail(error)
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_outputs(spec, WORKLOADS)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    files = tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out")
    try:
        check_corruption(run, WORKLOADS, files)
    finally:
        shutil.rmtree(files, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
