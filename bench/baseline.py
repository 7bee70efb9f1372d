#!/usr/bin/env python3
"""Record a baseline: repeated benchmark runs per workload, with spreads.

Runs ``bench/run.py`` once per seed on every workload with tracing off,
then once traced, and writes one JSON file holding, per workload, the
median of each metric over the runs, the spread of the run medians (the
distance between the first and third quartile as a share of the median)
and the spread of the individual operations.

Run from the repository root:

    python3 bench/baseline.py --runs 10 --out bench/baseline_seed.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    env = next(json.loads(line[len("env "):]) for line in lines
               if line.startswith("env "))
    return {"result": json.loads(lines[-1]), "record": record, "env": env}


def _spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(med) if med else None,
            "min": min(values), "max": max(values), "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            run = _run(name, seed, seconds, 0)
            run["wall_s"] = time.perf_counter() - t0
            runs.append(run)
            print(f"{name} seed={seed} wall={run['wall_s']:.1f}s "
                  + json.dumps({k: v["value"] for k, v in
                                run["result"]["metrics"].items()}), flush=True)
        traced = _run(name, args.first_seed, seconds, 1)
        ops = [t for r in runs for t in r["record"]["op_seconds"]]
        out["env"] = runs[0]["env"]
        out["workloads"][name] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "summary": {m: _spread([r["record"]["summary"][m][0] for r in runs])
                        for m in runs[0]["record"]["summary"]},
            "individual_ops_s": _spread(ops),
            "feature_bytes_computed": runs[0]["record"]["feature_bytes_computed"],
            "max_run_wall_s": max(r["wall_s"] for r in runs),
            "per_layer_seed": args.first_seed,
            "per_layer": {k: v["value"]
                          for k, v in traced["result"]["metrics"].items()},
        }
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
