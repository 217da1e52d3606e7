#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--seconds S]

For every workload it runs perfbench/run.py once per seed with tracing off,
then prints, per end-to-end metric, the median, the first and third
quartiles (Python's statistics.quantiles(values, n=4)) and the quartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json.  It also prints the host (CPU count and model, from the
driver's own host line).  A run that fails or reports failed operations
makes the script exit non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    host = next((l for l in lines if l.startswith("perfbench: host")), "")
    return host, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        host = ""
        for seed in args.seeds:
            host, result = run(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        print(host)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"{workload} {name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bounds[name]} runs={len(vals)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
