#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 cacbench/spread.py --workload explore-mt --seeds 1-10 [--trace 0]

For every metric: the median of the runs, the interquartile range
(statistics.quantiles(values, n=4)) as a share of the median, and, for
the end-to-end metrics, that spread against the bound in BENCHMARK.json
(a spread over a third of the bound is flagged).  Runs go through
run.py, so the package is built first.  --json FILE also writes every
run's result line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"run failed: workload={workload} seed={seed} "
                         f"exit={p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in seeds_of(args.seeds):
        r = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        results.append(r)
        status = "ok" if r["correct"] and r["failed"] == 0 else "INCORRECT"
        print(f"seed {seed}: {status}, attempted {r['attempted']}, "
              f"failed {r['failed']}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    print(f"{'metric':40s} {'median':>14s} {'iqr/median':>11s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- over a third of the bound"
        print(f"{name:40s} {med:14.6g} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
