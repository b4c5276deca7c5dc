#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload <name> [--seeds 1,2,...,10] [--seconds S]

Run from the repository root. Runs `perfbench/run.py` once per seed (trace
off) and prints, for each end-to-end metric, the median of its values and
the distance between their first and third quartiles as a share of that
median, next to the metric's bound in BENCHMARK.json. Every run must
report correct results, or the script exits with code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in [int(s) for s in args.seeds.split(",")]:
        t = time.time()
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            print(run.stdout)
            print(f"seed {seed}: exit {run.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {time.time() - t:.1f} s, correct={result['correct']}: {shown}", flush=True)
    print(f"{'metric':<22} {'median':>14} {'IQR/median':>11} {'bound':>6}  bound/3 met")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med if med else float("inf")
        met = "yes" if share < m["bound"] / 3 else "no"
        print(f"{m['name']:<22} {med:>14.6g} {share:>11.4f} {m['bound']:>6}  {met}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
