#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs one workload once
per seed and prints, per metric, the median and the quartile distance
as a share of the median, next to the metric's bound. The benchmark is
steady when every spread except setup_s stays well inside its bound.

Run from the repository root:
  python3 perfbench/spread.py --workload infer-1m --seeds 1 2 3 4 5
"""
import argparse
import json
import statistics
import subprocess

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--seeds", type=int, nargs="+", required=True)
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
values = {m["name"]: [] for m in spec["end_to_end"]}
for seed in args.seeds:
    cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
          flush=True)
    for name, m in result["metrics"].items():
        values[name].append(m["value"])

print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
for m in spec["end_to_end"]:
    vs = values[m["name"]]
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    flag = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
    print(f"{m['name']:<18} {med:12.6g} {spread:8.3f} {m['bound']:6.2f}{flag}")
    print("    " + " ".join(f"{v:.6g}" for v in vs))
