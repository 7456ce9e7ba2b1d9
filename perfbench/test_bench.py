#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at its tiny size, with
tracing off and on. Each run must pass its correctness checks and print
exactly the metrics BENCHMARK.json declares for that mode, each with its
declared unit.

Run from the repository root:  python3 perfbench/test_bench.py
"""
import json
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
failures = []
for workload in (w["name"] for w in spec["workloads"]):
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", "7", "--seconds", "2",
            "--trace", trace, "--tiny",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        label = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        problems = []
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"correctness failed: {result['failed']} of {result['attempted']}")
        if set(got) != set(want):
            problems.append(
                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
        problems += [f"{k}: unit {got[k]} != {u}" for k, u in want.items() if got.get(k, u) != u]
        problems += [f"{k}: not a number" for k, v in result["metrics"].items()
                     if not isinstance(v["value"], (int, float))]
        print(f"{label}: {'ok' if not problems else 'FAIL'}")
        failures += [f"{label}: {p}" for p in problems]

if failures:
    print("\n".join(failures), file=sys.stderr)
    sys.exit(1)
print("perfbench: all workloads print every declared metric and pass their checks")
