#!/usr/bin/env python3
"""Record a trajectory point: repeated benchmark runs per workload, summarized.

    python3 perfbench/record.py --out perfbench/trajectory/<name>.json

For each workload of BENCHMARK.json it makes RUNS untraced runs with seeds
1..RUNS and two traced runs, each in its own process through run.py with the
`run_seconds` of BENCHMARK.json. It writes, per workload, each end-to-end
metric's values, median, quartiles and spread (quartile distance over the
median, the steadiness figure the bounds are judged by), the per-layer
metrics of both traced runs, the counts that must repeat exactly, and the
fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10

# counts that repeat exactly between runs of the same code
EXACT = ("iterations", "paths.yen_calls", "costs.cnl_calls", "costs.evaluate_links_calls",
         "solver.build_calls", "pga.rounds", "pga.inner_iterations", "pga.final_iterations")


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 1)[1])
    return env, lines, json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    point = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        values, attempted, failed, correct = {}, 0, 0, True
        for seed in range(1, RUNS + 1):
            env, _, result = bench(w, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {k: v[-1] for k, v in values.items()}, flush=True)
        traced = [bench(w, seed, seconds, 1) for seed in (1, 2)]
        lines = traced[0][1]
        correct = correct and all(t[2]["correct"] for t in traced)
        layer = {name: [t[2]["metrics"][name]["value"] for t in traced]
                 for name in traced[0][2]["metrics"]}
        e2e = {name: summarize(v) for name, v in values.items()}
        point["fingerprint"] = env
        point["workloads"][w] = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "operations": [line for line in lines if line.startswith("op ")],
            "end_to_end": e2e,
            "per_layer": layer,
            "exact": {name: (e2e[name]["values"] if name in e2e else layer[name])
                      for name in EXACT},
        }
        for name, s in e2e.items():
            print(f"{w} {name}: median {s['median']:.6g} spread {s['spread']}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
