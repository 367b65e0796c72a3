#!/usr/bin/env python3
"""Runs BENCHMARK.json's command on seeds 1-10 of every workload, from the
repository root, and prints for each end-to-end metric the median and the
interquartile range as a share of the median: the spread the PR driver
holds against the metric's bound.

usage: python3 bench/scripts/spread.py
"""
import json
import statistics
import subprocess
import time

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
for workload in (w["name"] for w in bench["workloads"]):
    values, walls = {}, []
    for seed in range(1, 11):
        start = time.time()
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        walls.append(time.time() - start)
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{workload}: run wall {statistics.median(walls):.1f} s median, {max(walls):.1f} s longest")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"  {name:18s} median {median:12.5g}  spread {(q3 - q1) / median:7.3%}  bound {bounds[name]:.1%}")
        print("    " + " ".join(f"{v:.5g}" for v in vals), flush=True)
