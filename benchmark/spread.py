#!/usr/bin/env python3
"""Run BENCHMARK.json's command N times per workload, each with another seed,
and print, per workload and end-to-end metric, the median and the spread
(distance between the first and third quartile over the median) beside the
metric's bound. Run from the repository root:

    python3 benchmark/spread.py [runs] [first_seed]
"""
import json
import statistics
import subprocess
import sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
spec = json.load(open("BENCHMARK.json"))
worst = {}
for workload in (w["name"] for w in spec["workloads"]):
    values = {}
    for seed in range(first_seed, first_seed + runs):
        out = subprocess.run(
            spec["command"]
            + ["--workload", workload, "--seed", str(seed)]
            + ["--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, _, q3 = statistics.quantiles(values[name], n=4)
        median = statistics.median(values[name])
        spread = (q3 - q1) / median
        worst[name] = max(worst.get(name, 0.0), spread)
        flag = "" if spread < bound / 3 else ("  > bound/3" if spread < bound else "  > BOUND")
        print(f"{workload:18s} {name:26s} median {median:14.4f}  spread {spread:.4f}  bound {bound}{flag}", flush=True)
print("worst spread per metric:", json.dumps({k: round(v, 4) for k, v in worst.items()}))
