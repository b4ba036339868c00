#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--trace 0|1] [--seconds S]

For every workload and metric it prints the median of the runs and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.  Seeds are 1..runs (shifted by
--first-seed).  Exits non-zero if any run fails or reports
correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    opts = ap.parse_args()
    names = opts.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(opts.seconds),
                                      "--trace", str(opts.trace)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if p.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: exit {p.returncode}, result {result}")
                ok = False
                continue
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for metric, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(metric)
            print(f"SPREAD {name:16s} {metric:34s} median={med:<14.6g} "
                  f"spread={spread:.4f} bound={bound}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
