#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload with several seeds
and print, per end-to-end metric, the median and the spread (interquartile
range over median, as `statistics.quantiles(values, n=4)` gives it) next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Exit code 1 when a spread (other than `setup_s`'s) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=names)
    args = parser.parse_args()
    too_wide = False
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if run.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run failed ({run.returncode})")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.runs} runs)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s = spread(values[name])
            wide = s > bound and name != "setup_s"
            too_wide |= wide
            flag = "  TOO WIDE" if wide else ("" if s <= bound / 3 else "  (over a third)")
            print(f"  {name:<14} median {statistics.median(values[name]):<14.6g} "
                  f"spread {s:.4f}  bound {bound}{flag}")
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
