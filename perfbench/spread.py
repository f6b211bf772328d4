#!/usr/bin/env python3
"""Steadiness check: run workloads once per seed and report, for every
metric, the median, the quartiles and the interquartile range as a share
of the median (the spread BENCHMARK.json bounds are judged against).

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--trace 0]
                                [--workload NAME ...] [--out FILE]

Run from the repository root. Each run is sequential; nothing runs in
parallel with it. With --out, every run's result line is appended to FILE
as JSON for later inspection.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall, **result}) + "\n")
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(k)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {k:34s} median {statistics.median(vs):<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%} {flag}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
