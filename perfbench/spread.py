#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
spread: the distance between the first and third quartile as a share of the
median, with statistics.quantiles(values, n=4).

    python3 perfbench/spread.py --workload service --seeds 1-10 [--trace 1]

Run it from the repository root; it reads the run length and the metric
bounds from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} ops failed", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              file=sys.stderr)
    print(f"{'metric':44} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else (" over bound/3" if spread <= bound else " OVER BOUND")
        print(f"{name:44} {med:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
