#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on one
workload (untraced) and prints, per end-to-end metric, the median of the
runs and the distance between the first and third quartile as a share of
that median, next to the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --workload cbr-sharded --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        result = json.loads(last)
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {out.returncode})", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OVER")
        print(f"{args.workload:15s} {m['name']:12s} median {med:.6g} {m['unit']:8s} "
              f"spread {spread:.4f} bound {m['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
