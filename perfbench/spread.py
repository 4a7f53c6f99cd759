#!/usr/bin/env python3
"""Runs one workload with several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of
its values (statistics.quantiles, n=4) as a share of their median.

    python3 perfbench/spread.py --workload fig-suite [--runs 10] [--first-seed 1]

Run it from the root of a checkout. A spread below a third of the
metric's bound in BENCHMARK.json is marked "steady"; setup_s is only
reported (the bound limits how far its median may move, not its
spread). Exits non-zero if any run fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        manifest = json.load(f)
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: not correct: {lines[-1]}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
    for m in manifest["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        verdict = "steady" if spread < m["bound"] / 3 else (
            "within bound" if spread <= m["bound"] else "TOO WIDE")
        if m["name"] == "setup_s":
            verdict = "reported"
        print(f"{args.workload:<12} {m['name']:<16} median {med:12.4f} {m['unit']:<4} "
              f"spread {spread:.4f} bound {m['bound']}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
