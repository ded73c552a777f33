#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics of one workload.

    python3 perfbench/spread.py <workload> [--seeds 1-10] [--seconds 20]

Runs perfbench/run.py once per seed, then prints, for every metric, the
median of its values and the distance between their first and third
quartiles (statistics.quantiles(values, n=4)) as a share of that median.
It also checks that every run was correct and that the share of failed
operations was the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    values = {}
    shares = set()
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        if not result.get("correct"):
            print("seed %d: run failed or incorrect (exit %d)"
                  % (seed, proc.returncode))
            ok = False
            continue
        shares.add(result["failed"] / result["attempted"])
        row = []
        for name, m in sorted(result["metrics"].items()):
            values.setdefault(name, []).append(m["value"])
            row.append("%s=%.4g" % (name, m["value"]))
        print("seed %d: attempted=%d failed=%d %s"
              % (seed, result["attempted"], result["failed"], " ".join(row)),
              flush=True)
    print("failed share per run: %s" % sorted(shares))
    for name, v in sorted(values.items()):
        if len(v) < 2:
            continue
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-34s median %12.4f  IQR/median %.3f" %
              (name, med, (q[2] - q[0]) / med if med else 0.0))
    return 0 if ok and len(shares) <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
