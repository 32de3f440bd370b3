#!/usr/bin/env python3
"""Run-to-run spread of the naqbench metrics.

usage: python3 naqbench/spread.py [--runs 10] [--workloads a,b,c]
                                  [--seed0 1]

Run it from the repository root. It runs every workload --runs times for
BENCHMARK.json's run_seconds, alternating between workloads (run i of
every workload uses seed seed0 + i), and prints for each end-to-end
metric its median, first and third quartile, and the spread
(Q3 - Q1) / median. The bounds in BENCHMARK.json were set from these
spreads.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload, seed):
    cmd = [sys.executable, str(ROOT / "naqbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("spread.py: %s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default="compile-large,serve-zipf,sweep-loss")
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.seed0 + i)
            results[w].append(r)
            print("run %2d %-14s correct=%s attempted=%d failed=%d"
                  % (i + 1, w, r["correct"], r["attempted"], r["failed"]),
                  file=sys.stderr, flush=True)

    for w in workloads:
        runs = results[w]
        print("\n%s: %d runs, all correct: %s, failed share: %s"
              % (w, len(runs), all(r["correct"] for r in runs),
                 sorted({r["failed"] / r["attempted"] for r in runs})))
        print("  %-26s %14s %14s %14s %8s  %s"
              % ("metric", "median", "q1", "q3", "spread", "unit"))
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-26s %14.6g %14.6g %14.6g %8.4f  %s"
                  % (name, med, q1, q3, spread, first["unit"]))


if __name__ == "__main__":
    main()
