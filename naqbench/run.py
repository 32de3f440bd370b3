#!/usr/bin/env python3
"""Build and run the naqbench benchmark from a checkout of the repository.

usage: python3 naqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds the library
and the benchmark driver (naqbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and passes the driver's
output through: the last stdout line is the result JSON object.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("compile-large", "serve-zipf", "sweep-loss")
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("run.py: --seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    bench_dir = root / "naqbench"
    if not (root / "src" / "core" / "pipeline.h").is_file():
        sys.exit("run.py: no library sources under %s/src" % root)
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build.is_absolute():
        build = root / build
    build = build / "naqbench"
    work = build / "work"
    work.mkdir(parents=True, exist_ok=True)

    if not (build / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build), "-j", "4"],
                   check=True, stdout=sys.stderr)

    cmd = [str(build / "naqbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--root", str(root), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish in %d s" % (args.workload,
                                                        RUN_TIMEOUT_S))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
