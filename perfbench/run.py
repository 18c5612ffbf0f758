#!/usr/bin/env python3
"""Build and run the QAOA pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the repository's `qaoa-serve` and `qaoa-predict` release binaries
and the `perfbench` package into $CARGO_TARGET_DIR (default `.bench_build`),
then runs one workload. The last line of standard output is the result as
one JSON object; build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep_exact_n12", "predict_zipf_n8", "shard_spawn_n8", "noisy_n6")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return text


def build(root, env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "bench",
         "--bin", "qaoa-serve", "--bin", "qaoa-predict"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(Path(__file__).resolve().parent / "Cargo.toml")],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=positive)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "engine").is_dir():
        sys.exit("perfbench: run from the repository root "
                 "(Cargo.toml and crates/engine are missing here)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(root, env)

    release = target / "release"
    command = [
        str(release / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--bin-dir", str(release),
        "--work-dir", str(target / "perfbench-work"),
    ]
    try:
        done = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
