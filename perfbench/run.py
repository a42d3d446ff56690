#!/usr/bin/env python3
"""Build and run the SLinGen benchmark.

    python3 perfbench/run.py --workload cold_paper|hot_serve|kernels \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package
(perfbench/Cargo.toml, a workspace of its own that depends on the
repository's crates by path) in release mode into $CARGO_TARGET_DIR
(default: .bench_build), then runs it. The benchmark's last line of
standard output is its JSON result; build output goes to standard error.
Exits non-zero, without a result, if the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark's own limit is 180 s per run; leave room for the build.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    target_dir = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "slingen-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
