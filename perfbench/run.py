#!/usr/bin/env python3
"""Builds the benchmark and the shipped `mdes-serve` daemon, then runs one
benchmark invocation.

Run from the repository root:

    python3 perfbench/run.py --workload serve_nmt_int8 --seed 1 --seconds 10 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). The last line
of standard output is the benchmark's JSON result; build output goes to
standard error. The exit code is the benchmark's (non-zero when a build or
an output check fails).
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "mdes-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "mdes-serve"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.call(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main())
