#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

usage (from the repository root):
    python3 perfbench/run.py --workload droplet3d|ranks2_ckpt_fault|ensemble_open \
        --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default .bench_build): the
`mfc-serve` daemon from the repository workspace, and the standalone
`mfc-perfbench` package in this directory. Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result; the exit code
is the benchmark's.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("error: run from the repository root (no Cargo.toml and crates/ here)",
              file=sys.stderr)
        return 2
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    here = os.path.dirname(os.path.abspath(__file__))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "mfc-sched", "--bin", "mfc-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bins = os.path.join(target, "release")
    cmd = [os.path.join(bins, "mfc-perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(bins, "mfc-serve")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
