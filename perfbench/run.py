#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 10 --trace 0

The benchmark binary is built from source (perfbench/CMakeLists.txt, which
compiles ../src into its own tree) under $CARGO_TARGET_DIR, or .bench_build
when that is unset; an up-to-date build is a no-op. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
