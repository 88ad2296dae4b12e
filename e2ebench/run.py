#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload corel-lsh --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, relative to
the current directory. Build output goes to stderr; the benchmark binary's
standard output is passed through unchanged, and its last line is the JSON
result. Exits non-zero without a result when the library sources are
missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "search_engine.h")):
        sys.stderr.write("e2ebench: library sources (src/) not found\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "hlsh_e2e")
    trace_dir = os.path.join(build_dir, "traces")
    proc = subprocess.run([binary, "--trace-dir", trace_dir] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
