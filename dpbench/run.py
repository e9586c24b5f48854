#!/usr/bin/env python3
"""Builds dpstore_bench from this checkout and runs one benchmark run.

Usage (from anywhere; paths resolve against the checkout root):

    python3 dpbench/run.py --workload dpir_read --seed 1 --seconds 10 --trace 0

Every argument is passed to dpstore_bench (see dpstore_bench.cc). The
build lives in $CARGO_TARGET_DIR, or .bench_build/ when that is unset, and
is reused by later runs. The last line of stdout is the run's JSON result;
build output goes to <build dir>/build.log and, on failure, to stderr.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "dpbench")


def build(build_root):
    """Configures (once) and builds dpstore_bench; returns its path."""
    build_dir = os.path.join(build_root, "dpstore_bench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "dpstore_bench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % log_path)
                return None
    return os.path.join(build_dir, "dpstore_bench")


def main():
    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        return 1
    # Sockets, server logs and data directories live in the checkout; a
    # relative path keeps socket names short whatever the checkout path.
    workdir = os.path.relpath(os.path.join(build_root, "run"), ROOT)
    args = sys.argv[1:]
    if "--workdir" not in args:
        args += ["--workdir", workdir]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main())
