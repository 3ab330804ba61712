#!/usr/bin/env python3
"""Builds and runs the MEMPHIS end-to-end benchmark.

    python3 perfbench/run.py --workload tune|score|fleet [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the MEMPHIS libraries from src/ plus the
benchmark driver) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only bring
the build up to date. Build output goes to standard error. The workload
then runs in its own process; the last line of standard output is its
JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune", "score", "fleet")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", directory, "--target",
                  "memphis_perfbench", "-j", jobs])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL).returncode
        if code != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return None
    binary = os.path.join(directory, "memphis_perfbench")
    return binary if os.path.exists(binary) else None


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per workload (the self-test mode)")
    parser.add_argument("--out-dir", default=".perfbench_out",
                        help="where traced runs write their span log")
    args = parser.parse_args(argv)

    binary = build(build_dir())
    if binary is None:
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", args.out_dir]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT,
                          stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
