#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --workload tune [--runs 10]
        [--first-seed 1] [--seconds S]

Runs the workload --runs times, each with its own seed, one run at a time.
For every end-to-end metric in BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and their distance as a share
of the median, next to the metric's bound. A metric is steady when that
spread stays under a third of its bound. Raw results go to
.perfbench_out/steadiness-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", repr(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            print("seed %d: exit code %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, "result": result})
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness-%s.json" % args.workload),
              "w") as out:
        json.dump(results, out, indent=1)

    steady = True
    print("%-18s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        ok = spread < metric["bound"] / 3 or name == "setup_s"
        steady = steady and ok
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
            name, median, q1, q3, spread, metric["bound"],
            "" if ok else "  NOT STEADY"))
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
