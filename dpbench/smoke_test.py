#!/usr/bin/env python3
"""Smoke test for dpstore_bench.

Runs every workload at n = 2^10 for one second, plus one traced ladder,
and checks each run against BENCHMARK.json: exit 0, a correct result with
no failed op, and exactly the declared metrics, finite and in the declared
units. Registered with ctest by dpbench/CMakeLists.txt; by hand:

    python3 dpbench/smoke_test.py --bench <build>/dpstore_bench \
        --benchmark-json BENCHMARK.json --workdir <dir>
"""

import argparse
import json
import math
import subprocess
import sys


def check_run(bench, workdir, workload, trace, expected):
    cmd = [bench, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--small", "--workdir", workdir]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    where = "%s trace=%d" % (workload, trace)
    errors = []
    if done.returncode != 0:
        errors.append("%s: exit %d\n%s" % (where, done.returncode,
                                          done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["%s: last stdout line is not JSON" % where]
    if result.get("correct") is not True:
        errors.append("%s: correct=%s" % (where, result.get("correct")))
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("%s: attempted=%s failed=%s" % (
            where, result.get("attempted"), result.get("failed")))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("%s: missing %s, unexpected %s" % (
            where, sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, metric in metrics.items():
        if name in expected and metric.get("unit") != expected[name]:
            errors.append("%s: %s has unit %s, declared %s" % (
                where, name, metric.get("unit"), expected[name]))
        if not math.isfinite(metric.get("value", float("nan"))):
            errors.append("%s: %s is not a finite number" % (where, name))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in spec["workloads"]:
        errors += check_run(args.bench, args.workdir, workload["name"], 0,
                            end_to_end)
    errors += check_run(args.bench, args.workdir, spec["workloads"][0]["name"],
                        1, per_layer)
    for error in errors:
        print("FAIL " + error)
    print("%d check(s) failed" % len(errors) if errors else "all runs passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
