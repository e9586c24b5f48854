#!/usr/bin/env python3
"""Collects and compares dpstore_bench result sets.

A result set is a directory of JSON files, one per run, as written by
`dpstore_bench --out`. Three subcommands:

  collect OUT [--runs N] [--seed-base S] [--seconds T] [--trace 0|1]
              [--workload W ...] [--checkout PATH]
              [--pair-out OUT2 --pair-checkout PATH2]
      Runs every workload once per seed into OUT. With a second checkout,
      each seed runs on both, alternating which goes first.

  summary SET
      Median, quartiles and spread (IQR / median) of every end-to-end
      metric per workload: the check a benchmark's bounds must pass.

  compare A B [--pairs]
      For each (workload, end-to-end metric) prints both medians and
      quartiles and a verdict: "agree" (medians within the metric's
      bound), "unresolved" (a spread wider than the bound), or "differ".
      Exits 1 on any "differ". --pairs instead pairs runs by seed and
      applies the gain rule: B gains when it wins at least 9 of 10 pairs
      (at least 10 pairs, ties count for neither) and the medians differ
      by more than A's interquartile range.

Bounds, units and directions come from BENCHMARK.json at the checkout
root (override with --benchmark).
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def load_set(directory):
    """Returns {workload: [run, ...]} for every result file in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"]["metrics"]]


def problems(runs_by_workload, label):
    """Names every run that was incorrect or had failed ops."""
    found = []
    for workload, runs in sorted(runs_by_workload.items()):
        for run in runs:
            result = run["result"]
            if not result["correct"] or result["failed"]:
                found.append("%s: %s seed %s correct=%s failed=%d" % (
                    label, workload, run["seed"], result["correct"],
                    result["failed"]))
    return found


def cmd_collect(args):
    targets = [(args.out, args.checkout)]
    if args.pair_out:
        if not args.pair_checkout:
            sys.exit("bench_agree: --pair-out needs --pair-checkout")
        targets.append((args.pair_out, args.pair_checkout))
    spec = load_benchmark(os.path.join(args.checkout, "BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for out, _ in targets:
        os.makedirs(out, exist_ok=True)
    for i in range(args.runs):
        seed = args.seed_base + i
        order = targets if i % 2 == 0 else list(reversed(targets))
        for workload in workloads:
            for out, checkout in order:
                path = os.path.abspath(os.path.join(
                    out, "%s-t%d-s%d.json" % (workload, args.trace, seed)))
                cmd = ["python3", os.path.join(checkout, "dpbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace),
                       "--out", path]
                done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
                print("%s seed %d (%s): exit %d" % (
                    workload, seed, checkout, done.returncode), flush=True)
    return 0


def cmd_summary(args):
    spec = load_benchmark(args.benchmark)
    runs = load_set(args.set)
    rc = 0
    for line in problems(runs, args.set):
        print("PROBLEM " + line)
        rc = 1
    print("%-18s %-22s %5s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "runs", "q1", "median", "q3", "spread",
        "bound"))
    for workload in sorted(runs):
        for metric in spec["end_to_end"]:
            values = metric_values(runs[workload], metric["name"])
            if not values:
                print("%-18s %-22s missing" % (workload, metric["name"]))
                rc = 1
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if metric["name"] != "setup_s" and s > metric["bound"] / 3:
                flag = "  > bound/3"
            print("%-18s %-22s %5d %14.6g %14.6g %14.6g %8.4f %6.3f%s" % (
                workload, metric["name"], len(values), q1, med, q3, s,
                metric["bound"], flag))
    return rc


def better(metric, a, b):
    """True when value b is better than value a for `metric`."""
    return b < a if metric["better"] == "lower" else b > a


def cmd_compare(args):
    spec = load_benchmark(args.benchmark)
    set_a, set_b = load_set(args.a), load_set(args.b)
    rc = 0
    for line in problems(set_a, args.a) + problems(set_b, args.b):
        print("PROBLEM " + line)
        rc = 1
    header = "%-18s %-22s %12s %12s %12s %12s %12s %12s %8s  %s" % (
        "workload", "metric", "A q1", "A median", "A q3", "B q1",
        "B median", "B q3", "change", "verdict")
    print(header)
    for workload in sorted(set(set_a) | set(set_b)):
        runs_a, runs_b = set_a.get(workload, []), set_b.get(workload, [])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = metric_values(runs_a, name), metric_values(runs_b, name)
            if not a or not b:
                print("%-18s %-22s missing in %s" % (
                    workload, name, "A" if not a else "B"))
                rc = 1
                continue
            if args.pairs:
                verdict = pairs_verdict(metric, runs_a, runs_b)
                if verdict is None:
                    print("%-18s %-22s fewer than 10 seed pairs" % (
                        workload, name))
                    rc = 2
                    continue
            else:
                verdict = agreement_verdict(metric, a, b)
                if verdict.startswith("differ"):
                    rc = max(rc, 1)
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            print("%-18s %-22s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g "
                  "%+7.2f%%  %s" % (workload, name, qa[0], qa[1], qa[2],
                                    qb[0], qb[1], qb[2], 100 * change,
                                    verdict))
    return rc


def agreement_verdict(metric, a, b):
    name, bound = metric["name"], metric["bound"]
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    change = (med_b - med_a) / med_a if med_a else float("inf")
    # setup_s is held to its median only: a run measures set-up just a few
    # times, so its run-to-run spread is not bounded.
    if name != "setup_s" and max(spread(a), spread(b)) > bound:
        if all(better(metric, x, y) for x in a for y in b):
            return "differ (B better in every run)"
        if all(better(metric, y, x) for x in a for y in b):
            return "differ (B worse in every run)"
        return "unresolved"
    if abs(change) <= bound:
        return "agree"
    return "differ (B %s)" % ("better" if better(metric, med_a, med_b)
                              else "worse")


def pairs_verdict(metric, runs_a, runs_b):
    name = metric["name"]
    by_seed_a = {r["seed"]: r["result"]["metrics"][name]["value"]
                 for r in runs_a if name in r["result"]["metrics"]}
    by_seed_b = {r["seed"]: r["result"]["metrics"][name]["value"]
                 for r in runs_b if name in r["result"]["metrics"]}
    seeds = sorted(set(by_seed_a) & set(by_seed_b))
    if len(seeds) < 10:
        return None
    wins = sum(1 for s in seeds
               if better(metric, by_seed_a[s], by_seed_b[s]))
    a = [by_seed_a[s] for s in seeds]
    b = [by_seed_b[s] for s in seeds]
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    gain = (wins >= 0.9 * len(seeds) and abs(med_b - med_a) > q3 - q1 and
            better(metric, med_a, med_b))
    return "%s (B wins %d/%d pairs)" % ("gain" if gain else "no gain", wins,
                                        len(seeds))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect")
    collect.add_argument("out")
    collect.add_argument("--runs", type=int, default=10)
    collect.add_argument("--seed-base", type=int, default=1)
    collect.add_argument("--seconds", type=int, default=0)
    collect.add_argument("--trace", type=int, default=0, choices=[0, 1])
    collect.add_argument("--workload", action="append")
    collect.add_argument("--checkout", default=ROOT)
    collect.add_argument("--pair-out")
    collect.add_argument("--pair-checkout")

    summary = sub.add_parser("summary")
    summary.add_argument("set")

    compare = sub.add_parser("compare")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.add_argument("--pairs", action="store_true")

    args = parser.parse_args()
    handler = {"collect": cmd_collect, "summary": cmd_summary,
               "compare": cmd_compare}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
