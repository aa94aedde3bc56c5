#!/usr/bin/env python3
"""Agreement check for the benchmark: two sets of runs of the same code.

Runs every workload (or those given) once per seed of each set through
run.py, alternating the sets run by run (set 1's first seed, set 2's first
seed, set 1's second seed, ...), so that a host whose speed drifts over
minutes slows both sets alike.

Untraced (the default), it prints per end-to-end metric and set the median
and the quartile spread (Q3 - Q1) / median, with the quartiles
statistics.quantiles(values, n=4) gives, and how far set 2's median moved
from set 1's as a share of set 1's (positive = worse). A spread is "ok"
below a third of the metric's bound in BENCHMARK.json and "in" up to the
bound (setup_s is exempt); a move beyond the bound, either way, is
"DISAGREE".

With --trace it runs traced instead and compares, seed by seed, the exact
counts (frames and operations) of set 1's runs with set 2's: give both sets
the same seeds, and every count must be identical. One exception: on the
clustered workload each query's work depends on the query, so a window's
mean differs when two windows of one seed held different numbers of
queries; the difference is printed with both query counts.

    python3 bench/sknn_bench/spread.py --set1 1-10 --set2 11-20 \\
        [--workload W ...] [--save sets.json]
    python3 bench/sknn_bench/spread.py --trace --set1 1-3 --set2 1-3

Run from the repository root.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
# Per-layer counts that are exact: a change in any is a change in the work.
EXACT = re.compile(r"^(net\.c1_c2_frames_per_query|proto\..*_(ops|frames)|"
                   r"core\.(ops|candidates)_per_query)$")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect result: %s" % lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["attempted"] = result["attempted"]
    return values


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--set1", default="1-10")
    parser.add_argument("--set2", default="11-20")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save")
    args = parser.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    set1, set2 = seeds(args.set1), seeds(args.set2)
    if len(set1) != len(set2):
        sys.exit("the two sets need the same number of seeds")

    runs = {}
    for w in workloads:
        runs[w] = [[], []]
        for s1, s2 in zip(set1, set2):
            for i, seed in enumerate((s1, s2)):
                runs[w][i].append(run(w, seed, bench["run_seconds"],
                                      args.trace))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"set1": set1, "set2": set2, "runs": runs}, f, indent=1)

    if args.trace:
        differ = 0
        for w in workloads:
            for (a, b, s1, s2) in zip(*runs[w], set1, set2):
                for name in sorted(n for n in a if EXACT.match(n)):
                    if a[name] != b[name]:
                        differ += 1
                        print("%s %s: %r (seed %d, %d queries) != %r "
                              "(seed %d, %d queries)"
                              % (w, name, a[name], s1, a["attempted"],
                                 b[name], s2, b["attempted"]))
        print("exact counts %s" % ("identical" if not differ else
                                   "DIFFER in %d places" % differ))
        return 1 if differ else 0

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    print("%-13s %-15s %11s %7s %11s %7s %6s %7s" % (
        "workload", "metric", "median 1", "spread", "median 2", "spread",
        "bound", "moved"))
    for w in workloads:
        for name, m in metrics.items():
            (med1, sp1), (med2, sp2) = (
                spread([r[name] for r in runs[w][i]]) for i in (0, 1))
            sign = 1 if m["better"] == "lower" else -1
            moved = sign * (med2 - med1) / med1 if med1 else 0.0
            verdict = [] if name == "setup_s" else [
                "ok" if sp < m["bound"] / 3 else
                "in" if sp <= m["bound"] else "WIDE" for sp in (sp1, sp2)]
            if abs(moved) > m["bound"]:
                verdict.append("DISAGREE")
            print("%-13s %-15s %11.6g %7.4f %11.6g %7.4f %6.3f %+7.3f %s" % (
                w, name, med1, sp1, med2, sp2, m["bound"], moved,
                " ".join(verdict)))


if __name__ == "__main__":
    sys.exit(main())
