#!/usr/bin/env python3
"""Spread and comparison of recorded benchmark runs.

    python3 perfbench/compare.py RUNS.jsonl            # spread per metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

RUNS files are the runs.jsonl run.py appends to in its build directory. For
every (workload, metric) the table gives the median, the quartile spread
(Q3 - Q1, from statistics.quantiles(n=4)) as a share of the median, and with
two files the change of the median against the metric's bound in
BENCHMARK.json. Runs made under different autotune profiles are refused:
the profile sets the Codec's slicing decisions, so their numbers are not
comparable. Exits 1 when a spread or a change exceeds its bound.
"""
import json
import os
import statistics
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    return [r for r in runs if r["trace"] == 0]


def summarize(runs):
    by = defaultdict(list)
    for r in runs:
        for name, value in r["metrics"].items():
            by[(r["workload"], name)].append(value)
    out = {}
    for key, values in by.items():
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        out[key] = (med, (q3 - q1) / med if med else 0.0, len(values))
    return out


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv[1:]]
    profiles = {r["profile"] for runs in sets for r in runs}
    if len(profiles) > 1:
        print("refusing to compare runs made under different autotune profiles: %s"
              % sorted(profiles), file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    base = summarize(sets[0])
    new = summarize(sets[1]) if len(sets) == 2 else None
    worst = 0
    print("%-12s %-28s %4s %14s %8s %7s" % ("workload", "metric", "n", "median", "iqr/med", "bound")
          + ("  %14s %8s" % ("new median", "change") if new else ""))
    for (workload, name), (med, spread, n) in sorted(base.items()):
        bound, better = bounds.get(name, (None, "lower"))
        line = "%-12s %-28s %4d %14.6g %8.3f %7s" % (
            workload, name, n, med, spread, "-" if bound is None else "%.2f" % bound)
        if bound is not None and name != "setup_s" and spread > bound:
            line += "  SPREAD"
            worst = 1
        if new and (workload, name) in new:
            nmed = new[(workload, name)][0]
            change = (nmed - med) / med if med else 0.0
            worse = change if better == "lower" else -change
            line += "  %14.6g %+8.3f" % (nmed, change)
            if bound is not None and worse > bound:
                line += "  WORSE"
                worst = 1
        print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
