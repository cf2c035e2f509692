#!/usr/bin/env python3
"""Checks that result sets of the repository benchmark agree within the
end-to-end bounds that BENCHMARK.json fixes.

    python3 benchmark/agree.py A.jsonl B.jsonl [C.jsonl ...]

Each file is one set: the JSON lines ps2bench appends, one per workload run
(benchmark/run.sh writes a fresh set file per full set). Traced runs are
ignored; when a file holds several untraced runs of one workload, the last
one counts. For every (workload, end-to-end metric) pair present in all
files:

  two files      the relative difference |B - A| / A must be within the
                 metric's bound;
  three or more  median and quartiles are printed, and the distance between
                 the quartiles, as a share of the median, must be within the
                 bound.

Exits 1 when any pair disagrees, 2 when the input is unusable.
"""
import json
import os
import statistics
import sys


def load_bounds():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            runs[record["workload"]] = record["result"]["metrics"]
    return runs


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bounds = load_bounds()
    sets = [load_set(p) for p in argv[1:]]
    workloads = sorted(set.intersection(*(set(s) for s in sets)))
    if not workloads:
        print("no workload appears in every file", file=sys.stderr)
        return 2
    disagree = 0
    header = ("workload", "metric", "unit", "bound", "q1", "median", "q3",
              "spread", "verdict")
    print("%-14s %-12s %-8s %6s %14s %14s %14s %8s  %s" % header)
    for w in workloads:
        for name, spec in bounds.items():
            values = [s[w][name]["value"] for s in sets if name in s[w]]
            if len(values) != len(sets):
                continue
            median = statistics.median(values)
            if len(values) == 2:
                q1, q3 = min(values), max(values)
                spread = abs(values[1] - values[0]) / abs(values[0]) \
                    if values[0] else float("inf")
            else:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median) if median else float("inf")
            ok = spread <= spec["bound"]
            disagree += not ok
            print("%-14s %-12s %-8s %6.2f %14.4g %14.4g %14.4g %8.3f  %s" %
                  (w, name, spec["unit"], spec["bound"], q1, median, q3,
                   spread, "ok" if ok else "DISAGREE"))
    print("%d pair(s) disagree" % disagree)
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
