#!/usr/bin/env python3
"""Compare two sets of pdslin_bench results, metric by metric.

usage: compare.py [--bounds BENCHMARK.json] A B

A (the parent) and B (the change) each name a result file, a directory of
result files, or a baseline file from benchmark/baselines/, whose runs may
be narrowed to one set with a '#SET' suffix (baselines/x.json#second).

For each workload and metric the table shows each side's median and
quartiles, then a verdict:
  ok          within the metric's bound, or every B run beats every A run
  regressed   B's median is worse than A's by more than the bound
  unresolved  a side's quartile spread is wider than the bound, so the
              comparison cannot tell
  mismatch    a count metric differs between runs of the same seed
  failed      B has failed operations
  info        a per-layer metric without a bound
Per-layer metrics in unit 'count' must repeat exactly for equal seeds.
Exits 1 when any verdict is regressed, unresolved, mismatch or failed.
"""
import argparse
import json
import os
import statistics
import sys


def load_runs(spec):
    path, _, wanted = spec.partition("#")
    if os.path.isdir(path):
        runs = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                runs.extend(load_runs(os.path.join(path, name)))
        return runs
    with open(path) as f:
        doc = json.load(f)
    if "sets" in doc:
        sets = doc["sets"]
        if wanted:
            if wanted not in sets:
                sys.exit(f"compare.py: {path} has no set '{wanted}'")
            return list(sets[wanted])
        return [run for runs in sets.values() for run in runs]
    return [doc]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def better_than(x, y, better):
    return x < y if better == "lower" else x > y


def collect(runs):
    """{(workload, metric): [(seed, value)]} and {workload: failed ops}."""
    values, failed = {}, {}
    for run in runs:
        w = run["workload"]
        result = run["result"]
        failed[w] = failed.get(w, 0) + result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault((w, name), []).append((run["seed"], m["value"]))
    return values, failed


def verdict(spec, a, b):
    """Verdict and relative change of one workload × metric pairing."""
    av = [v for _, v in a]
    bv = [v for _, v in b]
    ma, mb = statistics.median(av), statistics.median(bv)
    change = (mb - ma) / abs(ma) if ma else 0.0
    if spec.get("unit") == "count":
        by_seed = dict(a)
        paired = [(by_seed[s], v) for s, v in b if s in by_seed]
        return ("ok" if all(x == y for x, y in paired) else "mismatch"), change
    if "bound" not in spec:
        return "info", change
    better = spec["better"]
    if all(better_than(y, x, better) for x in av for y in bv):
        return "ok", change
    if max(spread(av), spread(bv)) > spec["bound"]:
        return "unresolved", change
    worse = change if better == "lower" else -change
    return ("regressed" if worse > spec["bound"] else "ok"), change


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bounds", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)

    with open(args.bounds) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a_vals, a_failed = collect(load_runs(args.a))
    b_vals, b_failed = collect(load_runs(args.b))

    bad = 0
    print(f"{'workload':<14} {'metric':<38} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'change':>8} {'bound':>6}  verdict")
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        if w not in a_failed or w not in b_failed:
            continue
        for name, spec in specs.items():
            a, b = a_vals.get((w, name)), b_vals.get((w, name))
            if not a or not b:
                continue
            v, change = verdict(spec, a, b)
            bad += v in ("regressed", "unresolved", "mismatch")
            bound = f"{spec['bound']:.2f}" if "bound" in spec else "-"
            print(f"{w:<14} {name:<38} {fmt([x for _, x in a]):<36} "
                  f"{fmt([x for _, x in b]):<36} {change:>+8.2%} {bound:>6}  {v}")
        v = "failed" if b_failed[w] else "ok"
        bad += v == "failed"
        print(f"{w:<14} {'failed_operations':<38} {a_failed[w]:<36} "
              f"{b_failed[w]:<36} {'':>8} {'0':>6}  {v}")
    if not any(w in a_failed and w in b_failed for w in workloads):
        sys.exit("compare.py: the two sides share no workload")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
