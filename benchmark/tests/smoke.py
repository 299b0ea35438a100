#!/usr/bin/env python3
"""Smoke test of pdslin_bench: every workload, untraced and traced, emits
exactly the metrics BENCHMARK.json names, each with its unit and a finite
value, in a summary line with the contract's four keys — all within 20 s.

usage: smoke.py PDSLIN_BENCH BENCHMARK.json
"""
import json
import math
import subprocess
import sys
import time

BUDGET_SECONDS = 20.0


def check_run(program, workload, trace, expected):
    proc = subprocess.run(
        [program, "--workload", workload, "--smoke", "--seconds", "0.5",
         "--seed", "7", "--trace", str(trace)],
        capture_output=True, text=True, timeout=60)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    errors = []
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: summary keys {sorted(summary)}")
    if summary.get("correct") is not True or summary.get("failed") != 0:
        errors.append(f"{where}: not correct: {summary.get('failed')} failed")
    if not summary.get("attempted", 0) >= 1:
        errors.append(f"{where}: nothing attempted")
    metrics = summary.get("metrics", {})
    printed = {tuple(line.split()[:2]) for line in lines[:-1]}
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{where}: {m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} in {got['unit']}, not {m['unit']}")
        if not math.isfinite(got["value"]):
            errors.append(f"{where}: {m['name']} = {got['value']}")
        if (workload, m["name"]) not in printed:
            errors.append(f"{where}: {m['name']} has no printed line")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return errors


def main(argv):
    program, bench_path = argv
    with open(bench_path) as f:
        bench = json.load(f)
    start = time.monotonic()
    errors = []
    for w in bench["workloads"]:
        errors += check_run(program, w["name"], 0, bench["end_to_end"])
        errors += check_run(program, w["name"], 1, bench["per_layer"])
    elapsed = time.monotonic() - start
    if elapsed > BUDGET_SECONDS:
        errors.append(f"smoke runs took {elapsed:.1f} s, over {BUDGET_SECONDS} s")
    for e in errors:
        print(e)
    print(f"{len(bench['workloads'])} workloads x 2 modes in {elapsed:.1f} s: "
          f"{'FAIL' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
