#!/usr/bin/env python3
"""The comparator passes two identical result sets, flags a planted
slowdown beyond a metric's bound as regressed — 20% against a 10% bound,
and 1.5 times the bound BENCHMARK.json sets — and flags a count metric
that moved as a mismatch.

usage: test_compare.py compare.py BENCHMARK.json
"""
import json
import os
import subprocess
import sys
import tempfile

PLANTED = "solve_min_ms_per_rhs"


def write_set(directory, bench, scale=1.0, count_shift=0):
    """Five synthetic runs of cold-cavity, seeds 1..5, with a little noise."""
    os.makedirs(directory)
    for seed in range(1, 6):
        noise = 1.0 + 0.001 * ((seed * 7) % 5 - 2)
        metrics = {m["name"]: {"value": 10.0 * noise, "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        metrics[PLANTED]["value"] *= scale
        metrics["partition.separator_size"] = {"value": 1291 + count_shift,
                                               "unit": "count"}
        run = {"workload": "cold-cavity", "seed": seed, "trace": 0,
               "result": {"correct": True, "attempted": 4, "failed": 0,
                          "metrics": metrics}}
        with open(os.path.join(directory, f"run{seed}.json"), "w") as f:
            json.dump(run, f)


def compare(script, bounds, a, b):
    proc = subprocess.run([sys.executable, script, "--bounds", bounds, a, b],
                          capture_output=True, text=True)
    rows = {line.split()[1]: line.split()[-1]
            for line in proc.stdout.splitlines()[1:] if line.strip()}
    return proc.returncode, rows


def expect_regressed(failures, what, code, rows):
    if code != 1 or rows.get(PLANTED) != "regressed":
        failures.append(f"{what}: exit {code}, {rows}")
    others = {k: v for k, v in rows.items() if k != PLANTED and v != "ok"}
    if others:
        failures.append(f"{what} leaked into {others}")


def main(argv):
    script, bench_path = argv
    with open(bench_path) as f:
        bench = json.load(f)
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == PLANTED)
    failures = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        tight = json.loads(json.dumps(bench))
        for m in tight["end_to_end"]:
            if m["name"] == PLANTED:
                m["bound"] = 0.10
        tight_path = os.path.join(tmp, "tight.json")
        with open(tight_path, "w") as f:
            json.dump(tight, f)

        base = os.path.join(tmp, "base")
        write_set(base, bench)
        write_set(os.path.join(tmp, "same"), bench)
        write_set(os.path.join(tmp, "slow20"), bench, scale=1.2)
        write_set(os.path.join(tmp, "slow_bound"), bench, scale=1.0 + 1.5 * bound)
        write_set(os.path.join(tmp, "moved"), bench, count_shift=1)

        code, rows = compare(script, bench_path, base, os.path.join(tmp, "same"))
        if code != 0 or any(v != "ok" for v in rows.values()):
            failures.append(f"identical sets: exit {code}, {rows}")

        code, rows = compare(script, tight_path, base, os.path.join(tmp, "slow20"))
        expect_regressed(failures, "20% slowdown, 10% bound", code, rows)

        code, rows = compare(script, bench_path, base, os.path.join(tmp, "slow_bound"))
        expect_regressed(failures, f"slowdown of 1.5 x the bound {bound}", code, rows)

        code, rows = compare(script, bench_path, base, os.path.join(tmp, "moved"))
        if code != 1 or rows.get("partition.separator_size") != "mismatch":
            failures.append(f"moved count: exit {code}, {rows}")
    for f in failures:
        print(f)
    print("FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
