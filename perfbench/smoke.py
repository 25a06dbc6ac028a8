#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py [--seeds 1,2]

For each workload, seed and trace mode it checks that the run exits 0, that its last
line is a JSON result with `correct` true and no failed operation (every SDC count
matched the serial reference), and that every metric BENCHMARK.json names for that
mode is printed, by name and with its unit, both in the report and in the result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, seed, trace, spec):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return errors + ["no JSON result on the last line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        errors.append("run not correct: " + "; ".join(l for l in lines if "FAILED" in l))
    if result.get("attempted", 0) < 1:
        errors.append("no operation attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"metric set differs: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    report = lines[:-1]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: result gives {got}, want unit {m['unit']}")
        printed = [l.split() for l in report if l.split()[:1] == [m["name"]]]
        if not printed or printed[0][2] != m["unit"]:
            errors.append(f"{m['name']}: not printed with unit {m['unit']}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in [int(s) for s in args.seeds.split(",")]:
            for trace in (0, 1):
                errors = check(workload, seed, trace, spec)
                status = "ok" if not errors else "FAIL"
                print(f"{status:4} {workload} seed={seed} trace={trace}")
                for e in errors:
                    print(f"     {e}")
                failed += bool(errors)
    print(f"{failed} failing case(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
