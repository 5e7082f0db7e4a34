#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload BENCHMARK.json names at the tiny size, untraced and
traced, and asserts that each run prints a well-formed result line
with exactly the metrics BENCHMARK.json lists for it (end-to-end when
untraced, per-layer when traced), each with its unit and a finite
value, and that no checked operation failed (error_rate 0).

Run from anywhere:  python3 perfbench/selftest.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(cmd, workload, seed, trace):
    args = cmd + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", str(trace),
        "--size", "tiny",
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    where = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return where, lines, json.loads(lines[-1])


def check(where, lines, result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0 or result.get("correct") is not True:
        notes = [line for line in lines if line.startswith("FAIL")]
        problems.append(f"failed {result.get('failed')!r}, correct {result.get('correct')!r}: {notes}")
    if not any(line.startswith("error_rate: 0 ") for line in lines):
        problems.append("no `error_rate: 0` line")
    metrics = result.get("metrics", {})
    names = {m["name"] for m in expected}
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
    extra = sorted(set(metrics) - names)
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    for p in problems:
        print(f"FAIL {where}: {p}")
    if not problems:
        print(f"ok   {where}: {len(metrics)} metrics, {result['attempted']} operations")
    return not problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in bench["workloads"]:
        name = workload["name"]
        # metro checks its pinned digest at seed 1 and its invariants at
        # any seed; the other workloads have fixed inputs.
        seeds = [1, 2] if name == "metro" else [1]
        for seed in seeds:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                where, lines, result = run(bench["command"], name, seed, trace)
                ok &= check(where, lines, result, bench[key])
    if not ok:
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
