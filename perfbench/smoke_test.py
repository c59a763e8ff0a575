#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json in a short mode, untraced and
traced, through perfbench/run.py (output checks included), and asserts
that each run is correct and prints every metric BENCHMARK.json names,
with its declared unit: the end-to-end metrics untraced, the per-layer
metrics traced (plus the Chrome trace file). Exit status 0 when all
runs pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Length of each smoke run (--seconds).
SMOKE_SECONDS = 3.0


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0 or not lines:
        reasons = [l for l in lines if l.startswith("problem:")]
        return ["exit %d: %s" % (proc.returncode,
                                 "\n".join(reasons) or proc.stderr[-2000:])]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("correct=%s failed=%s" % (result["correct"],
                                                  result["failed"]))
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    for metric in wanted:
        m = got.get(metric["name"])
        if m is None:
            problems.append("missing metric %s" % metric["name"])
        elif m.get("unit") != metric["unit"]:
            problems.append("metric %s unit %r, want %r"
                            % (metric["name"], m.get("unit"), metric["unit"]))
        elif not isinstance(m.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % metric["name"])
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("undeclared metrics %s" % sorted(extra))
    if trace and not os.path.exists(
            os.path.join(ROOT, ".bench_out", "trace-%s.json" % workload)):
        problems.append("no trace file")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print("%-14s trace=%d %s" % (workload, trace,
                                         "ok" if not problems else "FAIL"))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
