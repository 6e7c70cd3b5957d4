#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny size (--tiny, 1 s budget) in
both passes and asserts that the run exits 0 with its output checks passed,
that the result line has exactly the contract's keys, and that it reports
every end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json,
each with its declared unit and a finite value. Exits 1 on any failure.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          check=False)
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        errors.append("exit code %d" % proc.returncode)
    if not lines:
        return errors + ["no output; stderr tail: %s" % proc.stderr[-2000:]]
    failed_checks = [l for l in lines if l.startswith("[FAIL]")]
    errors += ["output check failed: %s" % l for l in failed_checks]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return errors + ["last line is not JSON: %r" % lines[-1][:200]]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
        return errors
    if result["correct"] is not True:
        errors.append("correct is %r" % result["correct"])
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted %r" % result["attempted"])
    if not (isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]):
        errors.append("failed %r" % result["failed"])
    got = result["metrics"]
    for name in sorted(set(expected) - set(got)):
        errors.append("missing metric %s" % name)
    for name in sorted(set(got) - set(expected)):
        errors.append("unexpected metric %s" % name)
    for name in sorted(set(expected) & set(got)):
        m = got[name]
        if set(m) != {"value", "unit"}:
            errors.append("%s has keys %s" % (name, sorted(m)))
        elif m["unit"] != expected[name]:
            errors.append("%s unit %r, expected %r" % (name, m["unit"],
                                                      expected[name]))
        elif not (isinstance(m["value"], (int, float))
                  and math.isfinite(m["value"])):
            errors.append("%s value %r" % (name, m["value"]))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    passes = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for w in bench["workloads"]:
        for trace, expected in passes.items():
            errors = check_run(w["name"], trace, expected)
            status = "ok" if not errors else "FAIL"
            print("%-4s %s --trace %d" % (status, w["name"], trace))
            for e in errors:
                print("     " + e)
            failures += bool(errors)
    print("%d of %d runs failed" % (failures, 2 * len(bench["workloads"])))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
