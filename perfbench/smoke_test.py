#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload, traced and
untraced, must print a result line with exactly the four result keys, be
correct, and emit every metric named in BENCHMARK.json, finite and with its
unit; the reason the binary prints for each workload must match the `why`
recorded in BENCHMARK.json. An unknown workload must fail without a result.

Run from the repository root:  python3 perfbench/smoke_test.py
"""
import json
import math
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))


def run(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def check(workload, trace):
    p = run(workload, trace)
    assert p.returncode == 0, f"{workload} trace {trace}: exit {p.returncode}\n{p.stderr[-3000:]}"
    lines = p.stdout.strip().splitlines()
    head, result = json.loads(lines[0]), json.loads(lines[-1])
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
    assert head["workload"] == workload and head["why"] == why, f"reason mismatch: {head}"
    for key in ("cores", "cpu_model", "simd_lanes", "intra_threads", "run_dir_fs"):
        assert key in head["machine"], f"machine state lacks {key}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}, \
        sorted(set(result["metrics"]) ^ {m["name"] for m in named})
    for m in named:
        got = result["metrics"][m["name"]]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)
        assert got["unit"] == m["unit"], (m, got)
    print(f"ok  {workload:18} trace {trace}: {len(named)} metrics, "
          f"{result['attempted']} checks")


def main():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace)
    p = run("no-such-workload", 0)
    assert p.returncode != 0 and "correct" not in p.stdout, "unknown workload must fail"
    print("ok  unknown workload rejected")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
