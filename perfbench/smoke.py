"""Small-size self-check of the benchmark.

Usage (from the root of a checkout): python3 perfbench/smoke.py [workload ...]
(default: hardy-sweep, the fastest workload)

Checks that
- every stored reference passes the reference check against itself and
  that both perturbed copies of it are flagged (the negative control);
- one short run per workload with ``--trace 0`` and ``--trace 1`` prints a
  last line with exactly the keys of the result contract, is correct, and
  emits every metric named in BENCHMARK.json with its unit, and that the
  run's own negative control tripped;
- in a directory holding only BENCHMARK.json and perfbench/, the harness
  exits non-zero without printing a result.
Exits 0 when all hold.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg: str):
    print(f"smoke FAIL: {msg}")
    sys.exit(1)


def check_controls():
    for name in workloads.WORKLOADS:
        refs = workloads.load_refs(name)
        want = next(iter(refs["ops"].values()))
        if workloads.mismatches(want, want):
            fail(f"{name}: a reference does not match itself")
        for control in workloads.perturbed(want):
            if not workloads.mismatches(want, control):
                fail(f"{name}: a perturbed reference was not flagged")
    print("negative controls: every perturbed reference flagged")


def check_run(spec: dict, workload: str, trace: int):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: "
             f"{proc.stderr[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        fail(f"{workload} trace {trace}: {lines[-12:]}")
    if "negative controls flagged 2/2" not in lines:
        fail(f"{workload} trace {trace}: negative control did not trip")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        fail(f"metrics {sorted(result['metrics'])} != {sorted(names)}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not (
                isinstance(got["value"], (int, float))
                and math.isfinite(got["value"])):
            fail(f"{m['name']}: {got}")
    print(f"{workload} trace {trace}: {len(names)} metrics with units, "
          f"{result['attempted']} operations correct")


def check_bare(spec: dict):
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(spec["command"] + [
            "--workload", workloads.WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
            text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # a benchmark run still uses it
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the harness ran without the program's sources")
    print(f"without sources: exit {proc.returncode}, no result")


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_controls()
    for workload in argv or ["hardy-sweep"]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare(spec)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
