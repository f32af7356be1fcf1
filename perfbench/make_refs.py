"""Regenerate the reference outcomes in ``refs/``.

Usage (from the root of a checkout): python3 perfbench/make_refs.py
[workload ...]

Runs every operation in each workload's universe through ``child.py`` (the
same path the benchmark uses), a few dozen per child to bound memory, and
stores exit code, verdicts and lhs/rhs/defect of each.  An operation that
exits non-zero, fails a check or yields a non-finite value goes under
``excluded`` with the reason, and the benchmark never draws it.  Run this
only when a change is meant to alter results, and say so in the change.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run
import workloads

CHUNK = 45  # operations per child: all five identities of nine domains


def make(workload: str) -> dict:
    ops, excluded = {}, {}
    universe = workloads.universe(workload)
    out = os.path.join(run.ROOT, ".perfbench_out", f"refs-{workload}")
    os.makedirs(out, exist_ok=True)
    try:
        for i in range(0, len(universe), CHUNK):
            batch = universe[i:i + CHUNK]
            _, res = run.run_child(out, batch)
            for argv, op in zip(batch, res["ops"]):
                key = workloads.op_key(argv)
                values = [v for r in op["records"] for v in r[4:]]
                if op["rc"] != 0 or op["pass"] is not True:
                    excluded[key] = f"exit {op['rc']}: {(op['error'] or '').strip()}"
                elif not all(math.isfinite(v) for v in values):
                    excluded[key] = "non-finite value in report"
                else:
                    ops[key] = workloads.outcome(op)
            print(f"{workload}: {min(i + CHUNK, len(universe))}/{len(universe)}"
                  f" done, {len(excluded)} excluded", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"workload": workload, "rel_tol": workloads.REL_TOL,
            "ops": ops, "excluded": excluded}


def write_refs(path: str, refs: dict):
    """JSON with one operation per line, so diffs show which outcomes moved."""
    def block(d):
        return ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(d.items()))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"workload": {json.dumps(refs["workload"])},\n'
                 f'"rel_tol": {json.dumps(refs["rel_tol"])},\n'
                 f'"excluded": {{\n{block(refs["excluded"])}}},\n'
                 f'"ops": {{\n{block(refs["ops"])}}}}}\n')


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    os.makedirs(os.path.join(workloads.HERE, "refs"), exist_ok=True)
    for name in names:
        refs = make(name)
        write_refs(workloads.refs_path(name), refs)
        for key, why in sorted(refs["excluded"].items()):
            print(f"excluded {key}: {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
