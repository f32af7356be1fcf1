"""The tricomi benchmark harness.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {suite-ref,domain-scan,hardy-sweep}
        --seed N --seconds S --trace {0,1}

A workload run is one batch of ``tricomi.cli.run`` calls in a fresh child
process (``child.py``), so every run pays the cold caches a user pays.
Batches are repeated, each in a new child, while the next one still fits in
``--seconds``; at least one always runs.  Every operation's report is
checked against ``refs/<workload>.json`` (see ``workloads.py``), and two
perturbed references must be flagged by the same check.

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` spends half the budget on untraced batches and then runs the
same batches again with the layer probes of ``probes.py`` installed, and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import probes
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 4  # set-up-only children per untraced run, besides the batches


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # one thread per child: the workloads are single-threaded by design
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(out: str, batch: list | None, spans: str | None = None):
    """Start a child, time its set-up, hand it ``batch`` (None: set-up only)
    and return (setup seconds, result dict or None)."""
    cmd = [sys.executable, CHILD, "--root", ROOT, "--out", out]
    if batch is None:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    err_path = os.path.join(out, "child-stderr.txt")
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err)
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if line.strip() != "ready":
                proc.kill()
                proc.wait()
                err.seek(0)
                raise ChildFailed(f"child set-up failed: {err.read()[-2000:]}")
            stdout, _ = proc.communicate(
                None if batch is None else json.dumps(batch) + "\n",
                timeout=CHILD_TIMEOUT_S)
        except BaseException:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            err.seek(0)
            raise ChildFailed(f"child exited {proc.returncode}: "
                              f"{err.read()[-2000:]}")
    if batch is None:
        return setup, None
    return setup, json.loads(stdout.strip().splitlines()[-1])


def run_batches(out: str, gen, budget: float):
    """Run batches from ``gen``, one child each, while the next is expected
    to end within ``budget`` seconds; at least one runs."""
    done, start = [], time.perf_counter()
    while True:
        batch = next(gen, None)
        if batch is None:
            break
        t0 = time.perf_counter()
        setup, res = run_child(out, batch)
        done.append((batch, setup, res, time.perf_counter() - t0))
        typical = statistics.median(d[3] for d in done)
        if time.perf_counter() - start + typical > budget:
            break
    return done


def _git_commit() -> str:
    # read .git directly: the checkout may not be a repository, and git
    # itself would search directories above it
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def environment() -> dict:
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": _git_commit(),
            "src_lines": lines}


def check(runs: list, refs: dict):
    """Count operations and those that failed or missed their reference;
    run the negative controls on the first operation."""
    attempted = failed = 0
    problems = []
    first = None
    for batch, _, res, _ in runs:
        for argv, op in zip(batch, res["ops"]):
            attempted += 1
            want = refs["ops"].get(workloads.op_key(argv))
            bad = ([f"error: {op['error']}"] if op["rc"] != 0 else [])
            bad += (["no reference"] if want is None
                    else workloads.mismatches(workloads.outcome(op), want))
            if bad:
                failed += 1
                problems.append((workloads.op_key(argv), bad[:3]))
            elif first is None:
                first = (op, want)
    controls_flagged = 0
    controls = []
    if first is not None:
        controls = workloads.perturbed(first[1])
        controls_flagged = sum(
            1 for c in controls
            if workloads.mismatches(workloads.outcome(first[0]), c))
    return attempted, failed, problems, controls_flagged, len(controls)


def end_to_end(runs: list, setups: list) -> tuple[dict, list]:
    op_s = [op["seconds"] for _, _, res, _ in runs for op in res["ops"]]
    walls = [sum(op["seconds"] for op in res["ops"]) for _, _, res, _ in runs]
    records = sum(len(op["records"]) for _, _, res, _ in runs
                  for op in res["ops"])
    rss = [res["maxrss_kb"] / 1024.0 for _, _, res, _ in runs]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "checks_per_s": (records / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = [f"samples: setup {len(setups)}, workload runs {len(walls)}, "
             f"operations {len(op_s)}, report records {records}"]
    # p90 only where at least ten samples lie beyond it
    if len(op_s) >= 100:
        notes.append(f"op_p90_s {float(np.percentile(op_s, 90))!r} s "
                     f"({len(op_s)} operations)")
    else:
        notes.append(f"op_p90_s not reported: {len(op_s)} operations < 100")
    return metrics, notes


def per_layer(untraced: list, traced: list, span_files: list) -> dict:
    metrics = probes.layer_metrics(
        span_files, [res.get("caches", {}) for _, _, res, _ in traced],
        len(traced))
    wall_a = sum(sum(op["seconds"] for op in res["ops"])
                 for _, _, res, _ in untraced)
    wall_b = sum(sum(op["seconds"] for op in res["ops"])
                 for _, _, res, _ in traced)
    n_ops = sum(len(res["ops"]) for _, _, res, _ in untraced)
    report_bytes = sum(op["report_bytes"] for _, _, res, _ in untraced
                       for op in res["ops"])
    metrics["cli.report_bytes"] = (report_bytes / n_ops, "B")
    metrics["proc.cpu_per_wall"] = (
        sum(res["cpu"] for _, _, res, _ in untraced)
        / sum(res["wall"] for _, _, res, _ in untraced), "ratio")
    metrics["trace.overhead_ratio"] = (wall_b / wall_a - 1.0, "ratio")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tricomi", "__init__.py")):
        print(f"no tricomi sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    refs = workloads.load_refs(args.workload)
    gen = workloads.batches(args.workload, args.seed, refs)
    out = os.path.join(ROOT, ".perfbench_out",
                       f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    try:
        print("env " + json.dumps(environment(), sort_keys=True))
        traced, span_files = [], []
        if args.trace == 0:
            setups = [run_child(out, None)[0] for _ in range(SETUP_PROBES)]
            untraced = run_batches(out, gen, args.seconds)
            setups += [d[1] for d in untraced]
        else:
            untraced = run_batches(out, gen, args.seconds / 2)
            for i, (batch, _, _, _) in enumerate(untraced):
                span_files.append(os.path.join(out, f"spans-{i}.jsonl"))
                t0 = time.perf_counter()
                setup, res = run_child(out, batch, spans=span_files[-1])
                traced.append((batch, setup, res, time.perf_counter() - t0))
            for name in traced[0][2]["missing_probes"]:
                print(f"probe missing: {name}")
        attempted, failed, problems, flagged, n_controls = check(
            untraced + traced, refs)
        for key, bad in problems[:10]:
            print(f"FAILED {key}: {'; '.join(bad)}")
        print(f"fail_ratio {failed / attempted!r} ({failed}/{attempted})")
        print(f"negative controls flagged {flagged}/{n_controls}")
        if args.trace == 0:
            metrics, notes = end_to_end(untraced, setups)
        else:
            metrics = per_layer(untraced, traced, span_files)
            notes = [f"traced workload runs {len(traced)}"]
    except ChildFailed as e:
        print(f"benchmark child failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out))
        except OSError:
            pass  # another run still uses it
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = failed == 0 and n_controls > 0 and flagged == n_controls
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
