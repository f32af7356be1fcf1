"""One workload run in its own process.

Protocol with the harness (``run.py``):

1. set-up: import ``tricomi`` from ``<checkout>/src`` and make one trivial
   ``run(["exponent", ...])`` call, which builds the argument parser; then
   print ``ready`` on stdout.  With ``--setup-only`` the child exits here.
2. read one JSON list of argv lists on stdin and pass each, unchanged except
   for an added ``--report`` path, to ``tricomi.cli.run``.
3. print one JSON line: per-operation exit code, seconds, report records and
   report size, plus wall, CPU and peak RSS of the batch; with ``--spans``
   the layer probes are installed first and their spans written there.

Usage: python3 perfbench/child.py --root <checkout> --out <dir>
       [--setup-only] [--spans <file.jsonl>]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _report_records(path):
    """The fields the reference check compares, read from a report file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    payload = json.loads(raw)
    records = [[r["identity"], r["variant"], r["f"], r["pass"],
                r["lhs"], r["rhs"], r["defect"]]
               for r in payload.get("reports", [])]
    return payload.get("pass"), payload.get("error"), records, len(raw)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True, help="directory for report files")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import tricomi
    from tricomi import cli
    # the program must come from this checkout, never from an installed copy
    if not os.path.abspath(tricomi.__file__).startswith(src + os.sep):
        print(f"tricomi imported from {tricomi.__file__}, not {src}",
              file=sys.stderr)
        return 3
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(["exponent", "--m1", "1", "--m2", "4"])
    if rc != 0:
        print(f"set-up call exited {rc}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    batch = json.loads(sys.stdin.readline())
    report = os.path.join(args.out, f"report-{os.getpid()}.json")

    rec = caches = None
    missing: list = []
    if args.spans:
        import probes
        caches = probes.find_caches()
        missing = sorted(set(probes.CACHES) - set(caches))
        rec = probes.Recorder()
        missing += probes.install(rec)

    ops = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t_start = time.perf_counter()
    for argv in batch:
        if os.path.exists(report):
            os.remove(report)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.run(list(argv) + ["--report", report])
        except Exception as e:  # noqa: BLE001  (recorded as a failed op)
            rc, err = None, f"{type(e).__name__}: {e}"
        else:
            err = None
        dt = time.perf_counter() - t0
        op = {"rc": rc, "seconds": dt, "error": err, "pass": None,
              "records": [], "report_bytes": 0}
        if os.path.exists(report):
            op["pass"], rep_err, op["records"], op["report_bytes"] = \
                _report_records(report)
            op["error"] = op["error"] or rep_err
        if rc != 0 and op["error"] is None:
            op["error"] = sink.getvalue()[-500:]
        ops.append(op)
    wall = time.perf_counter() - t_start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if os.path.exists(report):
        os.remove(report)

    result = {
        "ops": ops,
        "wall": wall,
        "cpu": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "maxrss_kb": ru1.ru_maxrss,
        "missing_probes": missing,
    }
    if rec is not None:
        rec.write_jsonl(args.spans)
        result["caches"] = probes.cache_counts(caches)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
