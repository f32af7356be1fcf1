"""Seeded workloads and the reference check.

Each workload is an endless sequence of batches; one batch is what one
child process runs, i.e. one workload run.  An operation is one argv list
for ``tricomi.cli.run``.  Every operation a batch can contain is drawn from
a finite universe, and ``refs/<workload>.json`` holds the reference outcome
of each operation in it, so the references cover every ``--seed``.
Operations that fail on the code the references were made from are listed
there under ``excluded`` with their error and are never drawn.
"""
from __future__ import annotations

import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# the canonical user command; the seed varies only the Hardy sweep seed
SUITE_SEEDS = [42, 1, 2, 3, 4, 5, 6, 7]

PAIRS = [(1, 4), (3, 12), (7, 6), (1, 0)]  # (m1, m2) of domain-scan and hardy-sweep

# every admissible (variant, m1, m2) over the parameter pairs
SCAN_COMBOS = [(v, m1, m2) for v in ("omega1", "omega2", "omega3", "omega4")
               for m1, m2 in PAIRS if not (v == "omega1" and m2 % 4)]
SCAN_WHICH = ["step1", "step2", "step3", "pohozaev", "sigma-sign"]
# anchor magnitudes in [0.25, 1], exact binary fractions
SCAN_ANCHORS = [0.25 + 3 * k / 32 for k in range(9)]
_ANCHOR_SIGN = {"omega1": -1.0, "omega2": 1.0, "omega3": -1.0, "omega4": -1.0}

HARDY_SEEDS = range(64)
HARDY_PER_PAIR = 10  # commands per (m1, m2) in one batch

WORKLOADS = ("suite-ref", "domain-scan", "hardy-sweep")


def suite_op(seed: int) -> list:
    return ["suite", "--m1", "1", "--m2", "4", "--seed", str(seed)]


def scan_op(which: str, variant: str, m1: int, m2: int, mag: float) -> list:
    flag = "--x0" if variant in ("omega1", "omega2") else "--y0"
    return ["verify", which, "--variant", variant, "--m1", str(m1),
            "--m2", str(m2), flag, repr(_ANCHOR_SIGN[variant] * mag)]


def hardy_op(seed: int, m1: int, m2: int) -> list:
    return ["hardy", "--m1", str(m1), "--m2", str(m2), "--seed", str(seed)]


def universe(workload: str) -> list:
    if workload == "suite-ref":
        return [suite_op(s) for s in SUITE_SEEDS]
    if workload == "domain-scan":
        return [scan_op(w, v, m1, m2, a) for (v, m1, m2) in SCAN_COMBOS
                for a in SCAN_ANCHORS for w in SCAN_WHICH]
    if workload == "hardy-sweep":
        return [hardy_op(s, m1, m2) for m1, m2 in PAIRS
                for s in HARDY_SEEDS]
    raise ValueError(f"unknown workload {workload!r}")


def op_key(argv: list) -> str:
    return " ".join(argv)


def refs_path(workload: str) -> str:
    return os.path.join(HERE, "refs", f"{workload}.json")


def load_refs(workload: str) -> dict:
    with open(refs_path(workload), "r", encoding="utf-8") as fh:
        return json.load(fh)


def batches(workload: str, seed: int, refs: dict):
    """Endless batches for one harness run; the same seed gives the same
    batches.  Only operations with a reference outcome are drawn."""
    rng = random.Random(f"{workload}:{seed}")
    known = refs["ops"]
    if workload == "suite-ref":
        while True:
            yield [suite_op(rng.choice(SUITE_SEEDS))]
    elif workload == "hardy-sweep":
        while True:
            ops = []
            for m1, m2 in PAIRS:
                seeds = [s for s in HARDY_SEEDS
                         if op_key(hardy_op(s, m1, m2)) in known]
                ops += [hardy_op(s, m1, m2)
                        for s in rng.sample(seeds, HARDY_PER_PAIR)]
            rng.shuffle(ops)
            yield ops
    elif workload == "domain-scan":
        # one call per admissible (variant, m1, m2) in every batch, and no
        # domain used twice in a run, so every call meets cold grids, jets
        # and self-test.  The identities rotate over the combos from batch
        # to batch, with one sigma-sign call per variant (it skips the area
        # jets and costs a third of a step identity), so the k-th batch has
        # the same mix of cheap and dear calls for every seed; the seed draws
        # the anchors.  That keeps the batch cost, the latency median and
        # the peak RSS of a batch steady across seeds.
        steps = [w for w in SCAN_WHICH if w != "sigma-sign"]
        groups = [[c for c in SCAN_COMBOS if c[0] == v]
                  for v in sorted({c[0] for c in SCAN_COMBOS})]
        used: set = set()
        turn = itertools.count()
        while True:
            # rotate further while some combo has no unused admissible
            # domain for its identity (omega3(3, 12) has no sigma-sign)
            for _ in range(len(SCAN_COMBOS)):
                k = next(turn)
                sigma = {g[k % len(g)] for g in groups}
                rest = iter(steps[(j + k) % len(steps)]
                            for j in range(len(SCAN_COMBOS)))
                whichs = ["sigma-sign" if c in sigma else next(rest)
                          for c in SCAN_COMBOS]
                free = [[a for a in SCAN_ANCHORS if (v, m1, m2, a) not in used
                         and op_key(scan_op(w, v, m1, m2, a)) in known]
                        for (v, m1, m2), w in zip(SCAN_COMBOS, whichs)]
                if all(free):
                    break
            else:
                return
            ops = []
            for (v, m1, m2), w, anchors in zip(SCAN_COMBOS, whichs, free):
                a = rng.choice(anchors)
                used.add((v, m1, m2, a))
                ops.append(scan_op(w, v, m1, m2, a))
            yield ops
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# reference check

REL_TOL = 1e-6  # of each reference value's own magnitude, with no floor


def outcome(op: dict) -> dict:
    """The part of a child's op result that a reference stores."""
    return {"rc": op["rc"], "pass": op["pass"], "records": op["records"]}


def mismatches(got: dict, want: dict) -> list:
    """Differences between an op outcome and its reference: any verdict,
    exit code or label change, or a lhs/rhs/defect off by more than
    REL_TOL of the reference value itself."""
    bad = []
    if got["rc"] != want["rc"]:
        bad.append(f"exit code {got['rc']} != {want['rc']}")
    if got["pass"] != want["pass"]:
        bad.append(f"report pass {got['pass']} != {want['pass']}")
    if len(got["records"]) != len(want["records"]):
        bad.append(f"{len(got['records'])} records != {len(want['records'])}")
        return bad
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        if g[:4] != w[:4]:
            bad.append(f"record {i}: {g[:4]} != {w[:4]}")
            continue
        for name, gv, wv in zip(("lhs", "rhs", "defect"), g[4:], w[4:]):
            if not abs(gv - wv) <= REL_TOL * abs(wv):
                bad.append(f"record {i} {w[0]} {w[1]} {name}: "
                           f"{gv!r} != {wv!r}")
    return bad


def perturbed(want: dict) -> list:
    """Negative controls: copies of a reference that the check must flag,
    one with a value moved by 10 * REL_TOL and one with a verdict flipped."""
    moved = json.loads(json.dumps(want))
    flipped = json.loads(json.dumps(want))
    rec = next(r for r in moved["records"] if any(v != 0 for v in r[4:]))
    k = next(i for i in (4, 5, 6) if rec[i] != 0)
    rec[k] *= 1.0 + 10 * REL_TOL
    flipped["records"][0][3] = not flipped["records"][0][3]
    return [moved, flipped]
