"""Layer probes for the traced run.

The probes wrap public functions of the ``tricomi`` modules from outside:
nothing under ``src/`` is edited.  Each wrapped name is replaced at every
place it is bound (``from ... import`` copies included), so a call made
through any module is recorded.  Spans are kept in memory as
``(name, start, end, parent, attrs)`` and written as JSONL at the end of the
child process; ``layer_metrics`` turns a set of span files into the
per-layer numbers.
"""
from __future__ import annotations

import json
import sys
import time

import numpy as np

# (layer span name, module, attribute) of every wrapped module function
WRAPPED = [
    ("cli.run", "tricomi.cli", "run"),
    ("identities.scaling_ratios", "tricomi.identities", "scaling_ratios"),
    ("identities.step1_residual", "tricomi.identities", "step1_residual"),
    ("identities.step2_residual", "tricomi.identities", "step2_residual"),
    ("identities.step3_residual", "tricomi.identities", "step3_residual"),
    ("identities.pohozaev_residual", "tricomi.identities", "pohozaev_residual"),
    ("identities.sigma_boundary_sign", "tricomi.identities", "sigma_boundary_sign"),
    ("identities.hardy_constants", "tricomi.identities", "hardy_constants"),
    ("identities.hardy_GL", "tricomi.identities", "hardy_GL"),
    ("identities.random_hardy_phi", "tricomi.identities", "random_hardy_phi"),
    ("identities.random_boundary_phi", "tricomi.identities", "random_boundary_phi"),
    ("identities.boundary_energy_I", "tricomi.identities", "boundary_energy_I"),
    ("identities.hardy_inequality_check", "tricomi.identities", "hardy_inequality_check"),
    ("identities.equivalence_chain", "tricomi.identities", "equivalence_chain"),
    ("quad.domain_grids", "tricomi.quad", "domain_grids"),
    ("quad.divergence_selftest", "tricomi.quad", "divergence_selftest"),
    ("quad.check_two_level", "tricomi.quad", "check_two_level"),
    ("quad.integrate_neg_interval", "tricomi.quad", "integrate_neg_interval"),
    ("geometry.check_starshaped", "tricomi.geometry", "check_starshaped"),
    ("geometry.contains", "tricomi.geometry", "contains"),
]

# step identities and the sigma functional: density evaluation plus reduction
RESIDUAL_SPANS = ("identities.step1_residual", "identities.step2_residual",
                  "identities.step3_residual", "identities.pohozaev_residual",
                  "identities.sigma_boundary_sign")
HARDY_SPANS = ("identities.hardy_constants", "identities.hardy_GL",
               "identities.random_hardy_phi", "identities.random_boundary_phi",
               "identities.boundary_energy_I",
               "identities.hardy_inequality_check",
               "identities.equivalence_chain")

# lru caches whose hit ratio is read through cache_info()
CACHES = {
    "identities.area_jets": ("tricomi.identities", "_area_jets"),
    "identities.curve_jets": ("tricomi.identities", "_curve_jets"),
    "identities.ensure_oriented": ("tricomi.identities", "_ensure_oriented"),
    "quad.domain_grids": ("tricomi.quad", "domain_grids"),
}

JET_BYTES_PER_POINT = 48  # six float64 arrays: u and its five derivatives


class Recorder:
    """In-memory span list with a parent stack (the child is single-threaded)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, None)
            if attrs is not None:
                spans[sid] = (name, t0, t1, parent, attrs(args, out))
            return out

        return traced

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, attrs in self.spans:
                rec = {"name": name, "start": t0, "end": t1, "parent": parent}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def _jet_attrs(args, out):
    # a field x grid fingerprint: the field's structural hash plus a few
    # grid coordinates, cheap next to the jet itself
    u, x, y = args[0], args[1], args[2]
    n = int(out.u.size)
    xa, ya = np.asarray(x, float).reshape(-1), np.asarray(y, float).reshape(-1)
    key = (f"{hash(u)}:{xa.size}:{xa[0]!r}:{xa[-1]!r}:"
           f"{ya[ya.size // 2]!r}:{ya[-1]!r}")
    return {"points": n, "key": key}


def _grid_attrs(cache):
    state = {"misses": cache.cache_info().misses}

    def attrs(args, out):
        misses = cache.cache_info().misses
        miss = misses > state["misses"]
        state["misses"] = misses
        return {"nodes": sum(int(g.x.size) for g in out) if miss else 0}

    return attrs


def install(rec: Recorder) -> list:
    """Wrap every probed name at each place it is bound.  Returns the
    probe names that could not be found (reported, never fatal)."""
    import tricomi  # noqa: F401  (loads every submodule)
    from tricomi import field

    missing = []
    mods = [m for k, m in list(sys.modules.items())
            if m is not None and (k == "tricomi" or k.startswith("tricomi."))]
    for name, modname, attr in WRAPPED:
        orig = getattr(sys.modules.get(modname), attr, None)
        if orig is None:
            missing.append(name)
            continue
        attrs = _grid_attrs(orig) if name == "quad.domain_grids" else None
        wrapped = rec.wrap(name, orig, attrs)
        for mod in mods:
            for k, v in list(vars(mod).items()):
                if v is orig:
                    setattr(mod, k, wrapped)
    jet = getattr(field.ScalarField, "jet", None)
    if jet is None:
        missing.append("field.jet")
    else:
        field.ScalarField.jet = rec.wrap("field.jet", jet, _jet_attrs)
    return missing


def cache_counts(originals: dict) -> dict:
    """hits and misses of each probed lru cache, read from cache_info()."""
    out = {}
    for name, fn in originals.items():
        info = fn.cache_info()
        out[name] = [info.hits, info.misses]
    return out


def find_caches() -> dict:
    """The probed lru caches; call before ``install`` replaces the names."""
    found = {}
    for name, (modname, attr) in CACHES.items():
        fn = getattr(sys.modules.get(modname), attr, None)
        if hasattr(fn, "cache_info"):
            found[name] = fn
    return found


# ---------------------------------------------------------------------------
# aggregation in the harness process

def self_times(spans: list) -> list:
    """Self time of each span: its duration minus what its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _under(spans, i, name) -> bool:
    p = spans[i]["parent"]
    while p >= 0:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def read_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(span_files: list, caches: list, runs: int) -> dict:
    """Per-layer numbers from the span files of ``runs`` traced workload
    runs: counts and seconds are per workload run, ratios are pooled."""
    calls, self_s = {}, {}
    jet_points = scaling_points = grid_nodes = 0
    jet_keys: set = set()
    for i_file, path in enumerate(span_files):
        spans = read_spans(path)
        for i, (s, st) in enumerate(zip(spans, self_times(spans))):
            name = s["name"]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + st
            if name == "field.jet":
                jet_points += s["points"]
                jet_keys.add((i_file, s["key"]))
                if _under(spans, i, "identities.scaling_ratios"):
                    scaling_points += s["points"]
            elif name == "quad.domain_grids":
                grid_nodes += s["nodes"]
    hits = {}
    for counts in caches:
        for name, (h, m) in counts.items():
            agg = hits.setdefault(name, [0, 0])
            agg[0] += h
            agg[1] += m

    def per_run(v):
        return v / runs

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(name):
        h, m = hits.get(name, (0, 0))
        return ratio(h, h + m)

    def c(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    jet_s = t("field.jet")
    return {
        "field.jet.calls": (per_run(c("field.jet")), "count"),
        "field.jet.points": (per_run(jet_points), "count"),
        "field.jet.self_s": (per_run(jet_s), "s"),
        "field.jet.points_per_s": (ratio(jet_points, jet_s), "1/s"),
        "field.jet.bytes_out": (per_run(JET_BYTES_PER_POINT * jet_points), "B"),
        "field.jet.dup_ratio": (ratio(c("field.jet"), len(jet_keys)), "ratio"),
        "identities.scaling_ratios.self_s": (per_run(t("identities.scaling_ratios")), "s"),
        "identities.scaling_ratios.jet_points": (per_run(scaling_points), "count"),
        "identities.residual.self_s": (per_run(t(*RESIDUAL_SPANS)), "s"),
        "identities.area_jets.hit_ratio": (hit_ratio("identities.area_jets"), "ratio"),
        "identities.curve_jets.hit_ratio": (hit_ratio("identities.curve_jets"), "ratio"),
        "identities.ensure_oriented.hit_ratio": (hit_ratio("identities.ensure_oriented"), "ratio"),
        "identities.hardy.self_s": (per_run(t(*HARDY_SPANS)), "s"),
        "quad.domain_grids.self_s": (per_run(t("quad.domain_grids")), "s"),
        "quad.domain_grids.nodes": (per_run(grid_nodes), "count"),
        "quad.domain_grids.hit_ratio": (hit_ratio("quad.domain_grids"), "ratio"),
        "quad.divergence_selftest.calls": (per_run(c("quad.divergence_selftest")), "count"),
        "quad.divergence_selftest.self_s": (per_run(t("quad.divergence_selftest")), "s"),
        "quad.check_two_level.calls": (per_run(c("quad.check_two_level")), "count"),
        "quad.integrate_neg_interval.calls": (per_run(c("quad.integrate_neg_interval")), "count"),
        "quad.integrate_neg_interval.self_s": (per_run(t("quad.integrate_neg_interval")), "s"),
        "geometry.check_starshaped.calls": (per_run(c("geometry.check_starshaped")), "count"),
        "geometry.check_starshaped.self_s": (per_run(t("geometry.check_starshaped")), "s"),
        "geometry.contains.calls": (per_run(c("geometry.contains")), "count"),
        "cli.run.self_s": (per_run(t("cli.run")), "s"),
    }
