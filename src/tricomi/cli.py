"""Command-line front end: wires flags (plus an optional JSON config file
with the same keys; flags win) to the verification suites and writes
deterministic machine-readable reports.

Exit codes: 0 all requested checks passed, 1 a check failed its bound,
2 configuration or hypothesis errors.  A report file is written whenever
computation started, even if it then failed.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import identities as ident
from .errors import TricomiError
from .field import Const, X, Y, manufactured, parse_field, to_prefix, VANISH_AC_SIGMA
from .geometry import (DomainSpec, boundary_csv, boundary_svg,
                       check_starshaped, endpoints, flow, omega1, omega2,
                       omega3, omega4)
from .params import (OperatorParams, coefficients, critical_exponent,
                     cubic_nonlinearity, linear_nonlinearity,
                     power_nonlinearity, supercritical_threshold)
from .quad import QuadConfig

_FACTORIES = {"omega1": omega1, "omega2": omega2, "omega3": omega3,
              "omega4": omega4}
_ANCHOR_SIGN = {"omega1": -1.0, "omega2": 1.0, "omega3": -1.0, "omega4": -1.0}
_SIGN_CLAIM_VARIANTS = ("omega1", "omega2", "omega4")  # sigma stays in y >= 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tricomi",
        description="numerical verification for a degenerate operator's "
                    "dilation identities, domains and Hardy constants")
    sub = ap.add_subparsers(dest="command", required=True)

    com = argparse.ArgumentParser(add_help=False)
    com.add_argument("--config", help="JSON file with the same keys as the "
                                      "flags; flags win on conflict")

    # only the subcommands that actually write reports take these; accepting
    # them elsewhere would silently do nothing
    rp = argparse.ArgumentParser(add_help=False)
    rp.add_argument("--timing", action="store_const", const=True, default=None,
                    help="record real wall times in reports (off by default "
                         "so identical runs are byte-identical)")
    rp.add_argument("--report", default=None,
                    help="report path (default tricomi_report.json)")

    qv = argparse.ArgumentParser(add_help=False)
    qv.add_argument("--gauss-order", type=int, default=None)
    qv.add_argument("--panels", type=int, default=None)
    qv.add_argument("--no-grading", action="store_const", const=True, default=None)
    qv.add_argument("--abs-tol", type=float, default=None)
    qv.add_argument("--rel-tol", type=float, default=None)

    dm = argparse.ArgumentParser(add_help=False)
    dm.add_argument("--variant", choices=sorted(_FACTORIES), default=None,
                    help="default omega1")
    dm.add_argument("--m1", type=int, default=None, help="default 1")
    dm.add_argument("--m2", type=int, default=None, help="default 4")
    dm.add_argument("--x0", type=float, default=None,
                    help="anchor abscissa (omega1, omega2)")
    dm.add_argument("--y0", type=float, default=None,
                    help="anchor ordinate (omega3, omega4)")

    p = sub.add_parser("exponent", parents=[com],
                       help="critical exponent and supercritical threshold")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)

    p = sub.add_parser("domain", parents=[com, dm],
                       help="apex, endpoints, star-shape report, CSV/SVG")
    p.add_argument("--csv", default=None, help="write boundary samples here")
    p.add_argument("--svg", default=None, help="write boundary sketch here")
    p.add_argument("--samples", type=int, default=None,
                   help="samples per boundary piece (default 200)")

    p = sub.add_parser("flow", parents=[com],
                       help="trajectory table of the dilation flow")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--x", type=float, default=None, help="start abscissa")
    p.add_argument("--y", type=float, default=None, help="start ordinate")
    p.add_argument("--t-max", type=float, default=None, help="default 3.0")
    p.add_argument("--steps", type=int, default=None, help="default 100")
    p.add_argument("--csv", default=None, help="write table here, else stdout")

    p = sub.add_parser("verify", parents=[com, rp, dm, qv],
                       help="check one identity on a fixture or user field")
    p.add_argument("which", choices=["step1", "step2", "step3", "pohozaev",
                                     "sigma-sign"])
    p.add_argument("--field", default=None,
                   help="prefix expression, e.g. '(* x y)'; default is the "
                        "manufactured field of the domain")
    p.add_argument("--nonlinearity", choices=["cubic", "power", "linear"],
                   default=None)
    p.add_argument("--alpha", type=float, default=None,
                   help="exponent for --nonlinearity power (default 3)")

    p = sub.add_parser("scaling", parents=[com, rp, qv],
                       help="dilation ratios of L^p and gradient norms")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--lam", type=float, action="append", default=None,
                   help="dilation parameter, repeatable (default 1/2 and 2)")
    p.add_argument("--p", type=float, default=None, help="L^p power (default 4)")
    p.add_argument("--field", default=None,
                   help="prefix expression (default: a fixed smooth bump)")

    p = sub.add_parser("hardy", parents=[com, rp, qv],
                       help="constants, G_L table, energy and inequality sweeps")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized sweeps (default 42)")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--y-c", type=float, default=None, help="default -1")
    p.add_argument("--table", default=None, help="write x,GL table here")
    p.add_argument("--table-points", type=int, default=None, help="default 100")
    p.add_argument("--sweeps", type=int, default=None,
                   help="random test functions per sweep (default 100)")

    p = sub.add_parser("suite", parents=[com, rp, qv],
                       help="full verification matrix for one parameter pair")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized sweeps (default 42)")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--x0", type=float, default=None,
                   help="anchor magnitude; signs are set per variant")

    return ap


# ---------------------------------------------------------------------------
# config-file merge: every option defaults to None so a JSON config can fill
# it; explicit flags always win

def _merge(ns: argparse.Namespace) -> dict:
    merged = dict(vars(ns))
    path = merged.pop("config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        allowed = set(merged) - {"command", "which"}
        unknown = sorted(set(loaded) - allowed)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for k, v in loaded.items():
            if merged.get(k) is None:
                merged[k] = v
    return merged


def _get(cfg: dict, key: str, default):
    v = cfg.get(key)
    return default if v is None else v


def _quad_config(cfg: dict) -> QuadConfig:
    base = QuadConfig()
    return QuadConfig(
        gauss_order=_get(cfg, "gauss_order", base.gauss_order),
        panels_per_axis=_get(cfg, "panels", base.panels_per_axis),
        grade_endpoints=not _get(cfg, "no_grading", False),
        abs_tol=_get(cfg, "abs_tol", base.abs_tol),
        rel_tol=_get(cfg, "rel_tol", base.rel_tol),
    )


def _require(cfg: dict, *keys: str):
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ValueError("missing required option(s): "
                         + ", ".join("--" + k.replace("_", "-") for k in missing))


def _make_domain(cfg: dict) -> DomainSpec:
    # absent flags fall back to the canonical fixture omega1(1, 4, -0.5)
    variant = _get(cfg, "variant", "omega1")
    m1, m2 = _get(cfg, "m1", 1), _get(cfg, "m2", 4)
    factory = _FACTORIES[variant]
    if variant in ("omega1", "omega2"):
        if cfg.get("y0") is not None:
            raise ValueError(f"{variant} takes --x0, not --y0")
        return factory(m1, m2, _get(cfg, "x0", -0.5))
    if cfg.get("x0") is not None:
        raise ValueError(f"{variant} takes --y0, not --x0")
    return factory(m1, m2, _get(cfg, "y0", -0.5))


def _make_nonlin(cfg: dict):
    name = _get(cfg, "nonlinearity", "cubic")
    if name == "cubic":
        return cubic_nonlinearity()
    if name == "power":
        return power_nonlinearity(_get(cfg, "alpha", 3.0))
    return linear_nonlinearity()


def _second_matrix_field(base):
    return base * (Const(1.0) + X / 2 - Y / 3)


_DEFAULT_BUMP = (Const(1.0) - X ** 2) * (Const(1.0) - Y ** 2) \
    * (Const(1.0) + X / 3 - Y / 5)


def _manual_report(identity: str, m1: int, m2: int, lhs: float, rhs: float,
                   passed: bool, variant: str = "", anchor: float = 0.0,
                   field: str = "", f: str = "", sides: dict | None = None,
                   note: str = "", seconds: float = 0.0) -> ident.IdentityReport:
    return ident.IdentityReport(
        identity=identity, variant=variant, m1=m1, m2=m2, anchor=anchor,
        field=field, f=f, lhs=lhs, rhs=rhs, defect=0.0,
        sides=sides or {}, quad={}, passed=passed, seconds=seconds, note=note)


def _finalize(reports: list, timing: bool) -> list:
    if timing:
        return reports
    return [r.with_seconds(0.0) for r in reports]


def _write_report_file(path: str, reports: list, extra: dict | None = None):
    payload = {
        "reports": [json.loads(r.to_json()) for r in reports],
        "pass": all(r.passed for r in reports),
    }
    if extra:
        payload.update(extra)
    if "error" in payload:
        # a run that died before producing reports must not read as a pass
        payload["pass"] = False
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _print_report_lines(reports: list):
    for r in reports:
        tag = "pass" if r.passed else "FAIL"
        where = f" {r.variant}" if r.variant else ""
        print(f"{r.identity}{where} lhs {r.lhs!r} rhs {r.rhs!r} "
              f"rel_err {r.rel_err:.3e} {tag}")


def _run_checks(cfg: dict, compute, show=None, extra: dict | None = None,
                summary: bool = False) -> int:
    """The shared run of the report-writing commands.  compute(reports)
    appends the check records; if it fails, the report file still gets
    the records made so far and the error, and the error propagates.
    show(reports) prints what precedes the per-record lines."""
    report_path = _get(cfg, "report", "tricomi_report.json")
    timing = _get(cfg, "timing", False)
    reports: list = []
    try:
        compute(reports)
    except BaseException as e:
        _write_report_file(report_path, _finalize(reports, timing),
                           {"error": f"{type(e).__name__}: {e}"})
        raise
    if show is not None:
        show(reports)
    reports = _finalize(reports, timing)
    _write_report_file(report_path, reports, extra)
    _print_report_lines(reports)
    n_pass = sum(1 for r in reports if r.passed)
    if summary:
        print(f"suite {n_pass}/{len(reports)} checks passed")
    print(f"report {report_path}")
    return 0 if n_pass == len(reports) else 1


# ---------------------------------------------------------------------------
# subcommands

def _cmd_exponent(cfg: dict) -> int:
    _require(cfg, "m1", "m2")
    params = OperatorParams(cfg["m1"], cfg["m2"])
    print(f"critical_exponent {critical_exponent(params)}")
    print(f"supercritical_threshold {supercritical_threshold(params)}")
    return 0


def _cmd_domain(cfg: dict) -> int:
    dom = _make_domain(cfg)
    a, b = endpoints(dom)
    apex = dom.apex
    print(f"variant {dom.variant.value}")
    print(f"params m1 {dom.params.m1} m2 {dom.params.m2} anchor {dom.anchor!r}")
    print(f"apex {apex.x!r} {apex.y!r}")
    print(f"endpoint_A {a.x!r} {a.y!r}")
    print(f"endpoint_B {b.x!r} {b.y!r}")
    rep = check_starshaped(dom)
    print(f"starlike {'true' if rep.is_starlike else 'false'}")
    print(f"min_form {rep.min_form!r}")
    samples = _get(cfg, "samples", 200)
    if cfg.get("csv"):
        with open(cfg["csv"], "w", encoding="utf-8") as fh:
            fh.write(boundary_csv(dom, samples_per_piece=samples))
        print(f"csv {cfg['csv']}")
    if cfg.get("svg"):
        with open(cfg["svg"], "w", encoding="utf-8") as fh:
            fh.write(boundary_svg(dom, samples_per_piece=samples))
        print(f"svg {cfg['svg']}")
    return 0 if rep.is_starlike else 1


def _cmd_flow(cfg: dict) -> int:
    _require(cfg, "m1", "m2", "x", "y")
    co = coefficients(OperatorParams(cfg["m1"], cfg["m2"]))
    from .geometry import Point
    p0 = Point(cfg["x"], cfg["y"])
    t_max = _get(cfg, "t_max", 3.0)
    steps = _get(cfg, "steps", 100)
    if steps < 1:
        raise ValueError("--steps must be at least 1")
    lines = ["t,x,y"]
    for i in range(steps + 1):
        t = t_max * i / steps
        p = flow(p0, t, co)
        lines.append("%.17g,%.17g,%.17g" % (t, p.x, p.y))
    text = "\n".join(lines) + "\n"
    if cfg.get("csv"):
        with open(cfg["csv"], "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"csv {cfg['csv']}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(cfg: dict) -> int:
    dom = _make_domain(cfg)
    qcfg = _quad_config(cfg)
    u = parse_field(cfg["field"]) if cfg.get("field") is not None \
        else manufactured(dom, vanish_on=VANISH_AC_SIGMA)
    which = cfg["which"]

    def compute(reports):
        if which == "step1":
            reports.append(ident.step1_residual(u, dom, qcfg))
        elif which == "step2":
            reports.append(ident.step2_residual(u, _make_nonlin(cfg), dom, qcfg))
        elif which == "step3":
            reports.append(ident.step3_residual(u, dom, qcfg))
        elif which == "pohozaev":
            reports.append(ident.pohozaev_residual(u, _make_nonlin(cfg), dom, qcfg))
        else:
            t0 = time.perf_counter()
            val = ident.sigma_boundary_sign(u, dom, qcfg)
            claimed = dom.variant.value in _SIGN_CLAIM_VARIANTS
            note = ("sign claim holds: sigma lies in y >= 0"
                    if claimed else
                    "no sign claim: this sigma dips below y = 0")
            # a one-sided bound check: record the observed value on both
            # sides so rel_err stays 0, and keep the bound in sides
            reports.append(_manual_report(
                "sigma-sign", dom.params.m1, dom.params.m2, val, val,
                (val >= -1e-9) if claimed else True,
                variant=dom.variant.value, anchor=dom.anchor,
                field=to_prefix(u), note=note,
                sides={"value": val, "bound": -1e-9},
                seconds=time.perf_counter() - t0))

    return _run_checks(cfg, compute)


def _scaling_reports(m1: int, m2: int, lams, pexp: float, u, qcfg,
                     field_str: str) -> list:
    co = coefficients(OperatorParams(m1, m2))
    out = []
    for lam in lams:
        t0 = time.perf_counter()
        r = ident.scaling_ratios(u, lam, pexp, co, qcfg)
        dt = time.perf_counter() - t0
        for key, expo in (("lp_ratio", co.kappa), ("grad_ratio", co.mu)):
            expected = lam ** expo
            got = r[key]
            out.append(_manual_report(
                f"scaling-{key.split('_')[0]}", m1, m2, got, expected,
                abs(got / expected - 1.0) <= 1e-9, field=field_str,
                sides={"lam": lam, "pexp": pexp},
                note=f"expected lam**{expo}", seconds=dt / 2))
    return out


def _cmd_scaling(cfg: dict) -> int:
    _require(cfg, "m1", "m2")
    qcfg = _quad_config(cfg)
    lams = _get(cfg, "lam", [0.5, 2.0])
    pexp = _get(cfg, "p", 4.0)
    u = parse_field(cfg["field"]) if cfg.get("field") is not None else _DEFAULT_BUMP
    return _run_checks(cfg, lambda reports: reports.extend(_scaling_reports(
        cfg["m1"], cfg["m2"], lams, pexp, u, qcfg, to_prefix(u))))


def _hardy_reports(m1: int, m2: int, pq: ident.HardyParams, sweeps: int,
                   seed: int, qcfg) -> list:
    params = OperatorParams(m1, m2)
    out = []
    t0 = time.perf_counter()
    hc = ident.hardy_constants(params, pq)
    out.append(_manual_report(
        "hardy-constants", m1, m2, hc["grid_sup"], float(hc["M_L"]),
        abs(hc["grid_sup"] - float(hc["M_L"])) <= 1e-8 * max(1.0, float(hc["M_L"])),
        sides={"M_L": str(hc["M_L"]), "r": str(hc["r"]),
               "C_L_low": str(hc["C_L_low"]), "C_L_high": str(hc["C_L_high"])},
        note="grid supremum of G_L against the closed form",
        seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    chain = ident.equivalence_chain(params)
    co = coefficients(params)
    out.append(_manual_report(
        "hardy-chain", m1, m2, 2.0 * co.c2 / co.mu, 2.0 * co.c2 / co.mu,
        chain, note="M_L <= 2 c2/mu = 2 M_L, exact rationals",
        seconds=time.perf_counter() - t0))

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst_i = float("inf")
    for _ in range(sweeps):
        phi = ident.random_boundary_phi(pq.y_c, rng)
        worst_i = min(worst_i, ident.boundary_energy_I(params, pq.y_c, phi, qcfg))
    out.append(_manual_report(
        "hardy-energy-sweep", m1, m2, worst_i, worst_i, worst_i >= -1e-9,
        sides={"sweeps": sweeps, "bound": -1e-9},
        note="minimum of the boundary energy functional over random phi",
        seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    worst_margin = -float("inf")
    for _ in range(sweeps):
        phi = ident.random_hardy_phi(pq.y_c, rng)
        res = ident.hardy_inequality_check(params, pq, phi, qcfg)
        worst_margin = max(worst_margin, res.lhs - res.rhs)
    out.append(_manual_report(
        "hardy-inequality-sweep", m1, m2, worst_margin, worst_margin,
        worst_margin <= 1e-10, sides={"sweeps": sweeps, "bound": 1e-10},
        note="max of lhs - rhs over random phi; nonpositive means the "
             "inequality held", seconds=time.perf_counter() - t0))
    return out


def _cmd_hardy(cfg: dict) -> int:
    _require(cfg, "m1", "m2")
    pq = ident.HardyParams(p=_get(cfg, "p", 2.0), q=_get(cfg, "q", 2.0),
                           y_c=_get(cfg, "y_c", -1.0))
    qcfg = _quad_config(cfg)
    sweeps = _get(cfg, "sweeps", 100)
    seed = _get(cfg, "seed", 42)

    def show(reports):
        consts = reports[0].sides
        print(f"M_L {consts['M_L']}")
        print(f"r {consts['r']}")
        print(f"C_L_low {consts['C_L_low']}")
        print(f"C_L_high {consts['C_L_high']}")
        print(f"grid_sup {reports[0].lhs!r}")
        if cfg.get("table"):
            n = _get(cfg, "table_points", 100)
            params = OperatorParams(cfg["m1"], cfg["m2"])
            lines = ["x,GL"]
            for i in range(n):
                x = pq.y_c * (1.0 - (i + 0.5) / n)
                lines.append("%.17g,%.17g" % (x, ident.hardy_GL(params, pq.y_c, x)))
            with open(cfg["table"], "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"table {cfg['table']}")

    return _run_checks(cfg, lambda reports: reports.extend(_hardy_reports(
        cfg["m1"], cfg["m2"], pq, sweeps, seed, qcfg)), show=show)


def _cmd_suite(cfg: dict) -> int:
    _require(cfg, "m1", "m2")
    m1, m2 = cfg["m1"], cfg["m2"]
    mag = abs(_get(cfg, "x0", 0.5))
    if mag == 0:
        raise ValueError("anchor magnitude must be nonzero")
    qcfg = _quad_config(cfg)
    seed = _get(cfg, "seed", 42)

    domains = []
    skipped = {}
    for name in sorted(_FACTORIES):
        try:
            domains.append(_FACTORIES[name](m1, m2, _ANCHOR_SIGN[name] * mag))
        except TricomiError as e:
            skipped[name] = str(e)
    if not domains:
        raise ValueError(
            f"no domain variant admits (m1, m2) = ({m1}, {m2}); "
            "each variant needs m1 odd, and omega1 needs m2 divisible by 4")

    def compute(reports):
        for dom in domains:
            t0 = time.perf_counter()
            r = ident._ensure_oriented(dom, qcfg)
            reports.append(_manual_report(
                "divergence-selftest", m1, m2, r.lhs, r.rhs,
                r.rel_err <= 1e-9, variant=dom.variant.value,
                anchor=dom.anchor, seconds=time.perf_counter() - t0))
            base = manufactured(dom, vanish_on=VANISH_AC_SIGMA)
            for u in (base, _second_matrix_field(base)):
                reports.append(ident.step1_residual(u, dom, qcfg))
                reports.append(ident.step3_residual(u, dom, qcfg))
                for nl in (cubic_nonlinearity(), power_nonlinearity(3.0)):
                    reports.append(ident.step2_residual(u, nl, dom, qcfg))
                    reports.append(ident.pohozaev_residual(u, nl, dom, qcfg))
            if dom.variant.value in _SIGN_CLAIM_VARIANTS:
                t0 = time.perf_counter()
                val = ident.sigma_boundary_sign(base, dom, qcfg)
                reports.append(_manual_report(
                    "sigma-sign", m1, m2, val, val, val >= -1e-9,
                    variant=dom.variant.value, anchor=dom.anchor,
                    field=to_prefix(base),
                    note="sign claim holds: sigma lies in y >= 0",
                    sides={"value": val, "bound": -1e-9},
                    seconds=time.perf_counter() - t0))
        reports.extend(_scaling_reports(m1, m2, [0.5, 2.0], 4.0,
                                        _DEFAULT_BUMP, qcfg,
                                        to_prefix(_DEFAULT_BUMP)))
        reports.extend(_hardy_reports(m1, m2, ident.HardyParams(), 100, seed,
                                      qcfg))
        reports.sort(key=lambda r: (r.variant, r.identity, r.f, r.field, r.note))

    def show(reports):
        for name, why in skipped.items():
            print(f"skipped {name}: {why}")

    params = OperatorParams(m1, m2)
    extra = {"critical_exponent": str(critical_exponent(params)),
             "supercritical_threshold": str(supercritical_threshold(params))}
    if skipped:
        extra["skipped_variants"] = skipped
    return _run_checks(cfg, compute, show=show, extra=extra, summary=True)


_DISPATCH = {
    "exponent": _cmd_exponent,
    "domain": _cmd_domain,
    "flow": _cmd_flow,
    "verify": _cmd_verify,
    "scaling": _cmd_scaling,
    "hardy": _cmd_hardy,
    "suite": _cmd_suite,
}


def run(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    try:
        cfg = _merge(ns)
        return _DISPATCH[ns.command](cfg)
    except (TricomiError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(run())
