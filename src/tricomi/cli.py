"""Command-line front end: wires flags (plus an optional JSON config file
with the same keys; flags win) to the verification suites and writes
deterministic machine-readable reports.

Exit codes: 0 all requested checks passed, 1 a check failed its bound,
2 configuration or hypothesis errors, 141 stdout closed early by its reader
(128 + SIGPIPE, as a shell reports it).  A report file is written whenever
computation started, even if it then failed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import identities as ident
from .errors import TricomiError
from .field import Const, X, Y, manufactured, parse_field, VANISH_AC_SIGMA
from .geometry import (DomainSpec, Point, Variant, boundary_csv, boundary_svg,
                       check_starshaped, endpoints, flow)
from .params import (OperatorParams, coefficients, critical_exponent,
                     cubic_nonlinearity, linear_nonlinearity,
                     power_nonlinearity, supercritical_threshold)
from .quad import QuadConfig

# the scaling command's dilations and L^p power; the suite runs them too
_SCALING_LAMS, _SCALING_P = (0.5, 2.0), 4.0

# verify --nonlinearity: its choices and what each builds
_NONLINEARITIES = {"cubic": lambda args: cubic_nonlinearity(),
                   "power": lambda args: power_nonlinearity(args.alpha),
                   "linear": lambda args: linear_nonlinearity()}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name.  None means unset: a
    required pair, an anchor on the variant's axis, or scaling's lams."""
    ap = argparse.ArgumentParser(
        prog="tricomi",
        description="numerical verification for a degenerate operator's "
                    "dilation identities, domains and Hardy constants")
    sub = ap.add_subparsers(dest="command", required=True)
    # no prefix matching: hardy --p would silently mean --panels
    command = partial(sub.add_parser, allow_abbrev=False,
                      formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    com = argparse.ArgumentParser(add_help=False)
    com.add_argument("--config", help="JSON file with the same keys as the "
                                      "flags; flags win, null means unset")

    # only the subcommands that actually write reports take these; accepting
    # them elsewhere would silently do nothing
    ck = argparse.ArgumentParser(add_help=False)
    ck.add_argument("--timing", action="store_true",
                    help="record real wall times in reports; without it "
                         "identical runs are byte-identical")
    ck.add_argument("--report", default="tricomi_report.json", help="report path")
    q = QuadConfig()
    ck.add_argument("--gauss-order", type=int, default=q.gauss_order,
                    help="Gauss points per panel")
    ck.add_argument("--panels", type=int, default=q.panels_per_axis,
                    help="fine-level panels per axis")
    ck.add_argument("--no-grading", action="store_true",
                    help="uniform instead of graded panels")
    ck.add_argument("--abs-tol", type=float, default=q.abs_tol,
                    help="two-level absolute tolerance")
    ck.add_argument("--rel-tol", type=float, default=q.rel_tol,
                    help="two-level relative tolerance")

    dm = argparse.ArgumentParser(add_help=False)
    dm.add_argument("--variant", choices=[v.value for v in Variant],
                    default="omega1", help="domain variant")
    dm.add_argument("--m1", type=int, default=1, help="exponent on y")
    dm.add_argument("--m2", type=int, default=4, help="exponent on x")
    dm.add_argument("--x0", type=float, help="anchor abscissa (omega1, omega2)")
    dm.add_argument("--y0", type=float, help="anchor ordinate (omega3, omega4)")

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--m1", type=int, help="exponent on y (required)")
    pair.add_argument("--m2", type=int, help="exponent on x (required)")

    sd = argparse.ArgumentParser(add_help=False)
    sd.add_argument("--seed", type=int, default=42, help="seed for randomized sweeps")

    command("exponent", parents=[com, pair],
            help="critical exponent and supercritical threshold")

    p = command("domain", parents=[com, dm],
                help="apex, endpoints, star-shape report, CSV/SVG")
    p.add_argument("--csv", help="write boundary samples here")
    p.add_argument("--svg", help="write boundary sketch here")
    p.add_argument("--samples", type=int, default=200,
                   help="samples per boundary piece")

    p = command("flow", parents=[com, pair],
                help="trajectory table of the dilation flow")
    p.add_argument("--x", type=float, help="start abscissa (required)")
    p.add_argument("--y", type=float, help="start ordinate (required)")
    p.add_argument("--t-max", type=float, default=3.0, help="end time")
    p.add_argument("--steps", type=int, default=100, help="time steps")
    p.add_argument("--csv", help="write table here, else stdout")

    p = command("verify", parents=[com, ck, dm],
                help="check one identity on a fixture or user field")
    p.add_argument("which", choices=["step1", "step2", "step3", "pohozaev",
                                     "sigma-sign"])
    p.add_argument("--field", help="prefix expression, e.g. '(* x y)'; unset "
                                   "means the manufactured field of the domain")
    p.add_argument("--nonlinearity", choices=list(_NONLINEARITIES),
                   default="cubic", help="nonlinearity of step2 and pohozaev")
    p.add_argument("--alpha", type=float, default=3.0,
                   help="exponent for --nonlinearity power")

    p = command("scaling", parents=[com, ck, pair],
                help="dilation ratios of L^p and gradient norms")
    p.add_argument("--lam", type=float, action="append",
                   help="dilation parameter, repeatable; unset means "
                        + " and ".join(map(str, _SCALING_LAMS)))
    p.add_argument("--p", type=float, default=_SCALING_P, help="L^p power")
    p.add_argument("--field", help="prefix expression; unset means a smooth bump")

    p = command("hardy", parents=[com, ck, pair, sd],
                help="constants, G_L table, energy and inequality sweeps")
    p.add_argument("--y-c", type=float, default=-1.0,
                   help="left end of the interval (y_c, 0)")
    p.add_argument("--table", help="write x,GL table here")
    p.add_argument("--table-points", type=int, default=100, help="table rows")
    p.add_argument("--sweeps", type=int, default=100,
                   help="random test functions per sweep")

    p = command("suite", parents=[com, ck, pair, sd],
                help="full verification matrix for one parameter pair")
    p.add_argument("--x0", type=float, default=0.5,
                   help="anchor magnitude; signs are set per variant")

    return ap, sub.choices


def _check_config_value(action: argparse.Action, v):
    """Refuse a config value its flag could not give.  A scalar flag takes
    a string, converted like the flag's text, or a number of its type; the
    exact type test keeps JSON booleans out of the numbers."""
    if action.choices is not None:
        ok, want = v in action.choices, "one of " + ", ".join(action.choices)
    elif action.nargs == 0:
        ok, want = isinstance(v, bool), "true or false"
    elif isinstance(action, argparse._AppendAction):
        ok = isinstance(v, list) and all(type(a) in (int, float) for a in v)
        want = "a list of numbers"
    else:
        types, want = {int: ((int,), "an integer"), float: ((int, float), "a number")
                       }.get(action.type, ((), "a string"))
        ok = isinstance(v, str) or type(v) in types
    if not ok:
        raise ValueError(f"config key {action.dest!r} must be {want}, not {json.dumps(v)}")


def _parse(argv) -> argparse.Namespace:
    """Parse argv; with --config, check each of the file's values against
    its flag and parse again with them as the subcommand's defaults, so
    flags win.  A null value leaves the default, and a key whose flag was
    given is left out, so a repeated --lam replaces a config list."""
    ap, commands = _build_parser()
    args = ap.parse_args(argv)
    if not args.config:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(loaded) - (set(vars(args)) - {"command", "which", "config"}))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    sub = commands[args.command]
    for action in sub._actions:
        if loaded.get(action.dest) is not None:
            _check_config_value(action, loaded[action.dest])
    sub.set_defaults(**{k: v for k, v in loaded.items()
                        if v is not None and getattr(args, k) == sub.get_default(k)})
    return ap.parse_args(argv)


def _quad_config(args) -> QuadConfig:
    return QuadConfig(args.gauss_order, args.panels, not args.no_grading,
                      args.abs_tol, args.rel_tol)


def _count(args, key: str) -> int:
    # a count below 1 would make its check or table vacuous
    n = getattr(args, key)
    if n < 1:
        raise ValueError(f"--{key.replace('_', '-')} must be at least 1")
    return n


def _require(args, *keys: str):
    # a config file may supply what the flags leave out
    missing = [k for k in keys if getattr(args, k) is None]
    if missing:
        raise ValueError("missing required option(s): "
                         + ", ".join("--" + k.replace("_", "-") for k in missing))


def _make_domain(args) -> DomainSpec:
    # omega1/omega2 are anchored on the x axis, omega3/omega4 on the y axis
    axis, other = (("x0", "y0") if args.variant in ("omega1", "omega2")
                   else ("y0", "x0"))
    if getattr(args, other) is not None:
        raise ValueError(f"{args.variant} takes --{axis}, not --{other}")
    anchor = getattr(args, axis)
    return DomainSpec(Variant(args.variant), OperatorParams(args.m1, args.m2),
                      -0.5 if anchor is None else anchor)


_DEFAULT_BUMP = (Const(1.0) - X ** 2) * (Const(1.0) - Y ** 2) \
    * (Const(1.0) + X / 3 - Y / 5)


def _write_report_file(path: str, reports: list, timing: bool,
                       extra: dict | None = None):
    if not timing:   # so identical runs write identical files
        reports = [r.with_seconds(0.0) for r in reports]
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


def _run_checks(args, compute, show=None, extra: dict | None = None,
                summary: bool = False) -> int:
    """The shared run of the report-writing commands.  compute(reports)
    appends the check records; if it fails, the report file still gets
    the records made so far and the error, and the error propagates.
    show(reports) prints what precedes the per-record lines."""
    reports: list = []
    try:
        compute(reports)
    except BaseException as e:
        _write_report_file(args.report, reports, args.timing,
                           {"error": f"{type(e).__name__}: {e}"})
        raise
    if show is not None:
        show(reports)
    _write_report_file(args.report, reports, args.timing, extra)
    _print_report_lines(reports)
    n_pass = sum(1 for r in reports if r.passed)
    if summary:
        print(f"suite {n_pass}/{len(reports)} checks passed")
    print(f"report {args.report}")
    return 0 if n_pass == len(reports) else 1


# ---------------------------------------------------------------------------
# subcommands

def _cmd_exponent(args) -> int:
    _require(args, "m1", "m2")
    params = OperatorParams(args.m1, args.m2)
    print(f"critical_exponent {critical_exponent(params)}")
    print(f"supercritical_threshold {supercritical_threshold(params)}")
    return 0


def _cmd_domain(args) -> int:
    samples = _count(args, "samples")
    dom = _make_domain(args)
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
    for kind, draw in (("csv", boundary_csv), ("svg", boundary_svg)):
        path = getattr(args, kind)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(draw(dom, samples_per_piece=samples))
            print(f"{kind} {path}")
    return 0 if rep.is_starlike else 1


def _cmd_flow(args) -> int:
    _require(args, "m1", "m2", "x", "y")
    co = coefficients(OperatorParams(args.m1, args.m2))
    p0 = Point(args.x, args.y)
    steps = _count(args, "steps")
    lines = ["t,x,y"]
    for i in range(steps + 1):
        t = args.t_max * i / steps
        p = flow(p0, t, co)
        lines.append("%.17g,%.17g,%.17g" % (t, p.x, p.y))
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"csv {args.csv}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    dom = _make_domain(args)
    qcfg = _quad_config(args)
    u = parse_field(args.field) if args.field is not None \
        else manufactured(dom, vanish_on=VANISH_AC_SIGMA)
    nonlin = partial(_NONLINEARITIES[args.nonlinearity], args)
    checks = {
        "step1": lambda: ident.step1_residual(u, dom, qcfg),
        "step2": lambda: ident.step2_residual(u, nonlin(), dom, qcfg),
        "step3": lambda: ident.step3_residual(u, dom, qcfg),
        "pohozaev": lambda: ident.pohozaev_residual(u, nonlin(), dom, qcfg),
        "sigma-sign": lambda: ident.sigma_sign_report(u, dom, qcfg),
    }
    return _run_checks(args, lambda reports: reports.append(checks[args.which]()))


def _cmd_scaling(args) -> int:
    _require(args, "m1", "m2")
    qcfg = _quad_config(args)
    lams = _SCALING_LAMS if args.lam is None else args.lam
    if not lams:   # a config file's [] would pass with no check run
        raise ValueError("--lam needs at least one value")
    u = parse_field(args.field) if args.field is not None else _DEFAULT_BUMP

    def compute(reports):
        params = OperatorParams(args.m1, args.m2)
        for lam in lams:
            reports.extend(ident.scaling_reports(u, lam, args.p, params, qcfg))

    return _run_checks(args, compute)


def _cmd_hardy(args) -> int:
    _require(args, "m1", "m2")
    pq = ident.HardyParams(y_c=args.y_c)
    qcfg = _quad_config(args)
    sweeps = _count(args, "sweeps")
    n = _count(args, "table_points")

    def show(reports):
        for key, value in reports[0].sides.items():   # M_L, r, C_L_low, C_L_high
            print(f"{key} {value}")
        print(f"grid_sup {reports[0].lhs!r}")
        if args.table:
            params = OperatorParams(args.m1, args.m2)
            lines = ["x,GL"]
            for i in range(n):
                x = pq.y_c * (1.0 - (i + 0.5) / n)
                lines.append("%.17g,%.17g" % (x, ident.hardy_GL(params, pq.y_c, x)))
            with open(args.table, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"table {args.table}")

    return _run_checks(args, lambda reports: reports.extend(ident.hardy_reports(
        OperatorParams(args.m1, args.m2), pq, sweeps, args.seed, qcfg)), show=show)


def _cmd_suite(args) -> int:
    _require(args, "m1", "m2")
    mag = abs(args.x0)
    if mag == 0:
        raise ValueError("anchor magnitude must be nonzero")
    qcfg = _quad_config(args)
    params = OperatorParams(args.m1, args.m2)

    domains = []
    skipped = {}
    for v in Variant:
        try:
            domains.append(DomainSpec(v, params, mag if v is Variant.OMEGA2 else -mag))
        except TricomiError as e:
            skipped[v.value] = str(e)
    if not domains:
        raise ValueError(
            f"no domain variant admits (m1, m2) = ({params.m1}, {params.m2}); "
            "each variant needs m1 odd, and omega1 needs m2 divisible by 4")

    def compute(reports):
        for dom in domains:
            reports.append(ident.selftest_report(dom, qcfg))
            base = manufactured(dom, vanish_on=VANISH_AC_SIGMA)
            for u in (base, base * (Const(1.0) + X / 2 - Y / 3)):
                reports.append(ident.step1_residual(u, dom, qcfg))
                reports.append(ident.step3_residual(u, dom, qcfg))
                for nl in (cubic_nonlinearity(), power_nonlinearity(3.0)):
                    reports.append(ident.step2_residual(u, nl, dom, qcfg))
                    reports.append(ident.pohozaev_residual(u, nl, dom, qcfg))
            if dom.variant.value in ident.SIGN_CLAIM_VARIANTS:
                reports.append(ident.sigma_sign_report(base, dom, qcfg))
        for lam in _SCALING_LAMS:
            reports.extend(ident.scaling_reports(_DEFAULT_BUMP, lam, _SCALING_P,
                                                 params, qcfg))
        reports.extend(ident.hardy_reports(params, seed=args.seed, cfg=qcfg))
        reports.sort(key=lambda r: (r.variant, r.identity, r.f, r.field, r.note))

    def show(reports):
        for name, why in skipped.items():
            print(f"skipped {name}: {why}")

    extra = {"critical_exponent": str(critical_exponent(params)),
             "supercritical_threshold": str(supercritical_threshold(params))}
    if skipped:
        extra["skipped_variants"] = skipped
    return _run_checks(args, compute, show=show, extra=extra, summary=True)


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
    try:
        args = _parse(argv)
        return _DISPATCH[args.command](args)
    except OverflowError as e:
        # an input too large for float arithmetic is a configuration error
        print(f"error: numeric overflow: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # so is a grid or sweep too large to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise   # a reader that closed stdout early is main's to handle
    except (TricomiError, ValueError, OSError) as e:  # JSONDecodeError too
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> int:
    """run() as a console script.  If stdout's reader has gone: exit 141, no
    error line, and stdout on os.devnull so shutdown does not raise again."""
    try:
        code = run()
        sys.stdout.flush()   # so a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:   # as in the note on SIGPIPE in the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
