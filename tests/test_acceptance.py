"""Acceptance gate: the nine headline checks, one pass/fail line each.

Each test prints `criterion N [PASS|FAIL] ...` before asserting, so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.  Tolerances are
pinned here and nowhere looser.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from tricomi.errors import ParityViolation, PreconditionViolated
from tricomi.field import (Const, X, Y, apply_O, dilate, manufactured)
from tricomi.geometry import (BoundaryCurveId, ParametricArc, Point, apex,
                              boundary_charts, char_ode_residual,
                              check_starshaped, natural_range, omega1, omega3)
from tricomi.identities import (HardyParams, boundary_energy_I,
                                equivalence_chain, hardy_constants,
                                hardy_inequality_check, pohozaev_residual,
                                random_boundary_phi, random_hardy_phi,
                                reference_domains, scaling_ratios,
                                sigma_boundary_sign, step1_residual,
                                step2_residual, step3_residual)
from tricomi.params import (OperatorParams, coefficients, critical_exponent,
                            cubic_nonlinearity, power_nonlinearity)
from tricomi.quad import QuadConfig, divergence_selftest


def emit(num: int, text: str, ok: bool):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {text}", flush=True)
    assert ok, f"criterion {num} failed: {text}"


MODULATION = Const(1.0) + X / 2 - Y / 3
NONLINEARITIES = (cubic_nonlinearity(), power_nonlinearity(3.0))


def matrix_fields(dom):
    base = manufactured(dom)
    return (base, base * MODULATION)


@pytest.fixture(scope="module")
def matrix():
    """The 4-variant x 2-field x 2-nonlinearity identity matrix at default
    QuadConfig, plus the same matrix at order 6 with panels 4 and 8 for the
    refinement-reduction check.  Built once, used by criteria 4 and 5."""
    t0 = time.perf_counter()
    default, reduction = [], []
    loose = dict(abs_tol=10.0, rel_tol=10.0)
    cfg4 = QuadConfig(gauss_order=6, panels_per_axis=4, **loose)
    cfg8 = QuadConfig(gauss_order=6, panels_per_axis=8, **loose)

    def cells(dom, u):
        yield lambda cfg: step1_residual(u, dom, cfg=cfg)
        yield lambda cfg: step3_residual(u, dom, cfg=cfg)
        for nl in NONLINEARITIES:
            yield lambda cfg, nl=nl: step2_residual(u, nl, dom, cfg=cfg)
            yield lambda cfg, nl=nl: pohozaev_residual(u, nl, dom, cfg=cfg)

    for dom in reference_domains():
        # config by config: the grids of one (domain, config) pair are kept,
        # so each is built once per domain
        dom_cells = [cell for u in matrix_fields(dom) for cell in cells(dom, u)]
        default += [cell(QuadConfig()) for cell in dom_cells]
        at4, at8 = ([cell(cfg) for cell in dom_cells] for cfg in (cfg4, cfg8))
        reduction += zip(at4, at8)
    return default, reduction, time.perf_counter() - t0


def test_criterion_1_critical_exponent_specialization():
    ok = critical_exponent(OperatorParams(1, 0)) == Fraction(10)
    for m in (1, 3, 5):
        got = critical_exponent(OperatorParams(m, 0))
        ok = ok and got == Fraction(2 * m + 8, m)
    emit(1, "critical_exponent(m,0) = (2m+8)/m exactly for m in {1,3,5}, "
            "(1,0) -> 10", ok)


def test_criterion_2_divergence_selftest():
    t0 = time.perf_counter()
    worst = max(divergence_selftest(dom, QuadConfig()).rel_err
                for dom in reference_domains())
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 5.0
    emit(2, f"divergence self-test worst rel_err {worst:.3e} <= 1e-9 "
            f"on 4 fixtures in {dt:.2f}s (< 5s)", ok)


def test_criterion_3_geometry_closed_forms():
    dom = omega1(1, 4, -0.5)
    a = apex(dom)
    apex_ok = (abs(a.x - (-2.0 ** (-1.0 / 3.0))) <= 1e-12
               and abs(a.y - (-0.25 ** (2.0 / 3.0))) <= 1e-12)
    worst_ode = 0.0
    worst_form = 0.0
    for d in reference_domains():
        for cid in (BoundaryCurveId.AC, BoundaryCurveId.BC):
            lo, hi = natural_range(d, cid)
            for t in np.linspace(lo, hi, 102)[1:-1]:
                worst_ode = max(worst_ode,
                                abs(char_ode_residual(d, cid, float(t))))
        chart = next(ch for ch in boundary_charts(d)
                     if ch.curve == BoundaryCurveId.BC)
        co = coefficients(d.params)
        tau = chart.lo + (chart.hi - chart.lo) * (np.arange(100) + 0.5) / 100.0
        x, y, dx, dy = chart.fn(tau)
        form = co.c1 * np.asarray(x) * np.asarray(dy) \
            - co.c2 * np.asarray(y) * np.asarray(dx)
        worst_form = max(worst_form, float(np.max(np.abs(form))))
    ok = apex_ok and worst_ode <= 1e-12 and worst_form <= 1e-12
    emit(3, f"omega1 apex matches (-2^(-1/3), -(1/4)^(2/3)); char ODE "
            f"residual {worst_ode:.2e} and BC starlike form {worst_form:.2e} "
            f"<= 1e-12", ok)


def test_criterion_4_step_identities_matrix(matrix):
    default, reduction, dt = matrix
    steps = [r for r in default if r.identity in ("step1", "step2", "step3")]
    worst = max(r.rel_err for r in steps)
    weak = []
    for r4, r8 in reduction:
        if r8.rel_err > 1e-12 and r4.rel_err < 10.0 * r8.rel_err:
            weak.append((r4.identity, r4.variant, r4.rel_err, r8.rel_err))
    ok = worst <= 1e-6 and not weak and dt < 60.0
    emit(4, f"step identities worst rel_err {worst:.3e} <= 1e-6 over "
            f"{len(steps)} matrix cells; panel doubling reduces every live "
            f"residual >= 10x ({len(weak)} exceptions); matrix in {dt:.1f}s "
            f"(< 60s)", ok)


def test_criterion_5_pohozaev_defect_form(matrix):
    default, _, _ = matrix
    po = [r for r in default if r.identity == "pohozaev"]
    worst = max(r.rel_err for r in po)
    zero = pohozaev_residual(Const(0.0), cubic_nonlinearity(),
                             omega1(1, 4, -0.5))
    ok = (worst <= 1e-6 and len(po) == 16
          and zero.lhs == 0.0 and zero.rhs == 0.0 and zero.defect == 0.0
          and zero.abs_err == 0.0)
    emit(5, f"pohozaev |LHS-RHS-DEFECT| worst rel {worst:.3e} <= 1e-6 over "
            f"{len(po)} cells; identically 0 for u = 0", ok)


def test_criterion_6_scaling_laws():
    u = (Const(1.0) - X ** 2) * (Const(1.0) - Y ** 2) * MODULATION
    worst = 0.0
    for m1, m2 in ((1, 0), (1, 4)):
        co = coefficients(OperatorParams(m1, m2))
        for lam in (0.5, 2.0):
            got = scaling_ratios(u, lam, 4.0, co)
            worst = max(worst,
                        abs(got["lp_ratio"] / lam ** co.kappa - 1.0),
                        abs(got["grad_ratio"] / lam ** co.mu - 1.0))
    cov = 0.0
    poly = X ** 3 * Y + Y ** 2 - X * Y
    rng = np.random.default_rng(9)
    for m1, m2 in ((1, 0), (1, 4)):
        params = OperatorParams(m1, m2)
        co = coefficients(params)
        for lam in (0.5, 2.0):
            ul = dilate(poly, lam, co)
            for _ in range(20):
                p = Point(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
                img = Point(p.x * lam ** -co.c1, p.y * lam ** -co.c2)
                lhs = apply_O(params, ul, p)
                rhs = lam ** (m1 * m2 - 4) * apply_O(params, poly, img)
                cov = max(cov, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    ok = worst <= 1e-9 and cov <= 1e-10
    emit(6, f"L^p and gradient ratios match lam^kappa, lam^mu to "
            f"{worst:.3e} (<= 1e-9); operator covariance residual "
            f"{cov:.3e} <= 1e-10 pointwise", ok)


def test_criterion_7_hardy_sobolev_package():
    t0 = time.perf_counter()
    pq = HardyParams()
    sup_ok, chain_ok = True, True
    for m1, m2 in ((1, 0), (1, 4), (3, 2)):
        params = OperatorParams(m1, m2)
        co = coefficients(params)
        consts = hardy_constants(params, pq)
        sup_ok = sup_ok and (
            abs(consts["grid_sup"] - (m2 + 2) / (m1 + m2 + m1 * m2)) <= 1e-8
            and consts["M_L"] == Fraction(co.c2, co.mu))
        chain_ok = chain_ok and consts["r"] == Fraction(2) \
            and equivalence_chain(params)
    params = OperatorParams(1, 4)
    rng = np.random.default_rng(42)
    energy_min, gap_max = math.inf, -math.inf
    for _ in range(100):
        phi = random_boundary_phi(pq.y_c, rng)
        energy_min = min(energy_min, boundary_energy_I(params, pq.y_c, phi))
        res = hardy_inequality_check(params, pq, random_hardy_phi(pq.y_c, rng))
        gap_max = max(gap_max, res.lhs - res.rhs)
    dt = time.perf_counter() - t0
    ok = (sup_ok and chain_ok and energy_min >= -1e-9 and gap_max <= 1e-10
          and dt < 10.0)
    emit(7, f"grid-sup of G_L hits (m2+2)/mu within 1e-8; r(2,2) = 2 and the "
            f"C_L chain exact in rationals; min I {energy_min:.3e} >= -1e-9 "
            f"and max Hardy gap {gap_max:.3e} <= 1e-10 over 100 seeded phi; "
            f"{dt:.2f}s (< 10s)", ok)


def test_criterion_8_sigma_boundary_sign():
    vals = {}
    for dom in reference_domains():
        if dom.variant.name == "OMEGA3":
            continue   # the omega3 arc leaves y >= 0: no sign claim
        for i, u in enumerate(matrix_fields(dom)):
            vals[(dom.variant.name, i)] = sigma_boundary_sign(u, dom)
    ok = all(v >= -1e-9 for v in vals.values()) \
        and all(vals[("OMEGA4", i)] == 0.0 for i in (0, 1))
    worst = min(vals.values())
    emit(8, f"sigma sign >= -1e-9 on star-shaped fixtures (min {worst:.3e}); "
            f"exactly 0 on the omega4 segment", ok)


def test_criterion_9_negative_controls():
    dom = omega1(1, 4, -0.5)
    try:
        step1_residual(X, dom)   # X does not vanish on AC
        non_vanishing = False
    except PreconditionViolated:
        non_vanishing = True

    c, (ax, bx) = dom.arc.center, dom.arc.semi_axes

    def fn(theta):
        th = np.asarray(theta, float)
        rho = 1.0 - 0.75 * np.sin(th) ** 6
        return (c.x + ax * np.cos(th) * rho, c.y + bx * np.sin(th) * rho)

    dented = omega1(1, 4, -0.5, arc=ParametricArc(fn, 0.0, math.pi))
    flagged = not check_starshaped(dented).is_starlike
    try:
        sigma_boundary_sign(Const(0.0), dented)
        refused = False
    except PreconditionViolated:
        refused = True

    parity = 0
    for build in (lambda: omega1(2, 4, -0.5),   # even m1
                  lambda: omega1(1, 2, -0.5),   # m2 not divisible by 4
                  lambda: omega3(2, 4, -0.5)):  # even m1, other family
        try:
            build()
        except ParityViolation:
            parity += 1

    ok = non_vanishing and flagged and refused and parity == 3
    emit(9, "non-AC-vanishing field raises PreconditionViolated; dented "
            "sigma flagged and refused; parity-violating pairs rejected "
            "at construction", ok)
