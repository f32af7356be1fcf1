"""Geometry oracles: apex closed forms, characteristic ODE residuals,
flow tangency, outward normals, star-shape detection and exports."""
import math

import numpy as np
import pytest

from tricomi.errors import (CornerPoint, DomainError, OutOfRange,
                            ParityViolation)
from tricomi.geometry import (BoundaryCurveId, DomainSpec, EllipticArc,
                              ParametricArc, Point, Variant, Vec2,
                              area_charts, boundary_charts, boundary_csv,
                              boundary_svg,
                              char_ode_residual, char_ode_residual_at,
                              check_starshaped, contains, curve_point,
                              endpoints, flow, natural_range, omega1, omega2,
                              omega3, omega4, outward_normal, starlike_form)
from tricomi.params import OperatorParams, coefficients

B = BoundaryCurveId


def fixtures():
    return [omega1(1, 4, -0.5), omega2(1, 4, 0.5),
            omega3(1, 4, -0.5), omega4(1, 0, -0.5)]


# apex closed forms, written out independently of the module:
# omega1/omega2: x_C = (1/2)^(2/c2) * 2*x0, y_c = -[(1/2)(c1/c2)|2x0|^k]^(2/c1)
# omega3/omega4: x_c = [(1/2)(c2/c1)(-2y0)^(c1/2)]^(2/c2), y_C = (1/2)^(2/c1)*2y0
def expected_apex(variant, m1, m2, anchor):
    c1, c2 = m1 + 2, m2 + 2
    k = (m2 + 2) // 2
    if variant in ("omega1", "omega2"):
        x = (0.5) ** (2.0 / c2) * 2.0 * anchor
        y = -((0.5) * (c1 / c2) * abs(2.0 * anchor) ** k) ** (2.0 / c1)
        return x, y
    kk = (-2.0 * anchor) ** (c1 / 2.0)
    x = ((0.5) * (c2 / c1) * kk) ** (2.0 / c2)
    y = (0.5) ** (2.0 / c1) * 2.0 * anchor
    return x, y


def test_apex_closed_forms():
    for dom in fixtures():
        ex, ey = expected_apex(dom.variant.value, dom.params.m1,
                               dom.params.m2, dom.anchor)
        assert dom.apex.x == pytest.approx(ex, abs=1e-12)
        assert dom.apex.y == pytest.approx(ey, abs=1e-12)


def test_apex_omega1_fixture_explicit():
    # the (1, 4, -1/2) apex is (-2^(-1/3), -(1/4)^(2/3))
    apex = omega1(1, 4, -0.5).apex
    assert abs(apex.x - (-(2.0 ** (-1.0 / 3.0)))) <= 1e-12
    assert abs(apex.y - (-((0.25) ** (2.0 / 3.0)))) <= 1e-12


def test_endpoints():
    a, b = endpoints(omega1(1, 4, -0.5))
    assert (a.x, a.y) == (-1.0, 0.0) and (b.x, b.y) == (0.0, 0.0)
    a, b = endpoints(omega3(1, 4, -0.5))
    assert (a.x, a.y) == (0.0, -1.0) and (b.x, b.y) == (0.0, 0.0)


def test_curve_ranges_interpolate_endpoints():
    # curves start and end exactly where the corner points sit
    for dom in fixtures():
        a, b = endpoints(dom)
        apex = dom.apex
        want = {
            B.AC: (apex, a) if dom.variant in (Variant.OMEGA1, Variant.OMEGA2)
            else (a, apex),
            B.BC: (apex, b) if dom.variant in (Variant.OMEGA1, Variant.OMEGA2)
            else (b, apex),
        }
        for cid, (p_lo, p_hi) in want.items():
            lo, hi = natural_range(dom, cid)
            got_lo, got_hi = curve_point(dom, cid, lo), curve_point(dom, cid, hi)
            assert abs(got_lo.x - p_lo.x) <= 1e-12
            assert abs(got_lo.y - p_lo.y) <= 1e-12
            assert abs(got_hi.x - p_hi.x) <= 1e-12
            assert abs(got_hi.y - p_hi.y) <= 1e-12


def test_bc_point_and_normal_frozen():
    # derived by hand from x = -2^(1/3) sqrt(-y) on the omega1 BC curve:
    # at y = -1/4 the point is (-2^(1/3)/2, -1/4) and implicit
    # differentiation gives an outward normal along (1, -2^(1/3))
    dom = omega1(1, 4, -0.5)
    p = curve_point(dom, B.BC, -0.25)
    assert abs(p.x - (-0.6299605249474366)) <= 1e-14
    assert abs(p.y - (-0.25)) <= 1e-14
    n = outward_normal(dom, B.BC, -0.25)
    assert abs(n.x - 0.6216817590731687) <= 1e-12
    assert abs(n.y - (-0.7832699345919584)) <= 1e-12
    assert abs(math.hypot(n.x, n.y) - 1.0) <= 1e-13
    assert abs(n.y / n.x - (-(2.0 ** (1.0 / 3.0)))) <= 1e-12


def test_normals_unit_and_perpendicular():
    h = 1e-7
    for dom in fixtures():
        for cid in (B.AC, B.BC, B.SIGMA):
            lo, hi = natural_range(dom, cid)
            for frac in (0.25, 0.5, 0.8):
                s = lo + frac * (hi - lo)
                n = outward_normal(dom, cid, s)
                assert abs(math.hypot(n.x, n.y) - 1.0) <= 1e-12
                pp = curve_point(dom, cid, s + h * (hi - lo))
                pm = curve_point(dom, cid, s - h * (hi - lo))
                tx, ty = pp.x - pm.x, pp.y - pm.y
                tn = math.hypot(tx, ty)
                assert abs(n.x * tx + n.y * ty) / tn <= 1e-7


def test_normals_point_outward():
    eps = 1e-5
    for dom in (omega1(1, 4, -0.5), omega4(1, 0, -0.5)):
        for cid in (B.AC, B.BC, B.SIGMA):
            lo, hi = natural_range(dom, cid)
            s = lo + 0.5 * (hi - lo)
            p = curve_point(dom, cid, s)
            n = outward_normal(dom, cid, s)
            assert not contains(dom, Point(p.x + eps * n.x, p.y + eps * n.y),
                                tol=0.0)
            assert contains(dom, Point(p.x - eps * n.x, p.y - eps * n.y),
                            tol=0.0)


def test_normal_errors():
    dom = omega1(1, 4, -0.5)
    lo, hi = natural_range(dom, B.BC)
    with pytest.raises(CornerPoint):
        outward_normal(dom, B.BC, hi)
    with pytest.raises(OutOfRange):
        outward_normal(dom, B.BC, hi + 0.5)
    with pytest.raises(OutOfRange):
        curve_point(dom, B.BC, lo - 1.0)


def test_char_ode_residual_interior():
    # both characteristics satisfy the degenerate ODE to near machine zero
    for dom in fixtures():
        for cid in (B.AC, B.BC):
            lo, hi = natural_range(dom, cid)
            for i in range(100):
                s = lo + (hi - lo) * (i + 0.5) / 100.0
                assert abs(char_ode_residual(dom, cid, s)) <= 1e-12


def test_char_ode_residual_rejects_sigma_and_corners():
    dom = omega1(1, 4, -0.5)
    lo, hi = natural_range(dom, B.AC)
    with pytest.raises(DomainError):
        char_ode_residual(dom, B.SIGMA, 0.5)
    with pytest.raises(CornerPoint):
        char_ode_residual(dom, B.AC, hi)


def test_straight_chord_is_not_characteristic():
    # falsifiability: a straight segment joining the same endpoints has a
    # visibly nonzero residual while the true curve sits at roundoff
    dom = omega1(1, 4, -0.5)
    a, _ = endpoints(dom)
    apex = dom.apex
    slope = (apex.y - a.y) / (apex.x - a.x)
    mx, my = 0.5 * (a.x + apex.x), 0.5 * (a.y + apex.y)
    r = char_ode_residual_at(dom.params, dom.variant, mx, my, slope)
    assert abs(r) > 1e-3
    for dom in (omega3(1, 4, -0.5), omega4(1, 0, -0.5)):
        a, _ = endpoints(dom)
        apex = dom.apex
        slope = (apex.x - a.x) / (apex.y - a.y)
        mx, my = 0.5 * (a.x + apex.x), 0.5 * (a.y + apex.y)
        r = char_ode_residual_at(dom.params, dom.variant, mx, my, slope)
        assert abs(r) > 1e-3


def test_starlike_form_vanishes_on_bc():
    # flow tangency: c1 x dy - c2 y dx = 0 identically along BC
    for dom in fixtures():
        chart = next(c for c in boundary_charts(dom)
                     if c.curve == B.BC)
        co = coefficients(dom.params)
        tau = chart.lo + (chart.hi - chart.lo) * (np.arange(100) + 0.5) / 100.0
        x, y, dx, dy = chart.fn(tau)
        form = co.c1 * np.asarray(x) * np.asarray(dy) \
            - co.c2 * np.asarray(y) * np.asarray(dx)
        assert float(np.max(np.abs(form))) <= 1e-12


def test_starlike_form_helper_matches_definition():
    co = coefficients(OperatorParams(1, 4))
    v = starlike_form(Point(2.0, -3.0), Vec2(0.5, 0.25), co)
    assert v == pytest.approx(3 * 2.0 * 0.25 - 6 * (-3.0) * 0.5)


def test_flow_leaves_bc_invariant():
    # BC is a trajectory of the generator: flowed points stay on the curve
    dom = omega1(1, 4, -0.5)
    co = coefficients(dom.params)
    p0 = curve_point(dom, B.BC, -0.25)
    for t in (0.3, 1.0, 2.5):
        p = flow(p0, t, co)
        # curve relation x = -2^(1/3) sqrt(-y)
        assert abs(p.x + 2.0 ** (1.0 / 3.0) * math.sqrt(-p.y)) <= 1e-12
        assert contains(dom, p, tol=1e-9)
    assert flow(Point(0.0, 0.0), 5.0, co) == Point(0.0, 0.0)


def test_flow_generator_direction():
    co = coefficients(OperatorParams(1, 4))
    p = Point(0.7, -0.3)
    h = 1e-7
    fp, fm = flow(p, h, co), flow(p, -h, co)
    vx = (fp.x - fm.x) / (2 * h)
    vy = (fp.y - fm.y) / (2 * h)
    assert vx == pytest.approx(-co.c1 * p.x, rel=1e-7)
    assert vy == pytest.approx(-co.c2 * p.y, rel=1e-7)


def test_check_starshaped_fixtures():
    for dom in fixtures():
        rep = check_starshaped(dom)
        assert rep.is_starlike
        assert rep.min_form >= -1e-9
        assert rep.flow_contained


def test_check_starshaped_rejects_tiny_sample():
    with pytest.raises(ValueError):
        check_starshaped(omega1(1, 4, -0.5), n_samples=4)


def _dented_arc(dom):
    c, (a, b) = dom.arc.center, dom.arc.semi_axes

    def fn(theta):
        th = np.asarray(theta, float)
        rho = 1.0 - 0.75 * np.sin(th) ** 6
        return (c.x + a * np.cos(th) * rho, c.y + b * np.sin(th) * rho)

    return ParametricArc(fn, 0.0, math.pi)


def test_dented_sigma_flagged():
    base = omega1(1, 4, -0.5)
    bad = omega1(1, 4, -0.5, arc=_dented_arc(base))
    rep = check_starshaped(bad)
    assert not rep.is_starlike
    assert rep.min_form < -0.1
    assert bad.arc is not base.arc


@pytest.mark.parametrize("x0", [-1e-4, -1e-5])
def test_a_dent_is_flagged_at_every_scale(x0):
    # the form scales as lam**kappa under the dilation, so the gate is
    # relative to its largest sample: an absolute -1e-9 passed x0 = -1e-5,
    # whose least sample is -1.4e-10
    base = omega1(1, 4, x0)
    rep = check_starshaped(omega1(1, 4, x0, arc=_dented_arc(base)))
    assert not rep.is_starlike and rep.min_form < 0.0


def test_a_domain_whose_form_underflows_raises():
    with pytest.raises(DomainError, match="0 at every boundary sample"):
        check_starshaped(omega1(1, 4, -1e-300))


def test_folded_arc_rejected_at_construction():
    # this arc hits both corners, but its fan Jacobian (p - m) x p' from
    # the chord midpoint m ranges over about [-0.129, 0.305]: the cap map
    # folds over itself
    base = omega1(1, 4, -0.5)
    c, (a, b) = base.arc.center, base.arc.semi_axes

    def fn(theta):
        th = np.asarray(theta, float)
        return c.x + a * np.cos(th), c.y + b * np.sin(th) * np.cos(2 * th) ** 2

    with pytest.raises(DomainError, match="fan Jacobian"):
        omega1(1, 4, -0.5, arc=ParametricArc(fn, 0.0, math.pi))


def test_dented_arc_keeps_a_positive_fan_jacobian():
    # the dented arc of criterion 9 is not star-shaped for the dilation
    # flow, but its fan from the chord midpoint does not fold: (p - m) x p'
    # stays in [1/64, 1/4], so the cap chart weights stay positive
    dom = omega1(1, 4, -0.5, arc=_dented_arc(omega1(1, 4, -0.5)))
    cap = next(ch for ch in area_charts(dom) if ch.name == "cap")
    t = (np.arange(64) + 0.5) / 64.0
    U, V = np.meshgrid(t, t, indexing="ij")
    _, _, J = cap.fn(U, V)
    fan = J / (U * math.pi)
    assert float(np.min(fan)) >= 1.0 / 64.0 - 1e-12
    assert float(np.max(fan)) <= 0.25 + 1e-12


def test_containment_probes():
    d1 = omega1(1, 4, -0.5)
    assert contains(d1, Point(-0.5, -0.1))
    assert contains(d1, Point(-0.5, 0.3))       # inside the cap
    assert not contains(d1, Point(-0.5, 0.6))   # above the cap
    assert not contains(d1, Point(0.3, -0.1))   # wrong side of x = 0
    assert not contains(d1, Point(-0.9, -0.35))  # below AC
    d4 = omega4(1, 0, -0.5)
    assert contains(d4, Point(0.1, -0.5))
    assert not contains(d4, Point(-0.1, -0.5))  # sigma is the segment x = 0


def test_parity_rejected_at_construction():
    with pytest.raises(ParityViolation):
        omega1(1, 2, -0.5)
    with pytest.raises(ParityViolation):
        omega2(2, 2, 0.5)
    with pytest.raises(ParityViolation):
        omega3(1, 3, -0.5)
    with pytest.raises(ParityViolation):
        omega4(0, 0, -0.5)


def test_anchor_sign_enforced():
    with pytest.raises(DomainError):
        omega1(1, 4, 0.5)
    with pytest.raises(DomainError):
        omega2(1, 4, -0.5)
    with pytest.raises(DomainError):
        omega3(1, 4, 0.5)
    with pytest.raises(DomainError):
        omega1(1, 4, 0.0)


@pytest.mark.parametrize("anchor", [math.nan, math.inf, -math.inf])
def test_non_finite_anchor_is_refused_before_the_sign_checks(anchor):
    # a ValueError, not a DomainError: the suite files a DomainError as an
    # inadmissible variant, which would misname the fault
    for v in Variant:
        with pytest.raises(ValueError, match="anchor must be finite"):
            DomainSpec(v, OperatorParams(1, 4), anchor)


def test_omega4_arc_is_fixed_segment():
    # the omega4 factory exposes no arc parameter; DomainSpec rejects one too
    with pytest.raises(DomainError):
        DomainSpec(Variant.OMEGA4, OperatorParams(1, 0), -0.5,
                   EllipticArc(Point(0.0, -0.5), (0.25, 0.5)))


def test_elliptic_arc_endpoint_validation():
    # an arc that misses the corner points is rejected
    with pytest.raises(DomainError):
        omega1(1, 4, -0.5, arc=EllipticArc(Point(-0.4, 0.0), (0.5, 0.5)))


def test_domain_spec_hashable_and_frozen():
    d = omega1(1, 4, -0.5)
    assert d == omega1(1, 4, -0.5)
    assert hash(d) == hash(omega1(1, 4, -0.5))
    with pytest.raises(Exception):
        d.anchor = -0.25


def test_boundary_csv():
    dom = omega1(1, 4, -0.5)
    text = boundary_csv(dom, samples_per_piece=10)
    lines = text.splitlines()
    assert lines[0] == "piece,s,x,y"
    assert len(lines) == 31
    pieces = {ln.split(",")[0] for ln in lines[1:]}
    assert pieces == {"AC", "BC", "sigma"}
    for ln in lines[1:]:
        piece, s, x, y = ln.split(",")
        float(s), float(x), float(y)


def test_boundary_svg_deterministic():
    dom = omega1(1, 4, -0.5)
    svg = boundary_svg(dom, samples_per_piece=16)
    assert svg.startswith("<svg")
    assert svg.count("<path") == 3
    assert svg == boundary_svg(dom, samples_per_piece=16)


def test_char_ode_residual_squares_the_slope_term_whole():
    # graded AC sample of omega1(9, 16, -0.5) at 1 % of the chart range:
    # y**9 underflows to 0 while slope**2 overflows, so multiplying them
    # out term by term reads -1.0 at a point on the curve
    dom = omega1(9, 16, -0.5)
    chart = next(c for c in boundary_charts(dom) if c.curve is B.AC)
    x, y, dx, dy = (float(v) for v in
                    chart.fn(np.array(chart.lo + 0.01 * (chart.hi - chart.lo))))
    slope = dy / dx
    assert -1e-36 < y < 0 and abs(slope) > 1e160
    assert abs(char_ode_residual_at(dom.params, dom.variant, x, y, slope)) <= 1e-12
