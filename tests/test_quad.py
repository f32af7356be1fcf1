"""Quadrature layer: composite Gauss exactness, graded endpoint charts,
dual-route area checks and the divergence self-test."""
import math

import numpy as np
import pytest

from tricomi.errors import NonConvergence
from tricomi.geometry import (AreaChart, BoundaryCurveId, CurveChart, omega1,
                              omega2, omega3, omega4)
from tricomi.quad import (QuadConfig, Residual, _level_sum, check_two_level,
                          divergence_selftest, domain_grids,
                          integrate_boundary, integrate_curve,
                          integrate_domain, integrate_interval,
                          integrate_neg_interval)


class UnitSquare:
    """[0,1]^2 with its counterclockwise boundary: a region that is not a
    DomainSpec but offers the same two chart methods."""

    def area_charts(self):
        def fn(U, V):
            U = np.asarray(U, float)
            V = np.asarray(V, float)
            return U.copy(), V.copy(), np.ones_like(U)

        return [AreaChart("square", fn)]

    def boundary_charts(self):
        def edge(p0, p1):
            (x0, y0), (x1, y1) = p0, p1

            def fn(t):
                t = np.asarray(t, float)
                return (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t,
                        np.full_like(t, x1 - x0), np.full_like(t, y1 - y0))

            return fn

        corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        names = ["bottom", "right", "top", "left"]
        return [CurveChart(None, names[i], 0.0, 1.0,
                           edge(corners[i], corners[(i + 1) % 4]))
                for i in range(4)]


def test_quad_config_validation():
    cfg = QuadConfig()
    assert cfg.gauss_order == 16 and cfg.panels_per_axis == 32
    assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-9
    assert cfg.levels == (32, 16)
    assert QuadConfig(panels_per_axis=2).levels == (2, 1)
    with pytest.raises(ValueError):
        QuadConfig(gauss_order=0)
    # at 1 panel both levels would be one grid, a check that tests nothing
    for panels in (0, 1):
        with pytest.raises(ValueError, match=">= 2"):
            QuadConfig(panels_per_axis=panels)
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=-1.0)
    # an infinite or NaN tolerance would let every check pass
    for bad in (math.inf, math.nan):
        for tol in ("abs_tol", "rel_tol"):
            with pytest.raises(ValueError, match="finite and positive"):
                QuadConfig(**{tol: bad})


def test_residual_errors():
    r = Residual(2.0, 1.0)
    assert r.abs_err == 1.0
    assert r.rel_err == pytest.approx(0.25)


def test_check_two_level():
    cfg = QuadConfig()
    assert check_two_level(1.0, 1.0 + 1e-12, cfg) == 1.0
    with pytest.raises(NonConvergence) as ei:
        check_two_level(1.0, 1.1, cfg)
    assert "did not settle" in str(ei.value)


def test_non_convergence_carries_structured_fields():
    cfg = QuadConfig(panels_per_axis=8)
    with pytest.raises(NonConvergence) as ei:
        check_two_level(1.0, 1.1, cfg, "box integral")
    e = ei.value
    assert (e.what, e.fine, e.coarse, e.panels) == ("box integral", 1.0, 1.1, (8, 4))
    assert str(e) == "box integral did not settle: 1.0 vs 1.1 (panels 8 vs 4)"


def test_check_two_level_rejects_non_finite_levels():
    # NaN fails every tolerance comparison and inf - inf is NaN, so both
    # would slip through a gap test alone
    cfg = QuadConfig()
    nan, inf = float("nan"), float("inf")
    for fine, coarse in ((nan, nan), (inf, inf), (-inf, -inf), (1.0, nan),
                         (inf, 1.0)):
        with pytest.raises(NonConvergence, match="is not finite"):
            check_two_level(fine, coarse, cfg)


def test_level_sum_equals_whole_array_sums_bit_for_bit():
    rng = np.random.default_rng(7)
    f, p, q, w, wx, wy = rng.uniform(-1.0, 1.0, (6, 3001))
    # a density, a constant density and (P, Q) 1-forms, one with a constant
    # Q, each against its sums written out whole-array with numpy
    assert _level_sum([f], [w]) == float(np.sum(np.asarray(f, float) * w))
    assert _level_sum([2.5], [w]) == float(np.sum(np.broadcast_to(2.5, w.shape) * w))
    assert _level_sum((p, q), (wx, wy)) == float(np.sum(p * wx) + np.sum(q * wy))
    assert _level_sum((p, -0.75), (wx, wy)) == \
        float(np.sum(p * wx) + np.sum(np.broadcast_to(-0.75, wy.shape) * wy))
    # an all -0.0 level keeps the sign of zero those sums gave: the parts
    # are added to the first part's sum, never to an extra +0.0
    zeros, ones = np.full(4, -0.0), np.ones(4)
    z = _level_sum((zeros, -0.0), (ones, ones))
    ref = float(np.sum(zeros * ones) + np.sum(np.broadcast_to(-0.0, 4) * ones))
    assert z == ref and math.copysign(1.0, z) == math.copysign(1.0, ref)
    # a 1-form summed on an area level, or a density on a boundary level,
    # would drop a part; one part per weight is required
    for parts, weights in (((p, q), (w,)), ((f,), (wx, wy))):
        with pytest.raises(ValueError):
            _level_sum(parts, weights)


def test_interval_gauss_exactness():
    # order-2 Gauss integrates cubics exactly
    cfg = QuadConfig(gauss_order=2, panels_per_axis=2)
    got = integrate_interval(lambda t: t ** 3, 0.0, 1.0, cfg)
    assert got == pytest.approx(0.25, abs=1e-15)
    got = integrate_interval(lambda t: 3 * t ** 2 - t, -1.0, 2.0, cfg)
    assert got == pytest.approx(9.0 - 1.5, abs=1e-13)


def test_neg_interval_graded_handles_half_powers():
    # int_{-1}^0 (-t)^(-1/2) dt = 2; the graded chart makes it polynomial
    cfg = QuadConfig()
    got = integrate_neg_interval(lambda t: (-t) ** -0.5, -1.0, cfg)
    assert got == pytest.approx(2.0, abs=1e-13)
    with pytest.raises(ValueError):
        integrate_neg_interval(lambda t: t, 1.0, cfg)
    # uniform composite Gauss on [-1, 0] cannot settle on the singular integrand
    with pytest.raises(NonConvergence):
        integrate_interval(lambda t: (-t) ** -0.5, -1.0, 0.0, cfg)


def test_unit_square():
    sq = UnitSquare()
    cfg = QuadConfig(gauss_order=4, panels_per_axis=4)
    assert integrate_domain(lambda x, y: np.ones_like(x), sq, cfg) == \
        pytest.approx(1.0, abs=1e-13)
    # flux form of the position field over the boundary: area * div = 2
    val = integrate_boundary(lambda x, y: (-y, x), sq, cfg)
    assert val == pytest.approx(2.0, abs=1e-13)


def fixtures():
    return [omega1(1, 4, -0.5), omega2(1, 4, 0.5),
            omega3(1, 4, -0.5), omega4(1, 0, -0.5)]


def test_area_dual_route():
    # interior measure two ways: tensor grids vs (1/2) loop of x dy - y dx
    cfg = QuadConfig()
    for dom in fixtures():
        direct = integrate_domain(lambda x, y: np.ones_like(x), dom, cfg)
        loop = 0.5 * integrate_boundary(lambda x, y: (-y, x), dom, cfg)
        assert direct == pytest.approx(loop, abs=1e-12)
        assert direct > 0.0


def test_omega1_area_against_independent_route():
    # third route, outside the quad module: 1-D slice integral for the
    # triangle (trapezoid rule, fine grid) plus the half-disk cap area
    dom = omega1(1, 4, -0.5)
    y_c = dom.apex.y
    y = np.linspace(y_c, 0.0, 1_000_001)
    x_bc = -(2.0 ** (1.0 / 3.0)) * np.sqrt(-y)
    g = -1.0 + 2.0 * (-y) ** 1.5
    x_ac = -np.cbrt(-g)   # odd root of (2x0)^3 + 2(-y)^(3/2) with 2x0 = -1
    tri = float(np.trapezoid(x_bc - x_ac, y))
    cap = 0.5 * math.pi * 0.5 ** 2
    expected = tri + cap
    got = integrate_domain(lambda x, y: np.ones_like(x), dom, QuadConfig())
    assert got == pytest.approx(expected, abs=1e-8)


def test_starlike_form_loop_vanishes_on_bc():
    dom = omega1(1, 4, -0.5)
    co_c1, co_c2 = 3.0, 6.0
    val = integrate_curve(lambda x, y: (-co_c2 * y, co_c1 * x), dom,
                          BoundaryCurveId.BC, QuadConfig())
    assert abs(val) <= 1e-14


def test_closed_loop_of_exact_differential():
    # the loop integral of d(x y) vanishes on every fixture boundary
    cfg = QuadConfig()
    for dom in fixtures():
        val = integrate_boundary(lambda x, y: (y, x), dom, cfg)
        assert abs(val) <= 1e-12


def test_bc_fractional_integrand_graded_vs_not():
    # int_BC (-y)^(1/2) dy has the closed value (2/3)(-y_c)^(3/2); the graded
    # chart is exact while uniform panels in y stall above 1e-10
    dom = omega1(1, 4, -0.5)
    y_c = dom.apex.y
    expected = (2.0 / 3.0) * (-y_c) ** 1.5

    def form(x, y):
        return (np.zeros_like(x), (-y) ** 0.5)

    graded = integrate_curve(form, dom, BoundaryCurveId.BC, QuadConfig())
    assert graded == pytest.approx(expected, abs=1e-12)
    loose = QuadConfig(abs_tol=1.0, rel_tol=1.0)
    ungraded = integrate_interval(lambda t: (-t) ** 0.5, y_c, 0.0, loose)
    assert abs(ungraded - expected) > 1e-10


def test_refinement_improves_before_floor():
    # panel doubling shrinks the error of a non-polynomial area integrand
    dom = omega1(1, 4, -0.5)

    def g(x, y):
        return np.exp(x + 0.5 * y)

    loose = dict(abs_tol=1.0, rel_tol=1.0)
    vals = {}
    for panels in (2, 4, 8):
        cfg = QuadConfig(gauss_order=2, panels_per_axis=panels, **loose)
        vals[panels] = integrate_domain(g, dom, cfg)
    ref = integrate_domain(g, dom, QuadConfig())
    e2, e4, e8 = (abs(vals[p] - ref) for p in (2, 4, 8))
    assert e4 < e2 and e8 < e4
    assert e8 < e2 / 10.0


def test_divergence_selftest_fixtures():
    cfg = QuadConfig()
    for dom in fixtures() + [UnitSquare()]:
        r = divergence_selftest(dom, cfg)
        assert r.rel_err <= 1e-12


def test_grids_are_cached():
    dom = omega1(1, 4, -0.5)
    cfg = QuadConfig()
    assert domain_grids(dom, cfg) is domain_grids(dom, cfg)


def test_nonconvergence_on_rough_integrand():
    # a kink inside the domain defeats the two-level check at default tol
    dom = omega1(1, 4, -0.5)

    def g(x, y):
        return np.abs(x + 0.5) ** 1.1

    with pytest.raises(NonConvergence):
        integrate_domain(g, dom, QuadConfig(gauss_order=2, panels_per_axis=2,
                                            abs_tol=1e-14, rel_tol=1e-13))
