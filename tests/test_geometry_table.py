"""Property tests of the per-variant characteristic table over admissible
(m1, m2, anchor), well beyond the four fixtures: the graded charts, the
natural parameters, the area triangle and membership must all describe the
same pair of characteristics."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tricomi.geometry import (BoundaryCurveId, Point, Variant,  # noqa: E402
                              area_charts, boundary_charts, contains,
                              curve_point, omega1, omega2, omega3, omega4)

FACTORIES = {Variant.OMEGA1: omega1, Variant.OMEGA2: omega2,
             Variant.OMEGA3: omega3, Variant.OMEGA4: omega4}
CHARACTERISTICS = (BoundaryCurveId.AC, BoundaryCurveId.BC)
TAU = (np.arange(64) + 0.5) / 64.0
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def domains(draw):
    """An admissible domain: m1 odd, m2 even (divisible by 4 on omega1),
    anchor magnitudes that keep the domain inside the unit box, so the
    absolute 1e-12 ODE bound means the same as on the fixtures."""
    variant = draw(st.sampled_from(list(Variant)))
    m1 = draw(st.sampled_from([1, 3, 5, 7, 9]))
    step = 4 if variant is Variant.OMEGA1 else 2
    m2 = step * draw(st.integers(0, 16 // step))
    mag = draw(st.floats(0.05, 0.5))
    return FACTORIES[variant](m1, m2, (1.0 if variant is Variant.OMEGA2 else -1.0) * mag)


def natural_axis(dom):
    # y parametrizes the omega1/omega2 characteristics, x the others
    return 1 if dom.variant in (Variant.OMEGA1, Variant.OMEGA2) else 0


def graded_samples(dom, curve):
    chart = next(c for c in boundary_charts(dom) if c.curve is curve)
    return chart.fn(chart.lo + (chart.hi - chart.lo) * TAU)


def ode_residual(dom, x, y, dx, dy):
    # the characteristic ODE, -y^m1 (dy/dx)^2 = x^m2 on omega1/omega2 and
    # -y^m1 = x^m2 (dx/dy)^2 on omega3/omega4, with the slope term written
    # as a square: graded samples crowd the parabolic endpoints, where
    # y^m1 underflows while the slope overflows (m1 is odd, so
    # -y^m1 = (-y)^m1)
    m1, m2 = dom.params.m1, dom.params.m2
    if natural_axis(dom) == 1:
        return ((-y) ** (m1 / 2) * (dy / dx)) ** 2 - x ** m2
    return (-y) ** m1 - (x ** (m2 / 2) * (dx / dy)) ** 2


def assert_on_curve(dom, curve, xs, ys):
    axis = natural_axis(dom)
    for x, y in zip(xs, ys):
        p = curve_point(dom, curve, float((x, y)[axis]))
        assert abs(p.x - x) <= 1e-12 and abs(p.y - y) <= 1e-12, (curve, x, y, p)


@SETTINGS
@given(domains())
def test_graded_charts_solve_the_characteristic_ode(dom):
    for curve in CHARACTERISTICS:
        res = ode_residual(dom, *graded_samples(dom, curve))
        assert float(np.max(np.abs(res))) <= 1e-12, curve


@SETTINGS
@given(domains())
def test_natural_points_match_graded_points(dom):
    for curve in CHARACTERISTICS:
        x, y, _, _ = graded_samples(dom, curve)
        assert_on_curve(dom, curve, x, y)


@SETTINGS
@given(domains())
def test_triangle_edges_lie_on_the_characteristics(dom):
    tri = next(ch for ch in area_charts(dom) if ch.name == "triangle")
    for u, curve in ((0.0, BoundaryCurveId.AC), (1.0, BoundaryCurveId.BC)):
        x, y, _ = tri.fn(np.full_like(TAU, u), TAU)
        assert_on_curve(dom, curve, x, y)


@SETTINGS
@given(domains(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_contains_accepts_interior_chart_points(dom, u, v):
    for chart in area_charts(dom):
        x, y, jac = chart.fn(np.array([u]), np.array([v]))
        assert float(jac[0]) > 0.0, chart.name
        assert contains(dom, Point(float(x[0]), float(y[0])), tol=0.0), chart.name
