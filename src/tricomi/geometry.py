"""Domain geometry for the operator -y^m1 uxx - x^m2 uyy.

Four bounded domain variants, each enclosed by two characteristic curves
(AC and BC, meeting at an apex C) plus an arc sigma on the far side of
the degeneracy line.  Anchors: omega1/omega2 use x0 with A = (2*x0, 0)
and B = (0, 0); omega3/omega4 use y0 with A = (0, 2*y0) and B = (0, 0).

Boundary orientation is counterclockwise (interior on the left) with
outward normal density eta ds = (dy, -dx).  The convention is validated
empirically by the quadrature module's divergence self-test.

Fractional powers of negative coordinates use the odd-root convention
x**(p/q) := sign(x)**p * |x|**(p/q), invoked only where the parity
hypotheses make q odd.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import CornerPoint, DomainError, OutOfRange
from .params import Coefficients, OperatorParams, coefficients, require_admissible

__all__ = [
    "Variant",
    "BoundaryCurveId",
    "Point",
    "Vec2",
    "EllipticArc",
    "ParametricArc",
    "DomainSpec",
    "StarlikeReport",
    "CurveChart",
    "AreaChart",
    "omega1",
    "omega2",
    "omega3",
    "omega4",
    "default_arc",
    "endpoints",
    "apex",
    "curve_point",
    "natural_range",
    "outward_normal",
    "flow",
    "starlike_form",
    "check_starshaped",
    "char_ode_residual",
    "char_ode_residual_at",
    "contains",
    "boundary_charts",
    "area_charts",
    "boundary_csv",
    "boundary_svg",
]


class Variant(Enum):
    OMEGA1 = "omega1"
    OMEGA2 = "omega2"
    OMEGA3 = "omega3"
    OMEGA4 = "omega4"


class BoundaryCurveId(Enum):
    AC = "AC"
    BC = "BC"
    SIGMA = "sigma"


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point components must be finite, got {self!r}")


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"vector components must be finite, got {self!r}")


@dataclass(frozen=True)
class EllipticArc:
    """Half of the ellipse centered on the chord AB, on the far side of
    the degeneracy line from the domain interior."""

    center: Point
    semi_axes: tuple[float, float]

    def __post_init__(self):
        a, b = self.semi_axes
        if not (a > 0 and b > 0):
            raise ValueError(f"semi-axes must be positive, got {self.semi_axes}")


@dataclass(frozen=True, eq=False)
class ParametricArc:
    """User-supplied arc t in [t_lo, t_hi] -> (x, y), traversed in the
    variant's positive sigma direction.  Its derivative is a central
    difference."""

    fn: Callable
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not self.t_hi > self.t_lo:
            raise ValueError("need t_hi > t_lo")

    def deriv(self, t):
        h = 1e-6 * (self.t_hi - self.t_lo)
        xp, yp = self.fn(t + h)
        xm, ym = self.fn(t - h)
        return (np.asarray(xp) - xm) / (2 * h), (np.asarray(yp) - ym) / (2 * h)


def _quiet(fn):
    # chart derivatives can hit 0**negative exactly at corner parameters;
    # callers never use those values (CornerPoint is raised first)
    def wrapped(*args):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return fn(*args)

    return wrapped


def _apex_closed_form(variant: Variant, params: OperatorParams, anchor: float) -> Point:
    co = coefficients(params)
    c1, c2 = co.c1, co.c2
    k = (params.m2 + 2) // 2
    if variant in (Variant.OMEGA1, Variant.OMEGA2):
        x0 = anchor
        xc = 0.5 ** (2.0 / c2) * (2.0 * x0)
        yc = -((0.5 * c1 / c2) * abs(2.0 * x0) ** k) ** (2.0 / c1)
        return Point(xc, yc)
    y0 = anchor
    bigk = (-2.0 * y0) ** (c1 / 2.0)
    xc = ((0.5 * c2 / c1) * bigk) ** (2.0 / c2)
    yc = 0.5 ** (2.0 / c1) * (2.0 * y0)
    return Point(xc, yc)


def default_arc(variant: Variant, anchor: float) -> EllipticArc | None:
    if variant is Variant.OMEGA4:
        return None
    if variant in (Variant.OMEGA1, Variant.OMEGA2):
        return EllipticArc(Point(anchor, 0.0), (abs(anchor), abs(anchor)))
    return EllipticArc(Point(0.0, anchor), (abs(anchor), abs(anchor)))


@dataclass(frozen=True)
class DomainSpec:
    variant: Variant
    params: OperatorParams
    anchor: float
    arc: EllipticArc | ParametricArc | None = None
    apex: Point = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.anchor):
            raise ValueError(f"anchor must be finite, got {self.anchor}")
        require_admissible(self.params, self.variant.value)
        v = self.variant
        if v is Variant.OMEGA1 and not self.anchor < 0:
            raise DomainError("omega1 needs x0 < 0")
        if v is Variant.OMEGA2 and not self.anchor > 0:
            raise DomainError("omega2 needs x0 > 0")
        if v in (Variant.OMEGA3, Variant.OMEGA4) and not self.anchor < 0:
            raise DomainError(f"{v.value} needs y0 < 0")
        if v is Variant.OMEGA4:
            if self.arc is not None:
                raise DomainError("omega4's sigma is the segment x = 0; no arc")
        elif self.arc is None:
            object.__setattr__(self, "arc", default_arc(v, self.anchor))
        object.__setattr__(self, "apex", _apex_closed_form(v, self.params, self.anchor))
        self._validate_arc()

    def _validate_arc(self):
        if self.arc is None:
            return
        a_pt, b_pt = endpoints(self)
        # sigma runs A' -> B' on omega2 and from B to A elsewhere
        start, end = (a_pt, b_pt) if self.variant is Variant.OMEGA2 else (b_pt, a_pt)
        sigma = _sigma(self)
        x, y, _, _ = sigma.fn(np.array([sigma.lo, sigma.hi]))
        kind = "elliptic" if isinstance(self.arc, EllipticArc) else "parametric"
        tol = 1e-14 * max(1.0, *self.arc.semi_axes) if kind == "elliptic" else 1e-9
        for got_x, got_y, want in zip(x, y, (start, end)):
            if abs(float(got_x) - want.x) > tol or abs(float(got_y) - want.y) > tol:
                raise DomainError(
                    f"{kind} arc endpoints ({x[0]}, {y[0]}), ({x[1]}, {y[1]}) "
                    f"must hit {start} and {end} (positive sigma traversal)")
        if kind == "parametric":
            *_, jac = _fan(self, np.linspace(sigma.lo, sigma.hi, 1025))
            if np.min(jac) < -1e-12 * np.max(np.abs(jac)):
                raise DomainError(
                    f"the cap fan Jacobian (p - m) x p' from the chord midpoint "
                    f"m ranges over [{np.min(jac):.3g}, {np.max(jac):.3g}]; the "
                    "arc folds or turns clockwise about m")

    # the chart interface the quadrature grids are built from
    def area_charts(self) -> list[AreaChart]:
        return area_charts(self)

    def boundary_charts(self) -> list[CurveChart]:
        return boundary_charts(self)


def omega1(m1: int, m2: int, x0: float, arc=None) -> DomainSpec:
    return DomainSpec(Variant.OMEGA1, OperatorParams(m1, m2), x0, arc)


def omega2(m1: int, m2: int, x0: float, arc=None) -> DomainSpec:
    return DomainSpec(Variant.OMEGA2, OperatorParams(m1, m2), x0, arc)


def omega3(m1: int, m2: int, y0: float, arc=None) -> DomainSpec:
    return DomainSpec(Variant.OMEGA3, OperatorParams(m1, m2), y0, arc)


def omega4(m1: int, m2: int, y0: float) -> DomainSpec:
    return DomainSpec(Variant.OMEGA4, OperatorParams(m1, m2), y0, None)


def endpoints(domain: DomainSpec) -> tuple[Point, Point]:
    """The parabolic boundary points (A, B)."""
    if domain.variant in (Variant.OMEGA1, Variant.OMEGA2):
        return Point(2.0 * domain.anchor, 0.0), Point(0.0, 0.0)
    return Point(0.0, 2.0 * domain.anchor), Point(0.0, 0.0)


def apex(domain: DomainSpec) -> Point:
    return domain.apex


def flow(p: Point, t: float, coeffs: Coefficients) -> Point:
    """Anisotropic dilation flow of D = -c1 x d/dx - c2 y d/dy."""
    return Point(p.x * math.exp(-coeffs.c1 * t), p.y * math.exp(-coeffs.c2 * t))


def starlike_form(p: Point, dp: Vec2, coeffs: Coefficients) -> float:
    """c1*x*dy - c2*y*dx for a positively oriented tangent differential dp."""
    return coeffs.c1 * p.x * dp.y - coeffs.c2 * p.y * dp.x


# ---------------------------------------------------------------------------
# the boundary pieces: one closed-form table per variant

@dataclass
class CurveChart:
    curve: BoundaryCurveId
    name: str
    lo: float
    hi: float
    fn: Callable  # vectorized tau -> (x, y, dx/dtau, dy/dtau)


@dataclass
class AreaChart:
    name: str
    # elementwise (U, V) in [0,1]^2 -> (X, Y, jacobian >= 0); called on an
    # open mesh (U a column, V a row), its outputs broadcast to the level
    fn: Callable


@dataclass(frozen=True)
class _Piece:
    """A boundary piece s -> (x, y, dx/ds, dy/ds) on [lo, hi]; orient is +1
    when increasing s runs along the positive loop and -1 against it."""

    fn: Callable
    lo: float
    hi: float
    orient: int

    def chart(self, curve: BoundaryCurveId) -> CurveChart:
        """The piece as a positively oriented chart on the same interval."""
        if self.orient > 0:
            return CurveChart(curve, curve.value, self.lo, self.hi, self.fn)

        def reversed_fn(tau):
            x, y, dx, dy = self.fn(self.lo + self.hi - np.asarray(tau, float))
            return x, y, -dx, -dy

        return CurveChart(curve, curve.value, self.lo, self.hi, reversed_fn)


class _Table(NamedTuple):
    pieces: dict      # AC, BC -> _Piece in the graded parameter w
    axis: int         # the coordinate that grades both curves: 0 = x, 1 = y
    axis_sign: int    # sign of d(that coordinate)/dw
    to_w: Callable    # inverse grading: that coordinate -> w


@lru_cache(maxsize=64)
def _characteristics(domain: DomainSpec) -> _Table:
    """AC and BC in closed form in the graded parameter w: y = -w^(2k) on
    omega1/omega2 and x = w^c1 on omega3/omega4, which turns the half
    powers at the parabolic endpoints into polynomials in w."""
    co = coefficients(domain.params)
    c1, c2 = co.c1, co.c2
    k = (domain.params.m2 + 2) // 2
    rho = c2 / c1                            # (m2+2)/(m1+2)

    if domain.variant in (Variant.OMEGA1, Variant.OMEGA2):
        side = -1.0 if domain.variant is Variant.OMEGA1 else 1.0   # sign of x
        two_x0_k = (2.0 * domain.anchor) ** k
        bc_coef = rho ** (1.0 / k)

        # x^k = (2 x0)^k - side * rho * (-y)^(c1/2)
        def ac(w):
            w = np.asarray(w, float)
            g = two_x0_k - side * rho * w ** (k * c1)
            return (np.sign(g) * np.abs(g) ** (1.0 / k), -(w ** (2 * k)),   # odd root
                    -side * c2 * np.abs(g) ** (1.0 / k - 1.0) * w ** (k * c1 - 1),
                    -2.0 * k * w ** (2 * k - 1))

        # x = side * rho^(1/k) * (-y)^(c1/(2k)), a trajectory of the flow
        def bc(w):
            w = np.asarray(w, float)
            return (side * bc_coef * w ** c1, -(w ** (2 * k)),
                    side * c1 * bc_coef * w ** (c1 - 1),
                    -2.0 * k * w ** (2 * k - 1))

        w_max = (-domain.apex.y) ** (1.0 / (2 * k))
        # omega1 runs A -> C -> B, omega2 runs B' -> C' -> A'
        pieces = {BoundaryCurveId.AC: _Piece(_quiet(ac), 0.0, w_max, -int(side)),
                  BoundaryCurveId.BC: _Piece(_quiet(bc), 0.0, w_max, int(side))}
        return _Table(pieces, 1, -1, lambda y: (-y) ** (1.0 / (2 * k)))

    bigk = (-2.0 * domain.anchor) ** (c1 / 2.0)
    bc_ycoef = (1.0 / rho) ** (2.0 / c1)

    # (-y)^(c1/2) = (-2 y0)^(c1/2) - x^k / rho
    def ac(w):
        w = np.asarray(w, float)
        base = bigk - (1.0 / rho) * w ** (k * c1)
        return (w ** c1, -(base ** (2.0 / c1)), c1 * w ** (c1 - 1),
                c1 * base ** (2.0 / c1 - 1.0) * w ** (k * c1 - 1))

    # y = -rho^(-2/c1) * x^(2k/c1), a trajectory of the flow
    def bc(w):
        w = np.asarray(w, float)
        return (w ** c1, -bc_ycoef * w ** (2 * k), c1 * w ** (c1 - 1),
                -2.0 * k * bc_ycoef * w ** (2 * k - 1))

    w_max = domain.apex.x ** (1.0 / c1)
    # A'' -> C'' along AC'', then C'' -> B'' along BC''
    pieces = {BoundaryCurveId.AC: _Piece(_quiet(ac), 0.0, w_max, 1),
              BoundaryCurveId.BC: _Piece(_quiet(bc), 0.0, w_max, -1)}
    return _Table(pieces, 0, 1, lambda x: x ** (1.0 / c1))


def _sigma(domain: DomainSpec) -> _Piece:
    """sigma in its own parameter, traversed positively, on its natural
    range: the omega4 segment, a parametric arc, the omega3 arc or the
    upper elliptic arc of omega1/omega2."""
    arc = domain.arc
    if arc is None:
        # omega4: the segment x = 0 from B'' down to A''
        def fn(s):
            s = np.asarray(s, float)
            return np.zeros_like(s), -s, np.zeros_like(s), -np.ones_like(s)
        return _Piece(fn, 0.0, -2.0 * domain.anchor, 1)
    if isinstance(arc, ParametricArc):
        def fn(s):
            s = np.asarray(s, float)
            return tuple(np.asarray(v, float) for v in (*arc.fn(s), *arc.deriv(s)))
        return _Piece(fn, arc.t_lo, arc.t_hi, 1)
    cx, cy = arc.center.x, arc.center.y
    a, b = arc.semi_axes

    def fn(s):
        s = np.asarray(s, float)
        return cx + a * np.cos(s), cy + b * np.sin(s), -a * np.sin(s), b * np.cos(s)
    if domain.variant is Variant.OMEGA3:
        return _Piece(fn, math.pi / 2.0, 3.0 * math.pi / 2.0, 1)
    return _Piece(fn, 0.0, math.pi, 1)


def _natural(domain: DomainSpec, curve: BoundaryCurveId) -> _Piece:
    """A piece in its natural parameter: y on the omega1/omega2
    characteristics, x on the omega3/omega4 ones, the arc parameter on
    sigma.  Characteristics go through the inverse grading."""
    if curve is BoundaryCurveId.SIGMA:
        return _sigma(domain)
    table = _characteristics(domain)
    graded, i = table.pieces[curve], table.axis

    def fn(s):
        s = np.asarray(s, float)
        p = list(graded.fn(table.to_w(s)))
        p[i] = s                 # the natural coordinate, exactly
        d = p[2 + i]             # chain rule: d/ds = (d/dw) / (ds/dw)
        return p[0], p[1], p[2] / d, p[3] / d

    lo, hi = natural_range(domain, curve)
    return _Piece(_quiet(fn), lo, hi, graded.orient * table.axis_sign)


def natural_range(domain: DomainSpec, curve: BoundaryCurveId) -> tuple[float, float]:
    """Natural parameter interval: y in [y_c, 0] (omega1/2 characteristics),
    x in [0, x_c] (omega3/4), the arc parameter for sigma."""
    if curve is BoundaryCurveId.SIGMA:
        sigma = _sigma(domain)
        return sigma.lo, sigma.hi
    if domain.variant in (Variant.OMEGA1, Variant.OMEGA2):
        return domain.apex.y, 0.0
    return 0.0, domain.apex.x


def _in_range(domain: DomainSpec, curve: BoundaryCurveId, s: float,
              slack: float = 1e-12, corner: str = "") -> float:
    # s clamped to the natural range; when corner names a quantity, s must
    # also stay off the corner parameters where that quantity is undefined
    lo, hi = natural_range(domain, curve)
    scale = max(1.0, hi - lo)
    if s < lo - slack * scale or s > hi + slack * scale:
        raise OutOfRange(f"parameter {s} outside [{lo}, {hi}] for {curve.value}")
    if corner and (s - lo <= 1e-13 * scale or hi - s <= 1e-13 * scale):
        raise CornerPoint(f"{corner} undefined at corner parameter {s} of {curve.value}")
    return min(max(s, lo), hi)


def curve_point(domain: DomainSpec, curve: BoundaryCurveId, s: float) -> Point:
    x, y, _, _ = _natural(domain, curve).fn(_in_range(domain, curve, s))
    return Point(float(x), float(y))


def outward_normal(domain: DomainSpec, curve: BoundaryCurveId, s: float) -> Vec2:
    s = _in_range(domain, curve, s, corner="normal")
    piece = _natural(domain, curve)
    _, _, dx, dy = piece.fn(s)
    tx, ty = piece.orient * float(dx), piece.orient * float(dy)
    nx, ny = ty, -tx
    nrm = math.hypot(nx, ny)
    if nrm == 0.0 or not math.isfinite(nrm):
        raise CornerPoint(f"degenerate tangent at parameter {s} of {curve.value}")
    return Vec2(nx / nrm, ny / nrm)


def char_ode_residual_at(params: OperatorParams, variant: Variant,
                         x: float, y: float, slope: float) -> float:
    """Characteristic ODE residual at a point.  slope is dy/dx for
    omega1/omega2 (checks -y^m1 (y')^2 = x^m2) and dx/dy for omega3/omega4
    (checks -y^m1 = x^m2 (x')^2)."""
    # the slope term is squared as a whole: near the parabolic endpoints
    # the power underflows while the slope overflows
    m1, m2 = params.m1, params.m2
    if variant in (Variant.OMEGA1, Variant.OMEGA2):
        t = abs(y) ** (m1 / 2) * slope
        return -math.copysign(1.0, y) ** m1 * t * t - x ** m2
    t = abs(x) ** (m2 / 2) * slope
    return -(y ** m1) - math.copysign(1.0, x) ** m2 * t * t


def char_ode_residual(domain: DomainSpec, curve: BoundaryCurveId, s: float) -> float:
    if curve is BoundaryCurveId.SIGMA:
        raise DomainError("the ODE residual is defined on characteristics only")
    s = _in_range(domain, curve, s, slack=1e-13, corner="ODE residual")
    x, y, dx, dy = (float(v) for v in _natural(domain, curve).fn(s))
    # dy/dx where the natural parameter is y, dx/dy where it is x
    slope = dy / dx if domain.variant in (Variant.OMEGA1, Variant.OMEGA2) else dx / dy
    return char_ode_residual_at(domain.params, domain.variant, x, y, slope)


# ---------------------------------------------------------------------------
# charts for quadrature (positively oriented, graded)

def boundary_charts(domain: DomainSpec) -> list[CurveChart]:
    """Positively oriented charts for the three boundary pieces.  The
    characteristics run in the graded parameter w, which substitutes away
    the half-integer powers so smooth integrands stay smooth in the chart
    parameter; AC'' of omega3/omega4 is smooth in x and keeps it."""
    pieces = {**_characteristics(domain).pieces, BoundaryCurveId.SIGMA: _sigma(domain)}
    if domain.variant in (Variant.OMEGA3, Variant.OMEGA4):
        pieces[BoundaryCurveId.AC] = _natural(domain, BoundaryCurveId.AC)
    return [pieces[c].chart(c) for c in BoundaryCurveId]


def area_charts(domain: DomainSpec) -> list[AreaChart]:
    """Maps from the unit square covering the domain: the characteristic
    triangle (AC to BC at equal graded parameter) and the cap behind the
    degeneracy line (polar or fan map), integrated separately."""
    pieces = _characteristics(domain).pieces
    ac, bc = pieces[BoundaryCurveId.AC].fn, pieces[BoundaryCurveId.BC].fn
    w_max = pieces[BoundaryCurveId.AC].hi

    def tri(U, V):
        U = np.asarray(U, float)
        w = w_max * np.asarray(V, float)
        ax, ay, adx, ady = ac(w)
        bx, by, _, _ = bc(w)
        dx, dy = bx - ax, by - ay
        # AC and BC share the graded coordinate, so BC' - AC' is parallel
        # to (dx, dy) and drops out of the Jacobian
        return ax + U * dx, ay + U * dy, np.abs(dx * ady - dy * adx) * w_max

    charts = [AreaChart("triangle", tri)]
    arc = domain.arc
    if isinstance(arc, EllipticArc):
        cx, cy = arc.center.x, arc.center.y
        a, b = arc.semi_axes
        phase = natural_range(domain, BoundaryCurveId.SIGMA)[0]

        def cap(U, V):
            r = np.asarray(U, float)
            th = phase + math.pi * np.asarray(V, float)
            return cx + a * r * np.cos(th), cy + b * r * np.sin(th), a * b * r * math.pi

        charts.append(AreaChart("cap", cap))
    elif arc is not None:
        charts.append(_fan_cap_chart(domain))
    return charts


def _fan(domain: DomainSpec, t):
    """Chord midpoint m, arc points p(t) and the fan Jacobian (p - m) x p'."""
    a_pt, b_pt = endpoints(domain)
    mx, my = 0.5 * (a_pt.x + b_pt.x), 0.5 * (a_pt.y + b_pt.y)
    px, py = (np.asarray(v, float) for v in domain.arc.fn(t))
    dpx, dpy = domain.arc.deriv(t)
    return mx, my, px, py, (px - mx) * dpy - (py - my) * dpx


def _fan_cap_chart(domain: DomainSpec) -> AreaChart:
    # generic cap behind the chord AB for a user parametric arc: fan from
    # the chord midpoint; DomainSpec rejects arcs whose fan Jacobian goes
    # negative, so no fold is hidden here
    lo, hi = domain.arc.t_lo, domain.arc.t_hi

    def cap(U, V):
        U = np.asarray(U, float)
        mx, my, px, py, jac = _fan(domain, lo + (hi - lo) * np.asarray(V, float))
        return mx + U * (px - mx), my + U * (py - my), U * jac * (hi - lo)

    return AreaChart("cap", cap)


# ---------------------------------------------------------------------------
# membership, star-shapedness

def contains(domain: DomainSpec, p: Point, tol: float = 1e-9) -> bool:
    """Closed-domain membership with absolute slack tol."""
    table = _characteristics(domain)
    i = table.axis
    lo, hi = natural_range(domain, BoundaryCurveId.AC)
    s, t = (p.x, p.y)[i], (p.x, p.y)[1 - i]
    if lo - tol <= s <= hi + tol:
        # the triangle's slice at graded coordinate s runs from AC to BC
        w = table.to_w(min(max(s, lo), hi))
        ends = [float(piece.fn(w)[1 - i]) for piece in table.pieces.values()]
        if min(ends) - tol <= t <= max(ends) + tol:
            return True
    return _cap_contains(domain, p, tol)


def _cap_contains(domain: DomainSpec, p: Point, tol: float) -> bool:
    arc = domain.arc
    side_ok = p.y >= -tol if domain.variant in (Variant.OMEGA1, Variant.OMEGA2) \
        else p.x <= tol
    if arc is None or not side_ok:
        return False
    if isinstance(arc, EllipticArc):
        a, b = arc.semi_axes
        u = (p.x - arc.center.x) / a
        w = (p.y - arc.center.y) / b
        return u * u + w * w <= 1.0 + tol / min(a, b)
    # parametric arc: ray-cast against the sampled cap polygon (arc + chord)
    n = 256
    t = np.linspace(arc.t_lo, arc.t_hi, n)
    px, py = arc.fn(t)
    xs = np.asarray(px, float)
    ys = np.asarray(py, float)
    xs = np.append(xs, xs[0])
    ys = np.append(ys, ys[0])
    inside = False
    x, y = p.x, p.y
    for i in range(len(xs) - 1):
        x1, y1, x2, y2 = xs[i], ys[i], xs[i + 1], ys[i + 1]
        if (y1 > y) != (y2 > y):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xint:
                inside = not inside
    if inside:
        return True
    # accept points within tol of the polygon edges
    ex, ey = np.diff(xs), np.diff(ys)
    wx, wy = x - xs[:-1], y - ys[:-1]
    L2 = ex * ex + ey * ey
    tproj = np.clip((wx * ex + wy * ey) / np.where(L2 == 0, 1.0, L2), 0.0, 1.0)
    d2 = (wx - tproj * ex) ** 2 + (wy - tproj * ey) ** 2
    return bool(np.min(d2) <= tol * tol)


@dataclass(frozen=True)
class StarlikeReport:
    min_form: float
    is_starlike: bool
    worst_point: Point
    flow_contained: bool = True


def check_starshaped(domain: DomainSpec, n_samples: int = 256) -> StarlikeReport:
    """Sample c1*x*dy - c2*y*dx along the positively oriented boundary and
    flow boundary points forward, checking containment.  The form scales
    with the domain under the dilation, so its least sample is measured
    against its largest |sample|; a form that is 0 at every sample (a
    domain too small for float64) raises DomainError."""
    if n_samples < 8:
        raise ValueError("need n_samples >= 8")
    co = coefficients(domain.params)
    worst, scale = math.inf, 0.0
    worst_pt = domain.apex
    charts = boundary_charts(domain)
    for chart in charts:
        tau = chart.lo + (chart.hi - chart.lo) * (np.arange(n_samples) + 0.5) / n_samples
        x, y, dx, dy = chart.fn(tau)
        form = co.c1 * np.asarray(x) * np.asarray(dy) - co.c2 * np.asarray(y) * np.asarray(dx)
        scale = max(scale, float(np.max(np.abs(form))))
        i = int(np.argmin(form))
        if form[i] < worst:
            worst = float(form[i])
            worst_pt = Point(float(np.asarray(x).ravel()[i]), float(np.asarray(y).ravel()[i]))
    if scale == 0.0:
        raise DomainError("the star-shape form is 0 at every boundary sample: "
                          "the domain is too small to test")
    m = max(8, n_samples // 8)

    def flowed_points():
        for chart in charts:
            x, y, _, _ = chart.fn(chart.lo + (chart.hi - chart.lo) * (np.arange(m) + 0.5) / m)
            for xi, yi in zip(np.asarray(x).ravel(), np.asarray(y).ravel()):
                for t in (0.3, 0.9, 1.8, 3.0):
                    yield flow(Point(float(xi), float(yi)), t, co)

    contained = all(contains(domain, q, tol=1e-7) for q in flowed_points())
    ok = worst >= -1e-9 * scale and contained
    return StarlikeReport(min_form=worst, is_starlike=ok,
                          worst_point=worst_pt, flow_contained=contained)


# ---------------------------------------------------------------------------
# export

def _boundary_samples(domain: DomainSpec, n: int):
    # (piece name, s, x, y) per boundary piece, in natural parameters
    for curve in BoundaryCurveId:
        piece = _natural(domain, curve)
        s = np.linspace(piece.lo, piece.hi, n)
        x, y, _, _ = piece.fn(s)
        yield (curve.value, s, np.broadcast_to(np.asarray(x, float), s.shape),
               np.broadcast_to(np.asarray(y, float), s.shape))


def boundary_csv(domain: DomainSpec, samples_per_piece: int = 200) -> str:
    """CSV boundary sample table with header piece,s,x,y (natural parameters)."""
    lines = ["piece,s,x,y"]
    for name, s, x, y in _boundary_samples(domain, samples_per_piece):
        for si, xi, yi in zip(s, x, y):
            lines.append(f"{name},{si:.17g},{xi:.17g},{yi:.17g}")
    return "\n".join(lines) + "\n"


def boundary_svg(domain: DomainSpec, samples_per_piece: int = 200) -> str:
    """SVG document with one path per boundary piece, y flipped for display."""
    paths = []
    all_x, all_y = [], []
    colors = {"AC": "#b03030", "BC": "#3060b0", "sigma": "#308040"}
    for name, _, x, y in _boundary_samples(domain, samples_per_piece):
        y = -y
        all_x.append(x)
        all_y.append(y)
        pts = " L ".join(f"{xi:.12g} {yi:.12g}" for xi, yi in zip(x, y))
        paths.append((name, pts))
    ax = np.concatenate(all_x)
    ay = np.concatenate(all_y)
    x0, x1 = float(ax.min()), float(ax.max())
    y0, y1 = float(ay.min()), float(ay.max())
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    vb = f"{x0 - pad:.12g} {y0 - pad:.12g} {x1 - x0 + 2 * pad:.12g} {y1 - y0 + 2 * pad:.12g}"
    sw = 0.004 * max(x1 - x0, y1 - y0, 1e-9)
    body = "\n".join(
        f'  <path id="{name}" d="M {pts}" fill="none" stroke="{colors[name]}" '
        f'stroke-width="{sw:.12g}"/>' for name, pts in paths)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}" '
            f'width="480" height="480">\n{body}\n</svg>\n')
