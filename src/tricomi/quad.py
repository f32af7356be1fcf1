"""Deterministic composite Gauss-Legendre quadrature over the domain
charts, with a two-level refinement check.

Every integral is evaluated on the configured panel count and on half as
many panels; disagreement beyond the configured tolerances raises
NonConvergence instead of returning a silently wrong number.

Boundary integrals use the convention form(x, y) -> (P, Q) meaning the
differential P dx + Q dy along the positively oriented boundary, so the
outward flux of a vector field (Fx, Fy) is the form (-Fy, Fx).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonConvergence
from .geometry import BoundaryCurveId

__all__ = [
    "QuadConfig",
    "Residual",
    "GridLevel",
    "CurveGridLevel",
    "integrate_interval",
    "integrate_neg_interval",
    "integrate_domain",
    "integrate_curve",
    "integrate_boundary",
    "domain_grids",
    "box_grids",
    "curve_grids",
    "check_two_level",
    "error_scale",
    "divergence_selftest",
]


@dataclass(frozen=True)
class QuadConfig:
    gauss_order: int = 16
    panels_per_axis: int = 32
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (isinstance(self.gauss_order, int) and self.gauss_order >= 2):
            raise ValueError("gauss_order must be an integer >= 2")
        if not (isinstance(self.panels_per_axis, int) and self.panels_per_axis >= 1):
            raise ValueError("panels_per_axis must be an integer >= 1")
        # an infinite or NaN tolerance would let every check pass
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError(f"tolerances must be finite and positive, got "
                             f"abs_tol {self.abs_tol}, rel_tol {self.rel_tol}")

    @property
    def levels(self) -> tuple[int, int]:
        """(fine, coarse) panels per axis of every two-level grid and sum."""
        return self.panels_per_axis, max(1, self.panels_per_axis // 2)


def error_scale(a: float, b: float) -> float:
    """|a| + |b| + 1: the size two compared values are measured against."""
    return abs(a) + abs(b) + 1.0


@dataclass(frozen=True)
class Residual:
    lhs: float
    rhs: float

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        return self.abs_err / error_scale(self.lhs, self.rhs)


@lru_cache(maxsize=512)
def _panel_nodes(lo: float, hi: float, order: int, panels: int):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    return t, wt


def _two_levels(level, cfg: QuadConfig) -> tuple:
    return tuple(level(panels) for panels in cfg.levels)


def check_two_level(fine: float, coarse: float, cfg: QuadConfig,
                    what: str = "integral") -> float:
    if not (math.isfinite(fine) and math.isfinite(coarse)):
        problem = "is not finite"
    elif abs(fine - coarse) > max(cfg.abs_tol, cfg.rel_tol * error_scale(fine, coarse)):
        problem = "did not settle"
    else:
        return fine
    panels = cfg.levels
    raise NonConvergence(
        f"{what} {problem}: {fine!r} vs {coarse!r} "
        f"(panels {panels[0]} vs {panels[1]})",
        what=what, fine=fine, coarse=coarse, panels=panels)


def _level_sum(parts, weights) -> float:
    """sum_k sum_i parts[k][i] * weights[k][i] over one grid level: one
    whole-array sum per part, added part by part in order to the first
    part's sum (never to an extra +0.0, which would flip a -0.0).  A part
    may be a scalar, which broadcasts against its weights."""
    sums = [np.sum(np.asarray(p, float) * w) for p, w in zip(parts, weights)]
    return float(sum(sums[1:], sums[0]))


def integrate_interval(f, lo: float, hi: float, cfg: QuadConfig) -> float:
    """Two-level composite Gauss integral of a vectorized f on [lo, hi]."""
    nodes = (_panel_nodes(lo, hi, cfg.gauss_order, panels) for panels in cfg.levels)
    fine, coarse = (_level_sum([f(t)], [w]) for t, w in nodes)
    return check_two_level(fine, coarse, cfg, "interval integral")


def integrate_neg_interval(f, y_lo: float, cfg: QuadConfig) -> float:
    """Integral of f over [y_lo, 0] for y_lo < 0, in the graded variable
    t = -s^2 so integrands with half-integer behavior at 0 become smooth."""
    if not y_lo < 0:
        raise ValueError("need y_lo < 0")

    def g(s):
        return 2.0 * s * np.asarray(f(-(s * s)), dtype=float)

    return integrate_interval(g, 0.0, math.sqrt(-y_lo), cfg)


# ---------------------------------------------------------------------------
# grids over domains and their boundaries

@dataclass(frozen=True, eq=False)
class GridLevel:
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    memo: dict = field(default_factory=dict, repr=False)  # jets, weights on x, y


@dataclass(frozen=True, eq=False)
class CurveGridLevel:
    x: np.ndarray
    y: np.ndarray
    wx: np.ndarray  # weight times dx/dtau (oriented)
    wy: np.ndarray  # weight times dy/dtau
    memo: dict = field(default_factory=dict, repr=False)  # jets, weights on x, y


def _tensor_level(maps, order: int, panels: int) -> GridLevel:
    # Gauss tensor grid on the unit square pushed through each chart map
    # (U, V) -> (X, Y, jacobian)
    t, w = _panel_nodes(0.0, 1.0, order, panels)
    U, V = np.meshgrid(t, t, indexing="ij")
    W2 = np.outer(w, w)
    xs, ys, ws = [], [], []
    for fn in maps:
        Xc, Yc, J = fn(U, V)
        xs.append(np.asarray(Xc, float).ravel())
        ys.append(np.asarray(Yc, float).ravel())
        ws.append((np.asarray(J, float) * W2).ravel())
    return GridLevel(np.concatenate(xs), np.concatenate(ys), np.concatenate(ws))


def _curve_level(charts, order: int, panels: int) -> CurveGridLevel:
    xs, ys, wxs, wys = [], [], [], []
    for chart in charts:
        t, w = _panel_nodes(chart.lo, chart.hi, order, panels)
        x, y, dx, dy = chart.fn(t)
        xs.append(np.broadcast_to(np.asarray(x, float), t.shape).ravel())
        ys.append(np.broadcast_to(np.asarray(y, float), t.shape).ravel())
        wxs.append((np.broadcast_to(np.asarray(dx, float), t.shape) * w).ravel())
        wys.append((np.broadcast_to(np.asarray(dy, float), t.shape) * w).ravel())
    return CurveGridLevel(np.concatenate(xs), np.concatenate(ys),
                          np.concatenate(wxs), np.concatenate(wys))


# A domain is anything with area_charts() and boundary_charts():
# a DomainSpec, or a test region.  Commands work on one domain at a time,
# so one grid pair is kept; its levels and their memos go with the next one.

@lru_cache(maxsize=1)
def domain_grids(domain, cfg: QuadConfig) -> tuple[GridLevel, GridLevel]:
    """(fine, coarse) tensor grids covering the domain, weights included."""
    maps = [chart.fn for chart in domain.area_charts()]
    return _two_levels(lambda panels: _tensor_level(maps, cfg.gauss_order, panels), cfg)


def _quadrant(sx: float, sy: float, lx: float, ly: float):
    def fn(U, V):
        return sx * lx * U, sy * ly * V, lx * ly

    return fn


def box_grids(lx: float, ly: float, cfg: QuadConfig) -> tuple[GridLevel, GridLevel]:
    """(fine, coarse) grids on the box [-lx, lx] x [-ly, ly], one chart per
    sign quadrant so |x|, |y| weights stay smooth per chart."""
    maps = [_quadrant(sx, sy, lx, ly) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    return _two_levels(lambda panels: _tensor_level(maps, cfg.gauss_order, panels), cfg)


@lru_cache(maxsize=128)
def curve_grids(domain, curve_id: BoundaryCurveId | None,
                cfg: QuadConfig) -> tuple[CurveGridLevel, CurveGridLevel]:
    """(fine, coarse) nodes on one boundary piece, or on the whole positively
    oriented loop when curve_id is None."""
    charts = [c for c in domain.boundary_charts()
              if curve_id is None or c.curve is curve_id]
    if not charts:
        raise ValueError(f"domain has no boundary piece {curve_id}")
    return _two_levels(lambda panels: _curve_level(charts, cfg.gauss_order, panels), cfg)


# Pointwise kernels over a grid level run on blocks of this many points, so
# their temporaries stay in cache instead of spanning the whole level.
_BLOCK = 1 << 14


def _blockwise(x: np.ndarray, kernel) -> tuple:
    """kernel(sl) returns a tuple of arrays on the points x[sl].  Over a 1-D
    x longer than _BLOCK it runs once per block of _BLOCK points and each
    result is written into its own preallocated output of x's length; any
    other x is one kernel(...) call on all of x.  Elementwise results
    do not depend on the block, so the outputs are bit-identical to one
    whole-array call; reductions belong to the caller, over whole outputs."""
    if x.ndim != 1 or x.size <= _BLOCK:
        return kernel(...)
    outs = None
    for start in range(0, x.size, _BLOCK):
        sl = slice(start, start + _BLOCK)
        parts = kernel(sl)
        if outs is None:
            outs = tuple(np.empty(x.size) for _ in parts)
        for out, part in zip(outs, parts):
            out[sl] = part
    return outs


def _eval_on(g, x, y):
    # a density may return a scalar (a constant), broadcast like a 1-form
    def kernel(sl):
        xs = x[sl]
        return (np.broadcast_to(np.asarray(g(xs, y[sl]), float), xs.shape),)

    return _blockwise(x, kernel)[0]


def integrate_domain(g, domain, cfg: QuadConfig) -> float:
    """Two-level area integral of a pointwise density g(x, y)."""
    fine, coarse = (_level_sum([_eval_on(g, lv.x, lv.y)], [lv.w])
                    for lv in domain_grids(domain, cfg))
    return check_two_level(fine, coarse, cfg, "area integral")


def _form_integral(form, domain, curve_id, cfg: QuadConfig, what: str) -> float:
    # form(x, y) -> (P, Q), summed as P dx + Q dy on each level
    fine, coarse = (_level_sum(form(lv.x, lv.y), (lv.wx, lv.wy))
                    for lv in curve_grids(domain, curve_id, cfg))
    return check_two_level(fine, coarse, cfg, what)


def integrate_curve(form, domain, curve_id: BoundaryCurveId, cfg: QuadConfig) -> float:
    """Two-level integral of the 1-form P dx + Q dy over one boundary piece,
    traversed positively; form(x, y) -> (P, Q)."""
    return _form_integral(form, domain, curve_id, cfg,
                          f"curve integral on {getattr(curve_id, 'value', curve_id)}")


def integrate_boundary(form, domain, cfg: QuadConfig) -> float:
    """Two-level integral of P dx + Q dy around the whole boundary loop."""
    return _form_integral(form, domain, None, cfg, "boundary integral")


# ---------------------------------------------------------------------------
# divergence self-test (validates charts, weights and orientation together)

def _poly2d_coeffs(rng, deg: int = 3):
    c = np.zeros((deg + 1, deg + 1))
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            c[i, j] = rng.uniform(-1.0, 1.0)
    return c


def divergence_selftest(domain, cfg: QuadConfig) -> Residual:
    """Worst-case Gauss divergence check over F = (x, y) and three seeded
    random cubic vector fields: area integral of div F against the outward
    boundary flux.  Returns the worst Residual by relative error."""
    poly = np.polynomial.polynomial
    rng = np.random.default_rng(20250814)
    cases = []
    cases.append((lambda x, y: x, lambda x, y: y, lambda x, y: 2.0 * np.ones_like(x)))
    for _ in range(3):
        cp = _poly2d_coeffs(rng)
        cq = _poly2d_coeffs(rng)
        dpx, dqy = poly.polyder(cp, axis=0), poly.polyder(cq, axis=1)
        cases.append((
            lambda x, y, c=cp: poly.polyval2d(x, y, c),
            lambda x, y, c=cq: poly.polyval2d(x, y, c),
            lambda x, y, a=dpx, b=dqy: poly.polyval2d(x, y, a) + poly.polyval2d(x, y, b),
        ))
    worst = None
    for fx, fy, dv in cases:
        area = integrate_domain(dv, domain, cfg)
        flux = integrate_boundary(lambda x, y: (-fy(x, y), fx(x, y)), domain, cfg)
        r = Residual(area, flux)
        if worst is None or r.rel_err > worst.rel_err:
            worst = r
    return worst
