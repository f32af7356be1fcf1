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
    "integrate_interval",
    "integrate_neg_interval",
    "neg_interval_sums",
    "integrate_domain",
    "integrate_curve",
    "integrate_boundary",
    "domain_grids",
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
        # at 1 panel both levels are one grid, so a two-level check tests nothing
        if not (isinstance(self.panels_per_axis, int) and self.panels_per_axis >= 2):
            raise ValueError("panels_per_axis must be an integer >= 2")
        # an infinite or NaN tolerance would let every check pass
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError(f"tolerances must be finite and positive, got "
                             f"abs_tol {self.abs_tol}, rel_tol {self.rel_tol}")

    @property
    def levels(self) -> tuple[int, int]:
        """(fine, coarse) panels per axis of every two-level grid and sum."""
        return self.panels_per_axis, self.panels_per_axis // 2


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
    may be a scalar, which broadcasts against its weights.  There is one
    part per weight: a 1-form on an area level raises ValueError."""
    sums = [np.sum(np.asarray(p, float) * w)
            for p, w in zip(parts, weights, strict=True)]
    return float(sum(sums[1:], sums[0]))


def integrate_interval(f, lo: float, hi: float, cfg: QuadConfig) -> float:
    """Two-level composite Gauss integral of a vectorized f on [lo, hi]."""
    nodes = (_panel_nodes(lo, hi, cfg.gauss_order, panels) for panels in cfg.levels)
    fine, coarse = (_level_sum([f(t)], [w]) for t, w in nodes)
    return check_two_level(fine, coarse, cfg, "interval integral")


def neg_interval_sums(f, y_lo: float, cfg: QuadConfig) -> tuple:
    """Unchecked (fine, coarse) level sums of the integral of f over
    [y_lo, 0], y_lo < 0, in the graded variable t = -s^2 that smooths
    half-integer powers at 0.  A sum reduces the last axis: for rows of f
    values, one sum per row, bit for bit that row's own sum."""
    if not y_lo < 0:
        raise ValueError("need y_lo < 0")
    nodes = (_panel_nodes(0.0, math.sqrt(-y_lo), cfg.gauss_order, panels)
             for panels in cfg.levels)
    return tuple(np.sum(2.0 * s * np.asarray(f(-(s * s)), dtype=float) * w, axis=-1)
                 for s, w in nodes)


def integrate_neg_interval(f, y_lo: float, cfg: QuadConfig) -> float:
    """Two-level integral of f over [y_lo, 0] from neg_interval_sums."""
    fine, coarse = neg_interval_sums(f, y_lo, cfg)
    return check_two_level(float(fine), float(coarse), cfg, "interval integral")


# ---------------------------------------------------------------------------
# grids over domains and their boundaries

@dataclass(frozen=True, eq=False)
class GridLevel:
    """Nodes of one grid level and the weights a level sum pairs with its
    parts: (w,) on an area level, (w dx/dtau, w dy/dtau) on a boundary
    level, where the parts are a 1-form's (P, Q)."""
    x: np.ndarray
    y: np.ndarray
    weights: tuple
    memo: dict = field(default_factory=dict, repr=False)  # what identities keep


def _tensor_level(maps, order: int, panels: int) -> GridLevel:
    # Gauss tensor grid on the unit square pushed through each chart map
    # (U, V) -> (X, Y, jacobian).  The maps are elementwise, so they run on
    # the open mesh (U a column, V a row) and each output is broadcast to
    # the level as it is stored
    t, w = _panel_nodes(0.0, 1.0, order, panels)
    U, V = np.meshgrid(t, t, indexing="ij", sparse=True)
    W2 = np.outer(w, w)
    x, y, wt = (np.empty((len(maps),) + W2.shape) for _ in range(3))
    for k, fn in enumerate(maps):
        x[k], y[k], J = fn(U, V)
        np.multiply(J, W2, out=wt[k])
    return GridLevel(x.ravel(), y.ravel(), (wt.ravel(),))


def _curve_level(charts, order: int, panels: int) -> GridLevel:
    xs, ys, wxs, wys = [], [], [], []
    for chart in charts:
        t, w = _panel_nodes(chart.lo, chart.hi, order, panels)
        x, y, dx, dy = chart.fn(t)
        xs.append(np.broadcast_to(np.asarray(x, float), t.shape).ravel())
        ys.append(np.broadcast_to(np.asarray(y, float), t.shape).ravel())
        wxs.append((np.broadcast_to(np.asarray(dx, float), t.shape) * w).ravel())
        wys.append((np.broadcast_to(np.asarray(dy, float), t.shape) * w).ravel())
    return GridLevel(np.concatenate(xs), np.concatenate(ys),
                     (np.concatenate(wxs), np.concatenate(wys)))


# An area region is anything with area_charts(): a DomainSpec, the scaling
# box or a test region.  Commands work on one region at a time, so one grid
# pair is kept; its levels and their memos go with the next one.

@lru_cache(maxsize=1)
def domain_grids(domain, cfg: QuadConfig) -> tuple[GridLevel, GridLevel]:
    """(fine, coarse) tensor grids covering the region, weights included."""
    maps = [chart.fn for chart in domain.area_charts()]
    return _two_levels(lambda panels: _tensor_level(maps, cfg.gauss_order, panels), cfg)


@lru_cache(maxsize=128)
def curve_grids(domain, curve_id: BoundaryCurveId | None,
                cfg: QuadConfig) -> tuple[GridLevel, GridLevel]:
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


def _streamed_sums(level: GridLevel, kernel, keep: int = 0) -> tuple:
    """Level sums of densities, streamed: kernel(sl) returns a tuple of
    arrays on the points level.x[sl], level.y[sl].  The first keep come back
    as whole-level arrays; each other one is a density (a scalar broadcasts)
    times the level's weights, written block by block into its own output
    that one np.sum reduces, bit for bit _level_sum([d], level.weights) of
    the whole-level d.  Adding per-block sums would round otherwise."""
    (w,) = level.weights

    def weighted(sl):
        parts = kernel(sl)
        return (*parts[:keep], *(np.asarray(d, float) * w[sl] for d in parts[keep:]))

    outs = _blockwise(level.x, weighted)
    return (*outs[:keep], *(float(np.sum(out)) for out in outs[keep:]))


def integrate_domain(g, domain, cfg: QuadConfig) -> float:
    """Two-level area integral of a pointwise density g(x, y)."""
    fine, coarse = (_streamed_sums(lv, lambda sl: (g(lv.x[sl], lv.y[sl]),))[0]
                    for lv in domain_grids(domain, cfg))
    return check_two_level(fine, coarse, cfg, "area integral")


def _form_integral(form, domain, curve_id, cfg: QuadConfig, what: str) -> float:
    # form(x, y) -> (P, Q), summed as P dx + Q dy on each level
    fine, coarse = (_level_sum(form(lv.x, lv.y), lv.weights)
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

def _poly2d_coeffs(rng):
    c = np.zeros((4, 4))   # a cubic: c[i, j] x**i y**j with i + j <= 3
    for i in range(4):
        for j in range(4 - i):
            c[i, j] = rng.uniform(-1.0, 1.0)
    return c


def _horner(t, coefs):
    """sum_i coefs[i] t**i from the top coefficient down: r = r * t; r += c."""
    r = coefs[-1]
    for c in coefs[-2::-1]:
        r = r * t
        r += c
    return r


def _poly2d(c):
    """(x, y) -> sum c[i, j] x**i y**j, bit for bit numpy's 2-D polyval on
    finite points for c without -0.0: Horner in x on each column of c, then
    in y over the columns, the same multiplies and adds less the leading
    ones over all-zero top coefficients, whose +0.0 the next adds absorb."""
    top = max(1, len(np.trim_zeros(c.any(axis=0), "b")))   # columns kept
    cols = [np.trim_zeros(col, "b") if col.any() else col[:1] for col in c.T[:top]]
    return lambda x, y: _horner(y, [_horner(x, col) for col in cols])


def divergence_selftest(domain, cfg: QuadConfig) -> Residual:
    """Worst-case Gauss divergence check over F = (x, y) and three seeded
    random cubic vector fields: area integral of div F against the outward
    boundary flux.  Returns the worst Residual by relative error."""
    rng = np.random.default_rng(20250814)
    cases = []
    cases.append((lambda x, y: x, lambda x, y: y, lambda x, y: 2.0 * np.ones_like(x)))
    for _ in range(3):
        cp = _poly2d_coeffs(rng)
        cq = _poly2d_coeffs(rng)
        dpx = _poly2d(np.polynomial.polynomial.polyder(cp, axis=0))
        dqy = _poly2d(np.polynomial.polynomial.polyder(cq, axis=1))
        cases.append((_poly2d(cp), _poly2d(cq),
                      lambda x, y, a=dpx, b=dqy: a(x, y) + b(x, y)))
    worst = None
    for fx, fy, dv in cases:
        area = integrate_domain(dv, domain, cfg)
        flux = integrate_boundary(lambda x, y: (-fy(x, y), fx(x, y)), domain, cfg)
        r = Residual(area, flux)
        if worst is None or r.rel_err > worst.rel_err:
            worst = r
    return worst
