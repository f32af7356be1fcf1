"""Integral identities tying the dilation generator D = -c1 x dx - c2 y dy
to the operator O = -y^m1 dxx - x^m2 dyy on the four domain variants, plus
the one-dimensional weighted Hardy package controlling the boundary term.

Every identity is checked by computing left and right sides through
independent quadratures (area functionals vs boundary flux), never by
rearranging one side into the other.  A divergence self-test must pass on
the domain before any identity integral is trusted.
"""
from __future__ import annotations

import json
import math
import time
from collections import OrderedDict, namedtuple
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (DegenerateDenominator, NonConvergence, OutOfRange,
                     PreconditionViolated)
from .field import (Jet2, SampleFn1D, ScalarField, D_from_jet, O_from_jet,
                    X_from_jet, energy_from_jet, jet2, norm_from_jet,
                    operator_weights, to_prefix)
from .geometry import (BoundaryCurveId, DomainSpec, Point, Vec2,
                       boundary_charts, check_starshaped, omega1, omega2,
                       omega3, omega4)
from .params import (Coefficients, NonlinearitySpec, OperatorParams,
                     coefficients)
from . import quad
from .quad import QuadConfig, Residual, check_two_level, divergence_selftest

__all__ = [
    "IdentityReport",
    "HardyParams",
    "REPORT_PASS_RTOL",
    "omega_forms",
    "step1_residual",
    "step2_residual",
    "step3_residual",
    "pohozaev_residual",
    "sigma_boundary_sign",
    "scaling_ratios",
    "hardy_weight_exponents",
    "hardy_GL",
    "hardy_GL_numeric",
    "hardy_constants",
    "boundary_energy_I",
    "hardy_inequality_check",
    "equivalence_chain",
    "polynomial_sample_fn",
    "random_hardy_phi",
    "random_boundary_phi",
    "reference_domains",
]

REPORT_PASS_RTOL = 1e-6


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    variant: str
    m1: int
    m2: int
    anchor: float
    field: str
    f: str
    lhs: float
    rhs: float
    defect: float
    sides: dict
    quad: dict
    passed: bool
    seconds: float
    note: str = ""

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs - self.defect)

    @property
    def rel_err(self) -> float:
        return _rel_err(self.lhs, self.rhs, self.defect)

    def to_json(self) -> str:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        d.update(abs_err=self.abs_err, rel_err=self.rel_err)
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "IdentityReport":
        d = json.loads(text)
        d["passed"] = d.pop("pass")
        return IdentityReport(**{f.name: d[f.name] for f in fields(IdentityReport)
                                 if f.name in d})

    def with_seconds(self, seconds: float) -> "IdentityReport":
        return replace(self, seconds=seconds)


def _rel_err(lhs: float, rhs: float, defect: float) -> float:
    return abs(lhs - rhs - defect) / (abs(lhs) + abs(rhs + defect) + 1.0)


def reference_domains() -> list[DomainSpec]:
    """The four standard fixtures, one per variant."""
    return [omega1(1, 4, -0.5), omega2(1, 4, 0.5),
            omega3(1, 4, -0.5), omega4(1, 0, -0.5)]


# ---------------------------------------------------------------------------
# the jet store: jets and operator weights on quadrature levels

# Room for one domain's two suite fields and their operator weights at the
# default panels (a default domain grid pair has 0.66 M nodes: 30 MiB per
# field jet, 10 MiB of weights), plus its curve jets.  This cap, not an
# entry count, bounds what the store pins.
_STORE_BYTES = 96 << 20

_CacheInfo = namedtuple("CacheInfo", "hits misses")


class _JetStore:
    """Byte-capped LRU of arrays computed on quadrature levels: field jets
    keyed by (level, field) and operator weights keyed by (level, params).
    Every caller shares a stored array, so each is made read-only.  An
    entry larger than the whole cap is not kept."""

    def __init__(self, cap: int):
        self.cap = cap
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value):
        arrays = list(vars(value).values()) if isinstance(value, Jet2) else value
        for a in arrays:
            a.flags.writeable = False
        size = sum({id(a): a.nbytes for a in arrays}.values())
        self._entries[key] = (value, size)
        self.nbytes += size
        while self.nbytes > self.cap:
            _, (_, gone) = self._entries.popitem(last=False)
            self.nbytes -= gone
        return value


_STORE = _JetStore(_STORE_BYTES)


class _LevelJets:
    """(grid, jet of u, operator weights) on each level of a grid pair, from
    the store where present and stored otherwise.  A new jet reuses the
    stored jet of every subtree already evaluated on the same level.
    cache_info() counts the calls that found every jet stored."""

    def __init__(self, grids):
        self._grids = grids
        self.hits = self.misses = 0

    def __call__(self, u: ScalarField, domain: DomainSpec, *where):
        levels, found = [], True
        for i, g in enumerate(self._grids(domain, *where)):
            site = (self, domain, *where, i)
            j = _STORE.get((site, u))
            if j is None:
                found = False
                j = _STORE.put((site, u), u.jet(
                    g.x, g.y, known=lambda node: _STORE.get((site, node))))
            w = _STORE.get((site, domain.params))
            if w is None:
                w = _STORE.put((site, domain.params),
                               operator_weights(domain.params, g.x, g.y))
            levels.append((g, j, w))
        if found:
            self.hits += 1
        else:
            self.misses += 1
        return tuple(levels)

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses)


# the grid builders are looked up at call time, so a wrapper installed on
# quad's names sees these calls too
_area_jets = _LevelJets(lambda domain, cfg: quad.domain_grids(domain, cfg))
_curve_jets = _LevelJets(lambda domain, curve_id, cfg:
                         quad.curve_grids(domain, curve_id, cfg))


def _reduce(density, g, j, w=None) -> float:
    # weighted sum of a pointwise density over one grid level
    return float(np.sum(np.asarray(density(j, g.x, g.y, w), float) * g.w))


def _area_functional(u, domain, cfg, density) -> float:
    fine, coarse = (_reduce(density, *level) for level in _area_jets(u, domain, cfg))
    return check_two_level(fine, coarse, cfg, "area functional")


def _curve_functional(u, domain, curve_id, cfg, form) -> float:
    def total(g, j, w):
        p, q = form(j, g.x, g.y, w)
        p = np.broadcast_to(np.asarray(p, float), g.x.shape)
        q = np.broadcast_to(np.asarray(q, float), g.x.shape)
        return float(np.sum(p * g.wx) + np.sum(q * g.wy))

    fine, coarse = (total(*level) for level in _curve_jets(u, domain, curve_id, cfg))
    return check_two_level(fine, coarse, cfg, f"curve functional on {curve_id.value}")


@lru_cache(maxsize=32)
def _ensure_oriented(domain: DomainSpec, cfg: QuadConfig) -> Residual:
    """The divergence self-test of the domain at cfg, run once per pair;
    _require_oriented gates the identities on it."""
    return divergence_selftest(domain, cfg)


def _require_oriented(domain: DomainSpec, cfg: QuadConfig):
    # orientation soundness must be established before identities are trusted
    r = _ensure_oriented(domain, cfg)
    gate = max(1e-8, 10.0 * cfg.rel_tol)
    if r.rel_err > gate:
        raise NonConvergence(
            f"divergence self-test rel error {r.rel_err:.3e} exceeds {gate:.1e}; "
            "charts, weights or orientation are unsound at this resolution")


def _require_vanishing(u, domain, curve_ids, cfg, what: str):
    # sample each named piece; tolerance is relative to the field size on
    # the whole boundary so an honestly nonzero field always trips it
    charts = {c.curve: c for c in boundary_charts(domain, cfg.grade_endpoints)}
    scale = 1.0
    vals = {}
    for cid, chart in charts.items():
        tau = chart.lo + (chart.hi - chart.lo) * (np.arange(100) + 0.5) / 100.0
        x, y, _, _ = chart.fn(tau)
        v = np.asarray(u(np.asarray(x, float), np.asarray(y, float)), float)
        vals[cid] = float(np.max(np.abs(v)))
        scale = max(scale, vals[cid])
    for cid in curve_ids:
        if vals[cid] > 1e-10 * scale:
            raise PreconditionViolated(
                f"{what} needs u = 0 on {cid.value}; sampled max |u| = "
                f"{vals[cid]:.3e}")


def _check_F_zero(nonlin: NonlinearitySpec):
    if abs(float(nonlin.F(0.0))) > 1e-14:
        raise PreconditionViolated(
            f"nonlinearity {nonlin.name!r} needs F(0) = 0")


# ---------------------------------------------------------------------------
# the boundary 1-forms

def _w1_form(params, co):
    c1, c2 = co.c1, co.c2

    def form(j, x, y, w):
        xu_x, xu_y = X_from_jet(params, j, x, y, w)
        du = D_from_jet(co, j, x, y)
        e = energy_from_jet(params, j, x, y, w)
        gx = 2.0 * du * xu_x + e * (-c1 * x)
        gy = 2.0 * du * xu_y + e * (-c2 * y)
        return -gy, gx   # flux 1-form of the vector (gx, gy)

    return form


def _w2_form(params, co, nonlin):
    c1, c2 = co.c1, co.c2
    c = float(co.c)

    def form(j, x, y, w):
        xu_x, xu_y = X_from_jet(params, j, x, y, w)
        fu = np.asarray(nonlin.F(j.u), float)
        gx = -2.0 * fu * (-c1 * x) - 2.0 * c * j.u * xu_x
        gy = -2.0 * fu * (-c2 * y) - 2.0 * c * j.u * xu_y
        return -gy, gx

    return form


def omega_forms(params: OperatorParams, u: ScalarField, nonlin: NonlinearitySpec,
                p: Point, eta: Vec2) -> tuple[float, float]:
    """The two boundary densities (w1, w2) dotted with a given direction:
    w1 = [2 Du Xu + E V] . eta and w2 = [-2 F(u) V - 2 c u Xu] . eta,
    where V = (-c1 x, -c2 y)."""
    co = coefficients(params)
    j = jet2(u, p)
    xu_x, xu_y = X_from_jet(params, j, p.x, p.y)
    du = D_from_jet(co, j, p.x, p.y)
    e = energy_from_jet(params, j, p.x, p.y)
    vx, vy = -co.c1 * p.x, -co.c2 * p.y
    c = float(co.c)
    fu = float(nonlin.F(j.u))
    w1 = (2.0 * du * xu_x + e * vx) * eta.x + (2.0 * du * xu_y + e * vy) * eta.y
    w2 = (-2.0 * fu * vx - 2.0 * c * j.u * xu_x) * eta.x \
        + (-2.0 * fu * vy - 2.0 * c * j.u * xu_y) * eta.y
    return float(w1), float(w2)


# ---------------------------------------------------------------------------
# step identities

def _report(identity, domain, field_str, f_str, lhs, rhs, defect, sides, cfg,
            seconds, note="") -> IdentityReport:
    return IdentityReport(
        identity=identity, variant=domain.variant.value,
        m1=domain.params.m1, m2=domain.params.m2, anchor=domain.anchor,
        field=field_str, f=f_str, lhs=lhs, rhs=rhs, defect=defect,
        sides=sides, quad=asdict(cfg),
        passed=_rel_err(lhs, rhs, defect) <= REPORT_PASS_RTOL,
        seconds=seconds, note=note)


def step1_residual(u: ScalarField, domain: DomainSpec,
                   cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """For u vanishing on AC:
    2 * int D(u) O(u) = 2c * int E + int_{BC u sigma} w1."""
    t0 = time.perf_counter()
    _require_oriented(domain, cfg)
    _require_vanishing(u, domain, [BoundaryCurveId.AC], cfg, "step1")
    params, co = domain.params, coefficients(domain.params)
    c = float(co.c)

    lhs = _area_functional(u, domain, cfg, lambda j, x, y, w:
                           D_from_jet(co, j, x, y) * O_from_jet(params, j, x, y, w))
    e_int = _area_functional(u, domain, cfg, lambda j, x, y, w:
                             energy_from_jet(params, j, x, y, w))
    w1 = _w1_form(params, co)
    b = _curve_functional(u, domain, BoundaryCurveId.BC, cfg, w1) \
        + _curve_functional(u, domain, BoundaryCurveId.SIGMA, cfg, w1)
    rhs = c * e_int + 0.5 * b
    sides = {"energy_integral": e_int, "omega1_boundary": b}
    return _report("step1", domain, to_prefix(u), "", lhs, rhs, 0.0, sides,
                   cfg, time.perf_counter() - t0)


def step2_residual(u: ScalarField, nonlin: NonlinearitySpec, domain: DomainSpec,
                   cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """For u vanishing on AC and sigma, F(0) = 0:
    int D(u) f(u) = kappa * int F(u) + int_BC F(u) V . eta."""
    t0 = time.perf_counter()
    _require_oriented(domain, cfg)
    _check_F_zero(nonlin)
    _require_vanishing(u, domain, [BoundaryCurveId.AC, BoundaryCurveId.SIGMA],
                       cfg, "step2")
    params, co = domain.params, coefficients(domain.params)
    c1, c2 = co.c1, co.c2

    lhs = _area_functional(u, domain, cfg, lambda j, x, y, w:
                           D_from_jet(co, j, x, y) * np.asarray(nonlin.f(j.u), float))
    f_int = _area_functional(u, domain, cfg, lambda j, x, y, w:
                             np.asarray(nonlin.F(j.u), float))

    def fv_form(j, x, y, w):
        fu = np.asarray(nonlin.F(j.u), float)
        return -fu * (-c2 * y), fu * (-c1 * x)

    bc = _curve_functional(u, domain, BoundaryCurveId.BC, cfg, fv_form)
    rhs = float(co.kappa) * f_int + bc
    sides = {"F_integral": f_int, "FV_flux_BC": bc}
    return _report("step2", domain, to_prefix(u), nonlin.name, lhs, rhs, 0.0,
                   sides, cfg, time.perf_counter() - t0)


def step3_residual(u: ScalarField, domain: DomainSpec,
                   cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """For u vanishing on AC and sigma:
    int u O(u) = int E + int_BC u Xu . eta."""
    t0 = time.perf_counter()
    _require_oriented(domain, cfg)
    _require_vanishing(u, domain, [BoundaryCurveId.AC, BoundaryCurveId.SIGMA],
                       cfg, "step3")
    params, co = domain.params, coefficients(domain.params)

    lhs = _area_functional(u, domain, cfg, lambda j, x, y, w:
                           j.u * O_from_jet(params, j, x, y, w))
    e_int = _area_functional(u, domain, cfg, lambda j, x, y, w:
                             energy_from_jet(params, j, x, y, w))

    def uxu_form(j, x, y, w):
        xu_x, xu_y = X_from_jet(params, j, x, y, w)
        return -j.u * xu_y, j.u * xu_x

    bc = _curve_functional(u, domain, BoundaryCurveId.BC, cfg, uxu_form)
    rhs = e_int + bc
    sides = {"energy_integral": e_int, "uXu_flux_BC": bc}
    return _report("step3", domain, to_prefix(u), "", lhs, rhs, 0.0, sides,
                   cfg, time.perf_counter() - t0)


def pohozaev_residual(u: ScalarField, nonlin: NonlinearitySpec, domain: DomainSpec,
                      cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """Dilation identity with explicit defect:
    kappa int F(u) - c int u f(u)
      = (1/2)[int_{BC u sigma} w1 + int_BC w2] + int (Du - c u)(f(u) - O u).
    For a true solution (O u = f(u)) the defect vanishes."""
    t0 = time.perf_counter()
    _require_oriented(domain, cfg)
    _check_F_zero(nonlin)
    _require_vanishing(u, domain, [BoundaryCurveId.AC, BoundaryCurveId.SIGMA],
                       cfg, "pohozaev")
    params, co = domain.params, coefficients(domain.params)
    c = float(co.c)

    f_int = _area_functional(u, domain, cfg, lambda j, x, y, w:
                             np.asarray(nonlin.F(j.u), float))
    uf_int = _area_functional(u, domain, cfg, lambda j, x, y, w:
                              j.u * np.asarray(nonlin.f(j.u), float))
    lhs = float(co.kappa) * f_int - c * uf_int

    w1 = _w1_form(params, co)
    w2 = _w2_form(params, co, nonlin)
    b1 = _curve_functional(u, domain, BoundaryCurveId.BC, cfg, w1) \
        + _curve_functional(u, domain, BoundaryCurveId.SIGMA, cfg, w1)
    b2 = _curve_functional(u, domain, BoundaryCurveId.BC, cfg, w2)
    rhs = 0.5 * (b1 + b2)

    defect = _area_functional(u, domain, cfg, lambda j, x, y, w:
                              (D_from_jet(co, j, x, y) - c * j.u)
                              * (np.asarray(nonlin.f(j.u), float)
                                 - O_from_jet(params, j, x, y, w)))
    sides = {"F_integral": f_int, "uf_integral": uf_int,
             "omega1_boundary": b1, "omega2_boundary_BC": b2}
    note = ("defect form: the identity is conditional on O u = f(u); "
            "for manufactured fields the defect term closes it exactly")
    return _report("pohozaev", domain, to_prefix(u), nonlin.name, lhs, rhs,
                   defect, sides, cfg, time.perf_counter() - t0, note)


def sigma_boundary_sign(u: ScalarField, domain: DomainSpec,
                        cfg: QuadConfig = QuadConfig()) -> float:
    """int_sigma E (c1 x dy - c2 y dx) for u vanishing on sigma of a
    star-shaped domain.  Nonnegative whenever sigma lies in the closed
    elliptic half-plane y >= 0 (omega1, omega2) and exactly zero on the
    omega4 segment; the omega3 arc dips into y < 0 where the integrand is
    sign-indefinite, so no sign claim is made there."""
    _require_oriented(domain, cfg)
    _require_vanishing(u, domain, [BoundaryCurveId.SIGMA], cfg,
                       "sigma_boundary_sign")
    rep = check_starshaped(domain)
    if not rep.is_starlike:
        raise PreconditionViolated(
            f"domain is not star-shaped under the dilation flow "
            f"(min form {rep.min_form:.3e} at {rep.worst_point})")
    params, co = domain.params, coefficients(domain.params)
    c1, c2 = co.c1, co.c2

    def form(j, x, y, w):
        e = energy_from_jet(params, j, x, y, w)
        return -c2 * y * e, c1 * x * e

    return _curve_functional(u, domain, BoundaryCurveId.SIGMA, cfg, form)


# ---------------------------------------------------------------------------
# scaling ratios

@lru_cache(maxsize=32)
def _box_sums(u: ScalarField, lx: float, ly: float, pexp: float,
              params: OperatorParams, cfg: QuadConfig):
    """(fine, coarse) sums of |u|**pexp and of the weighted-gradient density
    over the box [-lx, lx] x [-ly, ly], both reduced from one jet per level."""
    lp, grad = [], []
    for g in quad.box_grids(lx, ly, cfg):
        j = u.jet(g.x, g.y)
        lp.append(_reduce(lambda j, x, y, w: np.abs(j.u) ** pexp, g, j))
        grad.append(_reduce(lambda j, x, y, w: norm_from_jet(params, j, x, y), g, j))
    return tuple(lp), tuple(grad)


def scaling_ratios(u: ScalarField, lam: float, pexp: float,
                   coeffs: Coefficients, cfg: QuadConfig = QuadConfig()) -> dict:
    """Ratios ||u_lam||_p^p / ||u||_p^p and the weighted-gradient analogue,
    integrating u over the unit box and u_lam over its dilated image (the
    exact change of variables, so the expected ratios are lam**kappa and
    lam**mu)."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive")
    if not pexp >= 1:
        raise ValueError("pexp must be >= 1")
    from .field import dilate  # local to avoid import cycle at module load

    params = OperatorParams(coeffs.c1 - 2, coeffs.c2 - 2)
    ul = dilate(u, lam, coeffs)
    lx, ly = 1.0, 1.0
    lxd, lyd = lam ** coeffs.c1 * lx, lam ** coeffs.c2 * ly

    lp_base, gr_base = _box_sums(u, lx, ly, pexp, params, cfg)
    lp_dil, gr_dil = _box_sums(ul, lxd, lyd, pexp, params, cfg)
    lp_base, lp_dil, gr_base, gr_dil = (
        check_two_level(fine, coarse, cfg, "box integral")
        for fine, coarse in (lp_base, lp_dil, gr_base, gr_dil))
    if lp_base == 0.0 or gr_base == 0.0:
        raise PreconditionViolated("u must not vanish identically on the box")
    return {"lp_ratio": lp_dil / lp_base, "grad_ratio": gr_dil / gr_base}


# ---------------------------------------------------------------------------
# the one-dimensional Hardy package on (y_c, 0)

@dataclass(frozen=True)
class HardyParams:
    p: float = 2.0
    q: float = 2.0
    y_c: float = -1.0

    def __post_init__(self):
        if not (1.0 < self.p <= self.q and math.isfinite(self.q)):
            raise ValueError("need 1 < p <= q < infinity")
        if not self.y_c < 0:
            raise ValueError("need y_c < 0")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)


def hardy_weight_exponents(params: OperatorParams) -> tuple[Fraction, Fraction]:
    """(e1, e2) with v(t) = (-t)^e1 weighting the derivative and
    w(t) = (-t)^e2 weighting the function."""
    m1, m2 = params.m1, params.m2
    e1 = Fraction(m1 + 2 * m2 + m1 * m2 + 2, m2 + 2)
    e2 = Fraction(m1 + m1 * m2 - 2, m2 + 2)
    return e1, e2


def _require_mu(params: OperatorParams) -> Coefficients:
    co = coefficients(params)
    if co.mu == 0:
        raise DegenerateDenominator("the Hardy package needs mu > 0")
    return co


def hardy_GL(params: OperatorParams, y_c: float, x: float) -> float:
    """Closed form of the p = q = 2 Muckenhoupt product on (y_c, 0):
    (c2/mu) * sqrt(1 - ((-x)/(-y_c))**(mu/c2))."""
    co = _require_mu(params)
    if not (y_c < x < 0):
        raise OutOfRange(f"need y_c < x < 0, got x = {x}, y_c = {y_c}")
    ratio = (-x) / (-y_c)
    return (co.c2 / co.mu) * math.sqrt(1.0 - ratio ** (co.mu / co.c2))


def hardy_GL_numeric(params: OperatorParams, pq: HardyParams, x: float,
                     cfg: QuadConfig = QuadConfig()) -> float:
    """The defining Muckenhoupt product by direct quadrature:
    (int_x^0 w dt)^(1/q) * (int_{y_c}^x v^(1-p') dt)^(1/p')."""
    _require_mu(params)
    if not (pq.y_c < x < 0):
        raise OutOfRange(f"need y_c < x < 0, got x = {x}")
    e1, e2 = (float(e) for e in hardy_weight_exponents(params))
    pc = pq.p_conj
    i_w = quad.integrate_neg_interval(lambda t: (-t) ** e2, x, cfg)

    # v^(1-p') blows up like a power toward 0; the substitution t = -exp(-s)
    # turns it into a smooth exponential that composite Gauss resolves
    def g(s):
        t = -np.exp(-s)
        return (-t) ** (e1 * (1.0 - pc)) * np.exp(-s)

    i_v = quad.integrate_interval(g, -math.log(-pq.y_c), -math.log(-x), cfg)
    return i_w ** (1.0 / pq.q) * i_v ** (1.0 / pc)


def _mucken_product_grid(params: OperatorParams, pq: HardyParams,
                         xs: np.ndarray) -> np.ndarray:
    # closed antiderivatives of the power weights, vectorized over xs
    e1, e2 = (float(e) for e in hardy_weight_exponents(params))
    pc = pq.p_conj
    a = pq.y_c
    iw = (-xs) ** (e2 + 1.0) / (e2 + 1.0)
    ve = e1 * (1.0 - pc)
    if abs(ve + 1.0) < 1e-15:
        iv = np.log((-a) / (-xs))
    else:
        iv = ((-a) ** (ve + 1.0) - (-xs) ** (ve + 1.0)) / (ve + 1.0)
    return iw ** (1.0 / pq.q) * iv ** (1.0 / pc)


def hardy_constants(params: OperatorParams, pq: HardyParams) -> dict:
    """Muckenhoupt constant M_L, the bridging factor r(p, q), and the
    two-sided bounds [M_L, r M_L] for the best constant.  For p = q = 2
    everything is an exact rational and the closed form is confirmed by a
    10^4-point grid supremum."""
    co = _require_mu(params)
    exact22 = pq.p == 2.0 and pq.q == 2.0
    if exact22:
        m_l = Fraction(co.c2, co.mu)
        r = Fraction(2)
    else:
        pc = pq.p_conj
        r = float((1.0 + pq.q / pc) ** (1.0 / pq.q)
                  * (1.0 + pc / pq.q) ** (1.0 / pc))
        m_l = None
    n = 10_000
    half = n // 2
    xs = np.concatenate([
        np.linspace(pq.y_c * (1.0 - 0.5 / half), pq.y_c / 2.0, half),
        -np.geomspace(-pq.y_c / 2.0, -pq.y_c * 1e-18, n - half),
    ])
    grid_sup = float(np.max(_mucken_product_grid(params, pq, xs)))
    if exact22:
        if abs(grid_sup - float(m_l)) > 1e-8 * max(1.0, float(m_l)):
            raise NonConvergence(
                f"grid supremum {grid_sup!r} does not reach M_L = {m_l}")
    else:
        m_l = grid_sup
    return {"M_L": m_l, "r": r, "C_L_low": m_l, "C_L_high": r * m_l,
            "grid_sup": grid_sup}


def polynomial_sample_fn(coeffs_list, a: float, b: float) -> SampleFn1D:
    """SampleFn1D from polynomial coefficients (lowest degree first)."""
    p = np.polynomial.Polynomial(list(coeffs_list))
    return SampleFn1D(p, p.deriv(), a, b)


def random_hardy_phi(y_c: float, rng) -> SampleFn1D:
    """Random polynomial vanishing at y_c (the Hardy-side requirement)."""
    base = np.polynomial.Polynomial([-y_c, 1.0])   # (t - y_c)
    p = base * np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=4))
    return SampleFn1D(p, p.deriv(), y_c, 0.0)


def random_boundary_phi(y_c: float, rng) -> SampleFn1D:
    """Random polynomial vanishing at both ends of [y_c, 0]."""
    base = np.polynomial.Polynomial([-y_c, 1.0]) * np.polynomial.Polynomial([0.0, -1.0])
    p = base * np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=4))
    return SampleFn1D(p, p.deriv(), y_c, 0.0)


def _phi_scale(phi: SampleFn1D) -> float:
    t = np.linspace(phi.a, phi.b, 257)
    return 1.0 + float(np.max(np.abs(np.asarray(phi.fn(t), float))))


def boundary_energy_I(params: OperatorParams, y_c: float, phi: SampleFn1D,
                      cfg: QuadConfig = QuadConfig()) -> float:
    """The boundary energy functional reduced to (y_c, 0):
    I = 2 c2 A int v (phi')^2 - (mu^2 / (2 c2)) A int w phi^2,
    with A = (c2/c1)**(m2/c2) > 0.  Nonnegative by the Hardy inequality."""
    co = _require_mu(params)
    if not y_c < 0:
        raise ValueError("need y_c < 0")
    if abs(phi.a - y_c) > 1e-12 or abs(phi.b) > 1e-12:
        raise ValueError("phi must live on [y_c, 0]")
    scale = _phi_scale(phi)
    if abs(float(phi.fn(y_c))) > 1e-12 * scale or abs(float(phi.fn(0.0))) > 1e-12 * scale:
        raise PreconditionViolated("boundary energy needs phi(y_c) = phi(0) = 0")
    e1, e2 = (float(e) for e in hardy_weight_exponents(params))
    a_fac = (co.c2 / co.c1) ** (params.m2 / co.c2)
    i1 = quad.integrate_neg_interval(
        lambda t: (-t) ** e1 * np.asarray(phi.dfn(t), float) ** 2, y_c, cfg)
    i2 = quad.integrate_neg_interval(
        lambda t: (-t) ** e2 * np.asarray(phi.fn(t), float) ** 2, y_c, cfg)
    return 2.0 * co.c2 * a_fac * i1 - (co.mu ** 2 / (2.0 * co.c2)) * a_fac * i2


def hardy_inequality_check(params: OperatorParams, pq: HardyParams,
                           phi: SampleFn1D,
                           cfg: QuadConfig = QuadConfig()) -> Residual:
    """[int w phi^2]^(1/2) <= C_L [int v (phi')^2]^(1/2) with C_L = 2 c2/mu,
    for phi vanishing at y_c.  Returns Residual(lhs, rhs); the inequality
    holds when lhs <= rhs."""
    co = _require_mu(params)
    if not (pq.p == 2.0 and pq.q == 2.0):
        raise ValueError("the closed-form constant is the p = q = 2 case")
    if abs(phi.a - pq.y_c) > 1e-12:
        raise ValueError("phi must live on [y_c, 0]")
    scale = _phi_scale(phi)
    if abs(float(phi.fn(pq.y_c))) > 1e-12 * scale:
        raise PreconditionViolated("the Hardy inequality needs phi(y_c) = 0")
    e1, e2 = (float(e) for e in hardy_weight_exponents(params))
    lhs = math.sqrt(quad.integrate_neg_interval(
        lambda t: (-t) ** e2 * np.asarray(phi.fn(t), float) ** 2, pq.y_c, cfg))
    rhs = (2.0 * co.c2 / co.mu) * math.sqrt(quad.integrate_neg_interval(
        lambda t: (-t) ** e1 * np.asarray(phi.dfn(t), float) ** 2, pq.y_c, cfg))
    return Residual(lhs, rhs)


def equivalence_chain(params: OperatorParams) -> bool:
    """Exact rational chain M_L <= 2 c2/mu <= 2 M_L, with the right-hand
    comparison an equality."""
    co = _require_mu(params)
    m_l = Fraction(co.c2, co.mu)
    c_l = Fraction(2 * co.c2, co.mu)
    return m_l <= c_l <= 2 * m_l and c_l == 2 * m_l
