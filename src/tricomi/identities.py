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
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields, replace
from dataclasses import field as _default
from fractions import Fraction
from functools import lru_cache, partial, wraps

import numpy as np

from .errors import (DegenerateDenominator, NonConvergence, OutOfRange,
                     PreconditionViolated)
from .field import (Jet2, SampleFn1D, ScalarField, D_from_jet, O_from_jet,
                    X_from_jet, dilate, energy_from_jet, jet2, norm_from_jet,
                    operator_weights, to_prefix)
from .geometry import (AreaChart, BoundaryCurveId, DomainSpec, Point, Vec2,
                       boundary_charts, check_starshaped, omega1, omega2,
                       omega3, omega4)
from .params import (Coefficients, NonlinearitySpec, OperatorParams,
                     coefficients)
from . import quad
from .quad import (QuadConfig, Residual, check_two_level, divergence_selftest,
                   error_scale)

__all__ = [
    "IdentityReport",
    "HardyParams",
    "REPORT_PASS_RTOL",
    "SIGN_CLAIM_VARIANTS",
    "omega_forms",
    "step1_residual",
    "step2_residual",
    "step3_residual",
    "pohozaev_residual",
    "sigma_boundary_sign",
    "sigma_sign_report",
    "selftest_report",
    "scaling_ratios",
    "scaling_reports",
    "hardy_weight_exponents",
    "hardy_GL",
    "hardy_GL_numeric",
    "hardy_constants",
    "boundary_energy_I",
    "hardy_inequality_check",
    "equivalence_chain",
    "hardy_reports",
    "random_hardy_phi",
    "random_boundary_phi",
    "reference_domains",
]

REPORT_PASS_RTOL = 1e-6


@dataclass(frozen=True)
class IdentityReport:
    """One check record.  Checks of the operator alone leave variant and
    anchor empty; one-sided checks record the observed value as both lhs
    and rhs (so rel_err is 0) and keep their bound in sides."""
    identity: str
    m1: int
    m2: int
    lhs: float
    rhs: float
    passed: bool
    variant: str = ""
    anchor: float = 0.0
    field: str = ""
    f: str = ""
    defect: float = 0.0
    sides: dict = _default(default_factory=dict)
    quad: dict = _default(default_factory=dict)
    seconds: float = 0.0
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
    return abs(lhs - rhs - defect) / error_scale(lhs, rhs + defect)


def _record(identity: str, on, lhs: float, rhs: float, passed: bool,
            **rest) -> IdentityReport:
    """The one constructor of check records.  on is the DomainSpec the
    check ran on or, for a check of the operator alone, its OperatorParams;
    rest fills the optional fields."""
    if isinstance(on, DomainSpec):
        rest.update(variant=on.variant.value, anchor=on.anchor)
        on = on.params
    return IdentityReport(identity=identity, m1=on.m1, m2=on.m2, lhs=lhs,
                          rhs=rhs, passed=passed, **rest)


def _timed(check):
    """check returns a record, or a list of records that share the call's
    wall time equally; the wrapper sets their seconds."""
    @wraps(check)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = check(*args, **kwargs)
        dt = time.perf_counter() - t0
        if isinstance(out, IdentityReport):
            return out.with_seconds(dt)
        return [r.with_seconds(dt / len(out)) for r in out]

    return timed


def reference_domains() -> list[DomainSpec]:
    """The four standard fixtures, one per variant."""
    return [omega1(1, 4, -0.5), omega2(1, 4, 0.5),
            omega3(1, 4, -0.5), omega4(1, 0, -0.5)]


# ---------------------------------------------------------------------------
# what quadrature levels keep of a field

_CacheInfo = namedtuple("CacheInfo", "hits misses")
# an area level keeps u, Du and Ou on its points and sum(E * weights)
_AreaParts = namedtuple("_AreaParts", "u Du Ou energy")


def _kept(level, key, make):
    """level.memo[key], made by make() where missing.  Every caller shares
    a kept array, so each is made read-only."""
    value = level.memo.get(key)
    if value is None:
        value = level.memo[key] = make()
        for a in vars(value).values() if isinstance(value, Jet2) else value:
            if isinstance(a, np.ndarray):   # not a left-out part nor a sum
                a.flags.writeable = False
    return value


class _LevelMemo:
    """make(g, u, params) on each level g of a grid pair: what the level
    keeps of u, in its memo, so it lives as long as the level.
    cache_info() counts the calls that found u kept on every level."""

    def __init__(self, grids, make):
        self._grids = grids
        self._make = make
        self.hits = self.misses = 0

    def __call__(self, u: ScalarField, domain: DomainSpec, *where):
        grids = self._grids(domain, *where)
        if all(u in g.memo for g in grids):
            self.hits += 1
        else:
            self.misses += 1
        return tuple((g, self._make(g, u, domain.params)) for g in grids)

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses)


def _area_parts(g, u, params) -> _AreaParts:
    # one streamed pass: a block's second-order jet and weights go with it
    co = coefficients(params)

    def kernel(sl):
        x, y = g.x[sl], g.y[sl]
        j, w = u.jet(x, y), operator_weights(params, x, y)
        return j.u, D_from_jet(co, j, x, y), O_from_jet(j, w), energy_from_jet(j, w)

    return _kept(g, u, lambda: _AreaParts(*quad._streamed_sums(g, kernel, keep=3)))


def _curve_jet(g, u, params) -> tuple:
    # the boundary forms' first-order jet and the operator weights
    return (_kept(g, u, lambda: u.jet(g.x, g.y, second=False)),
            _kept(g, params, lambda: operator_weights(params, g.x, g.y)))


# the grid builders are looked up at call time, so a wrapper installed on
# quad's names sees these calls too
_area_jets = _LevelMemo(lambda domain, cfg: quad.domain_grids(domain, cfg), _area_parts)
_curve_jets = _LevelMemo(lambda domain, curve_id, cfg:
                         quad.curve_grids(domain, curve_id, cfg), _curve_jet)


def _area_terms(u, domain, cfg, densities, nonlin=None) -> list:
    """(fine, coarse) sums of densities(p, sl), the density blocks on the
    block sl from the level's kept parts p, in one pass per area level.
    Given nonlin, the sums of F(u) come first, kept per (u, nonlin) on the
    level.  The caller checks each pair."""
    levels = []
    for g, p in _area_jets(u, domain, cfg):
        key = (u, nonlin)
        if nonlin is None or key in g.memo:
            sums = quad._streamed_sums(g, lambda sl: densities(p, sl))
        else:
            g.memo[key], *sums = quad._streamed_sums(g, lambda sl: (
                np.asarray(nonlin.F(p.u[sl]), float), *densities(p, sl)))
        levels.append(sums if nonlin is None else (g.memo[key], *sums))
    return list(zip(*levels))


def _area_value(sums, cfg) -> float:
    return check_two_level(*sums, cfg, "area functional")


def _curve_functional(u, domain, curve_id, cfg, form) -> float:
    fine, coarse = (quad._level_sum(form(j, g.x, g.y, w), g.weights)
                    for g, (j, w) in _curve_jets(u, domain, curve_id, cfg))
    return check_two_level(fine, coarse, cfg, f"curve functional on {curve_id.value}")


@lru_cache(maxsize=32)
def _ensure_oriented(domain: DomainSpec, cfg: QuadConfig) -> Residual:
    """The divergence self-test of the domain at cfg, run once per pair;
    _gate holds the identities to it."""
    return divergence_selftest(domain, cfg)


@_timed
def selftest_report(domain: DomainSpec,
                    cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """The domain's divergence self-test, the same run that gates its
    identities, as a record: area against boundary flux to 1e-9."""
    r = _ensure_oriented(domain, cfg)
    return _record("divergence-selftest", domain, r.lhs, r.rhs, r.rel_err <= 1e-9)


@lru_cache(maxsize=32)
def _boundary_maxima(u, domain) -> tuple:
    """(curve id, max |u| over 100 samples) for each boundary piece, in
    chart order; every identity on the same (u, domain) asks for these."""
    maxima = []
    for chart in boundary_charts(domain):
        tau = chart.lo + (chart.hi - chart.lo) * (np.arange(100) + 0.5) / 100.0
        x, y, _, _ = chart.fn(tau)
        v = np.asarray(u(np.asarray(x, float), np.asarray(y, float)), float)
        maxima.append((chart.curve, float(np.max(np.abs(v)))))
    return tuple(maxima)


def _require_vanishing(u, domain, curve_ids, what: str):
    # tolerance is relative to the field size on the whole boundary so an
    # honestly nonzero field always trips it
    vals = dict(_boundary_maxima(u, domain))
    scale = max([1.0, *vals.values()])
    for cid in curve_ids:
        if vals[cid] > 1e-10 * scale:
            raise PreconditionViolated(
                f"{what} needs u = 0 on {cid.value}; sampled max |u| = "
                f"{vals[cid]:.3e}")


_AC_SIGMA = (BoundaryCurveId.AC, BoundaryCurveId.SIGMA)


def _gate(u, domain, cfg, what, curves=_AC_SIGMA, nonlin=None):
    """The preconditions of an identity, in order: a sound divergence
    self-test (charts, weights and orientation are trusted only then),
    F(0) = 0 when a nonlinearity enters, u = 0 on curves.  Returns the
    domain's coefficients."""
    r = _ensure_oriented(domain, cfg)
    gate = max(1e-8, 10.0 * cfg.rel_tol)
    if r.rel_err > gate:
        raise NonConvergence(
            f"divergence self-test rel error {r.rel_err:.3e} exceeds {gate:.1e}; "
            "charts, weights or orientation are unsound at this resolution")
    if nonlin is not None and abs(float(nonlin.F(0.0))) > 1e-14:
        raise PreconditionViolated(f"nonlinearity {nonlin.name!r} needs F(0) = 0")
    _require_vanishing(u, domain, curves, what)
    return coefficients(domain.params)


# ---------------------------------------------------------------------------
# the boundary 1-forms

def _w1_form(co):
    c1, c2 = co.c1, co.c2

    def form(j, x, y, w):
        xu_x, xu_y = X_from_jet(j, w)
        du = D_from_jet(co, j, x, y)
        e = energy_from_jet(j, w)
        gx = 2.0 * du * xu_x + e * (-c1 * x)
        gy = 2.0 * du * xu_y + e * (-c2 * y)
        return -gy, gx   # flux 1-form of the vector (gx, gy)

    return form


def _w2_form(co, nonlin):
    c1, c2 = co.c1, co.c2
    c = float(co.c)

    def form(j, x, y, w):
        xu_x, xu_y = X_from_jet(j, w)
        fu = np.asarray(nonlin.F(j.u), float)
        gx = -2.0 * fu * (-c1 * x) - 2.0 * c * j.u * xu_x
        gy = -2.0 * fu * (-c2 * y) - 2.0 * c * j.u * xu_y
        return -gy, gx

    return form


def omega_forms(params: OperatorParams, u: ScalarField, nonlin: NonlinearitySpec,
                p: Point, eta: Vec2) -> tuple[float, float]:
    """The two boundary densities (w1, w2) dotted with a given direction:
    w1 = [2 Du Xu + E V] . eta and w2 = [-2 F(u) V - 2 c u Xu] . eta,
    where V = (-c1 x, -c2 y).  These are the identities' own forms at one
    point: the flux form (P, Q) = (-gy, gx) of g gives g . eta = Q eta.x - P eta.y."""
    co = coefficients(params)
    j = jet2(u, p)
    w = operator_weights(params, p.x, p.y)

    def dot(form):
        fp, fq = form(j, p.x, p.y, w)
        return float(fq * eta.x - fp * eta.y)

    return dot(_w1_form(co)), dot(_w2_form(co, nonlin))


def _w1_boundary(u, domain, cfg) -> float:
    """int_{BC u sigma} w1, the w1 term of step1 and pohozaev."""
    w1 = _w1_form(coefficients(domain.params))
    return _curve_functional(u, domain, BoundaryCurveId.BC, cfg, w1) \
        + _curve_functional(u, domain, BoundaryCurveId.SIGMA, cfg, w1)


# ---------------------------------------------------------------------------
# step identities

def _report(identity, domain, field_str, f_str, lhs, rhs, defect, sides, cfg,
            note="") -> IdentityReport:
    return _record(identity, domain, lhs, rhs,
                   _rel_err(lhs, rhs, defect) <= REPORT_PASS_RTOL,
                   field=field_str, f=f_str, defect=defect, sides=sides,
                   quad=asdict(cfg), note=note)


@_timed
def step1_residual(u: ScalarField, domain: DomainSpec,
                   cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """For u vanishing on AC:
    2 * int D(u) O(u) = 2c * int E + int_{BC u sigma} w1."""
    co = _gate(u, domain, cfg, "step1", [BoundaryCurveId.AC])
    c = float(co.c)

    (lhs,) = _area_terms(u, domain, cfg, lambda p, sl: (p.Du[sl] * p.Ou[sl],))
    lhs = _area_value(lhs, cfg)
    e_int = _area_value([p.energy for _, p in _area_jets(u, domain, cfg)], cfg)
    b = _w1_boundary(u, domain, cfg)
    rhs = c * e_int + 0.5 * b
    sides = {"energy_integral": e_int, "omega1_boundary": b}
    return _report("step1", domain, to_prefix(u), "", lhs, rhs, 0.0, sides, cfg)


@_timed
def step2_residual(u: ScalarField, nonlin: NonlinearitySpec, domain: DomainSpec,
                   cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """For u vanishing on AC and sigma, F(0) = 0:
    int D(u) f(u) = kappa * int F(u) + int_BC F(u) V . eta."""
    co = _gate(u, domain, cfg, "step2", nonlin=nonlin)
    c1, c2 = co.c1, co.c2

    f_int, lhs = _area_terms(u, domain, cfg, lambda p, sl: (
        p.Du[sl] * np.asarray(nonlin.f(p.u[sl]), float),), nonlin)
    lhs, f_int = _area_value(lhs, cfg), _area_value(f_int, cfg)

    def fv_form(j, x, y, w):
        fu = np.asarray(nonlin.F(j.u), float)
        return -fu * (-c2 * y), fu * (-c1 * x)

    bc = _curve_functional(u, domain, BoundaryCurveId.BC, cfg, fv_form)
    rhs = float(co.kappa) * f_int + bc
    sides = {"F_integral": f_int, "FV_flux_BC": bc}
    return _report("step2", domain, to_prefix(u), nonlin.name, lhs, rhs, 0.0,
                   sides, cfg)


@_timed
def step3_residual(u: ScalarField, domain: DomainSpec,
                   cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """For u vanishing on AC and sigma:
    int u O(u) = int E + int_BC u Xu . eta."""
    co = _gate(u, domain, cfg, "step3")

    (lhs,) = _area_terms(u, domain, cfg, lambda p, sl: (p.u[sl] * p.Ou[sl],))
    lhs = _area_value(lhs, cfg)
    e_int = _area_value([p.energy for _, p in _area_jets(u, domain, cfg)], cfg)

    def uxu_form(j, x, y, w):
        xu_x, xu_y = X_from_jet(j, w)
        return -j.u * xu_y, j.u * xu_x

    bc = _curve_functional(u, domain, BoundaryCurveId.BC, cfg, uxu_form)
    rhs = e_int + bc
    sides = {"energy_integral": e_int, "uXu_flux_BC": bc}
    return _report("step3", domain, to_prefix(u), "", lhs, rhs, 0.0, sides, cfg)


@_timed
def pohozaev_residual(u: ScalarField, nonlin: NonlinearitySpec, domain: DomainSpec,
                      cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """Dilation identity with explicit defect:
    kappa int F(u) - c int u f(u)
      = (1/2)[int_{BC u sigma} w1 + int_BC w2] + int (Du - c u)(f(u) - O u).
    For a true solution (O u = f(u)) the defect vanishes."""
    co = _gate(u, domain, cfg, "pohozaev", nonlin=nonlin)
    c = float(co.c)

    def terms(p, sl):   # f(u) once per block, for both terms
        ub = p.u[sl]
        fu = np.asarray(nonlin.f(ub), float)
        return ub * fu, (p.Du[sl] - c * ub) * (fu - p.Ou[sl])

    f_int, uf_int, defect = _area_terms(u, domain, cfg, terms, nonlin)
    f_int, uf_int = _area_value(f_int, cfg), _area_value(uf_int, cfg)
    lhs = float(co.kappa) * f_int - c * uf_int

    b1 = _w1_boundary(u, domain, cfg)
    b2 = _curve_functional(u, domain, BoundaryCurveId.BC, cfg,
                           _w2_form(co, nonlin))
    rhs = 0.5 * (b1 + b2)

    defect = _area_value(defect, cfg)
    sides = {"F_integral": f_int, "uf_integral": uf_int,
             "omega1_boundary": b1, "omega2_boundary_BC": b2}
    note = ("defect form: the identity is conditional on O u = f(u); "
            "for manufactured fields the defect term closes it exactly")
    return _report("pohozaev", domain, to_prefix(u), nonlin.name, lhs, rhs,
                   defect, sides, cfg, note)


def sigma_boundary_sign(u: ScalarField, domain: DomainSpec,
                        cfg: QuadConfig = QuadConfig()) -> float:
    """int_sigma E (c1 x dy - c2 y dx) for u vanishing on sigma of a
    star-shaped domain.  Nonnegative whenever sigma lies in the closed
    elliptic half-plane y >= 0 (omega1, omega2) and exactly zero on the
    omega4 segment; the omega3 arc dips into y < 0 where the integrand is
    sign-indefinite, so no sign claim is made there."""
    co = _gate(u, domain, cfg, "sigma_boundary_sign",
                       [BoundaryCurveId.SIGMA])
    rep = check_starshaped(domain)
    if not rep.is_starlike:
        raise PreconditionViolated(
            f"domain is not star-shaped under the dilation flow "
            f"(min form {rep.min_form:.3e} at {rep.worst_point})")
    c1, c2 = co.c1, co.c2

    def form(j, x, y, w):
        e = energy_from_jet(j, w)
        return -c2 * y * e, c1 * x * e

    return _curve_functional(u, domain, BoundaryCurveId.SIGMA, cfg, form)


SIGN_CLAIM_VARIANTS = ("omega1", "omega2", "omega4")  # sigma stays in y >= 0


@_timed
def sigma_sign_report(u: ScalarField, domain: DomainSpec,
                      cfg: QuadConfig = QuadConfig()) -> IdentityReport:
    """sigma_boundary_sign as a one-sided check: on SIGN_CLAIM_VARIANTS the
    value must be at least -1e-9; elsewhere no sign is claimed and the
    record passes with the value it found."""
    val = sigma_boundary_sign(u, domain, cfg)
    claimed = domain.variant.value in SIGN_CLAIM_VARIANTS
    note = ("sign claim holds: sigma lies in y >= 0" if claimed else
            "no sign claim: this sigma dips below y = 0")
    return _record("sigma-sign", domain, val, val, not claimed or val >= -1e-9,
                   field=to_prefix(u), note=note,
                   sides={"value": val, "bound": -1e-9})


# ---------------------------------------------------------------------------
# scaling ratios

@dataclass(frozen=True)
class _Box:
    """The box [-lx, lx] x [-ly, ly] as an area region, one chart per sign
    quadrant so |x|, |y| weights stay smooth per chart."""
    lx: float
    ly: float

    def area_charts(self) -> list[AreaChart]:
        def quadrant(sx, sy, lx=self.lx, ly=self.ly):
            return AreaChart(f"{sx:+.0f}{sy:+.0f}",
                             lambda U, V: (sx * lx * U, sy * ly * V, lx * ly))

        return [quadrant(sx, sy) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]


@lru_cache(maxsize=32)
def _box_sums(u: ScalarField, lx: float, ly: float, pexp: float,
              params: OperatorParams, cfg: QuadConfig):
    """(fine, coarse) sums of |u|**pexp and of the weighted-gradient density
    over the box [-lx, lx] x [-ly, ly], streamed: both densities of a block
    read its one first-order jet, which goes with the block."""
    def densities(g, sl):
        x, y = g.x[sl], g.y[sl]
        j = u.jet(x, y, second=False)
        return np.abs(j.u) ** pexp, norm_from_jet(params, j, x, y)

    # a sum that overflows is inf, which check_two_level reports
    with np.errstate(over="ignore"):
        sums = [quad._streamed_sums(g, lambda sl, g=g: densities(g, sl))
                for g in quad.domain_grids(_Box(lx, ly), cfg)]
    return tuple(zip(*sums))


def scaling_ratios(u: ScalarField, lam: float, pexp: float,
                   coeffs: Coefficients, cfg: QuadConfig = QuadConfig()) -> dict:
    """Ratios ||u_lam||_p^p / ||u||_p^p and the weighted-gradient analogue,
    integrating u over the unit box and u_lam over its dilated image (the
    exact change of variables, so the expected ratios are lam**kappa and
    lam**mu)."""
    for name, value in (("lam", lam), ("pexp", pexp)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not pexp >= 1:
        raise ValueError("pexp must be >= 1")

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


@_timed
def scaling_reports(u: ScalarField, lam: float, pexp: float,
                    params: OperatorParams,
                    cfg: QuadConfig = QuadConfig()) -> list[IdentityReport]:
    """scaling_ratios at one lam as two records, scaling-lp against
    lam**kappa and scaling-grad against lam**mu, each to 1e-9 relative."""
    co = coefficients(params)
    r = scaling_ratios(u, lam, pexp, co, cfg)
    return [_record(f"scaling-{name}", params, got, lam ** expo,
                    abs(got / lam ** expo - 1.0) <= 1e-9, field=to_prefix(u),
                    sides={"lam": lam, "pexp": pexp}, note=f"expected lam**{expo}")
            for name, expo, got in (("lp", co.kappa, r["lp_ratio"]),
                                    ("grad", co.mu, r["grad_ratio"]))]


# ---------------------------------------------------------------------------
# the one-dimensional Hardy package on (y_c, 0)

@dataclass(frozen=True)
class HardyParams:
    """The interval (y_c, 0) of the p = q = 2 Hardy package."""
    y_c: float = -1.0

    def __post_init__(self):
        if not math.isfinite(self.y_c):
            raise ValueError(f"y_c must be finite, got {self.y_c}")
        if not self.y_c < 0:
            raise ValueError("need y_c < 0")


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
    (int_x^0 w dt)^(1/2) * (int_{y_c}^x v^(-1) dt)^(1/2)."""
    _require_mu(params)
    if not (pq.y_c < x < 0):
        raise OutOfRange(f"need y_c < x < 0, got x = {x}")
    e1, e2 = (float(e) for e in hardy_weight_exponents(params))
    i_w = quad.integrate_neg_interval(lambda t: (-t) ** e2, x, cfg)

    # v^(-1) blows up like a power toward 0; the substitution t = -exp(-s)
    # turns it into a smooth exponential that composite Gauss resolves
    def g(s):
        t = -np.exp(-s)
        return (-t) ** -e1 * np.exp(-s)

    i_v = quad.integrate_interval(g, -math.log(-pq.y_c), -math.log(-x), cfg)
    return i_w ** 0.5 * i_v ** 0.5


def _mucken_product_grid(params: OperatorParams, pq: HardyParams,
                         xs: np.ndarray) -> np.ndarray:
    # closed antiderivatives of w and v^(-1) over xs (1 - e1 = -mu/c2 != 0)
    e1, e2 = (float(e) for e in hardy_weight_exponents(params))
    iw = (-xs) ** (e2 + 1.0) / (e2 + 1.0)
    iv = ((-pq.y_c) ** (1.0 - e1) - (-xs) ** (1.0 - e1)) / (1.0 - e1)
    return iw ** 0.5 * iv ** 0.5


def hardy_constants(params: OperatorParams, pq: HardyParams) -> dict:
    """Muckenhoupt constant M_L, the bridging factor r(2, 2) = 2 and the
    bounds [M_L, r M_L] for the best constant, as exact rationals; a
    10^4-point grid supremum confirms the closed form of M_L."""
    co = _require_mu(params)
    m_l = Fraction(co.c2, co.mu)
    r = Fraction(2)
    n = 10_000
    half = n // 2
    if not -pq.y_c * 1e-18 > 0:
        raise OutOfRange(f"y_c = {pq.y_c} is out of range: the grid toward 0 "
                         "underflows to 0")
    xs = np.concatenate([
        np.linspace(pq.y_c * (1.0 - 0.5 / half), pq.y_c / 2.0, half),
        -np.geomspace(-pq.y_c / 2.0, -pq.y_c * 1e-18, n - half),
    ])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            grid_sup = float(np.max(_mucken_product_grid(params, pq, xs)))
    except OverflowError:   # a Python float power of -y_c, as for y_c = -1e-300
        grid_sup = math.inf
    if not math.isfinite(grid_sup):
        raise OutOfRange(f"y_c = {pq.y_c} is out of range: the grid supremum "
                         f"is {grid_sup}")
    if abs(grid_sup - float(m_l)) > 1e-8 * max(1.0, float(m_l)):
        raise NonConvergence(
            f"grid supremum {grid_sup!r} does not reach M_L = {m_l}")
    return {"M_L": m_l, "r": r, "C_L_low": m_l, "C_L_high": r * m_l,
            "grid_sup": grid_sup}


def _phi_base(y_c: float, at_zero: bool) -> np.polynomial.Polynomial:
    base = np.polynomial.Polynomial([-y_c, 1.0])   # (t - y_c), times -t if at_zero
    return base * np.polynomial.Polynomial([0.0, -1.0]) if at_zero else base


def random_hardy_phi(y_c: float, rng) -> SampleFn1D:
    """Random polynomial vanishing at y_c (the Hardy-side requirement)."""
    p = _phi_base(y_c, False) * np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=4))
    return SampleFn1D(p, p.deriv(), y_c, 0.0)


def random_boundary_phi(y_c: float, rng) -> SampleFn1D:
    """Random polynomial vanishing at both ends of [y_c, 0]."""
    p = _phi_base(y_c, True) * np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=4))
    return SampleFn1D(p, p.deriv(), y_c, 0.0)


# The sweeps draw and evaluate their phi this many at a time, so each
# temporary holds 16 x 512 doubles (64 KiB) however many the sweeps are.
_PHI_BLOCK = 16


def _rows_at(c, t):
    # Polynomial.__call__ of each column of c: its domain map, then Horner
    return np.polynomial.polynomial.polyval(0.0 + 1.0 * t, c)


def _swept(check, y_c: float, at_zero: bool, sweeps: int, rng) -> Iterator[float]:
    """check's value for each phi random_*_phi would draw from rng, in order.
    check gets blocks of phi whose fn and dfn return one row per phi: one draw
    per block is the stream of its single draws, and each row is built as
    Polynomial builds it (np.convolve, then j c_j), bit for bit that phi."""
    base = _phi_base(y_c, at_zero).coef
    for start in range(0, sweeps, _PHI_BLOCK):
        r = rng.uniform(-1.0, 1.0, size=(min(_PHI_BLOCK, sweeps - start), 4))
        c = np.array([np.convolve(base, row) for row in r]).T
        dc = np.arange(1, len(c))[:, None] * c[1:]
        phi = SampleFn1D(partial(_rows_at, c), partial(_rows_at, dc), y_c, 0.0)
        yield from check(phi).tolist()


def _weighted_square(e: float, fn, y_c: float, cfg: QuadConfig) -> tuple:
    """(fine, coarse) sums of int_{y_c}^0 (-t)^e fn(t)^2 dt, one per row."""
    return quad.neg_interval_sums(
        lambda t: (-t) ** e * np.asarray(fn(t), float) ** 2, y_c, cfg)


def _settled(phi: SampleFn1D, ends, message: str, cfg: QuadConfig, *sums) -> list:
    """Each integral's fine sums (floats for one phi), refused row by row as a
    loop over the phi would: a row must vanish at ends relative to its size
    on [a, b] (NaN is left to the two-level check), then settle each integral."""
    t = np.linspace(phi.a, phi.b, 257)
    scale = 1.0 + np.max(np.abs(np.asarray(phi.fn(t), float)), axis=-1)
    bad = np.any([np.abs(np.asarray(phi.fn(end), float)) > 1e-12 * scale
                  for end in ends], axis=0)
    for i in np.ndindex(bad.shape):
        if bad[i]:
            raise PreconditionViolated(message)
        for fine, coarse in sums:
            check_two_level(float(fine[i]), float(coarse[i]), cfg, "interval integral")
    return [fine if bad.ndim else float(fine) for fine, _ in sums]


def boundary_energy_I(params: OperatorParams, y_c: float, phi: SampleFn1D,
                      cfg: QuadConfig = QuadConfig()):
    """The boundary energy functional reduced to (y_c, 0):
    I = 2 c2 A int v (phi')^2 - (mu^2 / (2 c2)) A int w phi^2,
    with A = (c2/c1)**(m2/c2) > 0.  Nonnegative by the Hardy inequality.
    One I per row for a block phi, whose fn and dfn return rows."""
    co = _require_mu(params)
    if not y_c < 0:
        raise ValueError("need y_c < 0")
    if abs(phi.a - y_c) > 1e-12 or abs(phi.b) > 1e-12:
        raise ValueError("phi must live on [y_c, 0]")
    e1, e2 = (float(e) for e in hardy_weight_exponents(params))
    a_fac = (co.c2 / co.c1) ** (params.m2 / co.c2)
    i1, i2 = _settled(phi, (y_c, 0.0), "boundary energy needs phi(y_c) = phi(0) = 0", cfg,
                      _weighted_square(e1, phi.dfn, y_c, cfg),
                      _weighted_square(e2, phi.fn, y_c, cfg))
    return 2.0 * co.c2 * a_fac * i1 - (co.mu ** 2 / (2.0 * co.c2)) * a_fac * i2


def hardy_inequality_check(params: OperatorParams, pq: HardyParams,
                           phi: SampleFn1D,
                           cfg: QuadConfig = QuadConfig()) -> Residual:
    """[int w phi^2]^(1/2) <= C_L [int v (phi')^2]^(1/2) with C_L = 2 c2/mu,
    for phi vanishing at y_c.  Returns Residual(lhs, rhs); the inequality
    holds when lhs <= rhs.  One lhs and rhs per row for a block phi."""
    co = _require_mu(params)
    if abs(phi.a - pq.y_c) > 1e-12:
        raise ValueError("phi must live on [y_c, 0]")
    e1, e2 = (float(e) for e in hardy_weight_exponents(params))
    i2, i1 = _settled(phi, (pq.y_c,), "the Hardy inequality needs phi(y_c) = 0", cfg,
                      _weighted_square(e2, phi.fn, pq.y_c, cfg),
                      _weighted_square(e1, phi.dfn, pq.y_c, cfg))
    sqrt = np.sqrt if np.ndim(i1) else math.sqrt
    return Residual(sqrt(i2), (2.0 * co.c2 / co.mu) * sqrt(i1))


def equivalence_chain(params: OperatorParams) -> bool:
    """Exact rational chain M_L <= 2 c2/mu <= 2 M_L, with the right-hand
    comparison an equality."""
    co = _require_mu(params)
    m_l = Fraction(co.c2, co.mu)
    c_l = Fraction(2 * co.c2, co.mu)
    return m_l <= c_l <= 2 * m_l and c_l == 2 * m_l


# ---------------------------------------------------------------------------
# the Hardy package as check records, each timed on its own

@_timed
def _constants_report(params: OperatorParams, pq: HardyParams) -> IdentityReport:
    hc = hardy_constants(params, pq)
    m_l = float(hc["M_L"])
    return _record("hardy-constants", params, hc["grid_sup"], m_l,
                   abs(hc["grid_sup"] - m_l) <= 1e-8 * max(1.0, m_l),
                   sides={k: str(hc[k]) for k in ("M_L", "r", "C_L_low", "C_L_high")},
                   note="grid supremum of G_L against the closed form")


@_timed
def _chain_report(params: OperatorParams) -> IdentityReport:
    co = coefficients(params)
    c_l = 2.0 * co.c2 / co.mu
    return _record("hardy-chain", params, c_l, c_l, equivalence_chain(params),
                   note="M_L <= 2 c2/mu = 2 M_L, exact rationals")


@_timed
def _energy_sweep_report(params, pq, sweeps, rng, cfg) -> IdentityReport:
    worst = min(_swept(lambda phi: boundary_energy_I(params, pq.y_c, phi, cfg),
                       pq.y_c, True, sweeps, rng))
    return _record("hardy-energy-sweep", params, worst, worst, worst >= -1e-9,
                   sides={"sweeps": sweeps, "bound": -1e-9},
                   note="minimum of the boundary energy functional over random phi")


@_timed
def _inequality_sweep_report(params, pq, sweeps, rng, cfg) -> IdentityReport:
    def margin(phi):
        r = hardy_inequality_check(params, pq, phi, cfg)
        return r.lhs - r.rhs

    worst = max(_swept(margin, pq.y_c, False, sweeps, rng))
    return _record("hardy-inequality-sweep", params, worst, worst, worst <= 1e-10,
                   sides={"sweeps": sweeps, "bound": 1e-10},
                   note="max of lhs - rhs over random phi; nonpositive means "
                        "the inequality held")


def hardy_reports(params: OperatorParams, pq: HardyParams = HardyParams(),
                  sweeps: int = 100, seed: int = 42,
                  cfg: QuadConfig = QuadConfig()) -> Iterator[IdentityReport]:
    """Four records: the grid supremum of G_L against M_L (to 1e-8), the
    exact chain M_L <= 2 c2/mu = 2 M_L, and over sweeps seeded random phi
    the least boundary energy (at least -1e-9) and the largest Hardy
    margin lhs - rhs (at most 1e-10).  They are made one at a time as the
    iterator is consumed, so a list it extends keeps the records finished
    before a failure."""
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    rng = np.random.default_rng(seed)

    def records():
        yield _constants_report(params, pq)
        yield _chain_report(params)
        yield _energy_sweep_report(params, pq, sweeps, rng, cfg)
        yield _inequality_sweep_report(params, pq, sweeps, rng, cfg)

    return records()
