"""Integral identities, the sigma-arc sign, dilation scaling ratios and the
one-dimensional Hardy package, each checked against a route the module under
test does not use."""
import json
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from tricomi import identities, quad
from tricomi.errors import (DegenerateDenominator, NonConvergence, OutOfRange,
                            PreconditionViolated)
from tricomi.field import (X, Y, Const, Jet2, SampleFn1D, ScalarField,
                           VANISH_AC, manufactured)
from tricomi.geometry import (BoundaryCurveId, ParametricArc, Point, Vec2,
                              omega1, omega4)
from tricomi.identities import (HardyParams, IdentityReport, boundary_energy_I,
                                equivalence_chain, hardy_GL, hardy_GL_numeric,
                                hardy_constants, hardy_inequality_check,
                                hardy_weight_exponents, omega_forms,
                                pohozaev_residual, random_boundary_phi,
                                random_hardy_phi, reference_domains,
                                scaling_ratios, sigma_boundary_sign,
                                step1_residual, step2_residual, step3_residual)
from tricomi.params import (NonlinearitySpec, OperatorParams, coefficients,
                            cubic_nonlinearity, power_nonlinearity)
from tricomi.quad import QuadConfig


def polynomial_sample_fn(coeffs_list, a: float, b: float) -> SampleFn1D:
    """SampleFn1D from polynomial coefficients (lowest degree first)."""
    p = np.polynomial.Polynomial(list(coeffs_list))
    return SampleFn1D(p, p.deriv(), a, b)


def test_reference_domains_cover_all_variants():
    doms = reference_domains()
    assert [d.variant.name for d in doms] == \
        ["OMEGA1", "OMEGA2", "OMEGA3", "OMEGA4"]
    assert [(d.params.m1, d.params.m2) for d in doms] == \
        [(1, 4), (1, 4), (1, 4), (1, 0)]


# ---------------------------------------------------------------------------
# the step identities on the manufactured fields

def test_step_identities_on_reference_fixtures():
    cubic = cubic_nonlinearity()
    for dom in reference_domains():
        u = manufactured(dom)
        for make in (lambda: step1_residual(u, dom),
                     lambda: step2_residual(u, cubic, dom),
                     lambda: step3_residual(u, dom)):
            rep = make()
            assert rep.passed
            assert rep.rel_err <= 1e-10
            assert rep.defect == 0.0
            assert rep.sides


def test_pohozaev_on_reference_fixtures():
    cubic = cubic_nonlinearity()
    for dom in reference_domains():
        rep = pohozaev_residual(manufactured(dom), cubic, dom)
        assert rep.passed and rep.rel_err <= 1e-10
        # the manufactured u solves no equation, so the defect term is live
        assert rep.defect != 0.0
        assert "defect" in rep.note


def test_power_nonlinearity_path():
    dom = omega1(1, 4, -0.5)
    u = manufactured(dom)
    for rep in (step2_residual(u, power_nonlinearity(3.0), dom),
                pohozaev_residual(u, power_nonlinearity(3.0), dom)):
        assert rep.passed and rep.rel_err <= 1e-10
        assert rep.f == "power"


def test_step1_with_field_nonzero_on_sigma():
    # step 1 only needs u = 0 on AC; exercise it with u alive on the arc
    dom = omega1(1, 4, -0.5)
    rep = step1_residual(manufactured(dom, VANISH_AC), dom)
    assert rep.passed and rep.rel_err <= 1e-10


def test_zero_field_is_exact():
    dom = omega1(1, 4, -0.5)
    rep = pohozaev_residual(Const(0.0), cubic_nonlinearity(), dom)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.defect == 0.0
    assert rep.abs_err == 0.0 and rep.passed


def test_step_identity_preconditions():
    dom = omega1(1, 4, -0.5)
    with pytest.raises(PreconditionViolated):
        step1_residual(X, dom)      # X does not vanish on AC
    bad = NonlinearitySpec("shifted", f=lambda s: s, F=lambda s: s + 1.0)
    with pytest.raises(PreconditionViolated):
        step2_residual(manufactured(dom), bad, dom)


@pytest.fixture
def failing_selftest(monkeypatch):
    # a divergence self-test that misses by 3.2e-2; its result is kept per
    # (domain, cfg), so the kept one is cleared on both sides of the test
    identities._ensure_oriented.cache_clear()
    monkeypatch.setattr(identities, "divergence_selftest",
                        lambda domain, cfg: quad.Residual(1.0, 1.1))
    yield
    identities._ensure_oriented.cache_clear()


@pytest.mark.parametrize("check", [
    lambda u, dom: step1_residual(u, dom),
    lambda u, dom: step2_residual(u, cubic_nonlinearity(), dom),
    lambda u, dom: step3_residual(u, dom),
    lambda u, dom: pohozaev_residual(u, cubic_nonlinearity(), dom),
    lambda u, dom: sigma_boundary_sign(u, dom),
], ids=["step1", "step2", "step3", "pohozaev", "sigma_boundary_sign"])
def test_a_failed_divergence_selftest_stops_every_identity(failing_selftest, check):
    dom = omega1(1, 4, -0.5)
    with pytest.raises(NonConvergence) as ei:
        check(manufactured(dom), dom)
    assert str(ei.value).startswith(
        "divergence self-test rel error 3.226e-02 exceeds 1.0e-08")


def test_a_failed_divergence_selftest_fails_its_record(failing_selftest):
    rep = identities.selftest_report(omega1(1, 4, -0.5))
    assert (rep.lhs, rep.rhs) == (1.0, 1.1)
    assert rep.passed is False


def test_report_json_round_trip():
    dom = omega1(1, 4, -0.5)
    rep = step3_residual(manufactured(dom), dom)
    text = rep.to_json()
    assert json.loads(text)["pass"] is True
    assert IdentityReport.from_json(text) == rep
    assert rep.with_seconds(0.0).seconds == 0.0


def test_omega_forms_hand_expansion():
    # u = x^2 y at (-1, -1) with (m1, m2) = (1, 4):
    # Xu = (2, -1), Du = 12, E = -3, V = (3, 6), F(u) = 1/4, c = 9/2
    params = OperatorParams(1, 4)
    w1, w2 = omega_forms(params, X ** 2 * Y, cubic_nonlinearity(),
                         Point(-1.0, -1.0), Vec2(0.6, 0.8))
    assert w1 == pytest.approx(39 * 0.6 - 42 * 0.8, abs=1e-12)
    assert w2 == pytest.approx(16.5 * 0.6 - 12 * 0.8, abs=1e-12)


# ---------------------------------------------------------------------------
# the sigma-arc boundary sign

SIGMA_FROZEN = {
    "OMEGA1": 0.06668815244760253,
    "OMEGA2": 0.06668815244760254,
    "OMEGA3": -1.4056155944131392,
}


def test_sigma_sign_frozen_values():
    for dom in reference_domains():
        val = sigma_boundary_sign(manufactured(dom), dom)
        if dom.variant.name == "OMEGA4":
            assert val == 0.0    # x and dx vanish identically on the segment
        else:
            assert val == pytest.approx(SIGMA_FROZEN[dom.variant.name],
                                        rel=1e-12)
    assert SIGMA_FROZEN["OMEGA1"] > 0 and SIGMA_FROZEN["OMEGA2"] > 0
    assert SIGMA_FROZEN["OMEGA3"] < 0   # the arc dips below y = 0


def test_sigma_sign_independent_route():
    # re-do omega1 by brute force: parameterize the arc directly and use the
    # trapezoid rule, no charts, no Gauss panels
    dom = omega1(1, 4, -0.5)
    u = manufactured(dom)
    co = coefficients(dom.params)
    t = np.linspace(0.0, math.pi, 200_001)
    x = -0.5 + 0.5 * np.cos(t)
    y = 0.5 * np.sin(t)
    j = u.jet(x, y)
    e = y ** 1 * j.ux ** 2 + x ** 4 * j.uy ** 2
    integrand = (-co.c2 * y * e) * (-0.5 * np.sin(t)) \
        + (co.c1 * x * e) * (0.5 * np.cos(t))
    brute = float(np.trapezoid(integrand, t))
    assert brute == pytest.approx(SIGMA_FROZEN["OMEGA1"], abs=1e-8)


def test_sigma_sign_preconditions():
    dom = omega1(1, 4, -0.5)
    with pytest.raises(PreconditionViolated):
        sigma_boundary_sign(X, dom)   # X does not vanish on the arc
    # a dented arc breaks star-shapedness and must be refused, also at
    # x0 = -1e-5, where the star-shape form is of order 1e-10
    for x0 in (-0.5, -1e-5):
        dom = omega1(1, 4, x0)
        c, (a, b) = dom.arc.center, dom.arc.semi_axes

        def fn(theta, c=c, a=a, b=b):
            th = np.asarray(theta, float)
            rho = 1.0 - 0.75 * np.sin(th) ** 6
            return (c.x + a * np.cos(th) * rho, c.y + b * np.sin(th) * rho)

        dented = omega1(1, 4, x0, arc=ParametricArc(fn, 0.0, math.pi))
        with pytest.raises(PreconditionViolated) as ei:
            sigma_boundary_sign(Const(0.0), dented)
        assert "star-shaped" in str(ei.value)


# ---------------------------------------------------------------------------
# dilation scaling ratios

BUMP = (Const(1.0) - X ** 2) * (Const(1.0) - Y ** 2)


def test_scaling_ratios_exact_powers_of_two():
    for (m1, m2), lam in [((1, 4), 2.0), ((1, 4), 0.5), ((1, 0), 2.0)]:
        co = coefficients(OperatorParams(m1, m2))
        got = scaling_ratios(BUMP, lam, 4.0, co)
        assert got["lp_ratio"] == lam ** co.kappa
        assert got["grad_ratio"] == lam ** co.mu


def test_scaling_rejects_zero_field():
    co = coefficients(OperatorParams(1, 4))
    with pytest.raises(PreconditionViolated):
        scaling_ratios(Const(0.0), 2.0, 4.0, co)
    with pytest.raises(ValueError):
        scaling_ratios(BUMP, -1.0, 4.0, co)
    with pytest.raises(ValueError):
        scaling_ratios(BUMP, 2.0, 0.5, co)


# ---------------------------------------------------------------------------
# the Hardy package

def test_hardy_params_validation():
    assert HardyParams().y_c == -1.0
    with pytest.raises(ValueError):
        HardyParams(y_c=0.0)


def test_hardy_weight_exponents_exact():
    assert hardy_weight_exponents(OperatorParams(1, 4)) == \
        (Fraction(5, 2), Fraction(1, 2))
    assert hardy_weight_exponents(OperatorParams(3, 2)) == \
        (Fraction(15, 4), Fraction(7, 4))
    # the function weight never drops below the integrable -1/2
    e2 = hardy_weight_exponents(OperatorParams(1, 0))[1]
    assert e2 == Fraction(-1, 2)


def test_hardy_gl_closed_form():
    got = hardy_GL(OperatorParams(1, 4), -1.0, -0.5)
    assert got == pytest.approx((2.0 / 3.0) * math.sqrt(1.0 - 0.5 ** 1.5),
                                abs=1e-15)
    with pytest.raises(OutOfRange):
        hardy_GL(OperatorParams(1, 4), -1.0, 0.0)
    with pytest.raises(OutOfRange):
        hardy_GL(OperatorParams(1, 4), -1.0, -1.5)
    with pytest.raises(DegenerateDenominator):
        hardy_GL(OperatorParams(0, 0), -1.0, -0.5)


def test_hardy_gl_numeric_matches_closed_form():
    pq = HardyParams()
    for params in (OperatorParams(1, 4), OperatorParams(3, 2)):
        for x in (-0.9, -0.5, -0.1, -0.01):
            closed = hardy_GL(params, pq.y_c, x)
            direct = hardy_GL_numeric(params, pq, x)
            assert direct == pytest.approx(closed, abs=1e-10)


def test_hardy_constants_exact_case():
    got = hardy_constants(OperatorParams(1, 4), HardyParams())
    assert got["M_L"] == Fraction(2, 3)
    assert got["r"] == Fraction(2)
    assert got["C_L_low"] == Fraction(2, 3)
    assert got["C_L_high"] == Fraction(4, 3)
    assert abs(got["grid_sup"] - 2.0 / 3.0) <= 1e-8


def test_a_grid_supremum_off_M_L_is_nonconvergence(monkeypatch):
    # 1e-3 above the exact supremum: the grid no longer confirms M_L
    grid = identities._mucken_product_grid
    monkeypatch.setattr(identities, "_mucken_product_grid",
                        lambda *args: 1.001 * grid(*args))
    with pytest.raises(NonConvergence, match="does not reach M_L = 2/3"):
        hardy_constants(OperatorParams(1, 4), HardyParams())


def test_boundary_energy_closed_oracle():
    # phi = (-t)(t + 1) on [-1, 0] for (m1, m2) = (1, 4).  Moment arithmetic
    # in s = -t gives I1 = 8/11 - 8/9 + 2/7, I2 = 2/7 - 4/9 + 2/11 and
    # I = A (12 I1 - 27/4 I2) = (4/3) 2^(2/3).
    i1 = Fraction(8, 11) - Fraction(8, 9) + Fraction(2, 7)
    i2 = Fraction(2, 7) - Fraction(4, 9) + Fraction(2, 11)
    want = float(12 * i1 - Fraction(27, 4) * i2) * 2.0 ** (2.0 / 3.0)
    assert want == pytest.approx((4.0 / 3.0) * 2.0 ** (2.0 / 3.0), abs=1e-15)
    phi = polynomial_sample_fn([0.0, -1.0, -1.0], -1.0, 0.0)
    got = boundary_energy_I(OperatorParams(1, 4), -1.0, phi)
    assert got == pytest.approx(want, abs=1e-12)


def test_boundary_energy_preconditions():
    params = OperatorParams(1, 4)
    with pytest.raises(ValueError):
        boundary_energy_I(params, -1.0, polynomial_sample_fn([1.0], -2.0, 0.0))
    with pytest.raises(PreconditionViolated):
        # constant 1 does not vanish at the ends
        boundary_energy_I(params, -1.0, polynomial_sample_fn([1.0], -1.0, 0.0))


def test_boundary_energy_rejects_nan_phi():
    # NaN passes the comparison-based endpoint preconditions, so the
    # two-level check is what refuses it; a sweep's min() would drop it
    def nan_fn(t):
        return np.full_like(np.asarray(t, float), np.nan)

    phi = SampleFn1D(nan_fn, nan_fn, -1.0, 0.0)
    with pytest.raises(NonConvergence, match="is not finite"):
        boundary_energy_I(OperatorParams(1, 4), -1.0, phi)

    # nor may a block's min or max drop one NaN row among valid ones
    good = random_boundary_phi(-1.0, np.random.default_rng(5))

    def rows(f):
        return lambda t: np.stack([f(t), nan_fn(t), f(t)])

    block = SampleFn1D(rows(good.fn), rows(good.dfn), -1.0, 0.0)
    with pytest.raises(NonConvergence, match="is not finite"):
        boundary_energy_I(OperatorParams(1, 4), -1.0, block)


def test_hardy_inequality_linear_phi_closed_values():
    # phi = t + 1: lhs = sqrt(16/105), rhs = (4/3) sqrt(2/7)
    phi = polynomial_sample_fn([1.0, 1.0], -1.0, 0.0)
    res = hardy_inequality_check(OperatorParams(1, 4), HardyParams(), phi)
    assert res.lhs == pytest.approx(math.sqrt(16.0 / 105.0), abs=1e-12)
    assert res.rhs == pytest.approx((4.0 / 3.0) * math.sqrt(2.0 / 7.0),
                                    abs=1e-12)
    assert res.lhs < res.rhs


def test_hardy_random_sweeps():
    rng = np.random.default_rng(20250815)
    params = OperatorParams(1, 4)
    pq = HardyParams()
    for _ in range(20):
        phi = random_hardy_phi(pq.y_c, rng)
        res = hardy_inequality_check(params, pq, phi)
        assert res.lhs <= res.rhs + 1e-10
        bnd = random_boundary_phi(pq.y_c, rng)
        assert np.isclose(float(bnd.fn(pq.y_c)), 0.0, atol=1e-12)
        assert np.isclose(float(bnd.fn(0.0)), 0.0, atol=1e-12)
        assert boundary_energy_I(params, pq.y_c, bnd) >= -1e-9


def test_hardy_reports_refuse_an_empty_sweep():
    # a sweep over no functions would pass without testing anything
    with pytest.raises(ValueError, match="sweeps must be at least 1"):
        identities.hardy_reports(OperatorParams(1, 4), sweeps=0)


def test_equivalence_chain():
    assert equivalence_chain(OperatorParams(1, 4))
    assert equivalence_chain(OperatorParams(3, 2))
    with pytest.raises(DegenerateDenominator):
        equivalence_chain(OperatorParams(0, 0))


def test_identities_honor_quad_config():
    # a coarse, loose config must still run end to end
    cfg = QuadConfig(gauss_order=6, panels_per_axis=8,
                     abs_tol=1e-6, rel_tol=1e-5)
    dom = omega1(1, 4, -0.5)
    rep = step3_residual(manufactured(dom), dom, cfg=cfg)
    assert rep.quad["gauss_order"] == 6
    assert rep.rel_err <= 1e-5


# ---------------------------------------------------------------------------
# level memos: each jet, weight and self-test computed once per level

SMALL = QuadConfig(panels_per_axis=8)


def test_boundary_samples_are_taken_once_per_field_and_domain(monkeypatch):
    identities._boundary_maxima.cache_clear()
    dom = omega1(1, 4, -0.5)
    u = manufactured(dom, VANISH_AC)   # zero on AC, alive on sigma
    sampled = []
    jet = ScalarField.jet

    def spy(self, x, y, second=True):
        if np.size(x) == 100:          # the precondition's samples per piece
            sampled.append(self)
        return jet(self, x, y, second)

    monkeypatch.setattr(ScalarField, "jet", spy)
    step1_residual(u, dom, SMALL)
    assert len(sampled) == 3           # AC, BC and sigma, once each
    step1_residual(u, dom, SMALL)
    with pytest.raises(PreconditionViolated, match="step3 needs u = 0 on"):
        step3_residual(u, dom, SMALL)  # the gate still reads the cached maxima
    assert len(sampled) == 3


def test_scaling_ratios_evaluates_one_jet_per_field_and_box_level(monkeypatch):
    identities._box_sums.cache_clear()
    calls = []
    jet = ScalarField.jet
    monkeypatch.setattr(ScalarField, "jet", lambda self, *a, **k:
                        calls.append(self) or jet(self, *a, **k))
    co = coefficients(OperatorParams(1, 4))
    cfg = QuadConfig(panels_per_axis=4)
    got = [scaling_ratios(BUMP, lam, 4.0, co, cfg) for lam in (0.5, 2.0)]
    # the base box once per level, each dilated box once per level
    assert len(calls) == 6
    assert got[1]["lp_ratio"] == 2.0 ** co.kappa


def test_an_overflowing_box_sum_is_not_finite_without_a_warning():
    # |u|**pexp overflows inside the streamed pass; warnings are errors here
    identities._box_sums.cache_clear()
    u = BUMP * (Const(1.0) + X / 3 - Y / 5)
    co = coefficients(OperatorParams(1, 4))
    with pytest.raises(NonConvergence, match="box integral is not finite"):
        scaling_ratios(u, 0.5, 1e6, co, QuadConfig(panels_per_axis=4))


def test_jets_are_released_with_their_domain():
    dom = omega1(1, 4, -0.5)
    levels = identities._area_jets(manufactured(dom), dom, SMALL)
    kept = [weakref.ref(a) for a in levels[0][1][:3]]
    first = [a.copy() for a in levels[0][1][:3]]
    del levels
    assert all(k() is not None for k in kept)      # still on the cached level
    other = omega4(1, 0, -0.5)
    identities._area_jets(manufactured(other), other, SMALL)
    assert all(k() is None for k in kept)  # the walk leaves no cycle: no gc needed
    # asked again, the released parts are a miss and come back the same
    misses = identities._area_jets.cache_info().misses
    again = identities._area_jets(manufactured(dom), dom, SMALL)
    assert identities._area_jets.cache_info().misses == misses + 1
    assert all(np.array_equal(a, b) for a, b in zip(again[0][1], first))
    # the scaling boxes take the one kept grid pair too, so the domain's
    # levels and their parts go when a box is built
    kept = weakref.ref(again[0][1].Du)
    del again
    identities._box_sums.cache_clear()
    scaling_ratios(BUMP, 2.0, 4.0, coefficients(dom.params), SMALL)
    assert kept() is None
    assert quad.domain_grids.cache_info().currsize == 1


def test_stored_jets_and_weights_are_read_only():
    dom = omega4(1, 0, -0.5)
    u = manufactured(dom)
    (_, p), _ = identities._area_jets(u, dom, SMALL)
    (_, (jc, (ym1, xm2))), _ = identities._curve_jets(u, dom, BoundaryCurveId.BC, SMALL)
    for arr in (p.u, p.Du, p.Ou, ym1, xm2, jc.u, jc.uy):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # a curve level keeps the first-order jet its forms read and no more
    assert (jc.uxx, jc.uyy) == (None, None)


def _memo_arrays(level) -> list:
    # every array a level's memo holds, failing on a jet
    found = []
    for value in level.memo.values():
        assert not isinstance(value, Jet2)
        for a in value if isinstance(value, tuple) else (value,):
            assert not isinstance(a, Jet2)
            if isinstance(a, np.ndarray):
                found.append(a)
    return found


def test_an_area_level_keeps_three_arrays_per_field():
    dom = omega1(1, 4, -0.5)
    base = manufactured(dom)
    fields = (base, base * (Const(1.0) + X / 2 - Y / 3))
    quad.domain_grids.cache_clear()
    for u in fields:
        step1_residual(u, dom, SMALL)
        step3_residual(u, dom, SMALL)
        for nl in (cubic_nonlinearity(), power_nonlinearity(3.0)):
            step2_residual(u, nl, dom, SMALL)
            pohozaev_residual(u, nl, dom, SMALL)
    for g in quad.domain_grids(dom, SMALL):
        arrays = _memo_arrays(g)
        assert len(arrays) == 3 * len(fields)
        assert all(a.dtype == np.float64 and a.shape == g.x.shape for a in arrays)
        # no weights: every other entry is a number, the F(u) sums
        assert all(isinstance(v, float) for v in g.memo.values()
                   if not isinstance(v, tuple))


# an identity on a warm level: (identity, area terms of its one pass)
_WARM_PASSES = [("step1", 1), ("step2", 1), ("step3", 1), ("pohozaev", 2)]


@pytest.mark.parametrize("which, terms", _WARM_PASSES, ids=[w for w, _ in _WARM_PASSES])
def test_an_identity_on_a_warm_level_allocates_one_output_per_term(which, terms):
    dom = reference_domains()[0]
    u = manufactured(dom)
    nl = cubic_nonlinearity()
    run = {"step1": lambda: step1_residual(u, dom),
           "step2": lambda: step2_residual(u, nl, dom),
           "step3": lambda: step3_residual(u, dom),
           "pohozaev": lambda: pohozaev_residual(u, nl, dom)}[which]
    step2_residual(u, nl, dom)    # parts and F(u) sums kept on both levels
    run()                         # its curve jets too
    fine, _ = quad.domain_grids(dom, QuadConfig())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= terms * fine.x.nbytes + (2 << 20), (peak, fine.x.nbytes)


def test_box_sums_allocate_their_two_outputs():
    cfg = QuadConfig()
    fine, _ = quad.domain_grids(identities._Box(1.0, 1.0), cfg)   # warm grids
    identities._box_sums.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        identities._box_sums(BUMP, 1.0, 1.0, 4.0, OperatorParams(1, 4), cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * fine.x.nbytes + (2 << 20), (peak, fine.x.nbytes)
