"""Blocked evaluation: quad._streamed_sums evaluates area parts, area
densities and box sums over a grid level in blocks of quad._BLOCK points,
and the Hardy sweeps draw and evaluate their random phi in blocks of
identities._PHI_BLOCK rows.  Each must equal one whole-array or one-phi
evaluation bit for bit, raise the same errors, and keep its temporaries
small.  A jet itself is one tree walk over the points it is given."""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from tricomi import identities, quad
from tricomi.errors import DomainError
from tricomi.field import (X, Y, Const, Div, D_from_jet, O_from_jet, energy_from_jet,
                           manufactured, norm_from_jet, operator_weights)
from tricomi.geometry import omega1
from tricomi.identities import reference_domains
from tricomi.params import (OperatorParams, coefficients, cubic_nonlinearity,
                            power_nonlinearity)
from tricomi.quad import QuadConfig

# 18 panels: on every reference domain both levels span more than one block
# (omega4's coarse level 1.27 blocks), neither a whole number of them
CFG = QuadConfig(panels_per_axis=18)

def test_a_part_that_was_not_computed_cannot_be_read():
    x = np.linspace(0.1, 1.0, 50)
    j = (X * X * Y).jet(x, x, second=False)
    with pytest.raises(TypeError):
        O_from_jet(j, operator_weights(OperatorParams(1, 4), x, x))


def test_division_by_zero_in_the_last_block_raises():
    x = np.linspace(0.0, 1.0, 3 * quad._BLOCK + 5)
    u = Div(Const(1.0), X - Const(float(x[-1])))   # zero at the last point only
    with pytest.raises(DomainError):
        u.jet(x, x)
    assert np.all(np.isfinite(u(x[:-1], x[:-1])))


@pytest.mark.parametrize("n", [100, 3 * quad._BLOCK + 5], ids=["one-block", "blocks"])
def test_a_jet_frees_its_points_without_the_garbage_collector(n):
    # a reference cycle in the tree walk would keep the points alive until
    # the next collection, so the peak memory of a run would follow the
    # collector's timing
    u = (X * Y + Const(1.0)) * (Const(2.0) - X)
    x = np.arange(n) / n   # owns its data, so views of it pin it
    points = weakref.ref(x)
    gc.disable()
    try:
        u.jet(x, x[::-1].copy())
        del x
        assert points() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# streamed area sums against whole-level arrays, compared as int64 views

# several blocks on every level, not a whole number of them; and the default
LEVEL_CFGS = [CFG, QuadConfig()]
DOMS = reference_domains()
CASES = [(c, d) for c in LEVEL_CFGS for d in DOMS]
CASE_IDS = [f"{c.panels_per_axis}-{d.variant.value}" for c, d in CASES]


def _bits(v) -> np.ndarray:
    return np.asarray(v, float).view(np.int64)


def _same_bits(a, b) -> bool:
    return np.array_equal(_bits(a), _bits(b))


def _whole_level(u, dom, g):
    # a cold second-order jet and the operator weights on the whole level
    return u.jet(g.x, g.y), operator_weights(dom.params, g.x, g.y)


def _fields(dom, cfg):
    base = manufactured(dom)
    if cfg.panels_per_axis != CFG.panels_per_axis:
        return [base]
    return [base, base * (Const(1.0) + X / 2 - Y / 3)]


@pytest.mark.parametrize("cfg, dom", CASES, ids=CASE_IDS)
def test_streamed_sums_equal_the_whole_level_sum(cfg, dom):
    def poly(x, y):
        return x ** 3 - 2.0 * x * y + y ** 5

    for g in quad.domain_grids(dom, cfg):
        kept, p, c = quad._streamed_sums(
            g, lambda sl: (poly(g.x[sl], g.y[sl]), poly(g.x[sl], g.y[sl]), 0.25), keep=1)
        assert _same_bits(kept, poly(g.x, g.y))
        assert _same_bits(p, quad._level_sum([poly(g.x, g.y)], g.weights))
        # one number for all the points, broadcast to them
        assert _same_bits(c, quad._level_sum([0.25], g.weights))
    got = quad.integrate_domain(poly, dom, cfg)
    fine = quad.domain_grids(dom, cfg)[0]
    assert _same_bits(got, quad._level_sum([poly(fine.x, fine.y)], fine.weights))


@pytest.mark.parametrize("cfg, dom", CASES, ids=CASE_IDS)
def test_area_parts_equal_the_whole_level_jet(cfg, dom):
    co = coefficients(dom.params)
    quad.domain_grids.cache_clear()
    for u in _fields(dom, cfg):
        for g, p in identities._area_jets(u, dom, cfg):
            j, w = _whole_level(u, dom, g)
            assert _same_bits(p.u, j.u)
            assert _same_bits(p.Du, D_from_jet(co, j, g.x, g.y))
            assert _same_bits(p.Ou, O_from_jet(j, w))
            assert _same_bits(p.energy, quad._level_sum([energy_from_jet(j, w)], g.weights))


def _reference_terms(which, u, nonlin, dom, cfg) -> list:
    """(fine, coarse) of each area term of an identity in the order it is
    checked, each from the whole-level density of a cold jet."""
    co = coefficients(dom.params)
    c = float(co.c)

    def f(j):
        return np.asarray(nonlin.f(j.u), float)

    def F(j):
        return np.asarray(nonlin.F(j.u), float)

    densities = {
        "step1": [lambda j, x, y, w: D_from_jet(co, j, x, y) * O_from_jet(j, w),
                  lambda j, x, y, w: energy_from_jet(j, w)],
        "step2": [lambda j, x, y, w: D_from_jet(co, j, x, y) * f(j),
                  lambda j, x, y, w: F(j)],
        "step3": [lambda j, x, y, w: j.u * O_from_jet(j, w),
                  lambda j, x, y, w: energy_from_jet(j, w)],
        "pohozaev": [lambda j, x, y, w: F(j),
                     lambda j, x, y, w: j.u * f(j),
                     lambda j, x, y, w: (D_from_jet(co, j, x, y) - c * j.u)
                     * (f(j) - O_from_jet(j, w))],
    }[which]
    levels = [(g, *_whole_level(u, dom, g)) for g in quad.domain_grids(dom, cfg)]
    return [tuple(quad._level_sum([d(j, g.x, g.y, w)], g.weights) for g, j, w in levels)
            for d in densities]


@pytest.mark.parametrize("cfg, dom", CASES, ids=CASE_IDS)
def test_identity_area_terms_equal_the_whole_level_functional(monkeypatch, cfg, dom):
    checked = []

    def spy(fine, coarse, cfg, what="integral"):
        if what == "area functional":
            checked.append((fine, coarse))
        return quad.check_two_level(fine, coarse, cfg, what)

    monkeypatch.setattr(identities, "check_two_level", spy)
    cubic, power = cubic_nonlinearity(), power_nonlinearity(3.0)
    # pohozaev first computes F(u) itself, then step2 reads it; step2 first
    # computes it, then pohozaev reads it
    order = [("pohozaev", cubic), ("step1", None), ("step2", cubic),
             ("step3", None), ("step2", power), ("pohozaev", power)]
    run = {"step1": lambda u, nl: identities.step1_residual(u, dom, cfg),
           "step2": lambda u, nl: identities.step2_residual(u, nl, dom, cfg),
           "step3": lambda u, nl: identities.step3_residual(u, dom, cfg),
           "pohozaev": lambda u, nl: identities.pohozaev_residual(u, nl, dom, cfg)}
    quad.domain_grids.cache_clear()
    for u in _fields(dom, cfg):
        for which, nl in order:
            checked.clear()
            run[which](u, nl)
            want = _reference_terms(which, u, nl, dom, cfg)
            assert len(checked) == len(want), which
            for got, ref in zip(checked, want):
                assert _same_bits(got, ref), (which, got, ref)


@pytest.mark.parametrize("cfg", LEVEL_CFGS, ids=[str(c.panels_per_axis) for c in LEVEL_CFGS])
def test_box_sums_equal_the_whole_level_form(cfg):
    params = OperatorParams(1, 4)
    bump = (Const(1.0) - X ** 2) * (Const(1.0) - Y ** 2)
    for u, lx, ly, pexp in ((bump, 1.0, 1.0, 4.0), (bump * (X + Const(0.5)), 1.5, 0.25, 2.5)):
        identities._box_sums.cache_clear()
        got = identities._box_sums(u, lx, ly, pexp, params, cfg)
        want = [], []
        for g in quad.domain_grids(identities._Box(lx, ly), cfg):
            assert g.x.size > quad._BLOCK
            j = u.jet(g.x, g.y, second=False)
            want[0].append(quad._level_sum([np.abs(j.u) ** pexp], g.weights))
            want[1].append(quad._level_sum([norm_from_jet(params, j, g.x, g.y)], g.weights))
        assert _same_bits(got, want)


def test_a_cold_area_pass_peaks_near_its_kept_parts():
    # the path every command takes: the parts an area level keeps are
    # written block by block, so past them a pass holds one level-sized
    # output and one block's temporaries (a whole-level second-order jet
    # of this field would peak at about 71 MB)
    dom = omega1(1, 4, -0.5)
    cfg = QuadConfig()
    u = manufactured(dom)
    quad.domain_grids.cache_clear()
    fine, _ = quad.domain_grids(dom, cfg)   # built before the measurement
    tracemalloc.start()
    try:
        levels = identities._area_jets(u, dom, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for _, p in levels for a in (p.u, p.Du, p.Ou))
    assert kept == 3 * 8 * sum(g.x.size for g, _ in levels)
    assert peak <= kept + fine.x.nbytes + 2 * 2 ** 20, (peak, kept)


# ---------------------------------------------------------------------------
# the Hardy sweeps: blocks of random phi against one phi at a time

HARDY_PAIRS = [(1, 4), (3, 12), (7, 6), (1, 0)]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _graded(e, fn, y_c):
    # int_{y_c}^0 (-t)^e fn(t)^2 dt in s, t = -s^2, through
    # quad.integrate_interval: the one-phi arithmetic, apart from
    # quad.neg_interval_sums
    def g(s):
        t = -(s * s)
        return 2.0 * s * ((-t) ** e * np.asarray(fn(t), float) ** 2)
    return quad.integrate_interval(g, 0.0, np.sqrt(-y_c), QuadConfig())


def _reference(params, y_c, bnd, phi):
    # the boundary energy of bnd and the Hardy (lhs, rhs) of phi, written out
    co = coefficients(params)
    e1, e2 = (float(e) for e in identities.hardy_weight_exponents(params))
    a_fac = (co.c2 / co.c1) ** (params.m2 / co.c2)
    energy = (2.0 * co.c2 * a_fac * _graded(e1, bnd.dfn, y_c)
              - (co.mu ** 2 / (2.0 * co.c2)) * a_fac * _graded(e2, bnd.fn, y_c))
    return energy, np.sqrt(_graded(e2, phi.fn, y_c)), \
        (2.0 * co.c2 / co.mu) * np.sqrt(_graded(e1, phi.dfn, y_c))


@pytest.mark.parametrize("sweeps", [1, 16, 17, 100])
@pytest.mark.parametrize("y_c", [-1.0, -0.3, -7.5])
@pytest.mark.parametrize("m1, m2", HARDY_PAIRS)
def test_hardy_sweep_blocks_equal_the_single_phi_reference(m1, m2, y_c, sweeps):
    # 17 is not a whole number of blocks; each sweep draws from one rng, the
    # energy sweep first, as hardy_reports does
    params, pq, seed = OperatorParams(m1, m2), identities.HardyParams(y_c=y_c), 11 * m1 + m2
    ref_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    bnds = [identities.random_boundary_phi(y_c, ref_rng) for _ in range(sweeps)]
    phis = [identities.random_hardy_phi(y_c, ref_rng) for _ in range(sweeps)]
    energy = [identities.boundary_energy_I(params, y_c, bnd) for bnd in bnds]
    ineq = [identities.hardy_inequality_check(params, pq, phi) for phi in phis]
    assert all(type(v) is float for v in energy)
    assert all(type(r.lhs) is float and type(r.rhs) is float for r in ineq)
    want = [_reference(params, y_c, bnd, phi) for bnd, phi in zip(bnds, phis)]
    assert np.array_equal(_bits(energy), _bits([w[0] for w in want]))
    assert np.array_equal(_bits([(r.lhs, r.rhs) for r in ineq]), _bits([w[1:] for w in want]))

    energy_blocks, ineq_blocks = [], []

    def energy_of(phi):
        energy_blocks.append(identities.boundary_energy_I(params, y_c, phi))
        return energy_blocks[-1]

    def margin_of(phi):
        ineq_blocks.append(identities.hardy_inequality_check(params, pq, phi))
        return ineq_blocks[-1].lhs - ineq_blocks[-1].rhs

    energies = list(identities._swept(energy_of, y_c, True, sweeps, block_rng))
    margins = list(identities._swept(margin_of, y_c, False, sweeps, block_rng))
    full, rest = divmod(sweeps, identities._PHI_BLOCK)
    sizes = [identities._PHI_BLOCK] * full + [rest] * (rest > 0)
    assert [len(b) for b in energy_blocks] == [len(r.lhs) for r in ineq_blocks] == sizes
    assert np.array_equal(_bits(np.concatenate(energy_blocks)), _bits(energy))
    assert np.array_equal(_bits(energies), _bits(energy))
    for side in ("lhs", "rhs"):
        assert np.array_equal(_bits(np.concatenate([getattr(r, side) for r in ineq_blocks])),
                              _bits([getattr(r, side) for r in ineq]))
    assert np.array_equal(_bits(margins), _bits([r.lhs - r.rhs for r in ineq]))
    assert block_rng.bit_generator.state == ref_rng.bit_generator.state

    records = list(identities.hardy_reports(params, pq, sweeps=sweeps, seed=seed))
    assert _bits(records[2].lhs) == _bits(min(energy))
    assert _bits(records[3].lhs) == _bits(max(r.lhs - r.rhs for r in ineq))


def test_hardy_sweep_memory_does_not_grow_with_the_sweeps():
    params = OperatorParams(1, 4)

    def peak(sweeps):
        tracemalloc.start()
        try:
            list(identities.hardy_reports(params, sweeps=sweeps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)   # the node caches fill on the first run
    assert peak(1000) <= peak(100) + 256 * 1024
