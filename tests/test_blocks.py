"""Blocked evaluation: jets and area integrands over a grid level are computed
in blocks of quad._BLOCK points and must equal one whole-array evaluation
bit for bit, raise the same errors, and keep their temporaries small."""
import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from tricomi import quad
from tricomi.errors import DomainError
from tricomi.field import X, Y, Const, Div, O_from_jet, manufactured, operator_weights
from tricomi.identities import reference_domains
from tricomi.params import OperatorParams
from tricomi.quad import QuadConfig

# 18 panels: on every reference domain both levels span more than one block
# (omega4's coarse level 1.27 blocks), neither a whole number of them
CFG = QuadConfig(panels_per_axis=18)

FIRST_ORDER = ("u", "ux", "uy")
# the parts of a jet of each order: second (area levels) and first (curve
# and box levels)
PARTS = {True: FIRST_ORDER + ("uxx", "uyy"), False: FIRST_ORDER}


def _identical(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _same_jet(j1, j2, parts=PARTS[True]) -> bool:
    return all(_identical(getattr(j1, c), getattr(j2, c)) for c in parts)


def _one_block(monkeypatch, fn):
    # the same evaluation with a block larger than any grid: one tree walk
    with monkeypatch.context() as m:
        m.setattr(quad, "_BLOCK", 1 << 40)
        return fn()


@pytest.mark.parametrize("dom", reference_domains(), ids=lambda d: d.variant.value)
def test_blocked_jets_equal_the_single_block_walk(monkeypatch, dom):
    # a jet of either order equals those parts of the second-order jet
    # walked as one block, blocked or not, with a known subtree or cold
    base = manufactured(dom)
    field = base * (Const(1.0) + X / 2 - Y / 3)
    for g, second in itertools.product(quad.domain_grids(dom, CFG), PARTS):
        assert g.x.size > quad._BLOCK and g.x.size % quad._BLOCK
        known = {base: base.jet(g.x, g.y, second=second)}.get   # the subtree-reuse path
        for u, kn in ((base, None), (field, None), (field, known)):
            full = _one_block(monkeypatch, lambda: u.jet(g.x, g.y))
            for j in (u.jet(g.x, g.y, known=kn, second=second), _one_block(
                    monkeypatch, lambda: u.jet(g.x, g.y, known=kn, second=second))):
                assert _same_jet(j, full, PARTS[second]), second
                assert second or (j.uxx, j.uyy) == (None, None)


def test_known_subtrees_are_looked_up_once_per_call():
    x = np.linspace(-1.0, 1.0, 3 * quad._BLOCK + 7)
    base = X * X - Y
    field = base * (Const(1.0) + X / 2)
    jb = base.jet(x, 0.5 * x)
    asked = []

    def known(node):
        asked.append(node)
        return jb if node == base else None

    field.jet(x, 0.5 * x, known=known)
    assert asked.count(base) == 1
    assert len(asked) == len({id(n) for n in asked})


def test_a_part_that_was_not_computed_cannot_be_read():
    x = np.linspace(0.1, 1.0, 50)
    j = (X * X * Y).jet(x, x, second=False)
    with pytest.raises(TypeError):
        O_from_jet(j, operator_weights(OperatorParams(1, 4), x, x))


@pytest.mark.parametrize("n", [100, 3 * quad._BLOCK + 5], ids=["one-block", "blocks"])
def test_a_known_jet_lacking_an_asked_part_raises(n):
    x = np.linspace(-1.0, 1.0, n)
    base = X * X - Y
    known = {base: base.jet(x, x, second=False)}.get
    with pytest.raises(ValueError, match="lacks its second-order parts"):
        (base * X).jet(x, x, known=known)
    # asked for first order, the kept jet is used as it is
    assert _same_jet((base * X).jet(x, x, known=known, second=False),
                     (base * X).jet(x, x), FIRST_ORDER)


def test_division_by_zero_in_the_last_block_raises():
    x = np.linspace(0.0, 1.0, 3 * quad._BLOCK + 5)
    u = Div(Const(1.0), X - Const(float(x[-1])))   # zero at the last point only
    with pytest.raises(DomainError):
        u.jet(x, x)
    assert np.all(np.isfinite(u(x[:-1], x[:-1])))


@pytest.mark.parametrize("n", [100, 3 * quad._BLOCK + 5], ids=["one-block", "blocks"])
def test_a_jet_frees_its_points_without_the_garbage_collector(n):
    # a reference cycle in the tree walk would keep the points, and every
    # jet it looked up, alive until the next collection, so the peak memory
    # of a run would follow the collector's timing
    u = (X * Y + Const(1.0)) * (Const(2.0) - X)
    x = np.arange(n) / n   # owns its data, so views of it pin it
    points = weakref.ref(x)
    gc.disable()
    try:
        u.jet(x, x[::-1].copy(), known=lambda node: None)
        del x
        assert points() is None
    finally:
        gc.enable()


def test_blocked_eval_on_equals_the_whole_array(monkeypatch):
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1.0, 1.0, (2, 2 * quad._BLOCK + 11))

    def poly(x, y):
        return x ** 3 - 2.0 * x * y + y ** 5

    def const(x, y):
        return 0.25   # one number for all the points, broadcast to them

    got = quad._eval_on(poly, x, y)
    assert _identical(got, _one_block(monkeypatch, lambda: quad._eval_on(poly, x, y)))
    full = np.full(x.shape, 0.25)
    assert _identical(quad._eval_on(const, x, y), full)
    assert _identical(_one_block(monkeypatch, lambda: quad._eval_on(const, x, y)), full)


def test_fine_level_jet_peak_memory_stays_near_its_output():
    dom = reference_domains()[0]
    u = manufactured(dom)
    fine, _ = quad.domain_grids(dom, QuadConfig())
    for second in PARTS:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            j = u.jet(fine.x, fine.y, second=second)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        out = sum(getattr(j, k).nbytes for k in PARTS[second])
        assert peak <= 1.5 * out, (second, peak, out)
