"""Field layer: second-order jets against hand calculus and central
differences, the differential operators, manufactured fields, dilation and
the prefix serialization."""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from tricomi import quad
from tricomi.errors import DegeneracyLine, DomainError, OutOfRange
from tricomi.field import (AbsPow, Add, Const, Coord, Div, IPow, Jet2, Mul,
                           Neg, OddRootPow, SampleFn1D, ScalarField, Sub, X, Y,
                           VANISH_AC, VANISH_AC_SIGMA, _oddpow, abs_power,
                           apply_D, apply_O, apply_X, dilate, directional_pm,
                           energy_density, jet2, manufactured, norm_density,
                           parse_field, root_power, substitute, to_prefix)
from tricomi.geometry import (BoundaryCurveId, Point, boundary_charts,
                              curve_point, natural_range, omega1, omega3,
                              omega4)
from tricomi.identities import reference_domains
from tricomi.params import OperatorParams, _ipow, coefficients
from tricomi.quad import QuadConfig, domain_grids


def test_jet_polynomial_hand_values():
    # u = x^2 y at (2,3): straight polynomial calculus
    u = X ** 2 * Y
    j = jet2(u, Point(2.0, 3.0))
    assert (j.u, j.ux, j.uy) == (12.0, 12.0, 4.0)
    assert (j.uxx, j.uyy) == (6.0, 0.0)


def test_jet_constant():
    j = jet2(Const(7.0), Point(-3.0, 11.0))
    assert (j.u, j.ux, j.uy, j.uxx, j.uyy) == (7.0, 0.0, 0.0, 0.0, 0.0)


def test_jet_double_root():
    # u = (x^3+1)^2 has a double root along x = -1
    u = (X ** 3 + Const(1.0)) ** 2
    j = jet2(u, Point(-1.0, 0.0))
    assert j.u == 0.0
    assert j.ux == 0.0
    assert j.uxx == pytest.approx(18.0)  # 2*(3x^2)^2 at x=-1


def test_apply_O_hand_values():
    p14 = OperatorParams(1, 4)
    u = X ** 2 * Y
    # -y^1 * 2y - x^4 * 0 at (-1,-1) = -(-1)(-2) = -2
    assert apply_O(p14, u, Point(-1.0, -1.0)) == pytest.approx(-2.0)
    lin = Const(2.0) + X - Y * Const(3.0)
    for p in (Point(0.3, -0.7), Point(-1.2, 0.4)):
        assert apply_O(p14, lin, p) == 0.0


def test_apply_X_hand_values():
    p14 = OperatorParams(1, 4)
    v = apply_X(p14, X + Y, Point(1.0, 1.0))
    assert (v.x, v.y) == pytest.approx((-1.0, -1.0))
    v0 = apply_X(p14, Const(5.0), Point(0.3, -0.2))
    assert (v0.x, v0.y) == (0.0, 0.0)
    # on the degeneracy axes the weighted component dies
    v = apply_X(p14, X + Y, Point(0.0, -2.0))
    assert v.y == 0.0
    v = apply_X(p14, X + Y, Point(3.0, 0.0))
    assert v.x == 0.0


def test_apply_D_hand_values():
    co = coefficients(OperatorParams(1, 4))
    u = X ** 2 * Y
    # -3*1*2 - 6*1*1 = -12 at (1,1)
    assert apply_D(co, u, Point(1.0, 1.0)) == pytest.approx(-12.0)
    assert apply_D(co, u, Point(0.0, 0.0)) == 0.0


def test_apply_D_euler_annihilation():
    # u = x^2 y^(-1) is invariant under the (c1, c2) = (3, 6) dilation,
    # so Du vanishes identically; realized as x^2 / y
    co = coefficients(OperatorParams(1, 4))
    u = X ** 2 / Y
    for p in (Point(1.0, 2.0), Point(-0.5, -1.5), Point(2.0, 0.1)):
        assert abs(apply_D(co, u, p)) <= 1e-12 * (1 + abs(p.x) ** 2 / abs(p.y))


def test_energy_density_signed():
    p14 = OperatorParams(1, 4)
    u = X + Y
    assert energy_density(p14, u, Point(1.0, 1.0)) == pytest.approx(2.0)
    assert energy_density(p14, u, Point(1.0, -1.0)) == pytest.approx(0.0)
    assert energy_density(p14, Const(3.0), Point(0.4, -0.9)) == 0.0


def test_norm_density_absolute():
    p14 = OperatorParams(1, 4)
    u = X + Y
    assert norm_density(p14, u, Point(1.0, -1.0)) == pytest.approx(2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = Point(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        val = norm_density(p14, u, p)
        assert val >= 0.0
        if p.x >= 0 and p.y >= 0:
            assert val == pytest.approx(energy_density(p14, u, p))


def test_directional_pm():
    p14 = OperatorParams(1, 4)
    d_plus, d_minus = directional_pm(p14, Y, Point(0.5, -1.0))
    assert (d_plus, d_minus) == pytest.approx((1.0, 1.0))
    # product identity dplus*dminus = x^(-m2) [x^m2 uy^2 + y^m1 ux^2]
    u = X ** 2 * Y + Y ** 3 - X
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = Point(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-2.0, -0.1)))
        dp, dm = directional_pm(p14, u, p)
        j = jet2(u, p)
        want = p.x ** -4 * (p.x ** 4 * j.uy ** 2 + p.y ** 1 * j.ux ** 2)
        assert dp * dm == pytest.approx(want, rel=1e-12)
    with pytest.raises(DegeneracyLine):
        directional_pm(p14, u, Point(0.0, -1.0))
    with pytest.raises(OutOfRange):
        directional_pm(p14, u, Point(0.5, 0.3))


def test_directional_minus_vanishes_on_ac():
    # a field vanishing identically on AC has dminus = 0 along AC
    dom = omega1(1, 4, -0.5)
    u = manufactured(dom, vanish_on=VANISH_AC)
    lo, hi = natural_range(dom, BoundaryCurveId.AC)
    p14 = dom.params
    for i in range(40):
        s = lo + (hi - lo) * (i + 0.5) / 40.0
        p = curve_point(dom, BoundaryCurveId.AC, s)
        if p.x == 0.0 or p.y > 0:
            continue
        _, dm = directional_pm(p14, u, p)
        assert abs(dm) <= 1e-10


# ---------------------------------------------------------------------------
# AD vs central finite differences on random trees

def _random_tree(rng, depth=0):
    r = rng.random()
    if depth >= 3 or r < 0.25:
        return rng.choice([X, Y, Const(float(rng.uniform(-2, 2)))])
    if r < 0.45:
        return _random_tree(rng, depth + 1) + _random_tree(rng, depth + 1)
    if r < 0.6:
        return _random_tree(rng, depth + 1) - _random_tree(rng, depth + 1)
    if r < 0.8:
        return _random_tree(rng, depth + 1) * _random_tree(rng, depth + 1)
    if r < 0.88:
        return _random_tree(rng, depth + 1) ** int(rng.integers(2, 4))
    if r < 0.94:
        # safe division: denominator bounded away from zero
        return _random_tree(rng, depth + 1) / (Const(2.0) + X ** 2 + Y ** 2)
    if r < 0.97:
        return root_power(_random_tree(rng, depth + 1), 7, 3)
    return abs_power(_random_tree(rng, depth + 1), 2.5)


def _fd_jet(u, p, h=1e-5):
    f = lambda x, y: float(u.jet(np.asarray(x, float), np.asarray(y, float)).u)
    x, y = p.x, p.y
    vals = [f(x, y), f(x + h, y), f(x - h, y), f(x, y + h), f(x, y - h)]
    jet = Jet2(
        u=vals[0],
        ux=(vals[1] - vals[2]) / (2 * h),
        uy=(vals[3] - vals[4]) / (2 * h),
        uxx=(vals[1] - 2 * vals[0] + vals[2]) / h ** 2,
        uyy=(vals[3] - 2 * vals[0] + vals[4]) / h ** 2,
    )
    return jet, max(abs(v) for v in vals)


def test_ad_matches_finite_differences():
    # the central-difference reference for second derivatives has its own
    # rounding floor ~ eps*|u|/h^2; the relative bound applies above it
    rng = np.random.default_rng(20250814)
    eps = np.finfo(float).eps
    h = 1e-5
    for _ in range(100):
        u = _random_tree(rng)
        p = Point(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
        ad = jet2(u, p)
        fd, scale = _fd_jet(u, p, h)
        floor2 = 4.0 * eps * scale / h ** 2
        for name in ("u", "ux", "uy", "uxx", "uyy"):
            a, b = getattr(ad, name), getattr(fd, name)
            tol = 1e-6 * (1.0 + abs(a) + abs(b))
            if name in ("uxx", "uyy"):
                tol += floor2
            assert abs(a - b) <= tol, (name, a, b)


# ---------------------------------------------------------------------------
# the sparse jet walk against a dense reference

PARTS = ("u", "ux", "uy", "uxx", "uyy")
NONFINITE_FIELDS = ("(* 0.0 (* 1e300 (* 1e300 x)))",
                    "(/ 1.0 (* (+ (* 1e300 1e300) x) 2.0))",
                    "(+ (* 1e300 1e300) x)")


def _dense_jet(u, x, y) -> tuple:
    """u's five jet parts by the same formulas with a full array for every
    part: each constant's value and each leaf derivative is an array of the
    points' shape, and nothing is skipped."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    z = np.zeros_like(x)

    def chain(b, g, g1, d2):
        return (g, g1 * b[1], g1 * b[2], d2 * b[1] * b[1] + g1 * b[3],
                d2 * b[2] * b[2] + g1 * b[4])

    def walk(n):
        if isinstance(n, Const):
            return np.full_like(x, n.v), z, z, z, z
        if isinstance(n, Coord):
            one = np.ones_like(x)
            return (x.copy(), one, z, z, z) if n.name == "x" else (y.copy(), z, one, z, z)
        if isinstance(n, Neg):
            return tuple(-p for p in walk(n.a))
        if isinstance(n, (Add, Sub)):
            a, b = walk(n.a), walk(n.b)
            return tuple(p + q if isinstance(n, Add) else p - q for p, q in zip(a, b))
        if isinstance(n, Mul):
            (au, ax, ay, axx, ayy), (bu, bx, by, bxx, byy) = walk(n.a), walk(n.b)
            return (au * bu, ax * bu + au * bx, ay * bu + au * by,
                    axx * bu + 2.0 * ax * bx + au * bxx,
                    ayy * bu + 2.0 * ay * by + au * byy)
        if isinstance(n, Div):
            (au, ax, ay, axx, ayy), (bu, bx, by, bxx, byy) = walk(n.a), walk(n.b)
            w = au / bu
            wx, wy = (ax - w * bx) / bu, (ay - w * by) / bu
            return (w, wx, wy, (axx - 2.0 * wx * bx - w * bxx) / bu,
                    (ayy - 2.0 * wy * by - w * byy) / bu)
        b = walk(n.a)
        s = b[0]
        if isinstance(n, IPow):
            k = n.n
            if k == 0:
                return np.ones_like(x), z, z, z, z
            return chain(b, _ipow(s, k), k * _ipow(s, k - 1),
                         np.zeros_like(s) if k == 1 else k * (k - 1) * _ipow(s, k - 2))
        if isinstance(n, OddRootPow):
            p, q, r = n.p, n.q, n.p / n.q
            return chain(b, _oddpow(s, p, q), r * _oddpow(s, p - q, q),
                         r * (r - 1.0) * _oddpow(s, p - 2 * q, q))
        assert isinstance(n, AbsPow)
        a2 = np.abs(s) ** (n.gamma - 2.0)
        return chain(b, a2 * s * s, n.gamma * s * a2, n.gamma * (n.gamma - 1.0) * a2)

    return walk(u)


def _int64(a):
    # the bits of a float64 array, with -0.0 read as +0.0
    return (np.asarray(a, float) + 0.0).view(np.int64)


def _assert_dense_equal(u, x, y, second=True, known=None):
    # every part: a fresh array of the points' shape, no nan, == the dense
    # reference and the same bits up to the sign of a zero; u the same bits
    j = u.jet(x, y, known=known, second=second)
    shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
    names = PARTS if second else PARTS[:3]
    got = [getattr(j, c) for c in names]
    assert second or (j.uxx, j.uyy) == (None, None)
    assert len({id(a) for a in got}) == len(got)
    for name, a, want in zip(names, got, _dense_jet(u, x, y)):
        assert isinstance(a, np.ndarray) and a.shape == shape and a.flags.owndata, name
        assert not (np.shares_memory(a, x) or np.shares_memory(a, y)), name
        assert not np.isnan(a).any() and np.array_equal(a, want), (name, to_prefix(u))
        assert np.array_equal(_int64(a), _int64(want)), (name, to_prefix(u))
        if name == "u":
            assert np.array_equal(np.asarray(a).view(np.int64),
                                  np.asarray(want, float).view(np.int64)), name


def _subtrees(u):
    yield u
    for v in vars(u).values():
        if isinstance(v, ScalarField):
            yield from _subtrees(v)


def test_sparse_jets_equal_the_dense_reference_on_random_trees():
    rng = np.random.default_rng(19)
    n = 3 * quad._BLOCK + 5   # several blocks, the last one partial
    x, y = rng.uniform(-1.5, 1.5, (2, n))
    for _ in range(60):
        u = _random_tree(rng)
        nodes = list(_subtrees(u))
        part = nodes[int(rng.integers(len(nodes)))]
        known = {part: part.jet(x, y)}.get
        for second in (True, False):
            _assert_dense_equal(u, x, y, second)
            _assert_dense_equal(u, x, y, second, known)
        for _ in range(5):   # single points, 0-d
            px, py = (np.asarray(v) for v in rng.uniform(-1.5, 1.5, 2))
            _assert_dense_equal(u, px, py)
            _assert_dense_equal(u, px, py, False)


@pytest.mark.parametrize("dom", reference_domains(), ids=lambda d: d.variant.value)
def test_sparse_jets_equal_the_dense_reference_on_levels(dom):
    # the manufactured field and the suite's u (1 + x/2 - y/3) on both area
    # levels, cold and with the manufactured field known, and at points
    base = manufactured(dom)
    fields = (base, base * (Const(1.0) + X / 2 - Y / 3))
    for g in domain_grids(dom, QuadConfig(panels_per_axis=18)):
        assert g.x.size > quad._BLOCK
        for second in (True, False):
            known = {base: base.jet(g.x, g.y, second=second)}.get
            for u in fields:
                _assert_dense_equal(u, g.x, g.y, second)
                _assert_dense_equal(u, g.x, g.y, second, known)
        for i in range(0, g.x.size, g.x.size // 7):
            for u in fields:
                _assert_dense_equal(u, g.x[i], g.y[i])


@pytest.mark.parametrize("power", ["pow3", "pow5", "pow-3", "root", "abspow"])
def test_constant_base_powers_equal_the_dense_reference_bit_for_bit(power):
    # a power of a constant runs on numpy's array loop; a scalar c ** n
    # rounds differently in some of these c where numpy has AVX-512 loops
    make = {"pow3": lambda c: IPow(c, 3), "pow5": lambda c: IPow(c, 5),
            "pow-3": lambda c: IPow(c, -3), "root": lambda c: root_power(c, 1, 3),
            "abspow": lambda c: abs_power(c, 3.5)}[power]
    x = np.linspace(-1.0, 1.0, 9)
    y = np.zeros_like(x)
    for c in np.random.default_rng(7919).uniform(-3.0, 3.0, 1000):
        _assert_dense_equal(Mul(make(Const(float(c))), X), x, y)


@pytest.mark.parametrize("text", NONFINITE_FIELDS)
def test_a_non_finite_field_raises_from_its_jet(text):
    u = parse_field(text)
    x = np.linspace(-1.0, -0.1, 3 * quad._BLOCK + 5)
    for second in (True, False):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DomainError, match="^non-finite field: "):
            u.jet(x, -x, second=second)


def _random_diff_tree(rng, depth=0):
    # trees whose derivative trees exist everywhere (no |.|**gamma nodes)
    r = rng.random()
    if depth >= 3 or r < 0.3:
        return rng.choice([X, Y, Const(float(rng.uniform(-2, 2)))])
    if r < 0.5:
        return _random_diff_tree(rng, depth + 1) + _random_diff_tree(rng, depth + 1)
    if r < 0.65:
        return _random_diff_tree(rng, depth + 1) - _random_diff_tree(rng, depth + 1)
    if r < 0.85:
        return _random_diff_tree(rng, depth + 1) * _random_diff_tree(rng, depth + 1)
    if r < 0.93:
        return _random_diff_tree(rng, depth + 1) ** int(rng.integers(2, 4))
    return _random_diff_tree(rng, depth + 1) / (Const(2.0) + X ** 2 + Y ** 2)


def _diff(u, var):
    """The symbolic derivative of u in var ("x" or "y") as a new tree, a
    second route to the jets' derivatives; |.|**gamma has no such tree."""
    def d(v):
        return _diff(v, var)

    if isinstance(u, Const):
        return Const(0.0)
    if isinstance(u, Coord):
        return Const(1.0) if var == u.name else Const(0.0)
    if isinstance(u, (Add, Sub)):
        return type(u)(d(u.a), d(u.b))
    if isinstance(u, Mul):
        return Add(Mul(d(u.a), u.b), Mul(u.a, d(u.b)))
    if isinstance(u, Div):
        return Div(Sub(Mul(d(u.a), u.b), Mul(u.a, d(u.b))), Mul(u.b, u.b))
    if isinstance(u, Neg):
        return Neg(d(u.a))
    if isinstance(u, IPow):
        if u.n == 0:
            return Const(0.0)
        if u.n == 1:
            return d(u.a)
        return Mul(Mul(Const(float(u.n)), IPow(u.a, u.n - 1)), d(u.a))
    if isinstance(u, OddRootPow):
        return Mul(Mul(Const(u.p / u.q), root_power(u.a, u.p - u.q, u.q)), d(u.a))
    raise NotImplementedError(f"no derivative tree of {type(u).__name__}")


def test_divergence_of_X_equals_O():
    # div(Xu) = Ou, with the X components differentiated as trees
    p14 = OperatorParams(1, 4)
    m1, m2 = p14.m1, p14.m2
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = _random_diff_tree(rng)
        comp_x = -(Y ** m1) * _diff(u, "x")
        comp_y = -(X ** m2) * _diff(u, "y")
        div = _diff(comp_x, "x") + _diff(comp_y, "y")
        for _ in range(5):
            p = Point(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
            got = jet2(div, p).u
            want = apply_O(p14, u, p)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_O_differs_from_unweighted_divergence():
    # witness that div(-grad_w u) is NOT the operator: u = x^2 y at (1,-1)
    # with (1,4): div(-(|y| u_x, |x|^4 u_y)) = -sign(y)*y*u_xx - ... = 2,
    # while O u = -y u_xx = -2
    p14 = OperatorParams(1, 4)
    u = X ** 2 * Y
    p = Point(1.0, -1.0)
    want_O = apply_O(p14, u, p)
    assert want_O == pytest.approx(-2.0)
    h = 1e-6

    def neg_grad_w(x, y):
        j = jet2(u, Point(x, y))
        return -abs(y) ** 1 * j.ux, -abs(x) ** 4 * j.uy

    dx = (neg_grad_w(p.x + h, p.y)[0] - neg_grad_w(p.x - h, p.y)[0]) / (2 * h)
    dy = (neg_grad_w(p.x, p.y + h)[1] - neg_grad_w(p.x, p.y - h)[1]) / (2 * h)
    div_grad = dx + dy
    assert div_grad == pytest.approx(2.0, abs=1e-5)
    assert abs(div_grad - want_O) > 1.0


def test_operator_covariance_under_dilation():
    # O(u_lam)(p) = lam^(m1 m2 - 4) O(u)(phi_lam(p)) pointwise
    for (m1, m2) in ((1, 0), (1, 4)):
        params = OperatorParams(m1, m2)
        co = coefficients(params)
        u = X ** 3 * Y + Y ** 2 - X * Y
        lam = 2.0
        ul = dilate(u, lam, co)
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = Point(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            img = Point(p.x * lam ** -co.c1, p.y * lam ** -co.c2)
            lhs = apply_O(params, ul, p)
            rhs = lam ** (m1 * m2 - 4) * apply_O(params, u, img)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


# ---------------------------------------------------------------------------
# manufactured fields

def test_manufactured_ac_polynomial_hand_values():
    # omega1 fixture: G = (1/9)(x^3+1)^2 + (4/9) y^3
    dom = omega1(1, 4, -0.5)
    g = manufactured(dom, vanish_on=VANISH_AC)
    assert abs(float(g(np.float64(-1.0), np.float64(0.0)))) <= 1e-15
    apex = dom.apex
    assert abs(float(g(np.float64(apex.x), np.float64(apex.y)))) <= 1e-12
    # spot check the closed form at an interior point
    x, y = -0.4, -0.2
    want = (1.0 / 9.0) * (x ** 3 + 1.0) ** 2 + (4.0 / 9.0) * y ** 3
    assert float(g(np.float64(x), np.float64(y))) == pytest.approx(want, rel=1e-13)


def test_manufactured_vanishes_on_required_pieces():
    for dom in (omega1(1, 4, -0.5), omega3(1, 4, -0.5), omega4(1, 0, -0.5)):
        u = manufactured(dom, vanish_on=VANISH_AC_SIGMA)
        for cid in (BoundaryCurveId.AC, BoundaryCurveId.SIGMA):
            chart = next(c for c in boundary_charts(dom) if c.curve == cid)
            tau = chart.lo + (chart.hi - chart.lo) * (np.arange(100) + 0.5) / 100.0
            x, y, _, _ = chart.fn(tau)
            vals = np.asarray(u(np.asarray(x, float), np.asarray(y, float)), float)
            assert float(np.max(np.abs(vals))) <= 1e-12


def test_manufactured_ac_only_does_not_vanish_on_sigma():
    dom = omega1(1, 4, -0.5)
    u = manufactured(dom, vanish_on=VANISH_AC)
    chart = next(c for c in boundary_charts(dom)
                 if c.curve == BoundaryCurveId.SIGMA)
    tau = 0.5 * (chart.lo + chart.hi)
    x, y, _, _ = chart.fn(np.asarray([tau]))
    assert abs(float(u(np.asarray(x, float), np.asarray(y, float))[0])) > 1e-6


def test_manufactured_rejects_unknown_profile():
    with pytest.raises(ValueError):
        manufactured(omega1(1, 4, -0.5), vanish_on="everywhere")


# ---------------------------------------------------------------------------
# dilation and substitution

def test_dilate_values():
    co = coefficients(OperatorParams(1, 4))  # c1 = 3
    u = X
    ul = dilate(u, 2.0, co)
    assert float(ul(np.float64(8.0), np.float64(1.0))) == pytest.approx(1.0)
    same = dilate(u, 1.0, co)
    for p in ((0.7, -0.3), (-1.2, 2.0)):
        assert float(same(np.float64(p[0]), np.float64(p[1]))) == \
            pytest.approx(float(u(np.float64(p[0]), np.float64(p[1]))))
    with pytest.raises(ValueError):
        dilate(u, 0.0, co)


def test_dilate_jet_chain_rule():
    co = coefficients(OperatorParams(1, 4))
    u = X ** 2 * Y + Y ** 3
    lam = 1.7
    ul = dilate(u, lam, co)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = Point(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        img = Point(p.x * lam ** -co.c1, p.y * lam ** -co.c2)
        assert jet2(ul, p).ux == pytest.approx(
            lam ** -co.c1 * jet2(u, img).ux, rel=1e-12, abs=1e-14)


def test_substitute():
    u = X * Y + Y ** 2
    s = substitute(u, Y, X)   # swap the roles of the coordinates
    assert float(s(np.float64(2.0), np.float64(3.0))) == pytest.approx(
        float(u(np.float64(3.0), np.float64(2.0))))


# ---------------------------------------------------------------------------
# expression-tree mechanics

def test_division_by_zero_raises():
    u = Const(1.0) / X
    with pytest.raises(DomainError):
        jet2(u, Point(0.0, 1.0))


def test_ipow_negative_base_zero():
    u = X ** -2
    with pytest.raises(DomainError):
        jet2(u, Point(0.0, 0.5))
    assert jet2(u, Point(2.0, 0.0)).u == pytest.approx(0.25)


def test_int_power_matches_pow_on_nonnegative_bases():
    s = np.concatenate([[0.0, 5e-324, 1.0], np.random.default_rng(3).uniform(0, 3, 997)])
    for n in (3, 4, 7):
        assert np.array_equal(_ipow(s, n), s ** n)


def test_int_power_is_exactly_odd_or_even():
    s = np.random.default_rng(4).uniform(0, 3, 1000)
    for n in (3, 5, 7, -3):
        assert np.array_equal(_ipow(-s, n), -_ipow(s, n))
    for n in (4, 6, -4):
        assert np.array_equal(_ipow(-s, n), _ipow(s, n))


def test_int_power_special_values_and_scalars():
    s = np.array([-0.0, 0.0, -np.inf, np.inf, np.nan, -2.0])
    odd, even = _ipow(s, 3), _ipow(s, 4)
    assert np.array_equal(odd, s ** 3, equal_nan=True)
    assert np.array_equal(np.signbit(odd), np.signbit(s ** 3))
    assert np.array_equal(even, s ** 4, equal_nan=True)
    assert not np.signbit(even[~np.isnan(even)]).any()
    # 0-d arrays give what s ** n gives; a Python float stays a Python float
    for n in (3, 4, -3):
        zero_d = np.array(-2.0)
        assert _ipow(zero_d, n) == zero_d ** n
        assert type(_ipow(zero_d, n)) is type(zero_d ** n)
        assert _ipow(-2.0, n) == (-2.0) ** n and type(_ipow(-2.0, n)) is float
    assert math.copysign(1.0, _ipow(-0.0, 3)) == -1.0
    assert math.isnan(_ipow(math.nan, 3))
    assert _ipow(-math.inf, 3) == -math.inf
    # |n| <= 2 is numpy's own fast path
    assert np.array_equal(_ipow(s[5:], 2), s[5:] ** 2)


def test_int_power_leaves_a_read_only_input_alone():
    s = np.random.default_rng(5).uniform(-2, 2, 100)
    s.setflags(write=False)
    kept = s.copy()
    for n in (3, 4, -3, 7):
        out = _ipow(s, n)
        assert out is not s and out.flags.writeable
    assert np.array_equal(s, kept)


def test_ipow_jets_are_exactly_odd_or_even():
    x = np.random.default_rng(6).uniform(0.1, 2.0, 500)
    y = np.zeros_like(x)
    for n in (3, 7):
        pos, neg = (X ** n).jet(x, y), (X ** n).jet(-x, y)
        assert np.array_equal(neg.u, -pos.u)
        assert np.array_equal(neg.ux, pos.ux)
        assert np.array_equal(neg.uxx, -pos.uxx)


def test_root_power_odd_convention():
    # x^(1/3) keeps the sign of x
    u = root_power(X, 1, 3)
    assert jet2(u, Point(-8.0, 0.0)).u == pytest.approx(-2.0)
    assert jet2(u, Point(8.0, 0.0)).u == pytest.approx(2.0)
    with pytest.raises(ValueError):
        root_power(X, 1, 2)   # even denominator is not an odd root
    # p - 2q >= 0 makes the jet exist at 0
    smooth = root_power(X, 7, 3)
    j = jet2(smooth, Point(0.0, 0.0))
    assert (j.u, j.ux, j.uxx) == (0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        jet2(root_power(X, 1, 3), Point(0.0, 0.0))


def test_abs_power():
    u = abs_power(X, 2.5)
    j = jet2(u, Point(-2.0, 0.0))
    assert j.u == pytest.approx(2.0 ** 2.5)
    assert j.ux == pytest.approx(-2.5 * 2.0 ** 1.5)
    j0 = jet2(u, Point(0.0, 0.0))
    assert (j0.u, j0.ux, j0.uxx) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        abs_power(X, 2.0)


def test_fields_reject_boolean_operands():
    with pytest.raises(TypeError):
        X + True


def test_tree_equality_and_hash():
    a = X ** 2 * Y + Const(1.0)
    b = X ** 2 * Y + Const(1.0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != X ** 2 * Y


# ---------------------------------------------------------------------------
# prefix serialization

def test_prefix_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(30):
        u = _random_tree(rng)
        s = to_prefix(u)
        v = parse_field(s)
        assert v == u
        assert to_prefix(v) == s


def test_parse_field_literals_and_errors():
    assert parse_field("0") == Const(0.0)
    assert parse_field("x") == X
    u = parse_field("(+ (* x y) 2.5)")
    assert float(u(np.float64(2.0), np.float64(3.0))) == pytest.approx(8.5)
    u = parse_field("(root (pow x 2) 1 3)")
    assert float(u(np.float64(-8.0), np.float64(0.0))) == pytest.approx(4.0)
    for bad in ("(", "(+ x)", "(pow x)", "(frob x y)", "x y", ""):
        with pytest.raises(ValueError):
            parse_field(bad)


@pytest.mark.parametrize("text", [
    "(+ x 1.0)", "(- x y)", "(* x y)", "(/ x 2.0)", "(neg x)", "(pow x 3)",
    "(root x 2 3)", "(abspow y 2.5)"])
def test_every_grammar_token_round_trips(text):
    u = parse_field(text)
    assert to_prefix(u) == text
    assert parse_field(to_prefix(u)) == u
    assert substitute(u, X, Y) == u


def test_root_parses_through_root_power():
    assert parse_field("(root x 3 9)") == OddRootPow(X, 1, 3)
    assert to_prefix(parse_field("(root x 3 9)")) == "(root x 1 3)"
    assert parse_field("(root x 6 3)") == X ** 2


def test_parse_field_error_messages():
    wrong = "operator {!r} got a wrong argument count"
    for text, message in (
            ("(frob x y)", "unknown operator 'frob' in field expression"),
            ("(+ x)", wrong.format("+")),
            ("(neg x y)", wrong.format("neg")),
            ("(pow x)", wrong.format("pow")),
            ("(pow x 2 3)", wrong.format("pow")),
            ("(root x 1)", wrong.format("root")),
            ("(abspow x)", wrong.format("abspow")),
            ("(+ x y", "unterminated '('"),
            (")", "unexpected ')'"),
            ("x y", "trailing tokens in field expression: y"),
            ("(+ x z)", "unknown token 'z' in field expression"),
            ("", "empty field expression")):
        with pytest.raises(ValueError) as ei:
            parse_field(text)
        assert str(ei.value) == message


def test_nodes_outside_the_grammar_are_refused():
    @dataclass(frozen=True)
    class Twice(ScalarField):
        a: ScalarField

    for u in (Twice(X), Twice(X) + Y):
        with pytest.raises(TypeError, match="cannot serialize Twice"):
            to_prefix(u)
        with pytest.raises(TypeError, match="cannot substitute into Twice"):
            substitute(u, Y, X)


# ---------------------------------------------------------------------------
# integrated-norm axioms on a fixture domain

def _seminorm(u, dom, grid):
    m1, m2 = dom.params.m1, dom.params.m2
    j = u.jet(grid.x, grid.y)
    dens = np.abs(grid.y) ** m1 * j.ux ** 2 + np.abs(grid.x) ** m2 * j.uy ** 2
    (w,) = grid.weights
    return math.sqrt(float(np.sum(dens * w)))


def test_integrated_norm_axioms():
    dom = omega1(1, 4, -0.5)
    fine, _ = domain_grids(dom, QuadConfig())
    rng = np.random.default_rng(23)

    def poly(depth=0):
        r = rng.random()
        if depth >= 2 or r < 0.3:
            return rng.choice([X, Y, Const(float(rng.uniform(-1, 1)))])
        if r < 0.6:
            return poly(depth + 1) + poly(depth + 1)
        if r < 0.85:
            return poly(depth + 1) * poly(depth + 1)
        return poly(depth + 1) ** 2

    for _ in range(15):
        u, v = poly(), poly()
        nu, nv = _seminorm(u, dom, fine), _seminorm(v, dom, fine)
        assert _seminorm(u * Const(-2.5), dom, fine) == \
            pytest.approx(2.5 * nu, rel=1e-9, abs=1e-12)
        assert _seminorm(u + v, dom, fine) <= nu + nv + 1e-9


def test_sample_fn_validation():
    fn = SampleFn1D(lambda t: t + 1.0, lambda t: 1.0, -1.0, 0.0)
    assert fn.fn(-1.0) == 0.0
    with pytest.raises(ValueError):
        SampleFn1D(lambda t: t, lambda t: 1.0, 0.0, 0.0)
