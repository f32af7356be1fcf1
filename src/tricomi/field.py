"""Scalar fields as immutable expression trees carrying exact jets (value,
gradient, u_xx and u_yy), evaluated vectorized over numpy arrays.

Odd-root powers follow the convention s**(p/q) := sign(s)**p * |s|**(p/q)
for odd q, which is the real branch used on the hyperbolic side.  |s|**g
powers (g > 2) cover the non-smooth nonlinearities; they carry classical
jets everywhere, vanishing at s = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import DegeneracyLine, DomainError, OutOfRange
from .geometry import DomainSpec, EllipticArc, ParametricArc, Point, Variant, Vec2
from .params import Coefficients, OperatorParams, coefficients
from .quad import _blockwise

__all__ = [
    "Jet2",
    "ScalarField",
    "Const",
    "Coord",
    "X",
    "Y",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "IPow",
    "OddRootPow",
    "AbsPow",
    "root_power",
    "abs_power",
    "SampleFn1D",
    "jet2",
    "apply_O",
    "apply_X",
    "apply_D",
    "energy_density",
    "norm_density",
    "directional_pm",
    "manufactured",
    "dilate",
    "substitute",
    "to_prefix",
    "parse_field",
    "operator_weights",
    "O_from_jet",
    "X_from_jet",
    "D_from_jet",
    "energy_from_jet",
    "norm_from_jet",
]


@dataclass(eq=False)
class Jet2:
    """Value, gradient, uxx and uyy; components are floats or numpy arrays
    of a common shape.  O has no mixed term and no check reads one, so a
    jet carries no mixed derivative.  uxx and uyy are None in a first-order
    jet (ScalarField.jet's second unset), so reading them fails instead of
    giving a number."""

    u: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray | None = None
    uyy: np.ndarray | None = None


def _parts(j: Jet2, second: bool) -> tuple:
    return (j.u, j.ux, j.uy, j.uxx, j.uyy) if second else (j.u, j.ux, j.uy)


def _flat(z, second: bool) -> tuple:
    # the second-order parts of an affine field: zeros, each its own array
    return (z.copy(), z.copy()) if second else ()


def _chain(b: Jet2, g, g1, g2, second) -> Jet2:
    # jet of g(b) from scalar derivatives g, g' at b.u; g2() gives g'' at
    # b.u and is called only when the second-order parts are asked for
    j = Jet2(g, g1 * b.ux, g1 * b.uy)
    if second:
        d2 = g2()
        j.uxx = d2 * b.ux * b.ux + g1 * b.uxx
        j.uyy = d2 * b.uy * b.uy + g1 * b.uyy
    return j


class ScalarField:
    """Base expression node.  Subclasses are frozen dataclasses, so trees
    compare and hash structurally (used for grid caching)."""

    def jet(self, x, y, known=None, second=True) -> Jet2:
        """Jet at the points (x, y): u, ux and uy, and with second set also
        uxx and uyy (else they are None).  Each part takes the same
        operations either way, so a first-order jet is bit-identical to
        the first three parts of a second-order one.

        known(node), when given, returns the jet of a subtree already
        evaluated on these same points, or None; a returned jet is used
        instead of evaluating that subtree again, so the result is
        bit-identical to a cold evaluation.  A known first-order jet in a
        second-order call raises ValueError.

        Points beyond one block are evaluated block by block (see
        quad._blockwise): the tree is walked once per block and each known
        jet is looked up once per call and sliced for every block."""
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                     np.asarray(y, dtype=float))
        looked = {}  # id(node) -> (node, known jet or None); node pins the id

        def block(sl):
            xs, ys = xb[sl], yb[sl]

            def sub(node):
                entry = looked.get(id(node))
                if entry is None:
                    j = None if known is None else known(node)
                    if j is not None and second and (j.uxx is None or j.uyy is None):
                        raise ValueError(f"the known jet of {to_prefix(node)} "
                                         "lacks its second-order parts")
                    entry = looked[id(node)] = (node, j)
                j = entry[1]
                if j is None:
                    return node._jet(xs, ys, sub, second)
                return j if sl is ... else Jet2(*(a[sl] for a in _parts(j, second)))

            j, sub = sub(self), None  # sub's closure cycle would pin arrays until gc
            return _parts(j, second)

        return Jet2(*_blockwise(xb, block))

    def _jet(self, x, y, sub, second) -> Jet2:
        # sub(child) is the jet of a child node on the same points; second
        # says whether to compute uxx and uyy
        raise NotImplementedError

    def diff(self, var: str) -> "ScalarField":
        raise NotImplementedError

    def __call__(self, x, y):
        return self.jet(x, y).u

    def __add__(self, other):
        return Add(self, _as_field(other))

    def __radd__(self, other):
        return Add(_as_field(other), self)

    def __sub__(self, other):
        return Sub(self, _as_field(other))

    def __rsub__(self, other):
        return Sub(_as_field(other), self)

    def __mul__(self, other):
        return Mul(self, _as_field(other))

    def __rmul__(self, other):
        return Mul(_as_field(other), self)

    def __truediv__(self, other):
        return Div(self, _as_field(other))

    def __rtruediv__(self, other):
        return Div(_as_field(other), self)

    def __pow__(self, n):
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError("only integer powers; use root_power or abs_power")
        return IPow(self, n)

    def __neg__(self):
        return Neg(self)


def _as_field(v) -> ScalarField:
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, bool):
        raise TypeError("booleans are not field values")
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to a scalar field")


@dataclass(frozen=True)
class Const(ScalarField):
    v: float

    def __post_init__(self):
        if not math.isfinite(self.v):
            raise ValueError("constant must be finite")

    def _jet(self, x, y, sub, second):
        z = np.zeros_like(x)
        return Jet2(np.full_like(x, self.v), z, z, *_flat(z, second))

    def diff(self, var):
        return Const(0.0)


@dataclass(frozen=True)
class Coord(ScalarField):
    name: str

    def __post_init__(self):
        if self.name not in ("x", "y"):
            raise ValueError("coordinate must be 'x' or 'y'")

    def _jet(self, x, y, sub, second):
        z = np.zeros_like(x)
        one = np.ones_like(x)
        if self.name == "x":
            return Jet2(x.copy(), one, z, *_flat(z, second))
        return Jet2(y.copy(), z, one, *_flat(z, second))

    def diff(self, var):
        return Const(1.0) if var == self.name else Const(0.0)


X = Coord("x")
Y = Coord("y")


@dataclass(frozen=True)
class Add(ScalarField):
    a: ScalarField
    b: ScalarField

    def _jet(self, x, y, sub, second):
        ja, jb = sub(self.a), sub(self.b)
        j = Jet2(ja.u + jb.u, ja.ux + jb.ux, ja.uy + jb.uy)
        if second:
            j.uxx, j.uyy = ja.uxx + jb.uxx, ja.uyy + jb.uyy
        return j

    def diff(self, var):
        return Add(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True)
class Sub(ScalarField):
    a: ScalarField
    b: ScalarField

    def _jet(self, x, y, sub, second):
        ja, jb = sub(self.a), sub(self.b)
        j = Jet2(ja.u - jb.u, ja.ux - jb.ux, ja.uy - jb.uy)
        if second:
            j.uxx, j.uyy = ja.uxx - jb.uxx, ja.uyy - jb.uyy
        return j

    def diff(self, var):
        return Sub(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True)
class Mul(ScalarField):
    a: ScalarField
    b: ScalarField

    def _jet(self, x, y, sub, second):
        ja, jb = sub(self.a), sub(self.b)
        j = Jet2(ja.u * jb.u, ja.ux * jb.u + ja.u * jb.ux, ja.uy * jb.u + ja.u * jb.uy)
        if second:
            j.uxx = ja.uxx * jb.u + 2.0 * ja.ux * jb.ux + ja.u * jb.uxx
            j.uyy = ja.uyy * jb.u + 2.0 * ja.uy * jb.uy + ja.u * jb.uyy
        return j

    def diff(self, var):
        return Add(Mul(self.a.diff(var), self.b), Mul(self.a, self.b.diff(var)))


@dataclass(frozen=True)
class Div(ScalarField):
    a: ScalarField
    b: ScalarField

    def _jet(self, x, y, sub, second):
        ja, jb = sub(self.a), sub(self.b)
        if np.any(jb.u == 0.0):
            raise DomainError("division by zero in field evaluation")
        w = ja.u / jb.u
        wx = (ja.ux - w * jb.ux) / jb.u
        wy = (ja.uy - w * jb.uy) / jb.u
        j = Jet2(w, wx, wy)
        if second:
            j.uxx = (ja.uxx - 2.0 * wx * jb.ux - w * jb.uxx) / jb.u
            j.uyy = (ja.uyy - 2.0 * wy * jb.uy - w * jb.uyy) / jb.u
        return j

    def diff(self, var):
        num = Sub(Mul(self.a.diff(var), self.b), Mul(self.a, self.b.diff(var)))
        return Div(num, Mul(self.b, self.b))


@dataclass(frozen=True)
class Neg(ScalarField):
    a: ScalarField

    def _jet(self, x, y, sub, second):
        j = sub(self.a)
        neg = Jet2(-j.u, -j.ux, -j.uy)
        if second:
            neg.uxx, neg.uyy = -j.uxx, -j.uyy
        return neg

    def diff(self, var):
        return Neg(self.a.diff(var))


@dataclass(frozen=True)
class IPow(ScalarField):
    a: ScalarField
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise TypeError("exponent must be an integer")

    def _jet(self, x, y, sub, second):
        j = sub(self.a)
        n = self.n
        if n == 0:
            z = np.zeros_like(x)
            return Jet2(np.ones_like(x), z, z, *_flat(z, second))
        s = j.u
        if n < 0 and np.any(s == 0.0):
            raise DomainError("negative power of a vanishing field")
        g = s ** n
        g1 = n * s ** (n - 1)
        return _chain(j, g, g1, lambda: np.zeros_like(s) if n == 1
                      else n * (n - 1) * s ** (n - 2), second)

    def diff(self, var):
        if self.n == 0:
            return Const(0.0)
        if self.n == 1:
            return self.a.diff(var)
        return Mul(Mul(Const(float(self.n)), IPow(self.a, self.n - 1)),
                   self.a.diff(var))


def _oddpow(s, p: int, q: int):
    # sign(s)**p * |s|**(p/q); caller guarantees no zeros when p/q < 0
    r = p / q
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.abs(s) ** r
    if p % 2:
        return np.sign(s) * a
    return a


@dataclass(frozen=True)
class OddRootPow(ScalarField):
    """Real odd-root power a**(p/q), q odd.  Reduced form; build via
    root_power which also collapses integer cases to IPow."""

    a: ScalarField
    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("exponent must be a pair of integers")
        if self.q < 3 or self.q % 2 == 0:
            raise ValueError("q must be an odd integer >= 3")
        if self.p == 0:
            raise ValueError("p must be nonzero")
        if math.gcd(abs(self.p), self.q) != 1:
            raise ValueError("p/q must be in lowest terms (use root_power)")

    def _jet(self, x, y, sub, second):
        j = sub(self.a)
        s = j.u
        if np.any(s == 0.0) and self.p - 2 * self.q < 0:
            raise DomainError(
                f"jet of odd-root power {self.p}/{self.q} is singular where "
                "the base vanishes")
        r = self.p / self.q
        g = _oddpow(s, self.p, self.q)
        g1 = r * _oddpow(s, self.p - self.q, self.q)
        return _chain(j, g, g1, lambda: r * (r - 1.0)
                      * _oddpow(s, self.p - 2 * self.q, self.q), second)

    def diff(self, var):
        scale = Const(self.p / self.q)
        inner = root_power(self.a, self.p - self.q, self.q)
        return Mul(Mul(scale, inner), self.a.diff(var))


def root_power(base: ScalarField, p: int, q: int) -> ScalarField:
    """base**(p/q) under the odd-root convention, normalized."""
    base = _as_field(base)
    if isinstance(p, bool) or isinstance(q, bool) \
            or not isinstance(p, int) or not isinstance(q, int):
        raise TypeError("p and q must be integers")
    if q <= 0 or q % 2 == 0:
        raise ValueError("q must be a positive odd integer")
    if p == 0:
        return Const(1.0)
    g = math.gcd(abs(p), q)
    p, q = p // g, q // g
    if q == 1:
        return base if p == 1 else IPow(base, p)
    return OddRootPow(base, p, q)


@dataclass(frozen=True)
class AbsPow(ScalarField):
    """|a|**gamma with gamma > 2, so the jet exists everywhere."""

    a: ScalarField
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 2.0):
            raise ValueError("gamma must be finite and > 2")

    def _jet(self, x, y, sub, second):
        j = sub(self.a)
        s = j.u
        a2 = np.abs(s) ** (self.gamma - 2.0)
        g = a2 * s * s
        g1 = self.gamma * s * a2
        return _chain(j, g, g1, lambda: self.gamma * (self.gamma - 1.0) * a2, second)

    def diff(self, var):
        raise NotImplementedError(
            "derivative trees of |.|**gamma are not supported; use jets")


def abs_power(base, gamma: float) -> ScalarField:
    return AbsPow(_as_field(base), float(gamma))


# ---------------------------------------------------------------------------
# operator actions

def jet2(u: ScalarField, p: Point) -> Jet2:
    """Second-order jet at a point, as floats."""
    return Jet2(*(float(np.asarray(c)) for c in _parts(u.jet(p.x, p.y), True)))


def operator_weights(params: OperatorParams, x, y):
    """(y**m1, x**m2), the coefficients O, X and E put on the jet.  A caller
    evaluating several densities on the same points computes them once and
    passes them on as weights."""
    return y ** params.m1, x ** params.m2


def O_from_jet(params: OperatorParams, j: Jet2, x, y, weights=None):
    ym1, xm2 = operator_weights(params, x, y) if weights is None else weights
    return -ym1 * j.uxx - xm2 * j.uyy


def X_from_jet(params: OperatorParams, j: Jet2, x, y, weights=None):
    ym1, xm2 = operator_weights(params, x, y) if weights is None else weights
    return -ym1 * j.ux, -xm2 * j.uy


def D_from_jet(coeffs: Coefficients, j: Jet2, x, y):
    return -coeffs.c1 * x * j.ux - coeffs.c2 * y * j.uy


def energy_from_jet(params: OperatorParams, j: Jet2, x, y, weights=None):
    ym1, xm2 = operator_weights(params, x, y) if weights is None else weights
    return ym1 * j.ux ** 2 + xm2 * j.uy ** 2


def norm_from_jet(params: OperatorParams, j: Jet2, x, y):
    return np.abs(y) ** params.m1 * j.ux ** 2 + np.abs(x) ** params.m2 * j.uy ** 2


def apply_O(params: OperatorParams, u: ScalarField, p: Point) -> float:
    """-y^m1 uxx - x^m2 uyy at p."""
    return float(O_from_jet(params, jet2(u, p), p.x, p.y))


def apply_X(params: OperatorParams, u: ScalarField, p: Point) -> Vec2:
    """The flux field (-y^m1 ux, -x^m2 uy) at p."""
    vx, vy = X_from_jet(params, jet2(u, p), p.x, p.y)
    return Vec2(float(vx), float(vy))


def apply_D(coeffs: Coefficients, u: ScalarField, p: Point) -> float:
    """The dilation generator -c1 x ux - c2 y uy at p."""
    return float(D_from_jet(coeffs, jet2(u, p), p.x, p.y))


def energy_density(params: OperatorParams, u: ScalarField, p: Point) -> float:
    """y^m1 ux^2 + x^m2 uy^2 (sign-indefinite on the hyperbolic side)."""
    return float(energy_from_jet(params, jet2(u, p), p.x, p.y))


def norm_density(params: OperatorParams, u: ScalarField, p: Point) -> float:
    """|y|^m1 ux^2 + |x|^m2 uy^2, the weighted-gradient norm integrand."""
    return float(norm_from_jet(params, jet2(u, p), p.x, p.y))


def directional_pm(params: OperatorParams, u: ScalarField, p: Point) -> tuple[float, float]:
    """Derivatives along the two characteristic directions in {y <= 0},
    x**(-m2/2) * [x**(m2/2) uy +- (-y)**(m1/2) ux]."""
    if p.y > 0:
        raise OutOfRange("characteristic directions live in the closed half-plane y <= 0")
    if p.x == 0.0:
        raise DegeneracyLine("x = 0 is the degeneracy line of the factorization")
    if params.m2 % 2:
        raise ValueError("the factorization needs even m2")
    j = jet2(u, p)
    a = p.x ** (params.m2 // 2)
    b = (-p.y) ** (params.m1 / 2.0)
    return ((a * j.uy + b * j.ux) / a, (a * j.uy - b * j.ux) / a)


# ---------------------------------------------------------------------------
# manufactured solutions

VANISH_AC = "AC_only"
VANISH_AC_SIGMA = "AC_and_sigma"


def manufactured(domain: DomainSpec, vanish_on: str = VANISH_AC_SIGMA,
                 seed: ScalarField | float | None = None) -> ScalarField:
    """Smooth field vanishing on AC (and optionally on sigma), built from
    the defining polynomial of each curve.  seed multiplies the result."""
    if vanish_on not in (VANISH_AC, VANISH_AC_SIGMA):
        raise ValueError(f"vanish_on must be {VANISH_AC!r} or {VANISH_AC_SIGMA!r}")
    co = coefficients(domain.params)
    c1, c2 = co.c1, co.c2
    k = (domain.params.m2 + 2) // 2
    if domain.variant in (Variant.OMEGA1, Variant.OMEGA2):
        two_x0_k = (2.0 * domain.anchor) ** k
        g = Const((2.0 / c2) ** 2) * (IPow(X, k) - two_x0_k) ** 2 \
            + Const((2.0 / c1) ** 2) * IPow(Y, c1)
    else:
        bigk = (-2.0 * domain.anchor) ** (c1 / 2.0)
        g = ((2.0 / c1) * bigk - Const(2.0 / c2) * IPow(X, k)) ** 2 \
            + Const((2.0 / c1) ** 2) * IPow(Y, c1)
    u: ScalarField = g
    if vanish_on == VANISH_AC_SIGMA:
        u = Mul(u, _sigma_cutoff(domain))
    if seed is not None:
        u = Mul(u, _as_field(seed))
    return u


def _sigma_cutoff(domain: DomainSpec) -> ScalarField:
    if domain.variant is Variant.OMEGA4:
        return X
    arc = domain.arc
    if not isinstance(arc, EllipticArc):
        raise DomainError("sigma-vanishing fields need an elliptic arc or the "
                          "omega4 segment")
    a, b = arc.semi_axes
    return Const(1.0) - ((X - arc.center.x) / a) ** 2 - ((Y - arc.center.y) / b) ** 2


# ---------------------------------------------------------------------------
# substitution and dilation

def substitute(u: ScalarField, fx: ScalarField, fy: ScalarField) -> ScalarField:
    """Replace the coordinates by fields: u(fx, fy) as a new tree."""
    if isinstance(u, Coord):
        return fx if u.name == "x" else fy
    if isinstance(u, Const):
        return u
    if type(u) not in _TOKENS:
        raise TypeError(f"cannot substitute into {type(u).__name__}")
    return type(u)(*(substitute(v, fx, fy) if isinstance(v, ScalarField) else v
                     for v in _operands(u)))


def dilate(u: ScalarField, lam: float, coeffs: Coefficients) -> ScalarField:
    """u_lambda(x, y) = u(lambda**(-c1) x, lambda**(-c2) y)."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("dilation parameter must be positive and finite")
    fx = Mul(Const(lam ** (-coeffs.c1)), X)
    fy = Mul(Const(lam ** (-coeffs.c2)), Y)
    return substitute(u, fx, fy)


# ---------------------------------------------------------------------------
# prefix grammar

# token -> (node class, builder, field operands, converters of the literal
# operands that follow them); a node's operands are its dataclass fields
_GRAMMAR = {
    "+": (Add, Add, 2, ()),
    "-": (Sub, Sub, 2, ()),
    "*": (Mul, Mul, 2, ()),
    "/": (Div, Div, 2, ()),
    "neg": (Neg, Neg, 1, ()),
    "pow": (IPow, IPow, 1, (int,)),
    "root": (OddRootPow, root_power, 1, (int, int)),
    "abspow": (AbsPow, AbsPow, 1, (float,)),
}
_TOKENS = {cls: token for token, (cls, *_) in _GRAMMAR.items()}


def _operands(u: ScalarField) -> list:
    return [getattr(u, f.name) for f in fields(u)]


def to_prefix(u: ScalarField) -> str:
    """Serialize to the prefix grammar understood by parse_field."""
    if isinstance(u, Const):
        return repr(u.v)
    if isinstance(u, Coord):
        return u.name
    if type(u) not in _TOKENS:
        raise TypeError(f"cannot serialize {type(u).__name__}")
    args = (to_prefix(v) if isinstance(v, ScalarField) else repr(v)
            for v in _operands(u))
    return f"({_TOKENS[type(u)]} {' '.join(args)})"


def parse_field(text: str) -> ScalarField:
    """Parse the prefix grammar: (+ a b), (- a b), (* a b), (/ a b),
    (neg a), (pow a n), (root a p q), (abspow a g), x, y, literals."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty field expression")
    expr, rest = _parse_tokens(tokens)
    if rest:
        raise ValueError(f"trailing tokens in field expression: {' '.join(rest)}")
    return expr


def _parse_tokens(tokens: list[str]) -> tuple[ScalarField, list[str]]:
    tok, rest = tokens[0], tokens[1:]
    if tok == "(":
        if not rest:
            raise ValueError("unterminated '('")
        op, rest = rest[0], rest[1:]
        _, build, n_fields, literals = _GRAMMAR.get(op, (None, None, 0, ()))
        args: list[ScalarField] = []
        raw: list[str] = []
        while True:
            if not rest:
                raise ValueError("unterminated '('")
            if rest[0] == ")":
                rest = rest[1:]
                break
            if literals and len(args) >= n_fields:
                raw.append(rest[0])
                rest = rest[1:]
                continue
            node, rest = _parse_tokens(rest)
            args.append(node)
        if build is None:
            raise ValueError(f"unknown operator {op!r} in field expression")
        if len(args) != n_fields or len(raw) != len(literals):
            raise ValueError(f"operator {op!r} got a wrong argument count")
        return build(*args, *(conv(r) for conv, r in zip(literals, raw))), rest
    if tok == ")":
        raise ValueError("unexpected ')'")
    if tok in ("x", "y"):
        return (X if tok == "x" else Y), rest
    try:
        return Const(float(tok)), rest
    except ValueError:
        raise ValueError(f"unknown token {tok!r} in field expression") from None


# ---------------------------------------------------------------------------
# 1D sample functions (for the weighted boundary functionals)

@dataclass(eq=False)
class SampleFn1D:
    """A function on [a, b] with its derivative, both vectorized."""

    fn: Callable
    dfn: Callable
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need b > a")
