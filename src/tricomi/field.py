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
from .params import Coefficients, OperatorParams, _ipow, coefficients
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
    giving a number.  Inside a walk a part may be a scalar (ScalarField.jet)."""

    u: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray | None = None
    uyy: np.ndarray | None = None


# derivative parts that are 0 or 1 by construction, told from a constant's value
# by identity; _add, _sub and _mul skip the arithmetic they make trivial
_ZERO = np.float64(0.0)
_ONE = np.float64(1.0)


def _add(a, b):
    return b if a is _ZERO else a if b is _ZERO else a + b


def _sub(a, b):
    return a if b is _ZERO else -b if a is _ZERO else a - b


def _mul(a, b):
    if a is _ZERO or b is _ZERO:
        return _ZERO
    return b if a is _ONE else a if b is _ONE else a * b


def _parts(j: Jet2, second: bool) -> tuple:
    return (j.u, j.ux, j.uy, j.uxx, j.uyy) if second else (j.u, j.ux, j.uy)


def _array_base(s, x):
    # a constant base on the points: numpy's array power rounds as a scalar's may not
    return s if isinstance(s, np.ndarray) else np.full(x.shape, s)


def _reciprocal_base(s, zero_message: str):
    # no zero, and no inf or nan, which a reciprocal would hide from jet's check
    if np.any(s == 0.0):
        raise DomainError(zero_message)
    if not np.all(np.isfinite(s)):
        raise DomainError("non-finite field: the base of a reciprocal is inf or nan")


def _chain(b: Jet2, g, g1, g2, second) -> Jet2:
    # jet of g(b) from scalar derivatives g, g' at b.u; g2() gives g'' at
    # b.u and is called only when the second-order parts are asked for
    j = Jet2(g, _mul(g1, b.ux), _mul(g1, b.uy))
    if second:
        d2 = g2()
        j.uxx = _add(_mul(_mul(d2, b.ux), b.ux), _mul(g1, b.uxx))
        j.uyy = _add(_mul(_mul(d2, b.uy), b.uy), _mul(g1, b.uyy))
    return j


class ScalarField:
    """Base expression node.  Subclasses are frozen dataclasses, so trees
    compare and hash structurally (used for grid caching)."""

    def jet(self, x, y, known=None, second=True) -> Jet2:
        """Jet at the points (x, y): u, ux and uy, and with second set also
        uxx and uyy (else they are None), each a new float64 array of the
        points' shape held by the jet alone.  Each part takes the same
        operations either way, so a first-order jet is bit-identical to
        the first three parts of a second-order one.

        The walk is sparse: a constant stays a scalar, a leaf's derivatives
        are the structural _ZERO and _ONE, and the arithmetic they make
        trivial is skipped.  Values are bit-identical to those of a walk on
        full arrays (a power of a constant runs on an array of the points);
        derivative parts equal its parts under ==, up to the sign of a zero.
        Skipping 0 * inf hides a nan, so a part that is not finite raises
        DomainError.  No non-finite step goes unseen: values are exact, only
        a reciprocal maps inf to a finite value (Div and negative powers
        refuse such a base), and every derivative part reaches the output
        through a product with a computed value.

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
                return Jet2(*(a[sl] for a in _parts(j, second)))   # views, never owned

            j, sub = sub(self), None  # sub's closure cycle would pin arrays until gc
            out = []   # scalars, views (points, known jets) and repeats are copied
            for f, p in zip(fields(Jet2), _parts(j, second)):
                if not np.all(np.isfinite(p)):
                    raise DomainError(f"non-finite field: its {f.name} is inf or nan")
                if not (isinstance(p, np.ndarray) and p.flags.owndata) \
                        or any(p is q for q in out):
                    p = np.array(np.broadcast_to(p, xs.shape))
                out.append(p)
            return tuple(out)

        return Jet2(*_blockwise(xb, block))

    def _jet(self, x, y, sub, second) -> Jet2:
        # sub(child) is the jet of a child node on the same points; second
        # says whether to compute uxx and uyy
        raise NotImplementedError

    def __call__(self, x, y):
        return self.jet(x, y, second=False).u

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
        return Jet2(np.float64(self.v), _ZERO, _ZERO, _ZERO, _ZERO)


@dataclass(frozen=True)
class Coord(ScalarField):
    name: str

    def __post_init__(self):
        if self.name not in ("x", "y"):
            raise ValueError("coordinate must be 'x' or 'y'")

    def _jet(self, x, y, sub, second):
        if self.name == "x":
            return Jet2(x, _ONE, _ZERO, _ZERO, _ZERO)
        return Jet2(y, _ZERO, _ONE, _ZERO, _ZERO)


X = Coord("x")
Y = Coord("y")


@dataclass(frozen=True)
class Add(ScalarField):
    a: ScalarField
    b: ScalarField

    def _jet(self, x, y, sub, second):
        ja, jb = (_parts(sub(v), second) for v in (self.a, self.b))
        return Jet2(ja[0] + jb[0], *map(_add, ja[1:], jb[1:]))


@dataclass(frozen=True)
class Sub(ScalarField):
    a: ScalarField
    b: ScalarField

    def _jet(self, x, y, sub, second):
        ja, jb = (_parts(sub(v), second) for v in (self.a, self.b))
        return Jet2(ja[0] - jb[0], *map(_sub, ja[1:], jb[1:]))


@dataclass(frozen=True)
class Mul(ScalarField):
    a: ScalarField
    b: ScalarField

    def _jet(self, x, y, sub, second):
        ja, jb = sub(self.a), sub(self.b)
        j = Jet2(ja.u * jb.u, _add(_mul(ja.ux, jb.u), _mul(ja.u, jb.ux)),
                 _add(_mul(ja.uy, jb.u), _mul(ja.u, jb.uy)))
        if second:
            j.uxx = _add(_add(_mul(ja.uxx, jb.u), _mul(_mul(2.0, ja.ux), jb.ux)),
                         _mul(ja.u, jb.uxx))
            j.uyy = _add(_add(_mul(ja.uyy, jb.u), _mul(_mul(2.0, ja.uy), jb.uy)),
                         _mul(ja.u, jb.uyy))
        return j


@dataclass(frozen=True)
class Div(ScalarField):
    a: ScalarField
    b: ScalarField

    def _jet(self, x, y, sub, second):
        ja, jb = sub(self.a), sub(self.b)
        _reciprocal_base(jb.u, "division by zero in field evaluation")
        w = ja.u / jb.u

        def over(num):   # num / b; a structural 0 stays one
            return num if num is _ZERO else num / jb.u

        wx = over(_sub(ja.ux, _mul(w, jb.ux)))
        wy = over(_sub(ja.uy, _mul(w, jb.uy)))
        j = Jet2(w, wx, wy)
        if second:
            j.uxx = over(_sub(_sub(ja.uxx, _mul(_mul(2.0, wx), jb.ux)), _mul(w, jb.uxx)))
            j.uyy = over(_sub(_sub(ja.uyy, _mul(_mul(2.0, wy), jb.uy)), _mul(w, jb.uyy)))
        return j


@dataclass(frozen=True)
class Neg(ScalarField):
    a: ScalarField

    def _jet(self, x, y, sub, second):
        u, *d = _parts(sub(self.a), second)
        return Jet2(-u, *(_sub(_ZERO, p) for p in d))


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
            return Jet2(np.float64(1.0), _ZERO, _ZERO, _ZERO, _ZERO)
        s = _array_base(j.u, x)
        if n < 0:
            _reciprocal_base(s, "negative power of a vanishing field")
        g = _ipow(s, n)
        g1 = n * _ipow(s, n - 1)
        return _chain(j, g, g1, lambda: _ZERO if n == 1
                      else n * (n - 1) * _ipow(s, n - 2), second)


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
        s = _array_base(j.u, x)
        if self.p - 2 * self.q < 0:
            _reciprocal_base(s, f"jet of odd-root power {self.p}/{self.q} is "
                             "singular where the base vanishes")
        r = self.p / self.q
        g = _oddpow(s, self.p, self.q)
        g1 = r * _oddpow(s, self.p - self.q, self.q)
        return _chain(j, g, g1, lambda: r * (r - 1.0)
                      * _oddpow(s, self.p - 2 * self.q, self.q), second)


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
        s = _array_base(j.u, x)
        a2 = np.abs(s) ** (self.gamma - 2.0)
        g = a2 * s * s
        g1 = self.gamma * s * a2
        return _chain(j, g, g1, lambda: self.gamma * (self.gamma - 1.0) * a2, second)


def abs_power(base, gamma: float) -> ScalarField:
    return AbsPow(_as_field(base), float(gamma))


# ---------------------------------------------------------------------------
# operator actions

def jet2(u: ScalarField, p: Point) -> Jet2:
    """Second-order jet at a point, as floats."""
    return Jet2(*(float(np.asarray(c)) for c in _parts(u.jet(p.x, p.y), True)))


def operator_weights(params: OperatorParams, x, y):
    """(y**m1, x**m2), the weights O, X and E put on the jet; a boundary
    level keeps them, area passes and point helpers compute their own."""
    return _ipow(y, params.m1), _ipow(x, params.m2)


def O_from_jet(j: Jet2, weights):
    ym1, xm2 = weights
    return -ym1 * j.uxx - xm2 * j.uyy


def X_from_jet(j: Jet2, weights):
    ym1, xm2 = weights
    return -ym1 * j.ux, -xm2 * j.uy


def D_from_jet(coeffs: Coefficients, j: Jet2, x, y):
    return -coeffs.c1 * x * j.ux - coeffs.c2 * y * j.uy


def energy_from_jet(j: Jet2, weights):
    ym1, xm2 = weights
    return ym1 * j.ux ** 2 + xm2 * j.uy ** 2


def norm_from_jet(params: OperatorParams, j: Jet2, x, y):
    return np.abs(y) ** params.m1 * j.ux ** 2 + np.abs(x) ** params.m2 * j.uy ** 2


def apply_O(params: OperatorParams, u: ScalarField, p: Point) -> float:
    """-y^m1 uxx - x^m2 uyy at p."""
    return float(O_from_jet(jet2(u, p), operator_weights(params, p.x, p.y)))


def apply_X(params: OperatorParams, u: ScalarField, p: Point) -> Vec2:
    """The flux field (-y^m1 ux, -x^m2 uy) at p."""
    vx, vy = X_from_jet(jet2(u, p), operator_weights(params, p.x, p.y))
    return Vec2(float(vx), float(vy))


def apply_D(coeffs: Coefficients, u: ScalarField, p: Point) -> float:
    """The dilation generator -c1 x ux - c2 y uy at p."""
    return float(D_from_jet(coeffs, jet2(u, p), p.x, p.y))


def energy_density(params: OperatorParams, u: ScalarField, p: Point) -> float:
    """y^m1 ux^2 + x^m2 uy^2 (sign-indefinite on the hyperbolic side)."""
    return float(energy_from_jet(jet2(u, p), operator_weights(params, p.x, p.y)))


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


def manufactured(domain: DomainSpec, vanish_on: str = VANISH_AC_SIGMA) -> ScalarField:
    """Smooth field vanishing on AC (and optionally on sigma), built from
    the defining polynomial of each curve."""
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
