"""Exponent pair (m1, m2), parity rules, derived coefficients, critical exponent.

The operator under study is

    O u = -y^m1 u_xx - x^m2 u_yy,

anisotropically dilation-invariant under (x, y) -> (lam^-(m1+2) x, lam^-(m2+2) y).
Everything here is exact integer / rational arithmetic; floats appear only at
use sites.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateDenominator, ParityViolation

__all__ = [
    "OperatorParams",
    "Coefficients",
    "NonlinearitySpec",
    "coefficients",
    "critical_exponent",
    "supercritical_threshold",
    "admissibility_rule",
    "require_admissible",
    "is_admissible",
    "cubic_nonlinearity",
    "power_nonlinearity",
    "linear_nonlinearity",
]


@dataclass(frozen=True)
class OperatorParams:
    """The exponent pair: m1 weights y (on u_xx), m2 weights x (on u_yy)."""

    m1: int
    m2: int

    def __post_init__(self):
        for name in ("m1", "m2"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


@dataclass(frozen=True)
class Coefficients:
    """Derived integer coefficients of the dilation structure.

    c1, c2   weights of the generator D = -c1 x d/dx - c2 y d/dy
    mu       scaling exponent of the weighted-gradient norm (m1+m2+m1*m2)
    kappa    scaling exponent of volume (m1+m2+4 = c1+c2)
    c        Pohozaev multiplier mu/2 (exact rational)
    """

    c1: int
    c2: int
    mu: int
    kappa: int

    @property
    def c(self) -> Fraction:
        return Fraction(self.mu, 2)


def coefficients(params: OperatorParams) -> Coefficients:
    m1, m2 = params.m1, params.m2
    return Coefficients(c1=m1 + 2, c2=m2 + 2, mu=m1 + m2 + m1 * m2, kappa=m1 + m2 + 4)


def critical_exponent(params: OperatorParams) -> Fraction:
    """2*(m1, m2) = (2(m1+m2)+8) / (m1+m2+m1*m2), exact."""
    mu = coefficients(params).mu
    if mu == 0:
        raise DegenerateDenominator(
            "m1 = m2 = 0 makes m1+m2+m1*m2 = 0; no finite critical exponent")
    return Fraction(2 * (params.m1 + params.m2) + 8, mu)


def supercritical_threshold(params: OperatorParams) -> Fraction:
    """2*(m1, m2) - 1 = (m1+m2-m1*m2+8) / (m1+m2+m1*m2), exact."""
    mu = coefficients(params).mu
    if mu == 0:
        raise DegenerateDenominator(
            "m1 = m2 = 0 makes m1+m2+m1*m2 = 0; no finite threshold")
    return Fraction(params.m1 + params.m2 - params.m1 * params.m2 + 8, mu)


# Strictest published parity hypothesis per domain variant: m1 odd, and m2
# divisible by the variant's modulus here.  Variant names are the geometry
# module's strings; kept here so parity logic has a single home.
_M2_MODULUS = {"omega1": 4, "omega2": 2, "omega3": 2, "omega4": 2}


def _m2_modulus(variant: str) -> int:
    try:
        return _M2_MODULUS[variant]
    except KeyError:
        raise ValueError(f"unknown domain variant {variant!r}") from None


def admissibility_rule(variant: str) -> str:
    """The parity hypothesis enforced for a variant, as a readable rule string."""
    k = _m2_modulus(variant)
    return "m1 odd and m2 " + ("even" if k == 2 else f"divisible by {k}")


def is_admissible(params: OperatorParams, variant: str) -> bool:
    k = _m2_modulus(variant)
    return params.m1 % 2 == 1 and params.m2 % k == 0


def require_admissible(params: OperatorParams, variant: str) -> None:
    """Raise ParityViolation naming the violated hypothesis."""
    if not is_admissible(params, variant):
        rule = admissibility_rule(variant)
        raise ParityViolation(
            f"(m1, m2) = ({params.m1}, {params.m2}) violates the {variant} "
            f"hypothesis: {rule}", rule=rule)


@dataclass(frozen=True)
class NonlinearitySpec:
    """A nonlinearity f with primitive F, F(0) = 0.

    f and F are pointwise callables (they also accept numpy arrays).  alpha is
    set when f(s) = s|s|^(alpha-1).
    """

    name: str
    f: callable
    F: callable
    alpha: float | None = None


def _ipow(s, n: int):
    """s**n for an integer n, for arrays and scalars of either sign.

    numpy's float64 power is many times slower on a negative base than on a
    positive one, and these bases (y on the hyperbolic side, x left of the
    axis, a field of either sign) are often negative.  So for |n| >= 3 the
    power is taken of |s|, in place in one new array, and copysign puts the
    sign back for odd n; s itself is never written.  For |n| <= 2 numpy has
    fast paths and s ** n is returned as it is."""
    if -2 <= n <= 2:
        return s ** n
    if isinstance(s, np.ndarray) and s.ndim:
        a = np.abs(s)
        np.power(a, n, out=a)
        return np.copysign(a, s, out=a) if n % 2 else a
    a = abs(s) ** n   # a Python float stays one, with Python's overflow rule
    if n % 2 == 0:
        return a
    return math.copysign(a, s) if type(a) is float else np.copysign(a, s)


def cubic_nonlinearity() -> NonlinearitySpec:
    return NonlinearitySpec("cubic", f=lambda s: _ipow(s, 3),
                            F=lambda s: _ipow(s, 4) / 4)


def power_nonlinearity(alpha: float = 3.0) -> NonlinearitySpec:
    """f(s) = s|s|^(alpha-1), F(s) = |s|^(alpha+1)/(alpha+1)."""
    # alpha = inf makes |u|**alpha vanish on |u| < 1, a vacuous identity
    if not (math.isfinite(alpha) and alpha > 1):
        raise ValueError(f"alpha must be finite and exceed 1, got {alpha}")
    return NonlinearitySpec(
        "power", f=lambda s: np.sign(s) * np.abs(s) ** alpha,
        F=lambda s: np.abs(s) ** (alpha + 1) / (alpha + 1), alpha=alpha)


def linear_nonlinearity() -> NonlinearitySpec:
    return NonlinearitySpec("linear", f=lambda s: s, F=lambda s: s**2 / 2)
