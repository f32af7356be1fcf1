"""Exact-arithmetic checks for the parameter layer: coefficient bundles,
critical exponents, parity admissibility and nonlinearity specs."""
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from tricomi.errors import DegenerateDenominator, ParityViolation
from tricomi.params import (Coefficients, OperatorParams, admissibility_rule,
                            coefficients, critical_exponent,
                            cubic_nonlinearity, is_admissible,
                            linear_nonlinearity, power_nonlinearity,
                            require_admissible, supercritical_threshold)


def test_params_validation():
    OperatorParams(0, 0)
    with pytest.raises(ValueError):
        OperatorParams(-1, 0)
    with pytest.raises(ValueError):
        OperatorParams(1, 2.0)
    with pytest.raises(ValueError):
        OperatorParams(True, 0)


def test_params_frozen():
    p = OperatorParams(1, 4)
    with pytest.raises(FrozenInstanceError):
        p.m1 = 3


# hand-computed fixtures: c1 = m1+2, c2 = m2+2, mu = m1+m2+m1*m2,
# kappa = m1+m2+4 = c1+c2
COEFF_FIXTURES = {
    (1, 4): (3, 6, 9, 9),
    (1, 0): (3, 2, 1, 5),
    (0, 0): (2, 2, 0, 4),
    (3, 2): (5, 4, 11, 9),
}


def test_coefficients_fixtures():
    for (m1, m2), (c1, c2, mu, kappa) in COEFF_FIXTURES.items():
        co = coefficients(OperatorParams(m1, m2))
        assert (co.c1, co.c2, co.mu, co.kappa) == (c1, c2, mu, kappa)
        assert co.kappa == co.c1 + co.c2


def test_half_mu_is_exact_fraction():
    co = coefficients(OperatorParams(1, 0))
    assert co.c == Fraction(1, 2)
    assert isinstance(co.c, Fraction)
    assert coefficients(OperatorParams(1, 4)).c == Fraction(9, 2)


def test_critical_exponent_pure_x_degeneracy():
    # (m, 0) specialization: 2* = (2m+8)/m, exact rational equality
    for m in (1, 3, 5):
        e = critical_exponent(OperatorParams(m, 0))
        assert e == Fraction(2 * m + 8, m)
    assert critical_exponent(OperatorParams(1, 0)) == 10
    assert isinstance(critical_exponent(OperatorParams(1, 0)), Fraction)


def test_critical_exponent_general_fixture():
    assert critical_exponent(OperatorParams(1, 4)) == 2
    assert critical_exponent(OperatorParams(3, 2)) == Fraction(18, 11)


def test_supercritical_threshold():
    # threshold = 2* - 1 = (m1+m2-m1*m2+8)/mu
    assert supercritical_threshold(OperatorParams(1, 0)) == 9
    assert supercritical_threshold(OperatorParams(1, 4)) == 1
    for m1, m2 in ((1, 0), (1, 4), (3, 2), (5, 4)):
        p = OperatorParams(m1, m2)
        assert supercritical_threshold(p) == critical_exponent(p) - 1


def test_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        critical_exponent(OperatorParams(0, 0))
    with pytest.raises(DegenerateDenominator):
        supercritical_threshold(OperatorParams(0, 0))


def test_parity_table():
    # omega1 needs m1 odd, m2 divisible by 4; the rest need m1 odd, m2 even
    assert is_admissible(OperatorParams(1, 4), "omega1")
    assert is_admissible(OperatorParams(1, 0), "omega1")
    assert not is_admissible(OperatorParams(1, 2), "omega1")
    assert not is_admissible(OperatorParams(2, 4), "omega1")
    for v in ("omega2", "omega3", "omega4"):
        assert is_admissible(OperatorParams(1, 2), v)
        assert not is_admissible(OperatorParams(1, 3), v)
        assert not is_admissible(OperatorParams(0, 2), v)


def test_require_admissible_names_rule():
    with pytest.raises(ParityViolation) as ei:
        require_admissible(OperatorParams(1, 2), "omega1")
    assert ei.value.rule == admissibility_rule("omega1")
    assert "divisible by 4" in str(ei.value)
    with pytest.raises(ValueError):
        admissibility_rule("omega9")


def test_cubic_nonlinearity():
    nl = cubic_nonlinearity()
    assert nl.f(2.0) == 8.0
    assert nl.F(2.0) == 4.0
    assert nl.F(0.0) == 0.0
    # F' = f by finite differences
    h = 1e-6
    for s in (-1.3, 0.4, 2.1):
        fd = (nl.F(s + h) - nl.F(s - h)) / (2 * h)
        assert abs(fd - nl.f(s)) < 1e-7


def test_power_nonlinearity_matches_cubic_at_alpha_3():
    # s|s|^2 == s^3 pointwise; the two specs exercise different code paths
    nl = power_nonlinearity(3.0)
    cu = cubic_nonlinearity()
    for s in (-2.0, -0.5, 0.0, 0.7, 3.0):
        assert nl.f(s) == pytest.approx(cu.f(s), abs=1e-15)
        assert nl.F(s) == pytest.approx(cu.F(s), abs=1e-15)
    assert nl.name != cu.name


def test_power_nonlinearity_odd_and_vectorized():
    nl = power_nonlinearity(2.5)
    assert nl.f(-2.0) == -nl.f(2.0)
    s = np.array([-1.5, -0.2, 0.0, 0.3, 2.0])
    fv = np.asarray(nl.f(s), float)
    Fv = np.asarray(nl.F(s), float)
    assert fv.shape == s.shape and Fv.shape == s.shape
    assert np.all(Fv >= 0.0)
    for i, si in enumerate(s):
        assert fv[i] == pytest.approx(math.copysign(abs(si) ** 2.5, si))
    # alpha = inf sends |s|**alpha to 0 for |s| < 1: every identity would
    # compare 0 with 0
    for bad in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must"):
            power_nonlinearity(bad)


def test_linear_nonlinearity():
    nl = linear_nonlinearity()
    assert nl.f(3.0) == 3.0
    assert nl.F(3.0) == 4.5
