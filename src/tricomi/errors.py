"""Exception types shared across the toolkit."""


class TricomiError(Exception):
    """Base class for all toolkit errors."""


class DegenerateDenominator(TricomiError):
    """Scaling denominator m1 + m2 + m1*m2 is zero; no finite critical exponent."""


class ParityViolation(TricomiError):
    """Exponent pair violates the parity hypothesis of the requested domain variant."""

    def __init__(self, message, rule=None):
        super().__init__(message)
        self.rule = rule


class OutOfRange(TricomiError):
    """Curve parameter outside its admissible interval."""


class CornerPoint(TricomiError):
    """Normals and ODE residuals are undefined at curve endpoints A, B, C."""


class DomainError(TricomiError):
    """Field evaluation hit an inadmissible point (division by zero, bad root)."""


class DegeneracyLine(TricomiError):
    """Operation requested on the degeneracy line x = 0 where it is undefined."""


class NonConvergence(TricomiError):
    """Two quadrature refinement levels disagree beyond the configured tolerance.

    A two-level check that fails names what it integrated (``what``), the
    ``fine`` and ``coarse`` values and the ``panels`` pair (fine, coarse);
    errors raised elsewhere leave them None."""

    def __init__(self, message, what=None, fine=None, coarse=None, panels=None):
        super().__init__(message)
        self.what = what
        self.fine = fine
        self.coarse = coarse
        self.panels = panels


class PreconditionViolated(TricomiError):
    """An identity's boundary-vanishing or shape hypothesis failed at sampling."""
