"""Dual-route interior measure and the graded boundary charts: why half-power
integrands need the endpoint grading."""
import numpy as np

from tricomi import (BoundaryCurveId, QuadConfig, divergence_selftest,
                     integrate_boundary, integrate_curve, integrate_domain,
                     integrate_interval, omega1)

dom = omega1(1, 4, -0.5)
cfg = QuadConfig()

area = integrate_domain(lambda x, y: np.ones_like(x), dom, cfg)
loop = 0.5 * integrate_boundary(lambda x, y: (-y, x), dom, cfg)
print(f"area by tensor grids   {area:.15f}")
print(f"area by boundary loop  {loop:.15f}")
print(f"difference             {abs(area - loop):.2e}")

print()
r = divergence_selftest(dom, cfg)
print(f"divergence self-test: lhs {r.lhs:.12e} rhs {r.rhs:.12e} "
      f"rel {r.rel_err:.2e}")

# int_BC (-y)^(1/2) dy = (2/3)(-y_c)^(3/2): the chart y = -tau^6 makes the
# integrand a polynomial, plain panels in y stall on the fractional power
print()
y_c = -(0.25 ** (2.0 / 3.0))
exact = (2.0 / 3.0) * (-y_c) ** 1.5
form = lambda x, y: (np.zeros_like(x), np.sqrt(-y))
print("panels   graded error     ungraded error")
for panels in (8, 16, 32, 64):
    c = QuadConfig(panels_per_axis=panels, abs_tol=1.0, rel_tol=1.0)
    errs = [abs(v - exact) for v in (
        integrate_curve(form, dom, BoundaryCurveId.BC, c),
        integrate_interval(lambda t: np.sqrt(-t), y_c, 0.0, c))]
    print(f"{panels:6d}   {errs[0]:.3e}       {errs[1]:.3e}")
