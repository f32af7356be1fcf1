"""Exact jets (value, gradient, u_xx, u_yy), the degenerate operator, and
how a manufactured field behaves under it: divergence consistency and
dilation covariance."""
import numpy as np

from tricomi import (OperatorParams, Point, X, Y, apply_O, apply_X,
                     coefficients, dilate, jet2, manufactured, omega1,
                     parse_field, to_prefix)

params = OperatorParams(1, 4)
u = parse_field("(* (pow x 2) y)")
print("field:", to_prefix(u))
p = Point(2.0, 3.0)
j = jet2(u, p)
print(f"jet at (2,3): u {j.u}  ux {j.ux}  uy {j.uy}  uxx {j.uxx}  uyy {j.uyy}")
print(f"Ou at (-1,-1): {apply_O(params, u, Point(-1.0, -1.0))}")
print(f"Xu at ( 1, 1): {apply_X(params, u, Point(1.0, 1.0))}")

# div(Xu) recovers Ou: finite-difference the flux components of Xu
q = Point(0.7, -1.3)
h = 1e-6
fx = lambda x, y: apply_X(params, u, Point(x, y)).x
fy = lambda x, y: apply_X(params, u, Point(x, y)).y
div = (fx(q.x + h, q.y) - fx(q.x - h, q.y)) / (2 * h) \
    + (fy(q.x, q.y + h) - fy(q.x, q.y - h)) / (2 * h)
print(f"div(Xu) {div:.10f}  vs  Ou {apply_O(params, u, q):.10f}")

# covariance: O(u_lam)(p) = lam^(m1 m2 - 4) O(u)(phi_lam(p))
co = coefficients(params)
lam = 2.0
ul = dilate(u, lam, co)
img = Point(q.x * lam ** -co.c1, q.y * lam ** -co.c2)
lhs = apply_O(params, ul, q)
rhs = lam ** (params.m1 * params.m2 - 4) * apply_O(params, u, img)
print(f"covariance: O(u_lam) {lhs:.12e}  scaled O(u) {rhs:.12e}")

# the manufactured field vanishes on AC and sigma by construction
dom = omega1(1, 4, -0.5)
g = manufactured(dom)
ys = np.linspace(-0.39, -0.01, 5)
xs = -np.cbrt(1.0 - 2.0 * (-ys) ** 1.5)    # points on AC
print("manufactured |u| on AC:",
      np.max(np.abs(g.jet(xs, ys).u)))
