"""Numerical verification toolkit for the degenerate operator
O u = -y^m1 u_xx - x^m2 u_yy on Tricomi-type domains: closed-form geometry,
second-order forward-mode jets, graded Gauss quadrature, dilation and
Pohozaev-type integral identities, scaling laws and the one-dimensional
weighted Hardy package.
"""
from .errors import (CornerPoint, DegenerateDenominator, DegeneracyLine,
                     DomainError, NonConvergence, OutOfRange, ParityViolation,
                     PreconditionViolated, TricomiError)
from .params import (Coefficients, NonlinearitySpec, OperatorParams,
                     admissibility_rule, coefficients, critical_exponent,
                     cubic_nonlinearity, is_admissible, linear_nonlinearity,
                     power_nonlinearity, require_admissible,
                     supercritical_threshold)
from .geometry import (AreaChart, BoundaryCurveId, CurveChart, DomainSpec,
                       EllipticArc, ParametricArc, Point, StarlikeReport,
                       Variant, Vec2, area_charts, boundary_charts,
                       apex, boundary_csv, boundary_svg, char_ode_residual,
                       char_ode_residual_at, check_starshaped, contains,
                       curve_point, default_arc, endpoints, flow,
                       natural_range, omega1, omega2, omega3, omega4,
                       outward_normal, starlike_form)
from .field import (Const, Coord, Jet2, SampleFn1D, ScalarField, X, Y,
                    VANISH_AC, VANISH_AC_SIGMA, abs_power, apply_D, apply_O,
                    apply_X, dilate, directional_pm, energy_density, jet2,
                    manufactured, norm_density, parse_field, root_power,
                    substitute, to_prefix)
from .quad import (GridLevel, QuadConfig, Residual, check_two_level,
                   curve_grids, divergence_selftest, domain_grids,
                   integrate_boundary, integrate_curve, integrate_domain,
                   integrate_interval, integrate_neg_interval)
from .identities import (HardyParams, IdentityReport, REPORT_PASS_RTOL,
                         SIGN_CLAIM_VARIANTS, boundary_energy_I,
                         equivalence_chain, hardy_GL, hardy_GL_numeric,
                         hardy_constants, hardy_inequality_check,
                         hardy_reports, hardy_weight_exponents, omega_forms,
                         pohozaev_residual, random_boundary_phi,
                         random_hardy_phi, reference_domains, scaling_ratios,
                         scaling_reports, selftest_report, sigma_boundary_sign,
                         sigma_sign_report, step1_residual, step2_residual,
                         step3_residual)
from .cli import run

__version__ = "0.1.0"
