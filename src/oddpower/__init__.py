"""Exact computer algebra for the odd-power derivative identity.

The package builds, for each order y, a two-variable polynomial whose
diagonal z = x collapses to x^(2y+1), differentiates it symbolically, and
proves (by exact zero-residual comparison) that the sum of its partial
derivatives on the diagonal is the ordinary derivative (2y+1) x^(2y).
"""

from .bipoly import BiPoly, render
from .coefficients import first_failure, solve_coeffs, verify_identity
from .engine import (
    IdentityReport,
    build_poly,
    check_derivative_identity,
    check_diagonal,
    conv_sum,
    derivative_sum,
    eval_derivative_at,
)
from .parsing import PolyParseError, UnknownVariableError, parse_poly
from .rationals import Rational, bernoulli, power_sum

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "first_failure",
    "solve_coeffs",
    "verify_identity",
    "IdentityReport",
    "build_poly",
    "check_derivative_identity",
    "check_diagonal",
    "conv_sum",
    "derivative_sum",
    "eval_derivative_at",
    "PolyParseError",
    "UnknownVariableError",
    "parse_poly",
    "Rational",
    "bernoulli",
    "power_sum",
    "render",
]

