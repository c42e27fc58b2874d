"""Build the expansion polynomial family and verify its derivative identity.

``build_poly(y)`` assembles the two-variable polynomial whose diagonal
z = x collapses to the odd power x^(2y+1): the solved coefficient row
combined with the convolved sums H_r by ``powersums.combine_conv_sums``,
the one place H_r is expanded into Faulhaber power sums.  The central fact
checked here is that the sum of its two partial derivatives, restricted to
the diagonal, equals the ordinary derivative (2y+1) x^(2y) of that odd
power.  All checks are symbolic zero-residual comparisons in exact
arithmetic, which proves the identity for every real point at once rather
than sampling it, and the diagonal check certifies the coefficient row and
the assembly together.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .bipoly import BiPoly
from .coefficients import solve_coeffs
from .powersums import combine_conv_sums
from .rationals import Rational

__all__ = [
    "IdentityReport",
    "build_poly",
    "derivative_sum",
    "check_diagonal",
    "check_derivative_identity",
    "eval_derivative_at",
]


class IdentityReport(NamedTuple):
    """The derivative-identity check for one order y, an immutable record.

    ``residual`` is the diagonal of the partial-derivative sum minus the
    expected derivative (2y+1) x^(2y); ``holds`` is True exactly when it is
    the zero polynomial.
    """

    y: int
    residual: BiPoly
    holds: bool


@lru_cache(maxsize=None, typed=True)
def build_poly(y: int) -> BiPoly:
    """The y-th member of the family, sum_r A_r * conv_sum(r) with the row
    A = solve_coeffs(y).  Degree 2y + 1 in z and y in x; on the diagonal
    z = x it equals x^(2y+1) exactly.
    """
    return combine_conv_sums(solve_coeffs(y))


@lru_cache(maxsize=None, typed=True)
def derivative_sum(y: int) -> BiPoly:
    """Sum of the two partial derivatives of build_poly(y)."""
    poly = build_poly(y)
    return poly.diff("x") + poly.diff("z")


def check_diagonal(y: int) -> bool:
    """True iff build_poly(y) collapses to x^(2y+1) on the diagonal."""
    return build_poly(y).diagonal() == BiPoly.monomial(2 * y + 1, 0)


def check_derivative_identity(y: int) -> IdentityReport:
    """Symbolically verify that the partial sum on the diagonal is the
    ordinary derivative (2y+1) x^(2y) of the odd power."""
    residual = derivative_sum(y).diagonal() - BiPoly.monomial(2 * y, 0, 2 * y + 1)
    return IdentityReport(y=y, residual=residual, holds=not residual)


def eval_derivative_at(y: int, u: int | Rational) -> Rational:
    """The partial sum evaluated at (u, u); equals (2y+1) u^(2y)."""
    return derivative_sum(y)(u, u)
