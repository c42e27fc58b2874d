"""Build the expansion polynomial family and verify its derivative identity.

``build_poly(y)`` assembles the two-variable polynomial whose diagonal
z = x collapses to the odd power x^(2y+1): the solved coefficient row
combined with the convolved sums H_r by ``powersums.combine_conv_sums``,
the one place H_r is expanded into Faulhaber power sums.  The central fact
checked here is that the sum of its two partial derivatives, restricted to
the diagonal, equals the ordinary derivative (2y+1) x^(2y) of that odd
power.  All checks are symbolic zero-residual comparisons in exact
arithmetic, which proves the identity for every real point at once rather
than sampling it.  The diagonal check certifies the coefficient row and
the assembly on the diagonal z = x only: a polynomial that differs from
f_y off the diagonal by a multiple of z (x - z) passes both checks, and
nothing here yet ties f_y to its defining sum off that diagonal.

The same diagonal serves evaluation: P(u, u) = P(x, x) at x = u for any
polynomial P, so ``eval_derivative_at(y, u)`` evaluates the diagonal of the
partial sum, at most 2y + 1 sums and products, not the two-variable sum
over its terms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .bipoly import BiPoly, _as_rational, _partial_sum
from .coefficients import solve_coeffs
from .powersums import combine_conv_sums
from .rationals import Rational, _check_order

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
    _check_order(y, "y")
    return combine_conv_sums(solve_coeffs(y))


@lru_cache(maxsize=None, typed=True)
def derivative_sum(y: int) -> BiPoly:
    """Sum of the two partial derivatives of build_poly(y), formed in one
    pass over its terms."""
    return _partial_sum(build_poly(y))


def check_diagonal(y: int) -> bool:
    """True iff build_poly(y) collapses to x^(2y+1) on the diagonal."""
    return build_poly(y).diagonal() == BiPoly.monomial(2 * y + 1, 0)


def check_derivative_identity(y: int) -> IdentityReport:
    """Symbolically verify that the partial sum on the diagonal is the
    ordinary derivative (2y+1) x^(2y) of the odd power."""
    residual = derivative_sum(y).diagonal() - BiPoly.monomial(2 * y, 0, 2 * y + 1)
    return IdentityReport(y=y, residual=residual, holds=not residual)


def eval_derivative_at(y: int, u: int | Rational) -> Rational:
    """The partial sum evaluated at (u, u); equals (2y+1) u^(2y).

    For any polynomial P, P(u, u) is the value at u of P(x, x), its
    diagonal, so only the one sum per total degree that ``diagonal()``
    forms is evaluated, at most 2y + 1 terms, not every term of the
    partial sum.  ``u`` is checked before the polynomial is built."""
    u = _as_rational(u, "u")
    return derivative_sum(y).diagonal()(u, u)
