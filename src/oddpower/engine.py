"""Build the expansion polynomial family and verify its derivative identity.

``build_poly(y)`` assembles the two-variable polynomial whose diagonal
z = x collapses to the odd power x^(2y+1).  It expands each convolved sum
H_r into power sums, so every x-degree row of f_y is a sum of scaled
Faulhaber polynomials in z, added up as integer numerators over one common
denominator; no bivariate product is formed.  The central fact checked here
is that the sum of its two partial derivatives, restricted to the diagonal,
equals the ordinary derivative (2y+1) x^(2y) of that odd power.  All checks
are symbolic zero-residual comparisons in exact arithmetic, which proves
the identity for every real point at once rather than sampling it, and the
diagonal check certifies the coefficient row and the assembly together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .bipoly import BiPoly, _from_ints
from .coefficients import solve_coeffs
from .powersums import power_sum
from .rationals import Rational, binomial

__all__ = [
    "IdentityReport",
    "build_poly",
    "derivative_sum",
    "odd_power",
    "check_diagonal",
    "check_derivative_identity",
    "eval_derivative_at",
]


@dataclass(frozen=True)
class IdentityReport:
    """Everything the derivative-identity check produced for one order y.

    ``holds`` is True exactly when ``residual`` is the zero polynomial,
    where residual = diagonal_of_sum - expected_derivative.
    """

    y: int
    poly: BiPoly
    partial_x: BiPoly
    partial_z: BiPoly
    partial_sum: BiPoly
    diagonal_of_sum: BiPoly
    expected_derivative: BiPoly
    residual: BiPoly
    holds: bool


@lru_cache(maxsize=None)
def build_poly(y: int) -> BiPoly:
    """The y-th member of the family, sum_r A_r * conv_sum(r), assembled as

        [x^i z^k] f_y = sum_{r=i..y} A_r * C(r, i) * (-1)^(r-i) * [z^k] S_{2r-i}(z)

    with S_p = power_sum(p).  Degree 2y + 1 in z and y in x; on the
    diagonal z = x it equals x^(2y+1) exactly.
    """
    row = solve_coeffs(y)
    rows: list[tuple[int, int, list[int]]] = []  # (x-degree, denominator, numerators by z-degree)
    for i in range(y + 1):
        parts = []
        for r in range(i, y + 1):
            a = row[r]
            if a:
                ps = power_sum(2 * r - i)
                sign = -1 if (r - i) % 2 else 1
                parts.append((sign * a.numerator * binomial(r, i), a.denominator * ps._den, ps._nums))
        common = lcm(*(den for _, den, _ in parts))
        acc = [0] * (2 * y - i + 2)  # S_{2y-i} has degree 2y - i + 1
        for num, den, nums in parts:
            factor = num * (common // den)
            for (_, k), n in nums.items():
                acc[k] += factor * n
        rows.append((i, common, acc))
    den = lcm(*(common for _, common, _ in rows))
    nums: dict[tuple[int, int], int] = {}
    for i, common, acc in rows:
        scale = den // common
        nums.update({(i, k): t * scale for k, t in enumerate(acc) if t})
    return _from_ints(den, nums)


def _partials(poly: BiPoly) -> tuple[BiPoly, BiPoly, BiPoly]:
    """The partial derivatives of ``poly`` in x and in z, and their sum."""
    partial_x = poly.diff("x")
    partial_z = poly.diff("z")
    return partial_x, partial_z, partial_x + partial_z


@lru_cache(maxsize=None)
def derivative_sum(y: int) -> BiPoly:
    """Sum of the two partial derivatives of build_poly(y)."""
    return _partials(build_poly(y))[2]


def odd_power(y: int) -> BiPoly:
    """The monomial x^(2y+1)."""
    if y < 0:
        raise ValueError(f"y must be non-negative, got {y}")
    return BiPoly.monomial(2 * y + 1, 0)


def check_diagonal(y: int) -> bool:
    """True iff build_poly(y) collapses to x^(2y+1) on the diagonal."""
    return build_poly(y).diagonal() == odd_power(y)


def check_derivative_identity(y: int) -> IdentityReport:
    """Symbolically verify that the partial sum on the diagonal is the
    ordinary derivative (2y+1) x^(2y) of the odd power."""
    poly = build_poly(y)
    partial_x, partial_z, partial_sum = _partials(poly)
    diagonal_of_sum = partial_sum.diagonal()
    expected = BiPoly.monomial(2 * y, 0, 2 * y + 1)
    residual = diagonal_of_sum - expected
    return IdentityReport(
        y=y,
        poly=poly,
        partial_x=partial_x,
        partial_z=partial_z,
        partial_sum=partial_sum,
        diagonal_of_sum=diagonal_of_sum,
        expected_derivative=expected,
        residual=residual,
        holds=residual.is_zero(),
    )


def eval_derivative_at(y: int, u: int | Rational) -> Rational:
    """The partial sum evaluated at (u, u); equals (2y+1) u^(2y)."""
    return derivative_sum(y)(u, u)
