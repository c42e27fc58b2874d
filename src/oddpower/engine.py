"""Build the expansion polynomial family and verify its derivative identity.

The convolved sum H_r(x, z) = sum_{k=1..z} k^r (x-k)^r extends to a
polynomial in x and z by expanding (x-k)^r binomially and replacing each
inner power sum with its Faulhaber polynomial ``rationals.power_sum``.
``_combine_conv_sums(row)`` is the one place that expansion happens: it
assembles sum_r row[r] * H_r(x, z) for any coefficient row, as one integer
row of Faulhaber numerators per x-degree, and hands those rows to
``bipoly._from_rows``, the one place rows become a ``BiPoly``.  No
bivariate product is formed.  ``conv_sum(r)`` is the single H_r, and
``build_poly(y)`` the two-variable polynomial whose diagonal z = x
collapses to the odd power x^(2y+1): the combination with the solved
coefficient row.  The polynomial reading is what gives these families
meaning at non-integer arguments.

The central fact checked here is that the sum of the two partial
derivatives of f_y = ``build_poly(y)``, restricted to the diagonal, equals
the ordinary derivative (2y+1) x^(2y) of that odd power.  All checks are
symbolic zero-residual comparisons in exact arithmetic, which proves the
identity for every real point at once rather than sampling it.  The
diagonal check certifies the coefficient row and the assembly on the
diagonal z = x only: a polynomial that differs from f_y off the diagonal
by a multiple of z (x - z) passes both checks, and nothing here yet ties
f_y to its defining sum off that diagonal.

The same diagonal serves evaluation: P(u, u) = P(x, x) at x = u for any
polynomial P, so ``eval_derivative_at(y, u)`` evaluates the diagonal of the
partial sum, at most 2y + 1 sums and products, not the two-variable sum
over its terms.

What is kept: ``conv_sum`` and ``build_poly`` keep every order asked for.
``derivative_sum`` keeps only the latest partial sum (3,760 terms at
y = 64), since every caller but evaluation reads a partial sum once per
order.  Evaluation reads the partial sum's diagonal again and again, so
``_derivative_diagonal`` keeps each order's diagonal, one term when the
identity holds.  ``_CACHES`` is the one registry of the package's caches,
from ``bernoulli`` to those diagonals in pipeline order, then the render
slot ``bipoly._spell``, and ``clear_caches()`` releases them all, the kept
diagonals, the Bernoulli triangle state and the last render's digits
included.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, lcm
from typing import NamedTuple, Sequence

from .bipoly import BiPoly, _as_rational, _from_rows, _partial_sum, _spell
from .coefficients import solve_coeffs
from .rationals import Rational, _check_order, bernoulli, power_sum

__all__ = [
    "IdentityReport",
    "conv_sum",
    "build_poly",
    "derivative_sum",
    "check_diagonal",
    "check_derivative_identity",
    "eval_derivative_at",
    "clear_caches",
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


def _combine_conv_sums(row: Sequence[int | Rational]) -> BiPoly:
    """sum_r row[r] * H_r(x, z) for r = 0..y, y = len(row) - 1, assembled as

        [x^i z^k] = sum_{r=i..y} row[r] * C(r, i) * (-1)^(r-i) * [z^k] S_{2r-i}(z)

    with S_p = power_sum(p).  Each entry of ``row`` must be an ``int`` or a
    ``Rational`` (``TypeError`` otherwise, ``bool`` and ``float`` included).
    Each part's scalar row[r] * C(r, i) * (-1)^(r-i) / den(S_{2r-i}) is
    reduced by the gcd of its numerator and denominator before its products,
    so an x-degree row adds integer numerators over the small lcm of the
    reduced part denominators (at most 9 bits at order 64 and 11 at order
    128).  A part with p = 2r - i reads only the degrees of S_p that can be
    nonzero (see ``power_sum``): z^(p+1), z^(p-1), ... down to z^1 or z^2,
    where B_0 and the even B_j sit, and z^p, where B_1 sits, for p >= 1.
    The other degrees hold the odd B_j above B_1, which are 0, so no
    coefficient is tested for zero.  ``_from_rows`` reduces the rows and
    writes them over the lcm of their denominators.
    """
    y = len(row) - 1
    entries = []  # (r, numerator, denominator) of each nonzero row[r]
    for r, a in enumerate(row):
        a = _as_rational(a, "row entry")
        if a:
            entries.append((r, a.numerator, a.denominator))
    rows: list[tuple[int, int, list[int]]] = []  # (x-degree, denominator, numerators by z-degree)
    for i in range(y + 1):
        parts = []
        for r, a_num, a_den in entries:
            if r >= i:
                ps_den, coeffs = power_sum(2 * r - i)
                num = a_num * comb(r, i)
                if (r - i) % 2:
                    num = -num
                den = a_den * ps_den
                g = gcd(num, den)
                parts.append((num // g, den // g, coeffs))
        common = lcm(*(den for _, den, _ in parts))
        acc = [0] * (2 * y - i + 2)  # S_{2y-i} has degree 2y - i + 1
        for num, den, coeffs in parts:
            factor = num if den == common else num * (common // den)
            p = len(coeffs) - 2
            for k in range(1 + p % 2, p + 2, 2):  # z^(p+1), z^(p-1), ...
                acc[k] += factor * coeffs[k]
            if p:
                acc[p] += factor * coeffs[p]
        rows.append((i, common, acc))
    return _from_rows(rows)


@lru_cache(maxsize=None, typed=True)
def conv_sum(r: int) -> BiPoly:
    """The sum of k^r (x-k)^r for k = 1..z as a polynomial in x and z:

        H_r(x, z) = sum_{j=0..r} C(r, j) * (-1)^j * x^(r-j) * S_{r+j}(z)

    Degree in x is r, degree in z is 2r + 1.  For r = 0 the empty product
    convention k^0 (x-k)^0 = 1 gives H_0 = S_0 = z.
    """
    _check_order(r, "r")
    return _combine_conv_sums((0,) * r + (1,))


@lru_cache(maxsize=None, typed=True)
def build_poly(y: int) -> BiPoly:
    """The y-th member of the family, sum_r A_r * conv_sum(r) with the row
    A = solve_coeffs(y).  Degree 2y + 1 in z and y in x; on the diagonal
    z = x it equals x^(2y+1) exactly.
    """
    _check_order(y, "y")
    return _combine_conv_sums(solve_coeffs(y))


@lru_cache(maxsize=1, typed=True)
def derivative_sum(y: int) -> BiPoly:
    """Sum of the two partial derivatives of build_poly(y), formed in one
    pass over its terms.  Only the latest one is kept: a call for another
    order drops it, so the cache holds at most one partial sum."""
    return _partial_sum(build_poly(y))


@lru_cache(maxsize=None, typed=True)
def _derivative_diagonal(y: int) -> BiPoly:
    """The diagonal of derivative_sum(y), kept for every order asked for:
    the one polynomial ``eval_derivative_at`` reads, a single term
    (2y+1) x^(2y) when the identity holds."""
    return derivative_sum(y).diagonal()


def check_diagonal(y: int) -> bool:
    """True iff build_poly(y) collapses to x^(2y+1) on the diagonal."""
    return build_poly(y).diagonal() == BiPoly.monomial(2 * y + 1, 0)


def check_derivative_identity(y: int) -> IdentityReport:
    """Symbolically verify that the partial sum on the diagonal is the
    ordinary derivative (2y+1) x^(2y) of the odd power.  The diagonal is
    taken from ``derivative_sum(y)`` at each call, not from the diagonals
    evaluation keeps, so clearing ``build_poly`` and ``derivative_sum``
    is enough for a fresh check."""
    residual = derivative_sum(y).diagonal() - BiPoly.monomial(2 * y, 0, 2 * y + 1)
    return IdentityReport(y=y, residual=residual, holds=not residual)


def eval_derivative_at(y: int, u: int | Rational) -> Rational:
    """The partial sum evaluated at (u, u); equals (2y+1) u^(2y).

    For any polynomial P, P(u, u) is the value at u of P(x, x), its
    diagonal, so only the one sum per total degree that ``diagonal()``
    forms is evaluated, at most 2y + 1 terms, not every term of the
    partial sum.  That diagonal is the cached ``_derivative_diagonal(y)``,
    taken from the partial sum itself, so a second call for the same order
    forms no partial sum.  ``u`` is checked before the polynomial is
    built."""
    u = _as_rational(u, "u")
    return _derivative_diagonal(y)(u, u)


# Every cached layer, in pipeline order, and the render slot; a test holds
# it equal to the package's lru_caches and its named other kept state.
_CACHES = (bernoulli, power_sum, solve_coeffs, conv_sum, build_poly, derivative_sum,
           _derivative_diagonal, _spell)


def clear_caches() -> None:
    """Release every kept result: each cache in ``_CACHES``, with
    ``bernoulli``'s the Bernoulli triangle state, and the render slot."""
    for cached in _CACHES:
        cached.cache_clear()
