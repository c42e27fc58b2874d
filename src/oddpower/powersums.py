"""Power sums and convolved power sums as exact polynomials.

``power_sum(p)`` is the polynomial in z that agrees with sum_{k=1..z} k^p at
every non-negative integer z, obtained from Faulhaber's formula.  It is
univariate, so it is returned as one integer row over one denominator, in
FLINT's ``fmpq_poly`` form, not as a ``BiPoly``: the row
``rationals._faulhaber_row(p)``, whose z^1 entry is B_p, divided by its
content.  The convolved sum
H_r(x, z) = sum_{k=1..z} k^r (x-k)^r extends to a polynomial in x and z by
expanding (x-k)^r binomially and replacing each inner power sum with its
Faulhaber polynomial.  ``combine_conv_sums(row)`` is the one place that
expansion happens: it assembles sum_r row[r] * H_r(x, z) for any
coefficient row, as one integer row of Faulhaber numerators per x-degree,
and hands those rows to ``bipoly._from_rows``, the one place rows become a
``BiPoly``.  No bivariate product is formed.
``conv_sum(r)`` is the single H_r and the family builder
``engine.build_poly`` the combination with the solved row.  The polynomial
reading is what gives these families meaning at non-integer arguments.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, lcm
from typing import Sequence

from .bipoly import BiPoly, _as_rational, _from_rows
from .rationals import Rational, _check_order, _faulhaber_row

__all__ = ["power_sum", "conv_sum", "combine_conv_sums"]


@lru_cache(maxsize=None, typed=True)
def power_sum(p: int) -> tuple[int, tuple[int, ...]]:
    """The sum of k^p for k = 1..z as a polynomial in z of degree p + 1,
    returned as ``(den, coeffs)``: ``coeffs[k] / den`` is the coefficient of
    z^k for k = 0..p + 1, ``den > 0`` and ``gcd(den, *coeffs) == 1``.

    Faulhaber's formula with the B_1 = +1/2 convention:

        S_p(z) = (1/(p+1)) * sum_{j=0..p} C(p+1, j) * B_j * z^(p+1-j)

    The +1/2 convention makes the closed form inclusive of the upper bound z,
    so S_p(n) really is 1^p + ... + n^p for integer n >= 1.  The row is
    ``rationals._faulhaber_row(p)``, the same integer row whose z^1 entry is
    B_p, divided here by its content.  Only B_0, B_1 and the even-index B_j
    are not 0, so the nonzero degrees are z^(p+1), z^(p-1), z^(p-3), ...
    down to z^1 or z^2, and z^p for p >= 1; every other coefficient, z^0
    included, is 0.
    """
    _check_order(p, "p")
    den, nums = _faulhaber_row(p)
    g = gcd(den, *nums)
    return den // g, tuple(n // g for n in nums)


def combine_conv_sums(row: Sequence[int | Rational]) -> BiPoly:
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
    return combine_conv_sums((0,) * r + (1,))
