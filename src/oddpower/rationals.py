"""Exact coefficient arithmetic: rationals, Bernoulli numbers, power sums.

``Rational`` is the type of every rational value the package hands out:
Bernoulli numbers, coefficient rows, ``BiPoly`` coefficients and evaluation
results.  It is the standard library ``fractions.Fraction``, whose canonical
form the rest of the code relies on: the denominator is always positive,
numerator and denominator are coprime, zero is uniquely 0/1, and all
arithmetic is exact at arbitrary precision.  Division by zero raises
``ZeroDivisionError``.  Inner loops do not add ``Rational`` values one by
one: they sum integer numerators over a common denominator and form one
``Rational`` (or, in ``BiPoly``, one reduced denominator) at the end.

``bernoulli(2k)`` is read off the tangent number E_{2k-1}, the last entry of
row 2k - 1 of the Seidel-Entringer triangle (OEIS A000111), whose rows are
running sums of the row before, read backwards: additions only.  The one
kept row and the tangent numbers read so far are the state that
``bernoulli.cache_clear()`` drops with the cache.

``power_sum(p)`` is the polynomial S_p(z) in z that agrees with
sum_{k=1..z} k^p at every non-negative integer z (Faulhaber's formula).  It
is univariate, so it is returned as one integer row over one denominator, in
FLINT's ``fmpq_poly`` form, not as a ``BiPoly``.  The power sums are an
Appell sequence, S_p' = p * S_{p-1} + B_p, so each row is the row below it
integrated term by term, times p, with B_p as its z^1 coefficient: small
integer products and quotients, and no binomials.  It keeps no state beyond
its cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm

__all__ = ["Rational", "bernoulli", "power_sum"]

Rational = Fraction


def _check_order(value: int, name: str) -> None:
    """TypeError unless ``value`` is a plain int (a bool is not one, so it can
    never alias a cached int entry), ValueError if it is negative."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


# Bernoulli's kept state: the last row E(n, 0..n) of the Seidel-Entringer
# triangle built so far, from E(0, 0) = 1, and the tangent numbers E_1, E_3,
# ... read off its odd rows, E_{2k-1} at index k - 1, for a B_{2k} asked for
# after the row has passed 2k - 1.
_triangle_row = [1]
_tangents: list[int] = []


def _tangent(k: int) -> int:
    """The tangent number E_{2k-1} for k >= 1, from the kept triangle row,
    extended as far as row 2k - 1 if it is not there yet.

    Row n is E(n, j) = E(n, j-1) + E(n-1, n-j) with E(n, 0) = 0: the
    running sums of row n - 1 read backwards.  E(n, n) is the Euler zigzag
    number, the tangent number for odd n.
    """
    while len(_tangents) < k:
        _triangle_row[:] = [0, *accumulate(reversed(_triangle_row))]
        if len(_triangle_row) % 2 == 0:
            _tangents.append(_triangle_row[-1])
    return _tangents[k - 1]


@lru_cache(maxsize=None, typed=True)
def bernoulli(n: int) -> Rational:
    """Bernoulli number B_n under the convention B_1 = +1/2.

    Defined by the recurrence

        sum_{j=0..n} C(n+1, j) * B_j = n + 1

    which pins B_1 to +1/2.  With this sign choice the power-sum polynomial
    assembled from these numbers includes its upper summation bound, so no
    correction term is needed downstream.  B_0 = 1, B_n = 0 for odd n > 1,
    and for n = 2k the tangent number E_{2k-1} gives

        B_{2k} = (-1)^(k-1) * 2k * E_{2k-1} / (4^k * (4^k - 1)).

    Values are memoized; the cache is invisible to callers since every
    result is immutable.
    """
    _check_order(n, "n")
    if n < 2:
        return Rational(1, n + 1)  # B_0 = 1, B_1 = 1/2
    if n % 2:
        return Rational(0)
    k = n // 2
    four_k = 4**k
    return Rational((n if k % 2 else -n) * _tangent(k), four_k * (four_k - 1))


def _clear_bernoulli(clear=bernoulli.cache_clear) -> None:
    clear()
    _triangle_row[:] = [1]
    _tangents.clear()


# A cleared cache drops the triangle state with it, so a cold bernoulli(n)
# starts again from row 0.  The cache registry of ROADMAP item 13, once it
# lands, replaces this wrap.
bernoulli.cache_clear = _clear_bernoulli


@lru_cache(maxsize=None, typed=True)
def power_sum(p: int) -> tuple[int, tuple[int, ...]]:
    """The sum of k^p for k = 1..z as a polynomial in z of degree p + 1,
    returned as ``(den, coeffs)``: ``coeffs[k] / den`` is the coefficient of
    z^k for k = 0..p + 1, ``den > 0`` and ``gcd(den, *coeffs) == 1``.

    Faulhaber's formula with the B_1 = +1/2 convention:

        S_p(z) = (1/(p+1)) * sum_{j=0..p} C(p+1, j) * B_j * z^(p+1-j)

    The +1/2 convention makes the closed form inclusive of the upper bound z,
    so S_p(n) really is 1^p + ... + n^p for integer n >= 1.  Only B_0, B_1
    and the even-index B_j are not 0, so the nonzero degrees are z^(p+1),
    z^(p-1), z^(p-3), ... down to z^1 or z^2, and z^p for p >= 1; every
    other coefficient, z^0 included, is 0.

    The row is built from S_{p-1} = (d, c) by S_p' = p * S_{p-1} + B_p:
    S_0 = z, and for p >= 1 the coefficient of z^k is p * c[k-1] / (d * k)
    for k = 2..p + 1, and that of z^1 is B_p.  With g = gcd(p, d), each
    entry is (p/g) * c[k-1] over (d/g) * k, reduced by its gcd with the
    small k, and the row is written over the lcm of those denominators and
    B_p's.  That row is reduced as it stands: S_{p-1} is reduced and p/g is
    prime to d/g, so for each prime q of the lcm, an entry whose denominator
    holds q as often as the lcm does has a numerator prime to q.  (Without
    g, S_3 would give S_4 over 60, not 30.)

    A cold ``power_sum(p)`` first fills S_0..S_{p-1} through this cache, in
    rising order, so a call recurses only one frame.  Since every miss does
    so, the cache holds S_0..S_{n-1} for n its size, and the fill starts
    there; were that not so, the fill would only recurse deeper, with the
    same rows.
    """
    _check_order(p, "p")
    if p == 0:
        return 1, (0, 1)
    for q in range(power_sum.cache_info().currsize, p):
        power_sum(q)
    den, coeffs = power_sum(p - 1)
    g = gcd(p, den)
    factor, den = p // g, den // g
    entries = []
    for k, c in enumerate(coeffs[1:], 2):
        if c:
            c *= factor
            h = gcd(c, k)
            entries.append((k, c // h, k // h))
    common = lcm(*(d for _, _, d in entries))
    scale = den * common
    b = bernoulli(p)
    g = gcd(scale, b.denominator)
    rest = b.denominator // g
    row = [0] * (p + 2)
    row[1] = b.numerator * (scale // g)
    for k, n, d in entries:
        row[k] = n * (common // d * rest)
    return scale * rest, tuple(row)
