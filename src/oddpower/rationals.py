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

``power_sum(p)`` is the polynomial in z that agrees with sum_{k=1..z} k^p
at every non-negative integer z, obtained from Faulhaber's formula.  It is
univariate, so it is returned as one integer row over one denominator, in
FLINT's ``fmpq_poly`` form, not as a ``BiPoly``.  The recurrence that
defines the Bernoulli numbers is S_n(1) = 1 for this Faulhaber power sum
S_n(z), in which B_n is the coefficient of z^1.  So ``_faulhaber_row(n)``
is the one place the products C(n+1, j) * B_j are formed: ``bernoulli(n)``
reads B_n off its z^1 entry and ``power_sum(n)`` divides the whole row by
its content.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

__all__ = ["Rational", "bernoulli", "power_sum"]

Rational = Fraction


def _check_order(value: int, name: str) -> None:
    """TypeError unless ``value`` is a plain int (a bool is not one, so it can
    never alias a cached int entry), ValueError if it is negative."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def _faulhaber_row(p: int) -> tuple[int, list[int]]:
    """The unreduced integer row ``(den, nums)`` of the Faulhaber polynomial
    S_p(z) (see ``power_sum``): ``nums[k] / den`` is the coefficient of z^k
    for k = 0..p + 1.

    Each B_j with j < p that is not 0 (B_0, B_1 and the even j; the odd B_j
    above B_1 are 0, which the tests check against the recurrence with no
    shortcut) is read once, and C(p+1, j) * B_j goes to degree p + 1 - j
    over den = (p + 1) * L, with L the lcm of their denominators.  B_p goes
    with z^1, and S_p(1) = 1, the recurrence that defines B_p, fixes it:
    ``nums[1] = den - sum(nums)``.  So L leaves out B_p's own denominator.
    """
    terms = [(j, (b := bernoulli(j)).numerator, b.denominator)
             for j in (*range(min(p, 2)), *range(2, p, 2))]
    common = lcm(*(d for _, _, d in terms))
    den = (p + 1) * common
    nums = [0] * (p + 2)
    for j, num, d in terms:
        nums[p + 1 - j] = comb(p + 1, j) * num * (common // d)
    nums[1] = den - sum(nums)
    return den, nums


@lru_cache(maxsize=None, typed=True)
def bernoulli(n: int) -> Rational:
    """Bernoulli number B_n under the convention B_1 = +1/2.

    Defined by the recurrence

        sum_{j=0..n} C(n+1, j) * B_j = n + 1

    which pins B_1 to +1/2.  With this sign choice the power-sum polynomial
    assembled from these numbers includes its upper summation bound, so no
    correction term is needed downstream.  The recurrence is S_n(1) = 1 for
    the Faulhaber polynomial S_n, in which B_n is the coefficient of z^1, so
    B_n is read off the z^1 entry of ``_faulhaber_row(n)``, the one
    ``Rational`` formed; for n = 0 the row is (1, [0, 1]) and B_0 = 1.
    B_n is 0 for odd n > 1, so it is returned at once.
    Values are memoized; the cache is invisible to callers since every
    result is immutable.
    """
    _check_order(n, "n")
    if n > 2 and n % 2 == 1:
        return Rational(0)
    den, nums = _faulhaber_row(n)
    return Rational(nums[1], den)


@lru_cache(maxsize=None, typed=True)
def power_sum(p: int) -> tuple[int, tuple[int, ...]]:
    """The sum of k^p for k = 1..z as a polynomial in z of degree p + 1,
    returned as ``(den, coeffs)``: ``coeffs[k] / den`` is the coefficient of
    z^k for k = 0..p + 1, ``den > 0`` and ``gcd(den, *coeffs) == 1``.

    Faulhaber's formula with the B_1 = +1/2 convention:

        S_p(z) = (1/(p+1)) * sum_{j=0..p} C(p+1, j) * B_j * z^(p+1-j)

    The +1/2 convention makes the closed form inclusive of the upper bound z,
    so S_p(n) really is 1^p + ... + n^p for integer n >= 1.  The row is
    ``_faulhaber_row(p)``, the same integer row whose z^1 entry is B_p,
    divided here by its content.  Only B_0, B_1 and the even-index B_j are
    not 0, so the nonzero degrees are z^(p+1), z^(p-1), z^(p-3), ... down
    to z^1 or z^2, and z^p for p >= 1; every other coefficient, z^0
    included, is 0.
    """
    _check_order(p, "p")
    den, nums = _faulhaber_row(p)
    g = gcd(den, *nums)
    return den // g, tuple(n // g for n in nums)
