"""Exact coefficient arithmetic: rationals and Bernoulli numbers.

``Rational`` is the type of every rational value the package hands out:
Bernoulli numbers, coefficient rows, ``BiPoly`` coefficients and evaluation
results.  It is the standard library ``fractions.Fraction``, whose canonical
form the rest of the code relies on: the denominator is always positive,
numerator and denominator are coprime, zero is uniquely 0/1, and all
arithmetic is exact at arbitrary precision.  Division by zero raises
``ZeroDivisionError``.  Inner loops do not add ``Rational`` values one by
one: they sum integer numerators over a common denominator and form one
``Rational`` (or, in ``BiPoly``, one reduced denominator) at the end.

The recurrence that defines the Bernoulli numbers is S_n(1) = 1 for the
Faulhaber power sum S_n(z), in which B_n is the coefficient of z^1.  So
``_faulhaber_row(n)`` is the one place the products C(n+1, j) * B_j are
formed: ``bernoulli(n)`` reads B_n off its z^1 entry and
``powersums.power_sum(n)`` reduces the whole row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

__all__ = ["Rational", "bernoulli"]

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
    S_p(z) (see ``powersums.power_sum``): ``nums[k] / den`` is the
    coefficient of z^k for k = 0..p + 1.

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
