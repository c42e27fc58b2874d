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


def _nonzero_bernoulli_below(n: int) -> list[tuple[int, int, int]]:
    """``(j, numerator, denominator)`` of each B_j with j < n that is not 0:
    B_0, B_1 and the even-index B_j, read once each.  The odd B_j above B_1
    are 0, which the tests check against the recurrence with no shortcut."""
    return [(j, (b := bernoulli(j)).numerator, b.denominator)
            for j in (*range(min(n, 2)), *range(2, n, 2))]


@lru_cache(maxsize=None, typed=True)
def bernoulli(n: int) -> Rational:
    """Bernoulli number B_n under the convention B_1 = +1/2.

    Computed from the recurrence

        sum_{j=0..n} C(n+1, j) * B_j = n + 1

    which pins B_1 to +1/2.  With this sign choice the power-sum polynomial
    assembled from these numbers includes its upper summation bound, so no
    correction term is needed downstream.  B_n is 0 for odd n > 1, so it is
    returned at once, and the sum over j < n reads only the B_j that are not
    0: B_0, B_1 and the even j, each as an integer triple.  Each
    C(n+1, j) * B_j is written over the lcm L of their denominators, and
    B_n = ((n+1) * L - sum) / ((n+1) * L) is the one ``Rational`` formed;
    for n = 0 the sum is empty, L is 1 and B_0 = 1.
    Values are memoized; the cache is invisible to callers since every
    result is immutable.
    """
    _check_order(n, "n")
    if n > 2 and n % 2 == 1:
        return Rational(0)
    terms = _nonzero_bernoulli_below(n)
    den = lcm(*(d for _, _, d in terms))
    acc = sum(comb(n + 1, j) * num * (den // d) for j, num, d in terms)
    return Rational((n + 1) * den - acc, (n + 1) * den)
