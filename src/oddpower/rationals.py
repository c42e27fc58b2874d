"""Exact coefficient arithmetic: rationals, binomials, Bernoulli numbers.

``Rational`` is the coefficient field used everywhere in this package.  It is
the standard library ``fractions.Fraction``, which already provides the
canonical form the rest of the code relies on: the denominator is always
positive, numerator and denominator are coprime, zero is uniquely 0/1, and
all arithmetic is exact at arbitrary precision.  Division by zero raises
``ZeroDivisionError``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = ["Rational", "binomial", "bernoulli"]

Rational = Fraction


def _check_order(value: int, name: str) -> None:
    """TypeError unless ``value`` is a plain int (a bool is not one, so it can
    never alias a cached int entry), ValueError if it is negative."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), defined as 0 outside 0 <= k <= n."""
    _check_order(n, "n")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None, typed=True)
def bernoulli(n: int) -> Rational:
    """Bernoulli number B_n under the convention B_1 = +1/2.

    Computed from the recurrence

        sum_{j=0..n} C(n+1, j) * B_j = n + 1

    which pins B_1 to +1/2.  With this sign choice the power-sum polynomial
    assembled from these numbers includes its upper summation bound, so no
    correction term is needed downstream.  Values are memoized; the cache is
    invisible to callers since every result is immutable.
    """
    _check_order(n, "n")
    if n == 0:
        return Rational(1)
    if n > 2 and n % 2 == 1:
        # Odd Bernoulli numbers above B_1 vanish; skipping the sum here is a
        # shortcut only, the defining recurrence is asserted in the tests.
        return Rational(0)
    acc = Rational(0)
    for j in range(n):
        acc += binomial(n + 1, j) * bernoulli(j)
    return (n + 1 - acc) / (n + 1)
