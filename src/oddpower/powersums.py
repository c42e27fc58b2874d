"""Power sums and convolved power sums as exact polynomials.

Two families are built here.  ``power_sum(p)`` is the polynomial in z that
agrees with sum_{k=1..z} k^p at every non-negative integer z, obtained from
Faulhaber's formula.  ``conv_sum(r)`` extends sum_{k=1..z} k^r (x-k)^r to a
polynomial in both x and z by expanding (x-k)^r binomially and replacing
each inner power sum with its Faulhaber polynomial.  The polynomial reading
is what gives both families meaning at non-integer arguments.
"""

from __future__ import annotations

from functools import lru_cache

from .bipoly import BiPoly, _from_fractions
from .rationals import bernoulli, binomial

__all__ = ["power_sum", "conv_sum"]


@lru_cache(maxsize=None)
def power_sum(p: int) -> BiPoly:
    """The sum of k^p for k = 1..z as a polynomial in z of degree p + 1.

    Faulhaber's formula with the B_1 = +1/2 convention:

        S_p(z) = (1/(p+1)) * sum_{j=0..p} C(p+1, j) * B_j * z^(p+1-j)

    The +1/2 convention makes the closed form inclusive of the upper bound z,
    so S_p(n) really is 1^p + ... + n^p for integer n >= 1.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    terms = {}
    for j in range(p + 1):
        coeff = binomial(p + 1, j) * bernoulli(j) / (p + 1)
        if coeff:
            terms[(0, p + 1 - j)] = coeff
    return BiPoly(terms)


@lru_cache(maxsize=None)
def conv_sum(r: int) -> BiPoly:
    """The sum of k^r (x-k)^r for k = 1..z as a polynomial in x and z.

    Expand (x-k)^r binomially and push each power of k through power_sum:

        H_r(x, z) = sum_{j=0..r} C(r, j) * (-1)^j * x^(r-j) * S_{r+j}(z)

    Degree in x is r, degree in z is 2r + 1.  For r = 0 the empty product
    convention k^0 (x-k)^0 = 1 gives H_0 = S_0 = z.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    terms = []
    for j in range(r + 1):
        s = power_sum(r + j)
        scale = (-1 if j % 2 else 1) * binomial(r, j)
        terms.extend(((r - j, k), scale * n, s._den) for (_, k), n in s._nums.items())
    return _from_fractions(terms)
