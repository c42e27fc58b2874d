"""Coefficient rows of the odd-power expansion identity.

For each order m there is a unique row A_0..A_m of rationals such that

    sum_{k=1..n} sum_{r=0..m} A_r * k^r * (n-k)^r  =  n^(2m+1)

holds for every positive integer n.  ``solve_coeffs`` computes the row, a
plain tuple of m + 1 rationals, from Kolosov's closed Bernoulli recurrence,
top entry first, with no polynomial arithmetic at all; the tests check it
against triangular elimination over the diagonals of the convolved sums.
``verify_identity`` checks a row the hard way, by literal summation with
exact integer arithmetic over the row's lcm denominator, and
``first_failure`` says where such a check fails.  The two routes are
deliberately independent of each other.

The summation is also a proof.  For a row of length L + 1, both sides are
polynomials in n of degree at most B = 2 max(m, L) + 1 (by Faulhaber,
sum_{k=1..n} k^r (n-k)^r has degree 2r + 1), and both vanish at n = 0.
So if they agree at n = 1..B they agree at B + 1 points and are equal for
every n; a row that fails somewhere fails first at some n <= B.  B is read
off the row's length, not off the theorem, so a corrupted or wrongly sized
row is judged exactly.  No polynomial code is involved: the degree bound
only says where the summing may stop.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, lcm

from .rationals import Rational, _check_order, bernoulli

__all__ = ["first_failure", "solve_coeffs", "verify_identity"]


@lru_cache(maxsize=None, typed=True)
def solve_coeffs(m: int) -> tuple[Rational, ...]:
    """The unique row (A_0, ..., A_m) making the odd-power expansion an
    identity, as a tuple of m + 1 rationals.

    Top entry A_m = (2m+1) * C(2m, m); below it, for r = m-1, ..., 0,

        A_r = (2r+1) * C(2r, r) * sum_{d=2r+1..m} A_d * C(d, 2r+1)
                                    * (-1)^(d-1) * B_{2d-2r} / (d-r)

    so A_r = 0 whenever 2r + 1 > m, that is for (m-1)/2 < r < m.  Only
    r = (m-1)//2, ..., 0 are computed, and each sums only the d where A_d
    may be nonzero, d in [2r+1, (m-1)//2] and d = m.  The Bernoulli numbers
    B_0, B_2, ..., B_2m are read once per call, as integer (numerator,
    denominator) pairs in a local list indexed by d - r.  Each A_r is
    summed on integer pairs: every d-term is an integer numerator over
    A_d's denominator times B's denominator times (d - r), the terms are
    added over the lcm of those denominators, and the sum is reduced by one
    gcd.  One ``Rational`` per nonzero entry is formed at the end; the zero
    entries share one ``Rational(0)``.
    """
    _check_order(m, "m")
    half = (m - 1) // 2  # the largest r < m with 2r + 1 <= m
    # (numerator, denominator) of B_0, B_2, ..., B_2m: entry d - r is B_{2d-2r}
    b_row = [(b.numerator, b.denominator) for b in map(bernoulli, range(0, 2 * m + 1, 2))]
    pairs = [(0, 1)] * (m + 1)  # (numerator, denominator) of each A_r
    pairs[m] = ((2 * m + 1) * comb(2 * m, m), 1)
    for r in range(half, -1, -1):
        terms = []  # (numerator, denominator) of each d-term
        for d in (*range(2 * r + 1, half + 1), m):
            a_num, a_den = pairs[d]
            b_num, b_den = b_row[d - r]
            num = a_num * comb(d, 2 * r + 1) * b_num
            terms.append((num if d % 2 else -num, a_den * b_den * (d - r)))
        den = lcm(*(t_den for _, t_den in terms))
        num = (2 * r + 1) * comb(2 * r, r) * sum(t_num * (den // t_den) for t_num, t_den in terms)
        g = gcd(num, den)
        pairs[r] = (num // g, den // g)
    zero = Rational(0)
    return tuple(Rational(num, den) if num else zero for num, den in pairs)


def first_failure(m: int, n_max: int) -> tuple[int, Rational, int] | None:
    """Check the expansion for every n in 1..n_max.

    Writes the row ``solve_coeffs(m)`` over the lcm D of its denominators,
    computes sum_{k=1..n} sum_{r} D*A_r * (k(n-k))^r by direct summation and
    compares against D * n^(2m+1), so every operation is on plain integers.
    It sums n = 1..min(n_max, B) only, with B = 2 max(m, len(row) - 1) + 1:
    agreement there proves the expansion for every n (see the module
    docstring), so the n past B are proved, not summed.  Returns the first
    failing ``(n, lhs, rhs)``, with lhs the double sum and rhs = n^(2m+1),
    or None if every n in 1..n_max passes; either answer is the one that
    summing every n up to n_max would give.  No polynomial code is
    involved, so this is an independent oracle for the solver.
    """
    _check_order(n_max, "n_max")
    if n_max == 0:
        raise ValueError(f"n_max must be positive, got {n_max}")
    row = solve_coeffs(m)
    den = lcm(*(a.denominator for a in row))
    nums = [a.numerator * (den // a.denominator) for a in row]
    bound = 2 * max(m, len(row) - 1) + 1  # B, the degree of both sides in n at most
    for n in range(1, min(n_max, bound) + 1):
        total = 0
        for k in range(1, n + 1):
            base = k * (n - k)
            inner = 0
            for a in reversed(nums):
                inner = inner * base + a
            total += inner
        rhs = n ** (2 * m + 1)
        if total != den * rhs:
            return n, Rational(total, den), rhs
    return None


def verify_identity(m: int, n_max: int) -> bool:
    """True iff the expansion holds for every n in 1..n_max (see
    :func:`first_failure`).  The n summed are 1..min(n_max, 2m + 1) for the
    solved row; with n_max >= 2m + 1, True proves the expansion for every n."""
    return first_failure(m, n_max) is None
