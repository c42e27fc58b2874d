"""Closed-form power sums and convolved sums against literal summation."""

import sys
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    assert_reduced_row,
    combine_conv_sums_loop_reference,
    conv_sum_reference,
    degrees,
    faulhaber_row_reference,
    power_sum_reference,
    row_poly,
    scale,
    shift_z,
)
from oddpower.bipoly import BiPoly
from oddpower.coefficients import solve_coeffs
from oddpower.engine import _combine_conv_sums, conv_sum
from oddpower.rationals import Rational, bernoulli, power_sum


def test_small_power_sums():
    # (den, coeffs): coeffs[k] / den is the coefficient of z^k.
    assert power_sum(0) == (1, (0, 1))  # z
    assert power_sum(1) == (2, (0, 1, 1))  # z/2 + z^2/2
    assert power_sum(2) == (6, (0, 1, 3, 2))  # z/6 + z^2/2 + z^3/3
    assert power_sum(3) == (4, (0, 0, 1, 2, 1))  # z^2/4 + z^3/2 + z^4/4


@pytest.mark.parametrize("p", range(11))
def test_power_sum_matches_literal_sum(p):
    den, coeffs = power_sum(p)
    for n in range(31):
        assert sum(c * n**k for k, c in enumerate(coeffs)) == den * sum(k**p for k in range(1, n + 1))


@pytest.mark.parametrize("p", range(16))
def test_power_sum_boundary_values(p):
    den, coeffs = power_sum(p)
    assert coeffs[0] == 0  # S_p(0) = 0
    assert sum(coeffs) == den  # S_p(1) = 1


@pytest.mark.parametrize("p", range(16))
def test_power_sum_telescopes(p):
    # S_p(z) - S_p(z - 1) == z^p as polynomials, not just at sample points.
    poly = row_poly(power_sum(p))
    assert poly - shift_z(poly, -1) == BiPoly.monomial(0, p)


@pytest.mark.parametrize("p", range(16))
def test_power_sum_shape(p):
    row = power_sum(p)
    assert_reduced_row(row, p + 2)
    den, coeffs = row
    assert Rational(coeffs[p + 1], den) == Rational(1, p + 1)


def test_power_sum_rejects_negative():
    with pytest.raises(ValueError):
        power_sum(-1)


def test_power_sum_matches_reference_to_degree_200():
    for p in range(201):
        assert row_poly(power_sum(p)) == power_sum_reference(p), p


def test_power_sum_matches_faulhaber_row_to_degree_400():
    # The Appell step against the Faulhaber row it replaced: reduced as it
    # stands, with no content divided out, and S_p(1) = 1, the recurrence
    # that defines B_p, which holds each z^1 entry, read from the tangent
    # numbers, to the rest of its Appell row.
    for p in range(401):
        row = power_sum(p)
        assert row == faulhaber_row_reference(p), p
        assert_reduced_row(row, p + 2)
        den, coeffs = row
        assert sum(coeffs) == den, p


def test_cold_power_sums_out_of_order():
    # A cold power_sum(77) fills the rows below it, which a later
    # power_sum(13) then reads from the cache.
    bernoulli.cache_clear()
    power_sum.cache_clear()
    assert power_sum(77) == faulhaber_row_reference(77)
    assert power_sum(13) == faulhaber_row_reference(13)


def test_power_sum_nonzero_degrees_to_degree_400():
    # B_j goes with z^(p+1-j), and only B_0, B_1 and the even B_j are nonzero
    # (bernoulli matches the recurrence with no odd-index shortcut to 400), so
    # these are the only degrees _combine_conv_sums reads.
    for p in range(401):
        _, coeffs = power_sum(p)
        expected = {*range(p + 1, 0, -2), *([p] if p else [])}
        assert {k for k, c in enumerate(coeffs) if c} == expected, p


@pytest.mark.parametrize("first", ["power_sum", "bernoulli"])
def test_power_sum_z1_entry_is_bernoulli(first):
    # B_p is the z^1 coefficient of S_p, which power_sum reads from
    # bernoulli(p), so the order in which the two caches fill must not
    # matter.
    bernoulli.cache_clear()
    power_sum.cache_clear()
    if first == "power_sum":
        rows = [power_sum(p) for p in range(401)]
        values = [bernoulli(p) for p in range(401)]
    else:
        values = [bernoulli(p) for p in range(401)]
        rows = [power_sum(p) for p in range(401)]
    for p, ((den, coeffs), b) in enumerate(zip(rows, values)):
        assert Rational(coeffs[1], den) == b, p


def _recursion_depth():
    """The interpreter's count of the calls this one runs under, which can
    exceed the frame count where C code calls Python (pytest's hooks do):
    ``sys.setrecursionlimit`` accepts no limit at or below it."""
    limit, depth = sys.getrecursionlimit(), 1
    while True:
        try:
            sys.setrecursionlimit(depth + 1)
        except RecursionError:
            depth += 1
        else:
            sys.setrecursionlimit(limit)
            return depth


def test_cold_bernoulli_and_power_sum_recurse_a_few_frames():
    # Each B_j reads only B_i with i < j, already cached when the row loop
    # reaches j, so a cold call never recurses more than a few frames deep.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 12)
    try:
        bernoulli.cache_clear()
        power_sum.cache_clear()
        b = bernoulli(400)
        bernoulli.cache_clear()
        den, coeffs = power_sum(400)
    finally:
        sys.setrecursionlimit(limit)
    assert Rational(coeffs[1], den) == b


def test_shift_z_examples():
    assert shift_z(BiPoly.monomial(0, 2), 1) == BiPoly({(0, 2): 1, (0, 1): 2, (0, 0): 1})
    assert shift_z(BiPoly.monomial(1, 1), -2) == BiPoly({(1, 1): 1, (1, 0): -2})
    assert shift_z(BiPoly.monomial(3, 0), 5) == BiPoly.monomial(3, 0)


@given(
    offset=st.integers(-4, 4),
    u=st.fractions(min_value=-6, max_value=6, max_denominator=4),
    v=st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
def test_shift_z_is_substitution(offset, u, v):
    poly = BiPoly({(2, 1): 1, (0, 2): 3, (1, 0): -1})
    assert shift_z(poly, offset)(u, v) == poly(u, v + offset)


def test_conv_sum_zero_is_plain_count():
    assert conv_sum(0) == BiPoly.monomial(0, 1)


@pytest.mark.parametrize("r", range(7))
def test_conv_sum_matches_literal_sum(r):
    poly = conv_sum(r)
    for x in range(15):
        for n in range(15):
            assert poly(x, n) == sum((k * (x - k)) ** r for k in range(1, n + 1))


@pytest.mark.parametrize("r", range(9))
def test_conv_sum_shape(r):
    poly = conv_sum(r)
    assert degrees(poly) == (r, 2 * r + 1)


@pytest.mark.parametrize("r", range(9))
def test_conv_sum_diagonal_is_odd(r):
    # On z = x the convolved sum has only odd powers of x, with leading
    # coefficient (r!)^2 / (2r+1)!.
    diag = conv_sum(r).diagonal()
    assert degrees(diag)[0] == 2 * r + 1
    for dx, dz, _ in diag.terms():
        assert dz == 0
        assert dx % 2 == 1
    top = {dx: c for dx, _, c in diag.terms()}[2 * r + 1]
    assert top == Rational(factorial(r) ** 2, factorial(2 * r + 1))


def test_conv_sum_matches_reference_to_order_64():
    for r in range(65):
        assert conv_sum(r) == conv_sum_reference(r), r


def test_conv_sum_rejects_negative():
    with pytest.raises(ValueError):
        conv_sum(-1)


# Entry denominators of small primes, which the power-sum denominators (the
# Bernoulli denominators and p + 1) share, so that a part's scalar can cancel
# against them, next to arbitrary ones and one prime (691) that none shares
# at these orders.
_SMALL_PRIME_DENOMINATORS = [2, 3, 5, 6, 7, 30, 42, 11 * 13, 2**7 * 3**4 * 5**2 * 7, 691]
_ROW_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-(10**12), 10**12),
    st.builds(
        Rational,
        st.integers(-(10**40), 10**40),
        st.sampled_from(_SMALL_PRIME_DENOMINATORS) | st.integers(1, 10**9),
    ),
)


@given(row=st.lists(_ROW_ENTRIES, max_size=12))
def test_combine_conv_sums_matches_scaled_conv_sums(row):
    expected = BiPoly()
    for r, a in enumerate(row):
        expected = expected + scale(conv_sum_reference(r), a)
    assert _combine_conv_sums(row) == expected


def assert_matches_loop_reference(row):
    poly, expected = _combine_conv_sums(row), combine_conv_sums_loop_reference(row)
    assert poly == expected, row
    assert str(poly) == str(expected), row


def test_combine_conv_sums_matches_loop_reference_on_solved_rows():
    for y in [*range(65), 128]:
        assert_matches_loop_reference(solve_coeffs(y))


def test_combine_conv_sums_matches_loop_reference_on_unit_rows():
    for r in range(41):
        assert_matches_loop_reference((0,) * r + (1,))


@given(row=st.lists(_ROW_ENTRIES, min_size=1, max_size=12))
def test_combine_conv_sums_matches_loop_reference(row):
    assert_matches_loop_reference(row)


@pytest.mark.parametrize("row", [[1.5], [0.0, 1], [True], ["a"]], ids=repr)
def test_combine_conv_sums_rejects_non_rational_entries(row):
    with pytest.raises(TypeError, match="row entry must be int or Rational"):
        _combine_conv_sums(row)
