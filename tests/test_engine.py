"""Family construction and the symbolic derivative identity."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F1,
    F2,
    F3,
    ReferenceBiPoly,
    build_poly_from_conv_sums,
    diagonal_reference,
    eval_reference,
)
from oddpower.bipoly import BiPoly
from oddpower.coefficients import solve_coeffs
from oddpower.engine import (
    build_poly,
    check_derivative_identity,
    check_diagonal,
    derivative_sum,
    eval_derivative_at,
)
from oddpower.parsing import parse_poly
from oddpower.powersums import conv_sum, power_sum
from oddpower.rationals import Rational, bernoulli


def test_order_zero_is_plain_count():
    assert build_poly(0) == BiPoly.monomial(0, 1)


def test_first_three_members():
    assert build_poly(1) == F1
    assert build_poly(2) == F2
    assert build_poly(3) == F3


def test_direct_assembly_matches_conv_sum_builder():
    for y in range(41):
        assert build_poly(y) == build_poly_from_conv_sums(y), y


@settings(max_examples=5, deadline=None)
@given(y=st.integers(0, 64))
def test_direct_assembly_matches_conv_sum_builder_to_order_64(y):
    assert build_poly(y) == build_poly_from_conv_sums(y)


@pytest.mark.parametrize("y", [65, 97, 128])
def test_direct_assembly_matches_conv_sum_builder_above_order_64(y):
    assert build_poly(y) == build_poly_from_conv_sums(y)


@pytest.mark.parametrize("y", range(8))
def test_degrees(y):
    poly = build_poly(y)
    assert poly.degree_x() == y
    assert poly.degree_z() == 2 * y + 1


@pytest.mark.parametrize("y", range(1, 8))
def test_every_term_carries_z(y):
    # f_y(x, 0) is the empty sum, so no term can be free of z.
    assert all(dz >= 1 for _, dz, _ in build_poly(y).terms())


@pytest.mark.parametrize("y", range(4))
def test_matches_literal_double_sum(y):
    # Independent meaning check: at integer points the polynomial is the
    # finite sum it was built to extend.
    row = [int(a) for a in solve_coeffs(y)]
    poly = build_poly(y)
    for x in range(9):
        for n in range(9):
            literal = sum(
                a * (k * (x - k)) ** r
                for k in range(1, n + 1)
                for r, a in enumerate(row)
            )
            assert poly(x, n) == literal


@pytest.mark.parametrize("y", range(9))
def test_diagonal_collapses_to_odd_power(y):
    assert check_diagonal(y)
    assert build_poly(y).diagonal() == BiPoly.monomial(2 * y + 1, 0)


@pytest.mark.parametrize("y", range(9))
def test_derivative_identity_holds(y):
    report = check_derivative_identity(y)
    assert report.holds
    assert not report.residual
    assert derivative_sum(y).diagonal() == BiPoly.monomial(2 * y, 0, 2 * y + 1)


@pytest.mark.parametrize("y", range(9))
def test_report_fields_are_consistent(y):
    report = check_derivative_identity(y)
    poly = build_poly(y)
    partial_x, partial_z = poly.diff("x"), poly.diff("z")
    assert report.y == y
    assert derivative_sum(y) == partial_x + partial_z
    expected = BiPoly.monomial(2 * y, 0, 2 * y + 1)
    assert report.residual == (partial_x + partial_z).diagonal() - expected
    assert report.holds == (not report.residual)
    assert report._fields == ("y", "residual", "holds")


def test_diagonal_sums_small_orders():
    assert derivative_sum(1).diagonal() == BiPoly.monomial(2, 0, 3)
    assert derivative_sum(2).diagonal() == BiPoly.monomial(4, 0, 5)
    assert derivative_sum(3).diagonal() == BiPoly.monomial(6, 0, 7)


def test_derivative_sum_is_partial_sum():
    for y in range(6):
        poly = build_poly(y)
        assert derivative_sum(y) == poly.diff("x") + poly.diff("z")


def test_eval_derivative_at_sample_points():
    assert eval_derivative_at(0, Rational(9, 7)) == 1
    assert eval_derivative_at(1, -2) == 12
    assert eval_derivative_at(2, 1) == 5
    assert eval_derivative_at(3, Rational(1, 2)) == Rational(7, 64)


def test_eval_matches_closed_form_over_grid():
    for y in range(5):
        for num in range(-6, 7):
            u = Rational(num, 3)
            assert eval_derivative_at(y, u) == (2 * y + 1) * u ** (2 * y)


def test_eval_matches_reference_to_order_64():
    # Seeded points u = p/q with 1 <= |p|, q <= 999; every eighth order also
    # at an off-diagonal point (u, v).
    rng = random.Random(5)

    def point():
        return Rational(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))

    for y in range(24, 65):
        poly, u = derivative_sum(y), point()
        assert poly(u, u) == eval_reference(poly, u, u) == (2 * y + 1) * u ** (2 * y), y
        if y % 8 == 0:
            v = point()
            assert poly(u, v) == eval_reference(poly, u, v), y


def test_diagonal_matches_reference_to_order_64():
    for y in range(65):
        for poly in (build_poly(y), derivative_sum(y)):
            assert poly.diagonal() == diagonal_reference(poly), y


def test_derivative_check_matches_reference_layout():
    # The verify path's diff, + and diagonal, repeated in the Fraction-per-term
    # layout from the same coefficients.
    for y in range(33):
        ref = ReferenceBiPoly({(dx, dz): c for dx, dz, c in build_poly(y).terms()})
        ref_sum = ref.diff("x") + ref.diff("z")
        ref_residual = ref_sum.diagonal() - ReferenceBiPoly({(2 * y, 0): 2 * y + 1})
        assert list(derivative_sum(y).terms()) == list(ref_sum.terms()), y
        assert list(derivative_sum(y).diagonal().terms()) == list(ref_sum.diagonal().terms()), y
        assert list(check_derivative_identity(y).residual.terms()) == list(ref_residual.terms()), y


def assert_one_reduced_denominator(poly: BiPoly) -> None:
    den, nums = poly._den, poly._nums
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in nums.values())
    assert gcd(den, *nums.values()) == 1


def test_one_reduced_denominator_after_every_operation():
    for y in range(21):
        f = build_poly(y)
        partial_x, partial_z = f.diff("x"), f.diff("z")
        results = [
            f,
            partial_x,
            partial_z,
            partial_x + partial_z,
            (partial_x + partial_z).diagonal(),
            f.diagonal(),
            derivative_sum(y),
            check_derivative_identity(y).residual,
            f + f,
            f - f,
            f - partial_z,
            f + Rational(1, 2),
            f - Rational(1, 3),
            parse_poly(str(f)),
            BiPoly(((dx, dz), c) for dx, dz, c in f.terms()),
            conv_sum(y),
            power_sum(2 * y),
        ]
        for poly in results:
            assert_one_reduced_denominator(poly)
    assert (build_poly(5) - build_poly(5))._den == 1


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        build_poly(-1)


def test_build_poly_is_cached():
    assert build_poly(4) is build_poly(4)


@pytest.mark.parametrize(
    "layer",
    [bernoulli, power_sum, conv_sum, solve_coeffs, build_poly, derivative_sum, check_diagonal],
    ids=lambda fn: fn.__name__,
)
def test_non_int_order_rejected_after_warm_int_call(layer):
    # An order is a plain int whatever the cache holds: 2.0 and True hash and
    # compare equal to 2 and 1, so an untyped cache would hand them the int entry.
    layer(2)
    layer(1)
    for bad in (2.0, True):
        with pytest.raises(TypeError):
            layer(bad)


def test_report_is_frozen():
    report = check_derivative_identity(1)
    with pytest.raises(AttributeError):
        report.holds = False
    assert report.holds is True
