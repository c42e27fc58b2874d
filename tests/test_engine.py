"""Family construction and the symbolic derivative identity."""

import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    F1,
    F2,
    F3,
    ReferenceBiPoly,
    assert_canonical_layout,
    assert_reduced_row,
    build_poly_from_conv_sums,
    degrees,
    diagonal_reference,
    eval_reference,
    traced_peak,
    traced_retained,
)
import oddpower.engine as engine
from oddpower.bipoly import BiPoly
from oddpower.coefficients import solve_coeffs
from oddpower.engine import (
    build_poly,
    check_derivative_identity,
    check_diagonal,
    conv_sum,
    derivative_sum,
    eval_derivative_at,
)
from oddpower.parsing import parse_poly
from oddpower.rationals import Rational, bernoulli, power_sum


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
    assert degrees(build_poly(y)) == (y, 2 * y + 1)


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
    # The one-pass sum against the two partials added with +, the path it
    # replaced.
    for y in range(65):
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
    # eval_derivative_at against the bivariate evaluation of the partial sum
    # that it replaced, at every order to 64 at 0, +-1, an integer and a
    # 300-digit rational, and at seeded points u = p/q with 1 <= |p|, q <= 999
    # from order 24; every eighth order also at an off-diagonal point (u, v).
    for y in range(65):
        poly = derivative_sum(y)
        for u in (0, 1, -1, -12345, Rational(10**299 + 1, 7)):
            assert eval_derivative_at(y, u) == poly(u, u) == (2 * y + 1) * u ** (2 * y), (y, u)

    rng = random.Random(5)

    def point():
        return Rational(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))

    for y in range(24, 65):
        poly, u = derivative_sum(y), point()
        expected = (2 * y + 1) * u ** (2 * y)
        assert eval_derivative_at(y, u) == poly(u, u) == eval_reference(poly, u, u) == expected, y
        if y % 8 == 0:
            v = point()
            assert poly(u, v) == eval_reference(poly, u, v), y


def test_eval_reads_only_the_diagonal():
    # derivative_sum(64)(u, u) sums 3,760 products of ~500-bit numerators by
    # powers of u of up to ~430,000 bits and peaks at about 6.5 MiB; its
    # diagonal, one term, peaks at about 0.24 MiB.
    u = Rational(10**1000 - 1, 7)
    derivative_sum(64)
    value, peak = traced_peak(lambda: eval_derivative_at(64, u))
    assert value == 129 * u**128
    assert peak <= 2**20


def test_engine_keeps_one_partial_sum_and_each_diagonal(monkeypatch):
    # Kept for every order, the partial sums of 24..64 held about 7.8 MiB.
    # Only the latest is kept now, and eval reads each order's kept diagonal,
    # taken from the partial sum the identity is stated on.
    orders = range(24, 65)

    def form_partial_sums():
        for y in orders:
            derivative_sum(y)

    for y in orders:
        build_poly(y)
    derivative_sum.cache_clear()
    _, retained = traced_retained(form_partial_sums)
    assert retained < 2**20
    assert derivative_sum.cache_info().currsize <= 1

    real = engine._partial_sum
    calls = 0

    def counted(poly):
        nonlocal calls
        calls += 1
        return real(poly)

    monkeypatch.setattr(engine, "_partial_sum", counted)
    derivative_sum.cache_clear()
    engine._derivative_diagonal.cache_clear()
    u = Rational(-3, 7)
    for _ in range(2):
        for y in orders:
            assert eval_derivative_at(y, u) == (2 * y + 1) * u ** (2 * y), y
    assert calls == len(orders)
    for y in range(65):
        assert engine._derivative_diagonal(y) == BiPoly.monomial(2 * y, 0, 2 * y + 1), y


@pytest.mark.parametrize("u", [0.5, True])
def test_eval_refuses_a_bad_point_before_building(u):
    # The point is checked, and named as the caller's u, before f_64 or its
    # partial sum is built.
    for cached in (
        bernoulli,
        power_sum,
        conv_sum,
        solve_coeffs,
        build_poly,
        derivative_sum,
        engine._derivative_diagonal,
    ):
        cached.cache_clear()
    with pytest.raises(TypeError, match=r"^u must be int or Rational, got (float|bool)$"):
        eval_derivative_at(64, u)
    assert build_poly.cache_info().currsize == 0
    assert derivative_sum.cache_info().currsize == 0
    assert engine._derivative_diagonal.cache_info().currsize == 0


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
        ]
        for poly in results:
            assert_canonical_layout(poly)
        assert_reduced_row(power_sum(2 * y), 2 * y + 2)
    assert (build_poly(5) - build_poly(5))._den == 1


# Each layer that takes an order, with the name its errors give the order.
ORDER_LAYERS = [
    (bernoulli, "n"),
    (power_sum, "p"),
    (conv_sum, "r"),
    (solve_coeffs, "m"),
    (build_poly, "y"),
    (derivative_sum, "y"),
    (check_diagonal, "y"),
    (check_derivative_identity, "y"),
    (partial(eval_derivative_at, u=1), "y"),
]


def test_negative_order_rejected():
    for layer, name in ORDER_LAYERS:
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
            layer(-1)


def test_build_poly_is_cached():
    assert build_poly(4) is build_poly(4)


@pytest.mark.parametrize(
    "layer, name",
    ORDER_LAYERS,
    ids=[getattr(fn, "func", fn).__name__ for fn, _ in ORDER_LAYERS],
)
def test_non_int_order_rejected_after_warm_int_call(layer, name):
    # An order is a plain int whatever the cache holds: 2.0 and True hash and
    # compare equal to 2 and 1, so an untyped cache would hand them the int entry.
    layer(2)
    layer(1)
    for bad in (2.0, True):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
            layer(bad)


def test_report_is_frozen():
    report = check_derivative_identity(1)
    with pytest.raises(AttributeError):
        report.holds = False
    assert report.holds is True


# -- two identities off the diagonal, at exact rational points --------------
#
# f_y(x, n) = sum_{k=1..n} P(k(x - k)) with P(t) = sum_r A_r t^r, and the
# sum over k = 1..x is x^(2y+1).  So f_y(x, z) - f_y(x, z - 1) = P(z(x - z)),
# f_y(x, 0) = 0, and, with the tail k = z+1..x-1 read as j = x - k, the
# reflection f_y(x, z) + f_y(x, x - 1 - z) = x^(2y+1) - P(0), P(0) = A_0.
# These are point checks: they can catch a wrong polynomial, not prove f_y.

off_diagonal_points = st.integers(-40, 40) | st.fractions(-40, 40, max_denominator=40)


def reflection_gap(poly: BiPoly, y: int, x: Rational, z: Rational) -> Rational:
    """``poly(x, z) + poly(x, x - 1 - z) - (x^(2y+1) - A_0)``, zero for f_y."""
    return poly(x, z) + poly(x, x - 1 - z) - x ** (2 * y + 1) + solve_coeffs(y)[0]


def difference_gap(poly: BiPoly, y: int, x: Rational, z: Rational) -> Rational:
    """``poly(x, z) - poly(x, z - 1) - P(z(x - z))``, zero for f_y."""
    t = z * (x - z)
    return poly(x, z) - poly(x, z - 1) - sum(a * t**r for r, a in enumerate(solve_coeffs(y)))


@settings(max_examples=100, deadline=None)
@example(y=64, x=Rational(3, 7), z=Rational(-5, 11))
@given(y=st.integers(0, 64), x=off_diagonal_points, z=off_diagonal_points)
def test_reflection_identity_at_rational_points(y, x, z):
    assert reflection_gap(build_poly(y), y, x, z) == 0


@settings(max_examples=100, deadline=None)
@example(y=64, x=Rational(3, 7), z=Rational(-5, 11))
@given(y=st.integers(0, 64), x=off_diagonal_points, z=off_diagonal_points)
def test_difference_equation_at_rational_points(y, x, z):
    poly = build_poly(y)
    assert difference_gap(poly, y, x, z) == 0
    assert poly(x, 0) == 0


def _antisymmetric_q() -> BiPoly:
    """q = z(x - z)(z + 1)(x - 1 - z)(2z - x + 1), which changes sign under
    z -> x - 1 - z, expanded term by term; each factor maps (deg_x, deg_z)
    to its coefficient."""
    factors = [
        {(0, 1): 1},
        {(1, 0): 1, (0, 1): -1},
        {(0, 1): 1, (0, 0): 1},
        {(1, 0): 1, (0, 0): -1, (0, 1): -1},
        {(0, 1): 2, (1, 0): -1, (0, 0): 1},
    ]
    product = [((0, 0), 1)]
    for factor in factors:
        product = [
            ((ax + bx, az + bz), a * b)
            for (ax, az), a in product
            for (bx, bz), b in factor.items()
        ]
    return BiPoly(product)


@pytest.mark.parametrize("y", [0, 1, 2, 5, 16, 64])
def test_reflection_catches_a_term_that_vanishes_on_the_diagonal(y):
    # 3z(x - z) is 0 on z = x, so f_y plus it keeps the diagonal and passes
    # the difference equation's f(x, 0) = 0; the reflection sees it.
    bad = build_poly(y) + BiPoly({(1, 1): 3, (0, 2): -3})
    assert bad.diagonal() == BiPoly.monomial(2 * y + 1, 0)
    assert reflection_gap(bad, y, Rational(3, 7), Rational(-5, 11)) != 0


@pytest.mark.parametrize("y", [3, 16])
def test_difference_equation_catches_an_antisymmetric_term(y):
    # q vanishes on z = x and its reflection cancels, so f_y + q passes the
    # diagonal and the reflection and fails only the difference equation.
    x, z = Rational(3, 7), Rational(-5, 11)
    bad = build_poly(y) + _antisymmetric_q()
    assert bad.diagonal() == BiPoly.monomial(2 * y + 1, 0)
    assert reflection_gap(bad, y, x, z) == 0
    assert bad(x, 0) == 0
    assert difference_gap(bad, y, x, z) != 0
