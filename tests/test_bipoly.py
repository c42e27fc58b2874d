"""Sparse bivariate polynomials: addition, calculus, canonical form."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    F1,
    F2,
    SUM1,
    ReferenceBiPoly,
    diagonal_reference,
    eval_reference,
    render_json_reference,
    render_latex_reference,
    render_plain_reference,
)
from oddpower.bipoly import BiPoly
from oddpower.rationals import Rational
from oddpower.rendering import render

coefficients = st.fractions(min_value=-60, max_value=60, max_denominator=12)
exponent_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))
bipolys = st.dictionaries(exponent_pairs, coefficients, max_size=6).map(BiPoly)
points = st.fractions(min_value=-8, max_value=8, max_denominator=5)

X_TERM = BiPoly.monomial(1, 0)

# Wider denominators and degrees for the differential tests against the
# term-by-term Fraction references.
wide_bipolys = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    max_size=12,
).map(BiPoly)
wide_points = st.integers(-50, 50) | st.fractions(-1000, 1000, max_denominator=1000)


# -- construction and canonical form --------------------------------------


def test_zero_terms_dropped():
    assert BiPoly({(1, 1): 0, (0, 2): 3}) == BiPoly({(0, 2): 3})
    assert not BiPoly({(1, 1): 0})


def test_duplicate_keys_accumulate():
    poly = BiPoly([((1, 0), 2), ((1, 0), 3), ((0, 1), 1), ((0, 1), -1)])
    assert poly == BiPoly({(1, 0): 5})
    assert BiPoly([((1, 0), 1), ((1, 0), -1), ((1, 0), 2)]) == BiPoly.monomial(1, 0, 2)


def test_zero_polynomial_is_empty_map():
    assert not BiPoly()
    assert not (X_TERM - X_TERM)


def test_negative_degrees_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_non_int_degrees_and_bool_coefficients_rejected():
    for bad in ({(1.5, 0): 1}, {(0, True): 1}, {(0, 0): True}):
        with pytest.raises(TypeError):
            BiPoly(bad)
    with pytest.raises(TypeError):
        X_TERM + True


def test_coefficient_rejects_non_int_degrees():
    # True and 1.0 hash and compare equal to 1, so without the check they
    # would silently read the x coefficient.
    assert X_TERM.coefficient(1, 0) == 1
    for key in ((True, 0), (1.0, 0), (0, False), (0, True)):
        with pytest.raises(TypeError):
            X_TERM.coefficient(*key)


def test_coefficient_rejects_negative_degrees():
    # As monomial(-1, 0) does: no polynomial has such a term to read as zero.
    with pytest.raises(ValueError):
        X_TERM.coefficient(-1, 0)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        BiPoly({(0, 0): 0.5})
    with pytest.raises(TypeError):
        X_TERM - 0.5


def test_non_scalar_operands_rejected():
    for operation in (lambda: X_TERM + 1.5, lambda: X_TERM - "a", lambda: 1.5 - X_TERM):
        with pytest.raises(TypeError):
            operation()
    assert (X_TERM == 1.5) is False
    # No products, powers, negation or reflected operators: a scalar goes on the right.
    p = BiPoly({(1, 0): 1, (0, 1): -1})
    for operation in (
        lambda: p * p,
        lambda: 2 * p,
        lambda: p**2,
        lambda: -p,
        lambda: 1 + p,
        lambda: 1 - p,
        lambda: sum([p, p]),
    ):
        with pytest.raises(TypeError):
            operation()
    assert p + 1 == BiPoly({(1, 0): 1, (0, 1): -1, (0, 0): 1})
    assert p - Rational(1, 2) == BiPoly({(1, 0): 1, (0, 1): -1, (0, 0): Rational(-1, 2)})
    assert BiPoly() == 0
    assert hash(BiPoly.constant(3)) == hash(3)


@pytest.mark.parametrize(
    "what,call",
    [
        ("coefficient", lambda: BiPoly({(0, 0): 1.5})),
        ("x", lambda: F1(1.5, 2)),
        ("z", lambda: F1(2, 0.5)),
    ],
    ids=["coefficient", "x", "z"],
)
def test_type_error_names_the_rejected_value(what, call):
    with pytest.raises(TypeError, match=f"^{what} must be int or Rational, got float$"):
        call()


# -- addition -------------------------------------------------------------


def test_add_disjoint_supports():
    assert BiPoly.monomial(1, 1, 3) + BiPoly.monomial(0, 2, -3) == BiPoly({(1, 1): 3, (0, 2): -3})


def test_add_identity():
    assert F2 + BiPoly() == F2
    assert F2 + 0 == F2


def test_add_partials_reference_case():
    partial_x = BiPoly({(0, 1): 3, (0, 2): 3})
    partial_z = BiPoly({(1, 0): 3, (0, 1): -6, (1, 1): 6, (0, 2): -6})
    assert partial_x + partial_z == SUM1


def test_scalar_arithmetic():
    assert BiPoly.monomial(0, 1) + Rational(1, 2) == BiPoly({(0, 1): 1, (0, 0): Rational(1, 2)})
    assert BiPoly.monomial(0, 1) - 1 == BiPoly({(0, 1): 1, (0, 0): -1})


# -- differentiation ------------------------------------------------------


def test_partial_x_of_f1():
    assert F1.diff("x") == BiPoly({(0, 1): 3, (0, 2): 3})


def test_partial_z_of_f1():
    assert F1.diff("z") == BiPoly({(1, 0): 3, (0, 1): -6, (1, 1): 6, (0, 2): -6})


def test_derivative_of_constant_is_zero():
    assert not BiPoly.constant(17).diff("x")
    assert not BiPoly.constant(Rational(-2, 3)).diff("z")


def test_diff_rejects_unknown_variable():
    with pytest.raises(ValueError):
        F1.diff("y")


# -- evaluation and diagonal ----------------------------------------------


def test_eval_reference_case():
    assert SUM1(2, 2) == 12


def test_eval_at_origin_is_constant_term():
    poly = F1 + 7
    assert poly(0, 0) == 7
    assert F1(0, 0) == 0


def test_eval_f2_diagonal_point():
    assert F2(1, 1) == 1


def test_diagonal_of_f1():
    assert F1.diagonal() == BiPoly.monomial(3, 0)


def test_diagonal_antisymmetric_cancels():
    assert not BiPoly({(2, 0): 1, (0, 2): -1}).diagonal()


def test_diagonal_of_f2():
    assert F2.diagonal() == BiPoly.monomial(5, 0)


def test_call_keeps_type_guards():
    for poly in (F1, BiPoly()):
        for x_val, z_val in ((True, 1), (Rational(1), 0.5), (1, None)):
            with pytest.raises(TypeError):
                poly(x_val, z_val)
    value = BiPoly()(3, 4)
    assert value == Rational(0) and type(value) is Fraction
    assert not BiPoly().diagonal()


@example(p=BiPoly(), u=3, v=Rational(-2, 7))
@example(p=F2, u=0, v=Rational(-5, 3))
@example(p=F2, u=Rational(-5, 3), v=0)
@example(p=F2 + Rational(1, 7), u=Rational(-999, 998), v=Rational(997, 5))
@given(p=wide_bipolys, u=wide_points, v=wide_points)
def test_eval_matches_reference(p, u, v):
    value = p(u, v)
    assert type(value) is Fraction
    assert value == eval_reference(p, u, v)


@example(p=BiPoly())
@example(p=BiPoly({(1, 0): 1, (0, 1): -1, (1, 1): Rational(1, 3)}))
@example(p=F1)
@given(p=wide_bipolys)
def test_diagonal_matches_reference(p):
    assert p.diagonal() == diagonal_reference(p)


# -- ordering, degrees, display -------------------------------------------


def test_terms_canonical_order():
    # ascending total degree, then ascending z-degree
    assert [(dx, dz) for dx, dz, _ in SUM1.terms()] == [(1, 0), (0, 1), (1, 1), (0, 2)]


def test_degrees():
    assert F2.degree_x() == 2
    assert F2.degree_z() == 5
    assert BiPoly().degree_x() == BiPoly().degree_z() == -1


def test_str_matches_reference_display():
    assert str(F1) == "3 x z - 3 z^2 + 3 x z^2 - 2 z^3"


def test_equality_with_scalars():
    assert BiPoly.constant(5) == 5
    assert BiPoly() == 0
    assert not (X_TERM == 1)


def test_hash_consistency():
    assert hash(BiPoly.constant(5)) == hash(5)
    assert hash(BiPoly()) == hash(0)
    rebuilt = BiPoly({(1, 1): 3, (0, 2): -3, (1, 2): 3, (0, 3): -2})
    assert rebuilt == F1 and hash(rebuilt) == hash(F1)


# -- algebraic properties --------------------------------------------------


@given(p=bipolys, q=bipolys)
def test_add_and_mul_commute(p, q):
    assert p + q == q + p
    assert p + 3 == BiPoly.constant(3) + p


@given(p=bipolys, q=bipolys, r=bipolys)
def test_associativity_and_distributivity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p - (q + r) == (p - q) - r
    assert (p + q) - q == p


@given(p=bipolys, q=bipolys)
def test_derivative_linearity(p, q):
    for var in ("x", "z"):
        assert (p + q).diff(var) == p.diff(var) + q.diff(var)


@given(p=bipolys)
def test_mixed_partials_commute(p):
    assert p.diff("x").diff("z") == p.diff("z").diff("x")


@given(p=bipolys, q=bipolys, u=points, v=points)
def test_eval_is_additive(p, q, u, v):
    assert (p + q)(u, v) == p(u, v) + q(u, v)
    assert (p - q)(u, v) == p(u, v) - q(u, v)


@given(p=bipolys, u=points, v=points)
def test_diagonal_commutes_with_eval(p, u, v):
    assert p.diagonal()(u, v) == p(u, u)


@given(p=bipolys)
def test_chain_rule_on_diagonal(p):
    # d/dx p(x, x) equals (d/dx p + d/dz p)(x, x) as polynomials; this is
    # the structural fact behind the whole derivative identity.
    assert p.diagonal().diff("x") == (p.diff("x") + p.diff("z")).diagonal()


# -- differential tests against the Fraction-per-term reference -------------

# Term maps given to both layouts: integers and fractions over denominators
# up to 10^3, so operands often have different, coprime or shared denominators.
term_maps = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-50, 50) | st.fractions(-(10**4), 10**4, max_denominator=10**3),
    max_size=8,
)
scalars = st.integers(-30, 30) | st.fractions(-100, 100, max_denominator=60)

HALF_X = {(1, 0): Rational(1, 2)}


def assert_same(new: BiPoly, ref: ReferenceBiPoly) -> None:
    assert list(new.terms()) == list(ref.terms())
    assert all(type(c) is Fraction for _, _, c in new.terms())
    # Equal to, and hashed like, the polynomial built afresh from the same
    # coefficients: each result is held in the one canonical layout.
    rebuilt = BiPoly({(dx, dz): c for dx, dz, c in ref.terms()})
    assert new == rebuilt and hash(new) == hash(rebuilt)


@example(a={}, b={}, s=0)
@example(a=HALF_X, b=HALF_X, s=Rational(2))  # the sum's denominator drops to 1
@example(a={(1, 0): Rational(1, 3), (0, 0): 2}, b={(1, 0): Rational(-1, 3), (0, 0): -2}, s=1)
@example(a={(1, 0): Rational(1, 3)}, b={(0, 1): Rational(2, 5), (1, 0): Rational(1, 7)}, s=Rational(5, 11))
@given(a=term_maps, b=term_maps, s=scalars)
def test_ring_operations_match_reference(a, b, s):
    p, q = BiPoly(a), BiPoly(b)
    rp, rq = ReferenceBiPoly(a), ReferenceBiPoly(b)
    assert_same(p, rp)
    assert_same(p + q, rp + rq)
    assert_same(p - q, rp - rq)
    assert_same(p + s, rp + s)
    assert_same(p - s, rp - s)


@example(a={})
@example(a=HALF_X)
@example(a={(2, 1): Rational(1, 6), (1, 2): Rational(-1, 6), (3, 0): Rational(5, 4)})
@given(a=term_maps)
def test_calculus_matches_reference(a):
    p, rp = BiPoly(a), ReferenceBiPoly(a)
    for var in ("x", "z"):
        assert_same(p.diff(var), rp.diff(var))
    assert_same(p.diagonal(), rp.diagonal())
    assert_same(p.diff("x") + p.diff("z"), rp.diff("x") + rp.diff("z"))


@example(a={}, u=0, v=0)
@example(a=HALF_X, u=Rational(-3, 7), v=0)
@example(a={(1, 2): Rational(1, 3), (0, 1): Rational(-2, 5)}, u=-4, v=Rational(9, 2))
@given(a=term_maps, u=wide_points, v=wide_points)
def test_evaluation_matches_reference(a, u, v):
    value = BiPoly(a)(u, v)
    assert type(value) is Fraction
    assert value == ReferenceBiPoly(a)(u, v)


@example(a={}, b={}, s=0)
@example(a=HALF_X, b={(1, 0): Rational(2, 4)}, s=Rational(1, 2))
@example(a={(0, 0): Rational(3, 5)}, b={(0, 0): Rational(6, 10)}, s=Rational(3, 5))
@example(a={(1, 0): Rational(1, 3)}, b={(1, 0): Rational(1, 5)}, s=1)
@given(a=term_maps, b=term_maps, s=scalars)
def test_inspection_and_equality_match_reference(a, b, s):
    p, q = BiPoly(a), BiPoly(b)
    rp, rq = ReferenceBiPoly(a), ReferenceBiPoly(b)
    for dx in range(8):
        for dz in range(8):
            assert p.coefficient(dx, dz) == rp.coefficient(dx, dz)
            assert type(p.coefficient(dx, dz)) is Fraction
    assert (p == q) == (rp == rq)
    assert (p == s) == (rp == s)
    if p == q:
        assert hash(p) == hash(q)
    assert hash(BiPoly.constant(s)) == hash(Rational(s)) == hash(ReferenceBiPoly({(0, 0): s}))
    if p.degree_x() <= 0 and p.degree_z() <= 0:
        assert p == p.coefficient(0, 0) and hash(p) == hash(p.coefficient(0, 0))
    rebuilt = BiPoly([((dx, dz), c) for dx, dz, c in reversed(list(p.terms()))])
    assert rebuilt == p and hash(rebuilt) == hash(p)


@example(a={})
@example(a={(0, 0): -1, (1, 0): 1, (0, 1): Rational(-1, 2)})
@example(a={(1, 1): Rational(6, 4), (2, 0): Rational(-10, 5)})
@given(a=term_maps)
def test_renders_match_reference(a):
    p, rp = BiPoly(a), ReferenceBiPoly(a)
    assert render(p, "plain") == render_plain_reference(rp)
    assert render(p, "latex") == render_latex_reference(rp)
    assert render(p, "json") == render_json_reference(rp)
