"""Coefficient field contract: canonical rationals and Bernoulli numbers."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import bernoulli_reference
import oddpower.rationals as oddpower_rationals
from oddpower.rationals import Rational, bernoulli

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


def test_rational_is_exact_fraction_type():
    assert Rational is Fraction


def test_canonical_lowest_terms():
    assert Rational(2, 4) == Rational(1, 2)
    assert Rational(2, 4).numerator == 1
    assert Rational(2, 4).denominator == 2


def test_denominator_always_positive():
    value = Rational(1, -2)
    assert value.denominator == 2
    assert value.numerator == -1


def test_zero_is_zero_over_one():
    assert Rational(0, 5).numerator == 0
    assert Rational(0, 5).denominator == 1


def test_addition():
    assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)
    a = Rational(7, 9)
    assert a + Rational(0) == a
    assert Rational(1, 6) + Rational(-1, 6) == Rational(0)


def test_multiplication():
    assert Rational(2, 3) * Rational(3, 4) == Rational(1, 2)
    a = Rational(-5, 8)
    assert a * Rational(1) == a
    assert a * Rational(0) == Rational(0)


def test_division():
    assert Rational(1, 2) / Rational(1, 3) == Rational(3, 2)
    a = Rational(11, 13)
    assert a / a == Rational(1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Rational(1) / Rational(0)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


@given(a=rationals, b=rationals)
def test_add_and_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(a=rationals, b=rationals, c=rationals)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=rationals)
def test_inverses(a):
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(a=rationals, b=rationals)
def test_results_stay_canonical(a, b):
    for value in (a + b, a - b, a * b):
        assert value.denominator > 0
        from math import gcd

        assert gcd(abs(value.numerator), value.denominator) == 1


def test_bernoulli_small_values():
    assert bernoulli(0) == Rational(1)
    assert bernoulli(1) == Rational(1, 2)
    assert bernoulli(2) == Rational(1, 6)
    assert bernoulli(3) == Rational(0)
    assert bernoulli(4) == Rational(-1, 30)
    assert bernoulli(6) == Rational(1, 42)


def test_bernoulli_odd_indices_vanish():
    for k in range(1, 21):
        assert bernoulli(2 * k + 1) == 0


def test_bernoulli_defining_recurrence():
    # sum_{j=0..n} C(n+1, j) B_j = n + 1 pins the B_1 = +1/2 convention.
    for n in range(61):
        acc = sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1))
        assert acc == n + 1, f"recurrence fails at n={n}"


def test_bernoulli_matches_fraction_recurrence():
    # Every B_n that verify --max-y 128 reads (power sums up to S_257), and
    # those of rationals.power_sum to S_400, whose nonzero degrees
    # test_powersums pins.
    reference = bernoulli_reference(400)
    assert [bernoulli(n) for n in range(401)] == reference
    assert all(type(bernoulli(n)) is Rational for n in range(401))


def test_cleared_bernoulli_rebuilds_the_triangle_from_row_0():
    # The kept row goes with the cache: a row left over, here a corrupted
    # one below the row the cold call needs, would be extended and make the
    # cold call wrong.
    reference = bernoulli_reference(40)
    try:
        bernoulli.cache_clear()
        bernoulli(20)
        oddpower_rationals._triangle_row[:] = [0] * len(oddpower_rationals._triangle_row)
        bernoulli.cache_clear()
        assert oddpower_rationals._triangle_row == [1]
        assert bernoulli(40) == reference[40]
        # Row 39, the one that holds E_39.
        assert len(oddpower_rationals._triangle_row) == 40
    finally:
        bernoulli.cache_clear()


def test_cold_bernoulli_out_of_order():
    # bernoulli(50) after a cold bernoulli(100) reads E_49, which the
    # triangle row passed on its way to row 99.
    reference = bernoulli_reference(100)
    bernoulli.cache_clear()
    assert bernoulli(100) == reference[100]
    assert bernoulli(50) == reference[50]


BERNOULLI_TO_200 = bernoulli_reference(200)

# One call: the cached bernoulli, the uncached one under it, or a clear.
bernoulli_calls = st.one_of(
    st.tuples(st.sampled_from(["cached", "uncached"]), st.integers(0, 200)),
    st.just(("clear", None)),
)


@given(st.lists(bernoulli_calls, max_size=8))
# The kept row is exactly row 99, the one that holds E_99: no step.
@example([("cached", 100), ("uncached", 100)])
@example([("uncached", 100), ("uncached", 100)])
# The kept row is row 101, the next one a call leaves (only odd rows are
# kept), one past row 99: B_100 starts again from row 0.
@example([("cached", 102), ("uncached", 100)])
@example([("uncached", 102), ("cached", 100)])
@example([("cached", 200), ("clear", None), ("uncached", 2), ("cached", 200)])
def test_bernoulli_under_any_call_order(calls):
    # The kept row is extended, kept or restarted by each call: whatever the
    # order, each value is the recurrence's.
    bernoulli.cache_clear()
    try:
        for kind, n in calls:
            if kind == "clear":
                bernoulli.cache_clear()
            else:
                call = bernoulli if kind == "cached" else bernoulli.__wrapped__
                assert call(n) == BERNOULLI_TO_200[n], (kind, n)
    finally:
        bernoulli.cache_clear()


def test_bernoulli_negative_raises():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_deterministic():
    assert bernoulli(40) == bernoulli(40)
    assert [bernoulli(n) for n in range(20)] == [bernoulli(n) for n in range(20)]
