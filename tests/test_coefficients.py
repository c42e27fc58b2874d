"""Coefficient rows of the odd-power identity and the integer oracle."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    first_failure_reference,
    scale,
    solve_coeffs_by_elimination,
    solve_coeffs_reference,
)
from oddpower.bipoly import BiPoly
import oddpower.coefficients as coefficients
from oddpower.coefficients import first_failure, solve_coeffs, verify_identity
from oddpower.engine import conv_sum
from oddpower.rationals import Rational


KNOWN_ROWS = {
    0: [1],
    1: [1, 6],
    2: [1, 0, 30],
    3: [1, -14, 0, 140],
}


@pytest.mark.parametrize("m,expected", sorted(KNOWN_ROWS.items()))
def test_known_rows(m, expected):
    assert list(solve_coeffs(m)) == expected


@pytest.mark.parametrize("m", range(21))
def test_first_coefficient_is_one(m):
    # Evaluating the defining identity at n = 1 kills every summand except
    # the r = 0 one, so A_0 = 1 for every order.
    assert solve_coeffs(m)[0] == 1


@pytest.mark.parametrize("m", range(21))
def test_top_coefficient_closed_form(m):
    assert solve_coeffs(m)[m] == (2 * m + 1) * comb(2 * m, m)


@pytest.mark.parametrize("m", range(13))
def test_row_reconstructs_odd_power_on_diagonal(m):
    row = solve_coeffs(m)
    combined = BiPoly()
    for r, a in enumerate(row):
        combined = combined + scale(conv_sum(r).diagonal(), a)
    assert combined == BiPoly.monomial(2 * m + 1, 0)


def test_recurrence_matches_elimination():
    for m in range(41):
        assert list(solve_coeffs(m)) == solve_coeffs_by_elimination(m), m


@settings(max_examples=5, deadline=None)
@given(m=st.integers(0, 64))
def test_recurrence_matches_elimination_to_order_64(m):
    assert list(solve_coeffs(m)) == solve_coeffs_by_elimination(m)


def test_integer_sums_match_fraction_recurrence_to_order_128():
    # m = 11 is the first row with fractional entries.
    for m in range(129):
        assert list(solve_coeffs(m)) == solve_coeffs_reference(m), m


@pytest.mark.parametrize("m", [*range(7), 11, 12, 16])
def test_integer_oracle(m):
    assert verify_identity(m, 25)


def test_first_failure_names_n_and_both_sides(monkeypatch):
    assert first_failure(11, 25) is None
    # Moving 1/5 from A_2 to A_1 cancels at n = 2 (k(n-k) is 1 or 0) and
    # first shows at n = 3, where both k = 1, 2 have k(n-k) = 2:
    # lhs = 3^23 + 2 * (2 - 4) / 5.
    values = list(solve_coeffs(11))
    values[1] += Rational(1, 5)
    values[2] -= Rational(1, 5)
    monkeypatch.setattr(coefficients, "solve_coeffs", lambda m: tuple(values))
    assert first_failure(11, 25) == (3, 3**23 - Rational(4, 5), 3**23)
    assert first_failure(11, 2) is None
    assert not verify_identity(11, 25)
    values[0] += 1  # the only entry n = 1 sees: lhs = A_0
    assert first_failure(11, 25) == (1, Rational(2), 1)


CORRUPTIONS = ("change", "move", "longer", "shorter")


def corrupt(row, kind, i, j, delta):
    """``row`` with one defect: entry i changed by ``delta``, ``delta`` moved
    from entry j to entry i, a top entry ``delta`` put j % 3 zeros above the
    row, or the row cut to its first i % len(row) entries."""
    values = list(row)
    i %= len(values)
    if kind == "change":
        values[i] += delta
    elif kind == "move":
        values[i] += delta
        values[j % len(values)] -= delta
    elif kind == "longer":
        values += [Rational(0)] * (j % 3) + [delta]
    else:
        del values[i:]
    return tuple(values)


def degree_bound(row, m):
    # B, the degree in n at most of both sides of the expansion over ``row``.
    return 2 * max(m, len(row) - 1) + 1


def test_capped_oracle_matches_full_summation(monkeypatch):
    rng = random.Random(26)
    for _ in range(600):
        m = rng.randint(0, 16)
        delta = Rational(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 7))
        kind = rng.choice(CORRUPTIONS)
        row = corrupt(solve_coeffs(m), kind, rng.randint(0, m), rng.randint(0, m), delta)
        monkeypatch.setattr(coefficients, "solve_coeffs", lambda m: row)
        bound = degree_bound(row, m)
        for n_max in (1, bound - 1, bound, bound + 1, 3 * bound):
            if n_max > 0:
                expected = first_failure_reference(row, m, n_max)
                assert first_failure(m, n_max) == expected, (row, m, n_max)


@settings(deadline=None)
@given(
    m=st.integers(0, 20),
    kind=st.sampled_from(CORRUPTIONS),
    i=st.integers(0, 40),
    j=st.integers(0, 40),
    delta=st.builds(Rational, st.integers(-100, 100).filter(bool), st.integers(1, 30)),
)
def test_corrupted_row_fails_within_degree_bound(m, kind, i, j, delta):
    solved = solve_coeffs(m)
    row = corrupt(solved, kind, i, j, delta)
    bound = degree_bound(row, m)
    failure = first_failure_reference(row, m, 3 * bound)
    assert (failure is None) == (row == solved)
    assert failure is None or failure[0] <= bound
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coefficients, "solve_coeffs", lambda m: row)
        assert first_failure(m, 3 * bound) == failure


def test_oracle_proves_every_row_to_order_64():
    for m in range(65):
        assert first_failure(m, 2 * m + 1) is None, m


def test_oracle_range_past_the_bound_costs_nothing():
    # The parent loop would sum for days; n past 2m + 1 are proved, not summed.
    assert first_failure(64, 10**9) is None


def test_oracle_literal_restatement():
    # Same check as verify_identity, but spelled out longhand so the two
    # can't share a bug.
    for m in range(5):
        row = [int(a) for a in solve_coeffs(m)]
        for n in range(1, 20):
            total = 0
            for k in range(1, n + 1):
                base = k * (n - k)
                total += sum(a * base**r for r, a in enumerate(row))
            assert total == n ** (2 * m + 1)


def test_rows_integral_through_order_ten():
    for m in range(11):
        assert all(a.denominator == 1 for a in solve_coeffs(m))


def test_first_fractional_row_is_order_eleven():
    # The rows stop being integral at m = 11; two entries pick up a
    # denominator of 5.  Regression-pinned so a solver change that silently
    # clears denominators gets noticed.
    row = list(solve_coeffs(11))
    denominators = sorted({a.denominator for a in row})
    assert denominators == [1, 5]
    assert row.count(Rational(-4001808278118, 5)) == 1


@pytest.mark.parametrize("m", [0, 3, 64])
def test_row_length_and_indexing(m):
    row = solve_coeffs(m)
    assert type(row) is tuple
    assert all(type(a) is Rational for a in row)
    assert len(row) == m + 1
    assert row[-1] == (2 * m + 1) * comb(2 * m, m)
    if m in KNOWN_ROWS:
        assert list(row) == KNOWN_ROWS[m]


def test_entries_between_half_and_top_vanish_to_order_200():
    # A_r = 0 for (m-1)/2 < r < m, where 2r + 1 > m, and nowhere else; every
    # entry, the zeros included, is a Rational.
    for m in range(201):
        row = solve_coeffs(m)
        half = (m + 1) // 2
        assert row[half:m] == (0,) * (m - half), m
        assert all(row[:half]) and row[m], m
        assert all(type(a) is Rational for a in row), m


def test_coeff_vector_is_frozen():
    row = solve_coeffs(2)
    with pytest.raises(TypeError):
        row[0] = 5


def test_solver_rejects_negative_order():
    with pytest.raises(ValueError):
        solve_coeffs(-1)


def test_oracle_rejects_bad_bounds():
    with pytest.raises(ValueError):
        verify_identity(2, 0)
    with pytest.raises(ValueError):
        first_failure(2, 0)
    for bad in (30.0, True):
        with pytest.raises(TypeError):
            first_failure(2, bad)


def test_solver_is_deterministic():
    assert solve_coeffs(8) == solve_coeffs(8)
    assert list(solve_coeffs(8)) == list(solve_coeffs(8))
