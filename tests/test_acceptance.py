"""Acceptance suite: one test per shipping criterion.

Each test is standalone and checks one externally stated requirement, with
its runtime budget asserted where the requirement has one.  The terminal
summary (see conftest.py) reports one PASS/FAIL line per criterion.

Randomized suites use the fixed seed below; change it and the cases change,
but every generated case must still pass.
"""

import time
from math import comb
from random import Random

from helpers import F1, F2, F3, load_corpus, random_bipoly, random_rational, scale
from oddpower.bipoly import BiPoly
from oddpower.cli import main
from oddpower.coefficients import solve_coeffs
from oddpower.engine import build_poly, derivative_sum, eval_derivative_at
from oddpower.parsing import parse_poly
from oddpower.powersums import conv_sum
from oddpower.rationals import Rational

SEED = 20250823


def test_c1_family_polynomials_match_fixtures():
    """The first three family polynomials equal their stored fixtures, < 1 s."""
    start = time.perf_counter()
    corpus = load_corpus()
    assert corpus["f_1"] == build_poly(1) == F1
    assert corpus["f_2"] == build_poly(2) == F2
    assert corpus["f_3"] == build_poly(3) == F3
    assert time.perf_counter() - start < 1.0


def test_c2_derivative_displays_match_fixtures():
    """Every stored partial derivative, sum, and diagonal matches the
    computed one exactly, < 1 s."""
    start = time.perf_counter()
    corpus = load_corpus()
    for y in (1, 2, 3):
        poly = build_poly(y)
        assert corpus[f"df{y}_dx"] == poly.diff("x")
        assert corpus[f"df{y}_dz"] == poly.diff("z")
        assert corpus[f"sum_{y}"] == derivative_sum(y)
        assert corpus[f"diag_sum_{y}"] == derivative_sum(y).diagonal()
        assert corpus[f"diag_sum_{y}"] == BiPoly.monomial(2 * y, 0, 2 * y + 1)
    assert time.perf_counter() - start < 1.0


def test_c3_symbolic_verification_to_order_25(capsys):
    """`verify --max-y 25` reports PASS on every row and exits 0, < 10 s."""
    start = time.perf_counter()
    code = main(["verify", "--max-y", "25"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 27  # header + y = 0..25
    assert all(line.endswith("PASS") for line in lines[1:])
    assert "FAIL" not in out
    assert elapsed < 10.0


def test_c4_closed_form_evaluations():
    """eval_derivative_at reproduces 3u^2, 5u^4, 7u^6 at six points each:
    18 exact equalities."""
    points = [
        Rational(-2),
        Rational(-1),
        Rational(0),
        Rational(1, 2),
        Rational(1),
        Rational(2),
    ]
    checked = 0
    for y in (1, 2, 3):
        for u in points:
            assert eval_derivative_at(y, u) == (2 * y + 1) * u ** (2 * y)
            checked += 1
    assert checked == 18


def test_c5_integer_oracle_to_order_8(capsys):
    """`oracle m --max-n 30` passes for m = 0..8, < 5 s total."""
    start = time.perf_counter()
    for m in range(9):
        code = main(["oracle", str(m), "--max-n", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == f"m={m}: PASS (n = 1..30)\n"
    assert time.perf_counter() - start < 5.0


def test_c6_coefficient_closed_form_to_order_20():
    """Top coefficient is (2m+1)*C(2m,m) and the solved row reconstructs
    x^(2m+1) with zero residual, for m = 0..20."""
    for m in range(21):
        row = solve_coeffs(m)
        assert row[m] == (2 * m + 1) * comb(2 * m, m)
        combined = BiPoly()
        for r, a in enumerate(row):
            combined = combined + scale(conv_sum(r).diagonal(), a)
        assert combined - BiPoly.monomial(2 * m + 1, 0) == BiPoly()


def test_c7_randomized_property_suites():
    """Four randomized suites of 1000 cases each (seed recorded above):
    addition axioms, linearity of the derivative, chain rule on the
    diagonal, parser round-trip.  Zero failures allowed."""
    cases = 0

    rng = Random(SEED)
    for _ in range(1000):
        p = random_bipoly(rng)
        q = random_bipoly(rng)
        r = random_bipoly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p + BiPoly() == p
        assert not (p - p)
        cases += 1

    rng = Random(SEED + 1)
    for _ in range(1000):
        p = random_bipoly(rng)
        q = random_bipoly(rng)
        c = random_rational(rng)
        for var in ("x", "z"):
            assert (p + q).diff(var) == p.diff(var) + q.diff(var)
            assert scale(p, c).diff(var) == scale(p.diff(var), c)
        cases += 1

    rng = Random(SEED + 2)
    for _ in range(1000):
        p = random_bipoly(rng)
        assert p.diagonal().diff("x") == (p.diff("x") + p.diff("z")).diagonal()
        cases += 1

    rng = Random(SEED + 3)
    for _ in range(1000):
        p = random_bipoly(rng, max_terms=8, max_degree=12, num_bound=10**6, den_bound=10**4)
        assert parse_poly(str(p)) == p
        cases += 1

    assert cases == 4000


def test_c8_finite_difference_bound():
    """Symmetric difference quotient of u^(2y+1) with h = 1/1000 stays
    within h^2 * C of the exact derivative, C the third-derivative bound;
    y = 0..5, 20 random rational points each, exact arithmetic."""
    h = Rational(1, 1000)
    violations = 0
    for y in range(6):
        rng = Random(SEED + 100 + y)
        e = 2 * y + 1
        for _ in range(20):
            u = Rational(rng.randint(-2000, 2000), 1000)  # u in [-2, 2]
            quotient = ((u + h) ** e - (u - h) ** e) / (2 * h)
            exact = eval_derivative_at(y, u)
            bound = h**2 * (e * (e - 1) * (e - 2) * max(abs(u) + h, Rational(1)) ** (e - 3))
            if abs(quotient - exact) > bound:
                violations += 1
    assert violations == 0
