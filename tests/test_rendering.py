"""Renderer output: canonical ordering, exact bytes, JSON schemas.

The coefficient row's JSON is written by ``oddpower coeffs <m> --format json``,
so its tests run the CLI."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    F1,
    SUM1,
    coeff_vector_json_reference,
    render_json_reference,
    render_latex_reference,
    render_plain_reference,
)
from oddpower.bipoly import FORMATS, BiPoly, render
from oddpower.cli import main
from oddpower.coefficients import solve_coeffs
from oddpower.engine import build_poly, derivative_sum
from oddpower.rationals import Rational


def coeff_vector_json(capsys, m: int) -> str:
    """The line ``oddpower coeffs <m> --format json`` prints, without its newline."""
    assert main(["coeffs", str(m), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\n")
    return out[:-1]


def test_plain_reference_bytes():
    assert render(F1, "plain") == "3 x z - 3 z^2 + 3 x z^2 - 2 z^3"
    assert render(SUM1, "plain") == "3 x - 3 z + 6 x z - 3 z^2"


def test_plain_is_str():
    assert render(F1, "plain") == str(F1)


def test_plain_edge_cases():
    assert render(BiPoly(), "plain") == "0"
    assert render(BiPoly.constant(Rational(-3, 4)), "plain") == "-3/4"
    assert render(BiPoly.monomial(1, 0, -1), "plain") == "-x"
    assert render(BiPoly.monomial(1, 1), "plain") == "x z"


def test_latex_reference_bytes():
    assert render(F1, "latex") == "3 x z - 3 z^{2} + 3 x z^{2} - 2 z^{3}"


def test_latex_fractions_and_signs():
    assert render(BiPoly.monomial(0, 2, Rational(1, 2)), "latex") == r"\frac{1}{2} z^{2}"
    assert render(BiPoly.constant(Rational(-3, 4)), "latex") == r"-\frac{3}{4}"
    assert render(BiPoly({(1, 0): -1, (0, 1): 1}), "latex") == "-x + z"
    assert render(BiPoly.monomial(1, 1), "latex") == "x z"
    assert render(BiPoly.constant(1), "latex") == "1"
    assert render(BiPoly(), "latex") == "0"


def test_json_reference_bytes():
    assert render(F1, "json") == (
        '{"terms":[{"dx":1,"dz":1,"c":"3/1"},{"dx":0,"dz":2,"c":"-3/1"},'
        '{"dx":1,"dz":2,"c":"3/1"},{"dx":0,"dz":3,"c":"-2/1"}]}'
    )


def test_json_zero_and_fractions():
    assert render(BiPoly(), "json") == '{"terms":[]}'
    assert render(BiPoly.monomial(1, 0, Rational(-1, 2)), "json") == '{"terms":[{"dx":1,"dz":0,"c":"-1/2"}]}'


def test_json_has_no_whitespace(capsys):
    assert " " not in render(F1, "json")
    assert " " not in coeff_vector_json(capsys, 3)


def test_poly_terms_order_is_canonical():
    terms = json.loads(render(SUM1, "json"))["terms"]
    assert [(t["dx"], t["dz"]) for t in terms] == [
        (1, 0),
        (0, 1),
        (1, 1),
        (0, 2),
    ]


def test_coeff_vector_json_bytes(capsys):
    assert coeff_vector_json(capsys, 3) == '{"m":3,"A":["1/1","-14/1","0/1","140/1"]}'
    assert coeff_vector_json(capsys, 0) == '{"m":0,"A":["1/1"]}'
    wide = json.loads(coeff_vector_json(capsys, 64))
    assert wide["m"] == 64
    assert wide["A"] == [f"{a.numerator}/{a.denominator}" for a in solve_coeffs(64)]


@pytest.mark.parametrize("m", range(65))
def test_coeff_vector_json_matches_reference(capsys, m):
    # Zero entries appear from m = 2, negative ones from 3, fractions from 11.
    assert coeff_vector_json(capsys, m) == coeff_vector_json_reference(solve_coeffs(m))


def test_unknown_format_rejected():
    with pytest.raises(ValueError) as excinfo:
        render(F1, "html")
    assert str(excinfo.value) == "unknown format 'html', expected one of ('plain', 'latex', 'json')"


def test_formats_tuple():
    assert FORMATS == ("plain", "latex", "json")


def test_term_order_independent_of_construction_order():
    forward = BiPoly({(1, 1): 3, (0, 2): -3, (1, 2): 3, (0, 3): -2})
    backward = BiPoly({(0, 3): -2, (1, 2): 3, (0, 2): -3, (1, 1): 3})
    for fmt in FORMATS:
        assert render(forward, fmt) == render(backward, fmt)


coefficients = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**3)
exponent_pairs = st.tuples(st.integers(0, 9), st.integers(0, 9))
bipolys = st.dictionaries(exponent_pairs, coefficients, max_size=7).map(BiPoly)


@given(poly=bipolys)
def test_json_round_trip(poly):
    decoded = json.loads(render(poly, "json"))
    rebuilt = BiPoly(
        {(t["dx"], t["dz"]): Rational(t["c"]) for t in decoded["terms"]}
    )
    assert rebuilt == poly


@given(poly=bipolys)
def test_rendering_is_deterministic(poly):
    for fmt in FORMATS:
        assert render(poly, fmt) == render(poly, fmt)


# Unit magnitudes, integers and fractions of either sign, so every branch of
# the term formatter (omitted 1, bare integer, fraction, leading minus) runs;
# small numerators over small denominators supply ±1 and ±1/d often.
mixed_coefficients = st.one_of(
    st.sampled_from([1, -1, Rational(1), Rational(-1)]),
    st.builds(Rational, st.integers(-4, 4), st.integers(1, 6)),
    st.integers(-10**4, 10**4),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)
mixed_bipolys = st.lists(
    st.tuples(st.tuples(st.integers(0, 12), st.integers(0, 12)), mixed_coefficients), max_size=8
).map(BiPoly)


@given(poly=mixed_bipolys)
@example(poly=BiPoly())
@example(poly=BiPoly.constant(1))
@example(poly=BiPoly.constant(-1))
# x's numerator 2 over the shared 2 reduces to a unit coefficient: "x + 1/2 z".
@example(poly=BiPoly({(1, 0): 1, (0, 1): Rational(1, 2)}))
@example(poly=BiPoly({(0, 1): Rational(1, 2), (1, 1): -1, (0, 2): Rational(-3, 2)}))
# A negative first term, as a fraction, an integer and a bare monomial.
@example(poly=BiPoly({(0, 0): Rational(-3, 4), (1, 0): 2}))
@example(poly=BiPoly({(0, 1): -5, (2, 0): 1}))
@example(poly=BiPoly({(1, 0): -1, (0, 1): 1}))
# z-terms only: the table of powers of x holds "" and " x" alone.
@example(poly=BiPoly({(0, 1): 3, (0, 2): Rational(-1, 2), (0, 5): 1}))
@example(poly=BiPoly({(9, 0): 1, (10, 1): -2, (0, 11): Rational(5, 3), (11, 10): 1}))
def test_renders_match_reference_formatters(poly):
    assert render(poly, "plain") == render_plain_reference(poly)
    assert render(poly, "latex") == render_latex_reference(poly)
    assert render(poly, "json") == render_json_reference(poly)


@pytest.mark.parametrize("y", range(41))
def test_family_renders_match_reference_formatters(y):
    # Exponents up to 81, the last entries of the formatter's tables of powers.
    for poly in (build_poly(y), derivative_sum(y)):
        assert render(poly, "plain") == render_plain_reference(poly)
        assert render(poly, "latex") == render_latex_reference(poly)
        assert render(poly, "json") == render_json_reference(poly)
