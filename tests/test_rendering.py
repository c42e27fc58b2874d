"""Renderer output: canonical ordering, exact bytes, JSON schemas, and the
one-slot memo of the last polynomial's spelled digits.

The coefficient row's JSON is written by ``oddpower coeffs <m> --format json``,
so its tests run the CLI."""

import json
import sys
import threading

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
    traced_peak,
    traced_retained,
)
from oddpower.bipoly import FORMATS, BiPoly, _spell, render
from oddpower.cli import main
from oddpower.coefficients import solve_coeffs
from oddpower.engine import build_poly, clear_caches, derivative_sum
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


REFERENCES = {
    "plain": render_plain_reference,
    "latex": render_latex_reference,
    "json": render_json_reference,
}

# Two equal but distinct objects, the zero polynomial, a negative constant
# and a polynomial with fractions of both signs.
SLOT_POOL = [
    F1,
    BiPoly({(dx, dz): c for dx, dz, c in F1.terms()}),
    BiPoly(),
    BiPoly.constant(-3),
    BiPoly({(0, 1): Rational(1, 2), (1, 1): -1, (0, 2): Rational(-3, 2), (4, 0): Rational(5, 6)}),
]
slot_steps = st.lists(
    st.one_of(st.none(), st.tuples(st.integers(0, len(SLOT_POOL) - 1), st.sampled_from(FORMATS))),
    max_size=20,
)


@given(steps=slot_steps)
@example(steps=[(0, "plain"), (1, "json"), (0, "latex"), (0, "json")])
@example(steps=[(2, "json"), None, (2, "plain"), (3, "latex"), (3, "plain")])
def test_render_slot_matches_reference_under_any_call_order(steps):
    # None clears every cache.  A render of the object rendered last is a
    # hit; any other object, an equal one included, is a miss.
    clear_caches()
    last, hits, misses = None, 0, 0
    for step in steps:
        if step is None:
            clear_caches()
            last, hits, misses = None, 0, 0
            continue
        poly, fmt = SLOT_POOL[step[0]], step[1]
        assert render(poly, fmt) == REFERENCES[fmt](poly)
        if poly is last:
            hits += 1
        else:
            last, misses = poly, misses + 1
        assert _spell.cache_info() == (hits, misses, 1, int(last is not None))


def test_render_slot_is_not_fooled_by_a_reused_id():
    # Each polynomial is dropped as soon as it is rendered; the slot keeps
    # the last one alive, so the next cannot take its id.
    for n in range(-50, 50):
        assert render(BiPoly.constant(n), "plain") == str(n)


def test_render_slot_spells_once_per_polynomial():
    poly = build_poly(12)
    _spell.cache_clear()
    texts = [render(poly, fmt) for fmt in FORMATS]
    assert str(poly) == texts[0]
    assert repr(poly) == f"BiPoly({texts[0]!r})"
    assert _spell.cache_info() == (4, 1, 1, 1)
    clear_caches()
    assert _spell.cache_info() == (0, 0, 1, 0)


def test_render_slot_is_safe_across_threads():
    # Two threads render two polynomials, each in two formats, switching as
    # often as the interpreter allows; every text must be its own.
    polys = [build_poly(16), derivative_sum(13)]
    jobs = [(polys[0], ("plain", "json")), (polys[1], ("latex", "plain"))]
    expected = {(id(poly), fmt): REFERENCES[fmt](poly) for poly, fmts in jobs for fmt in fmts}
    wrong = []

    def work(poly, fmts):
        for i in range(150):
            fmt = fmts[i % 2]
            if render(poly, fmt) != expected[id(poly), fmt]:
                wrong.append(fmt)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=job) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_render_slot_holds_the_digits_of_one_polynomial():
    # The slot keeps one polynomial's digits: f_64's magnitude strings are
    # 0.55 MiB, and the codes and the slot add about 0.06 MiB.  Rendering
    # f_40 before f_64 must leave no more held than a constant first does,
    # and, since a miss drops f_40's digits before it spells f_64, the
    # spelling may peak no higher.  Each comparison allows 4 KiB for the
    # interpreter's free lists, which moved identical runs by up to 236
    # bytes; f_40's digits are about 0.2 MiB.  The first measurement only
    # warms the interpreter up.
    f40, f64 = build_poly(40), build_poly(64)

    def measured(traced, step, first):
        _spell.cache_clear()

        def compute():
            step(first)
            step(f64)

        return traced(compute)[1]

    def render_json(poly):
        render(poly, "json")

    measured(traced_retained, render_json, BiPoly.constant(1))
    held = measured(traced_retained, render_json, BiPoly.constant(1))
    assert held <= 0.7 * 2**20
    assert measured(traced_retained, render_json, f40) <= held + 2**12
    peak = measured(traced_peak, _spell, BiPoly.constant(1))
    assert measured(traced_peak, _spell, f40) <= peak + 2**12
    clear_caches()
    assert _spell.cache_info().currsize == 0
