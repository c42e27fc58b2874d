"""Plain-syntax polynomial parser: accepted forms, refusals at a position,
round-trips, memory bounds, a one-way differential test against the wider
grammar of ``parse_poly_reference`` and an exact one against the loop of
``parse_poly_loop_reference``."""

import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import F1, parse_poly_loop_reference, parse_poly_reference, traced_peak
from oddpower.bipoly import BiPoly
from oddpower.engine import build_poly
from oddpower.parsing import MAX_DEGREE, PolyParseError, UnknownVariableError, parse_poly
from oddpower.rationals import Rational


def test_reference_polynomial():
    assert parse_poly("3 x z - 3 z^2 + 3 x z^2 - 2 z^3") == F1


def test_fractional_coefficients():
    half = Rational(1, 2)
    assert parse_poly("1/2 z^2 + 1/2 z") == BiPoly({(0, 2): half, (0, 1): half})
    assert parse_poly("-3/4") == BiPoly.constant(Rational(-3, 4))


def _refusal(text):
    with pytest.raises(PolyParseError) as excinfo:
        parse_poly(text)
    return type(excinfo.value), excinfo.value.position


def test_explicit_multiplication_signs():
    assert _refusal("-7*x*z + 14 x^2 z") == (PolyParseError, 2)


def test_star_and_whitespace_are_interchangeable():
    # Whitespace may be left out between pieces; '*' is not a separator.
    assert parse_poly("3x z-3z^2") == BiPoly({(1, 1): 3, (0, 2): -3})
    assert _refusal("3 * x * z - 3 * z ^ 2") == (PolyParseError, 2)


def test_juxtaposed_coefficient():
    assert parse_poly("2x") == BiPoly.monomial(1, 0, 2)


def test_like_terms_combine():
    assert parse_poly("x + x") == BiPoly.monomial(1, 0, 2)
    assert parse_poly("x - x") == BiPoly()
    assert parse_poly("1/3 z + 1/6 z") == BiPoly.monomial(0, 1, Rational(1, 2))


def test_repeated_variables_multiply():
    # A term names each variable at most once, x before z.
    assert _refusal("x x z^2 x") == (PolyParseError, 2)
    assert _refusal("x^2 * x^3") == (PolyParseError, 4)


def test_unit_exponent_allowed():
    assert parse_poly("x^1 z^1") == BiPoly.monomial(1, 1)


def test_leading_sign():
    assert parse_poly("-x") == BiPoly.monomial(1, 0, -1)
    assert parse_poly("+x") == BiPoly.monomial(1, 0)
    assert parse_poly("x\n") == BiPoly.monomial(1, 0)


def test_constants():
    assert parse_poly("5") == 5
    assert parse_poly("0") == BiPoly()
    assert parse_poly("3/6") == Rational(1, 2)


def test_unnormalised_fraction_reduces():
    poly = parse_poly("10/4 x")
    ((dx, dz, coeff),) = tuple(poly.terms())
    assert (dx, dz) == (1, 0)
    assert coeff.numerator == 5 and coeff.denominator == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "x +",
        "+ + x",
        "x^0",
        "x^-2",
        "x^",
        "1/0",
        "1 / x",
        "* x",
        "3 *",
        "3 * * x",
        "1/2/3",
        "x!",
        "x^{2}",
        "3 $ x",
    ],
)
def test_malformed_input_rejected(text):
    with pytest.raises(PolyParseError):
        parse_poly(text)


def test_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse_poly("q")
    with pytest.raises(UnknownVariableError):
        parse_poly("3 x y")


def test_error_carries_position():
    with pytest.raises(UnknownVariableError) as excinfo:
        parse_poly("3 + 2q")
    assert excinfo.value.position == 5
    assert "(column 6)" in str(excinfo.value)

    with pytest.raises(PolyParseError) as excinfo:
        parse_poly("x ^ z")
    assert excinfo.value.position == 2


_INT_DIGIT_LIMIT = sys.get_int_max_str_digits()  # 0: no limit


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="int() has no digit limit here")
def test_overlong_integer_literal_is_a_parse_error():
    digits = "1" * (_INT_DIGIT_LIMIT + 1)
    for text, position in ((digits, 0), (f"x + 3/{digits}", 6), (f"z^{digits}", 2)):
        with pytest.raises(PolyParseError) as excinfo:
            parse_poly(text)
        assert excinfo.value.position == position


def test_degree_bound():
    assert parse_poly(f"x^{MAX_DEGREE}") == BiPoly.monomial(MAX_DEGREE, 0)
    assert parse_poly("x^10000 z^10000") == BiPoly.monomial(10000, 10000)
    for text, position in (
        ("x^10001", 0),
        ("x^6000 x^6000", 7),
        ("x^9000 x^9000 x^9000", 7),
        ("x^99999999999 z^3", 0),
        ("1 + z x z^10000", 6),
    ):
        with pytest.raises(PolyParseError) as excinfo:
            parse_poly(text)
        assert excinfo.value.position == position


@pytest.mark.parametrize(
    "text,error_class,position",
    [
        ("-7*x*z + 14 x^2 z", PolyParseError, 2),
        ("3 * x * z - 3 * z ^ 2", PolyParseError, 2),
        ("x x z^2 x", PolyParseError, 2),
        ("x^2 * x^3", PolyParseError, 4),
        ("x ^ z", PolyParseError, 2),
        ("1 + z x z^10000", PolyParseError, 6),
        ("2*x", PolyParseError, 1),
        ("z x", PolyParseError, 2),
        ("1 / 2 x", PolyParseError, 2),
        ("1/0", PolyParseError, 2),
        ("x^0", PolyParseError, 2),
        ("x +", PolyParseError, 3),
        ("+ + x", PolyParseError, 2),
        ("xz", UnknownVariableError, 0),
        ("x2", UnknownVariableError, 0),
        ("\u0663 x", PolyParseError, 0),
    ],
)
def test_refusal_class_and_position(text, error_class, position):
    assert _refusal(text) == (error_class, position)


def test_error_hierarchy():
    assert issubclass(UnknownVariableError, PolyParseError)
    assert issubclass(PolyParseError, ValueError)


coefficients = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
exponent_pairs = st.tuples(st.integers(0, 12), st.integers(0, 12))
bipolys = st.dictionaries(exponent_pairs, coefficients, max_size=8).map(BiPoly)


@given(poly=bipolys)
def test_round_trip_through_plain_rendering(poly):
    assert parse_poly(str(poly)) == poly


# Pieces of input for the differential test: names and literals, every
# operator, ASCII and Unicode whitespace, a Unicode digit, characters that
# start no token, a degree near the bound and an integer literal past int()'s
# digit limit.
_PIECES = [
    *("x", "z", "y", "_a", "x2", "0", "2", "10", "00"),
    *("/", "^", "*", "+", "-"),
    *(" ", "\t", "\n", "\x1c", "\xa0", "\u2003"),
    *("\u0663", "\u00e9", "$"),
    *("x^6000", "1" * (max(_INT_DIGIT_LIMIT, 4300) + 1)),
]


def _outcome(parse, text):
    try:
        return parse(text)
    except PolyParseError as exc:
        return type(exc), str(exc), exc.position


def _matches_loop_reference(text):
    """``parse_poly`` and the loop it replaced give the same polynomial, or
    the same error class, message and position."""
    assert _outcome(parse_poly, text) == _outcome(parse_poly_loop_reference, text)


def _agrees_with_reference(text):
    """``parse_poly`` reads a subset of the reference's grammar: a text it
    accepts the reference reads as the same polynomial, and a text the
    reference refuses it refuses too.  It matches the loop reference exactly."""
    _matches_loop_reference(text)
    try:
        expected = parse_poly_reference(text)
    except PolyParseError:
        with pytest.raises(PolyParseError):
            parse_poly(text)
        return
    try:
        actual = parse_poly(text)
    except PolyParseError:
        return
    assert actual == expected


@settings(max_examples=500)
@given(text=st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
# Errors that random strings of the pieces above seldom reach.
@example("x ^ 00 z")
@example("2 / 0 x")
@example("1/2 x^ \n")
@example("z^6000 x z^6000")
@example("x - 3 *\t+ z")
def test_matches_reference_parser(text):
    _agrees_with_reference(text)


# Values for the pieces of near-canonical terms: zero (a zero denominator or
# exponent), one, the degree bound and its neighbours, and a literal past
# int()'s digit limit.
_VALUES = [
    *("0", "1", "2", "10"),
    *map(str, (MAX_DEGREE - 1, MAX_DEGREE, MAX_DEGREE + 1)),
    "1" * (max(_INT_DIGIT_LIMIT, 4300) + 1),
]


@st.composite
def _near_canonical(draw):
    """Terms in the plain renderer's shape, with any piece left out and 0-2
    spaces, tabs or '*' after each piece."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        pieces.append(draw(st.sampled_from(["+", "-", ""])))
        if draw(st.booleans()):
            pieces.append(draw(st.sampled_from(_VALUES)))
            if draw(st.booleans()):
                pieces += ["/", draw(st.sampled_from(_VALUES))]
        for name in ("x", "z"):
            if draw(st.booleans()):
                pieces.append(name)
                if draw(st.booleans()):
                    pieces += ["^", draw(st.sampled_from(_VALUES))]
    return "".join(piece + draw(st.text(" \t*", max_size=2)) for piece in pieces)


@settings(max_examples=500)
@given(text=_near_canonical())
# Spellings at the edge of the parser's language and of the values it reads.
@example("xz")
@example("2x^3z")
@example("x^2z")
@example("x z x")
@example("1 / 2 x")
@example("+ + x")
@example("x2")
@example("1/0 x")
@example("x^0")
@example("z^10001")
@example("3 x - ")
def test_near_canonical_terms_match_reference_parser(text):
    _agrees_with_reference(text)


_SPACES = st.text(" \t\n\u2003", max_size=2)


@st.composite
def _rendered_shape(draw):
    """Text in the plain renderer's shape: terms of a sign (optional on the
    first), ``a`` or ``a/b``, ``x^i`` and ``z^j``, each piece optional but
    not all, whitespace only between pieces and every value in range."""
    text = draw(_SPACES)
    for index in range(draw(st.integers(1, 4))):
        text += draw(st.sampled_from(["+", "-"] if index else ["+", "-", ""])) + draw(_SPACES)
        has_coeff, has_x, has_z = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any))
        if has_coeff:
            text += str(draw(st.integers(0, 10**30)))
            if draw(st.booleans()):
                text += f"/{draw(st.integers(1, 10**6))}"
            text += draw(_SPACES)
        for name, present in (("x", has_x), ("z", has_z)):
            if present:
                exponent = draw(st.none() | st.integers(1, MAX_DEGREE))
                if name == "z" and text.endswith("x"):
                    text += " "  # "xz" would be one name
                text += (name if exponent is None else f"{name}^{exponent}") + draw(_SPACES)
    return text


@settings(max_examples=300)
@given(text=_rendered_shape())
@example("1")
@example("x")
@example("-z")
@example("0/7 x^1 z^10000")
@example("x z")
@example(" 2x^3z\n")
def test_rendered_shape_is_accepted(text):
    assert parse_poly(text) == parse_poly_reference(text)
    _matches_loop_reference(text)


def test_family_renders_match_loop_reference():
    for y in range(65):
        _matches_loop_reference(str(build_poly(y)))


def test_parse_memory_is_bounded():
    # Matching one term at a time keeps the peak near the size of the
    # result; holding every match of the text at once would not.
    for text, bound_mib in ((str(build_poly(64)), 2), ("x + " * 250_000 + "x", 32)):
        _, peak = traced_peak(lambda: parse_poly(text))
        assert peak < bound_mib * 2**20, (len(text), peak)


# About 1 MB each, each refused in its last term or its first.  A linear
# parse takes about a second or less; a scan that restarted at every position
# would take hours.
@pytest.mark.parametrize(
    "text,expected",
    [
        ("1" * 10**6 + "y", (PolyParseError, 0)),
        ("x + " * 250_000 + "y", (UnknownVariableError, 10**6)),
        ("x^1 z " * 170_000, (PolyParseError, 6)),
        (" " * 10**6 + "y", (UnknownVariableError, 10**6)),
    ],
    ids=["digits", "terms", "factors", "spaces"],
)
def test_long_input_parses_in_linear_time(text, expected):
    if text[0] == "1" and not _INT_DIGIT_LIMIT:
        pytest.skip("int() has no digit limit here, so the literal is read")
    start = time.perf_counter()
    error_class, _, position = _outcome(parse_poly, text)
    assert time.perf_counter() - start < 10
    assert (error_class, position) == expected
    _matches_loop_reference(text)
