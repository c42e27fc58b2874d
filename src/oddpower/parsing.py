"""Parser for the plain polynomial syntax.

Accepted input is a sequence of signed terms separated by ``+`` and ``-``.
Each term multiplies together factors, which are either rational literals
(an integer, or ``a/b``) or the variables ``x`` and ``z``, optionally raised
with ``^`` to a positive integer exponent.  Factors are joined by ``*`` or
plain whitespace, and whitespace is otherwise insignificant::

    3 x z - 3 z^2 + 3 x z^2 - 2 z^3
    1/2 z^2 + 1/2 z
    -7*x*z + 14 x^2 z

Malformed input raises :class:`PolyParseError` carrying the zero-based
offset of the offending token; an identifier other than x or z raises the
more specific :class:`UnknownVariableError`.

A term whose degree in x or in z exceeds :data:`MAX_DEGREE` is refused at
the variable that crosses the bound, so no input can ask for unbounded
big-integer work when the result is evaluated or multiplied.  The bound keeps
every family member ``f_y`` with ``y <= 4999`` (degree ``2y + 1``) parseable.
"""

from __future__ import annotations

import re

from .bipoly import BiPoly
from .rationals import Rational

__all__ = ["parse_poly", "PolyParseError", "UnknownVariableError", "MAX_DEGREE"]

MAX_DEGREE = 10_000


class PolyParseError(ValueError):
    """Syntax error in a polynomial expression, with its input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class UnknownVariableError(PolyParseError):
    """An identifier that is neither x nor z."""


_TOKEN_RE = re.compile(
    r"(?P<number>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<symbol>[-+*/^])|(?P<junk>\S)"
)

_END = ("end", "", -1)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "junk":
            raise PolyParseError(f"unexpected character {match.group()!r}", match.start())
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.current[2])

    def parse(self) -> BiPoly:
        terms: list[tuple[tuple[int, int], Rational]] = []
        sign = self.parse_sign(optional=True)
        while True:
            terms.append(self.parse_term(sign))
            if self.current[0] == "end":
                break
            sign = self.parse_sign(optional=False)
        return BiPoly(terms)

    def parse_sign(self, optional: bool) -> int:
        kind, text, _ = self.current
        if kind == "symbol" and text in "+-":
            self.advance()
            return -1 if text == "-" else 1
        if optional:
            return 1
        raise self.fail(f"expected '+' or '-', found {text!r}")

    def parse_term(self, sign: int) -> tuple[tuple[int, int], Rational]:
        coeff = Rational(sign)
        deg_x = deg_z = 0
        first = True
        while True:
            kind, text, pos = self.current
            if kind == "number":
                coeff *= self.parse_rational()
            elif kind == "name":
                if text not in ("x", "z"):
                    raise UnknownVariableError(f"unknown variable {text!r}", pos)
                self.advance()
                exponent = self.parse_exponent()
                if text == "x":
                    deg_x += exponent
                else:
                    deg_z += exponent
                if max(deg_x, deg_z) > MAX_DEGREE:
                    raise PolyParseError(f"degree in {text} exceeds {MAX_DEGREE}", pos)
            elif first:
                raise self.fail("expected a term" if kind == "end" else f"expected a term, found {text!r}")
            else:
                break
            first = False
            if self.current[0] == "symbol" and self.current[1] == "*":
                self.advance()
                if self.current[0] not in ("number", "name"):
                    raise self.fail("expected a factor after '*'")
        return (deg_x, deg_z), coeff

    def parse_rational(self) -> Rational:
        _, text, pos = self.advance()
        value = Rational(_int(text, pos))
        if self.current[0] == "symbol" and self.current[1] == "/":
            self.advance()
            kind, den_text, den_pos = self.current
            if kind != "number":
                raise self.fail("expected a denominator after '/'")
            den = _int(den_text, den_pos)
            if den == 0:
                raise PolyParseError("zero denominator", den_pos)
            self.advance()
            value /= den
        return value

    def parse_exponent(self) -> int:
        if not (self.current[0] == "symbol" and self.current[1] == "^"):
            return 1
        self.advance()
        kind, text, pos = self.current
        if kind != "number":
            raise self.fail("expected an exponent after '^'")
        exponent = _int(text, pos)
        if exponent == 0:
            raise PolyParseError("exponent must be a positive integer", pos)
        self.advance()
        return exponent


def _int(text: str, position: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        message = f"integer literal of {len(text)} digits is too long"
        raise PolyParseError(message, position) from None


def parse_poly(text: str) -> BiPoly:
    """Parse ``text`` into the exact polynomial it denotes.

    Like terms are combined and the result is in canonical sparse form, so
    parsing is a left inverse of plain rendering.
    """
    return _Parser(text).parse()
