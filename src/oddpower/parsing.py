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

Text in the shape the plain renderer writes is read one term per regex step:
:data:`_TERM_RE` matches an optional sign, an optional coefficient ``a`` or
``a/b``, then ``x`` with an optional ``^i``, then ``z`` with an optional
``^j``.  Whitespace may come before and after each of these four pieces but
not inside ``a/b`` or ``x^i``, a denominator or exponent has no leading zero,
and the term must end at ``+``, ``-`` or the end of the text.  That is a
strict subset of the grammar above.  The first step that is not such a term,
or whose values are out of range (an empty term, a degree above the bound,
an integer literal ``int()`` refuses), hands the whole text to
:func:`_parse_factors`, the factor-by-factor loop over the full grammar; it
is the only place that raises, so every error has the same message and
position whichever path saw it first.  A completed scan matched only
whitespace, ASCII digits, signs, ``/``, ``^``, ``x`` and ``z``, so it needs
no separate check for characters that start no token.

The scan calls ``match`` at the offset where the previous term ended and
stops at the first failure.  A ``search``/``finditer`` scan would instead
retry at every later position after a failure and go quadratic on input such
as a long run of digits followed by a letter.  The pattern consumes
whitespace only at its start and after a piece it has matched, so a failed
step gives back at most one run of characters and each step is linear too.
"""

from __future__ import annotations

import re

from .bipoly import BiPoly, _from_fractions

__all__ = ["parse_poly", "PolyParseError", "UnknownVariableError", "MAX_DEGREE"]

MAX_DEGREE = 10_000


class PolyParseError(ValueError):
    """Syntax error in a polynomial expression, with its input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class UnknownVariableError(PolyParseError):
    """An identifier that is neither x nor z."""


# A character that starts no token, reported before any syntax error.
_JUNK_RE = re.compile(r"[^\s\dA-Za-z_*/^+-]")

# One factor, operator or the end after optional whitespace; errors report
# the start of group 1.  The whitespace after ``/`` and ``^`` is consumed, so a
# missing operand is reported at ``match.end()``, the next token or the end.
# ``\Z`` is the end of the text; ``$`` would also match before a final newline.
_FACTOR_RE = re.compile(
    r"\s*((\d+)(?:\s*(/)\s*(\d+)?)?"
    r"|([A-Za-z_][A-Za-z0-9_]*)(?:\s*(\^)\s*(\d+)?)?"
    r"|([-+*/^])|\Z)"
)

# One term of the plain renderer's shape, or no match; see the module docstring.
# ``x`` and ``z`` must not run into a longer name such as ``xz`` or ``x2``.
_TERM_RE = re.compile(
    r"\s*(?:([-+])\s*)?"
    r"(?:([0-9]+)(?:/([1-9][0-9]*))?\s*)?"
    r"(?:(x)(?![A-Za-z0-9_])(?:\^([1-9][0-9]*))?\s*)?"
    r"(?:(z)(?![A-Za-z0-9_])(?:\^([1-9][0-9]*))?\s*)?"
    r"(?=[-+]|\Z)"
)


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
    terms: list[tuple[tuple[int, int], int, int]] = []  # (degrees, numerator, denominator)
    offset, end = 0, len(text)
    match_term = _TERM_RE.match
    try:
        while match := match_term(text, offset):
            sign, num, den, x, deg_x, z, deg_z = match.groups()
            if not (num or x or z):  # an empty term
                break
            deg_x = (int(deg_x) if deg_x else 1) if x else 0
            deg_z = (int(deg_z) if deg_z else 1) if z else 0
            if deg_x > MAX_DEGREE or deg_z > MAX_DEGREE:
                break
            num = int(num) if num else 1
            terms.append(((deg_x, deg_z), -num if sign == "-" else num, int(den) if den else 1))
            offset = match.end()
            if offset == end:
                return _from_fractions(terms)
    except ValueError:  # more digits than int() reads
        pass
    return _parse_factors(text)


def _parse_factors(text: str) -> BiPoly:
    """:func:`parse_poly` over the full grammar, one factor per step."""
    junk = _JUNK_RE.search(text)
    if junk:
        raise PolyParseError(f"unexpected character {junk.group()!r}", junk.start())
    terms: list[tuple[tuple[int, int], int, int]] = []  # (degrees, numerator, denominator)
    # The current term: its signed coefficient num/den, and its degrees.
    num, den, deg_x, deg_z = 1, 1, 0, 0
    need = "term"  # what must come next: "term", "factor" (after '*') or None
    offset = 0
    while True:
        match = _FACTOR_RE.match(text, offset)
        pos, offset = match.start(1), match.end()
        _, literal, slash, denominator, name, caret, exponent, op = match.groups()
        if literal:
            num *= _int(literal, pos)
            if slash:
                if denominator is None:
                    raise PolyParseError("expected a denominator after '/'", offset)
                value = _int(denominator, match.start(4))
                if value == 0:
                    raise PolyParseError("zero denominator", match.start(4))
                den *= value
            need = None
        elif name:
            if name not in ("x", "z"):
                raise UnknownVariableError(f"unknown variable {name!r}", pos)
            power = 1
            if caret:
                if exponent is None:
                    raise PolyParseError("expected an exponent after '^'", offset)
                power = _int(exponent, match.start(7))
                if power == 0:
                    raise PolyParseError("exponent must be a positive integer", match.start(7))
            if name == "x":
                deg_x += power
            else:
                deg_z += power
            if max(deg_x, deg_z) > MAX_DEGREE:
                raise PolyParseError(f"degree in {name} exceeds {MAX_DEGREE}", pos)
            need = None
        elif op in ("+", "-") and match.start() == 0:  # the sign of the first term
            num = -1 if op == "-" else 1
        elif need == "factor":
            raise PolyParseError("expected a factor after '*'", pos)
        elif need:
            raise PolyParseError(f"expected a term, found {op!r}" if op else "expected a term", pos)
        elif op == "*":
            need = "factor"
        else:  # '+', '-', another operator or the end closes the term
            terms.append(((deg_x, deg_z), num, den))
            if op is None:
                return _from_fractions(terms)
            if op not in ("+", "-"):
                raise PolyParseError(f"expected '+' or '-', found {op!r}", pos)
            num, den, deg_x, deg_z = (-1 if op == "-" else 1), 1, 0, 0
            need = "term"
