"""Parser for the language the plain renderer writes.

A text is a sequence of terms, each after the first starting with ``+`` or
``-``.  A term is an optional sign, then at least one of: a coefficient ``a``
or ``a/b``, ``x`` or ``x^i``, ``z`` or ``z^j``, in that order::

    3 x z - 3 z^2 + 3 x z^2 - 2 z^3
    -1/2 + 2x^3z

Numbers are runs of the ASCII digits 0-9; no denominator or exponent is
zero.  Whitespace may separate pieces but not split ``a/b`` or ``x^i``.  A
degree above :data:`MAX_DEGREE` is refused at its variable, so no input asks
for unbounded big-integer work; every ``f_y`` with ``y <= 4999`` parses.

:func:`parse_poly` reads one term per ``_TERM_RE.match`` at the offset where
the last term ended; a ``search`` would retry at every later position after a
failure and go quadratic, and a ``findall`` would hold every match of the text
at once.  Digit and whitespace runs are possessive, since giving back part of
one never lets a term match.  ``x`` or ``x^i`` is captured as one spelling,
and so is ``z`` or ``z^j``; each distinct spelling is turned into a degree,
and checked against :data:`MAX_DEGREE`, once per call, in a table keyed by
the spelling.  At the first term it cannot read, :func:`_refuse`
reads that term again with any digits allowed and raises at the first place
the text leaves the language: :class:`UnknownVariableError` at a name other
than x or z, else :class:`PolyParseError`, both with the zero-based offset.
"""

from __future__ import annotations

import re
from typing import NoReturn

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


# One term, or no match; see the module docstring.  Groups: the sign, the
# literal, the denominator, and the spellings of x and of z with their
# exponents.  ``x`` and ``z`` must not run into a longer name such as ``xz``
# or ``x2``.  Whitespace is consumed only at the start and after a matched
# piece, so a failed step gives back at most one run of characters and stays
# linear.  ``\Z`` is the end of the text; ``$`` would also match before a
# final newline.
_TERM_RE = re.compile(
    r"\s*+(?:([-+])\s*+)?(?=[0-9xz])"
    r"(?:([0-9]++)(?:/(0*+[1-9][0-9]*+))?\s*+)?"
    r"(?:(x(?![A-Za-z0-9_])(?:\^0*+[1-9][0-9]*+)?)\s*+)?"
    r"(?:(z(?![A-Za-z0-9_])(?:\^0*+[1-9][0-9]*+)?)\s*+)?"
    r"(?=[-+]|\Z)"
)

# _TERM_RE with any digits and no end required, so it always matches.  Groups:
# the pieces read, the literal, the denominator, the x and z exponents, and
# the name at which the term stops, if one does.
_LAX_TERM_RE = re.compile(
    r"\s*(?:[-+]\s*)?("
    r"(?:([0-9]+)(?:/([0-9]+))?\s*)?"
    r"(?:x(?![A-Za-z0-9_])(?:\^([0-9]+))?\s*)?"
    r"(?:z(?![A-Za-z0-9_])(?:\^([0-9]+))?\s*)?)"
    r"([A-Za-z_][A-Za-z0-9_]*)?"
)


def parse_poly(text: str) -> BiPoly:
    """Parse ``text`` into the exact polynomial it denotes.

    Like terms are combined and the result is in canonical sparse form, so
    parsing is a left inverse of plain rendering.
    """
    terms: list[tuple[int, int, int, int]] = []  # (deg_x, deg_z, numerator, denominator)
    degrees = {None: 0, "x": 1, "z": 1}  # spelling of a variable -> its degree
    offset, end = 0, len(text)
    match_term, add_term = _TERM_RE.match, terms.append
    try:
        while match := match_term(text, offset):
            sign, num, den, x, z = match.groups()
            try:
                deg_x, deg_z = degrees[x], degrees[z]
            except KeyError:  # a spelling with an exponent, met for the first time
                for spelling in (x, z):
                    if spelling not in degrees:
                        degrees[spelling] = int(spelling[2:])
                deg_x, deg_z = degrees[x], degrees[z]
                if deg_x > MAX_DEGREE or deg_z > MAX_DEGREE:
                    break
            num = int(num) if num else 1
            add_term((deg_x, deg_z, -num if sign == "-" else num, int(den) if den else 1))
            offset = match.end()
            if offset == end:
                return _from_fractions(terms)
    except ValueError:  # more digits than int() reads
        pass
    _refuse(text, offset)


def _refuse(text: str, offset: int) -> NoReturn:
    """Raise the error of the term at ``offset``, which :func:`parse_poly` could not read."""
    match = _LAX_TERM_RE.match(text, offset)
    for group in range(2, 6):
        digits, position = match.group(group), match.start(group)
        if digits is None:
            continue
        try:
            value = int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            message = f"integer literal of {len(digits)} digits is too long"
            raise PolyParseError(message, position) from None
        if group > 2 and value == 0:
            message = "zero denominator" if group == 3 else "exponent must be a positive integer"
            raise PolyParseError(message, position)
        if group > 3 and value > MAX_DEGREE:
            raise PolyParseError(f"degree in {'xz'[group - 4]} exceeds {MAX_DEGREE}", position - 2)
    name, position = match.group(6), match.end(1)
    if name not in (None, "x", "z"):
        raise UnknownVariableError(f"unknown variable {name!r}", position)
    expected = "'+' or '-'" if match.group(1) else "a term"
    found = f", found {text[position]!r}" if position < len(text) else ""
    raise PolyParseError(f"expected {expected}{found}", position)
