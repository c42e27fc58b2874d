"""Deterministic renderers: plain text, LaTeX, and JSON.

All three formats come from one walk of the polynomial's terms,
``bipoly._format_terms``, which reduces each coefficient once and spells the
term in the format asked for.  They emit terms in the canonical order
(ascending total degree, ties broken by ascending z-degree), so output is
byte-identical across runs for equal polynomials.  JSON is emitted without
whitespace.

Schemas:
    polynomial   {"terms":[{"dx":i,"dz":j,"c":"<num>/<den>"}, ...]}
    coefficients {"m":<int>,"A":["<num>/<den>", ...]}         (index r = 0..m)

JSON is written directly with f-strings, not with the ``json`` module: the
keys are fixed and every value is an ``int`` or a ``"<num>/<den>"`` string
of digits, a slash and at most a leading minus, so nothing needs escaping.
"""

from __future__ import annotations

from .bipoly import BiPoly, _format_terms
from .rationals import Rational

__all__ = ["FORMATS", "render", "coeff_vector_json"]

FORMATS: tuple[str, ...] = ("plain", "latex", "json")


def render(poly: BiPoly, fmt: str) -> str:
    """Render ``poly`` as ``"plain"`` text (its ``str``, e.g.
    ``3 x z - 3 z^2 + 3 x z^2 - 2 z^3``), ``"latex"`` source with braced
    exponents and ``\\frac`` coefficients, or ``"json"``."""
    if fmt in FORMATS:
        return _format_terms(poly, fmt)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def coeff_vector_json(row: tuple[Rational, ...]) -> str:
    values = ",".join(f'"{a.numerator}/{a.denominator}"' for a in row)
    return f'{{"m":{len(row) - 1},"A":[{values}]}}'
