"""Deterministic renderers: plain text, LaTeX, and JSON.

All three formats emit terms in the canonical order (ascending total degree,
ties broken by ascending z-degree), so output is byte-identical across runs
for equal polynomials.  JSON is emitted without whitespace.

Schemas:
    polynomial   {"terms":[{"dx":i,"dz":j,"c":"<num>/<den>"}, ...]}
    coefficients {"m":<int>,"A":["<num>/<den>", ...]}         (index r = 0..m)
"""

from __future__ import annotations

import json
from typing import Literal

from .bipoly import BiPoly, _format_terms, _reduced_terms
from .rationals import Rational

__all__ = [
    "RenderFormat",
    "FORMATS",
    "render",
    "render_plain",
    "render_latex",
    "render_json",
    "poly_terms",
    "coeff_vector_json",
]

RenderFormat = Literal["plain", "latex", "json"]
FORMATS: tuple[str, ...] = ("plain", "latex", "json")


def render(poly: BiPoly, fmt: RenderFormat) -> str:
    """Render ``poly`` in the requested format."""
    if fmt == "plain":
        return render_plain(poly)
    if fmt == "latex":
        return render_latex(poly)
    if fmt == "json":
        return render_json(poly)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def render_plain(poly: BiPoly) -> str:
    """Canonical plain text, e.g. ``3 x z - 3 z^2 + 3 x z^2 - 2 z^3``."""
    return str(poly)


def render_latex(poly: BiPoly) -> str:
    """LaTeX source with braced exponents and ``\\frac`` coefficients."""
    return _format_terms(poly, r"\frac{{{}}}{{{}}}", "{}^{{{}}}")


def poly_terms(poly: BiPoly) -> list[dict]:
    """Term list for the JSON schema, in canonical order."""
    return [
        {"dx": dx, "dz": dz, "c": f"{num}/{den}"} for dx, dz, num, den in _reduced_terms(poly)
    ]


def render_json(poly: BiPoly) -> str:
    return json.dumps({"terms": poly_terms(poly)}, separators=(",", ":"))


def coeff_vector_json(row: tuple[Rational, ...]) -> str:
    values = [f"{a.numerator}/{a.denominator}" for a in row]
    return json.dumps({"m": len(row) - 1, "A": values}, separators=(",", ":"))

