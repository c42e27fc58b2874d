"""Shared test helpers: hand-entered reference polynomials, reference
implementations and random generators.

The F1/F2/F3 dicts are typed in term by term from the known closed forms,
independently of both the builder and the bundled text corpus, so they can
arbitrate between the two.

``solve_coeffs_by_elimination`` and ``build_poly_from_conv_sums`` are the
generic polynomial-algebra routes that the library's closed-form solver and
direct builder replaced; the differential tests hold the two routes equal.
``render_plain_reference`` and ``render_latex_reference`` are the two
separate term-formatting loops that the shared formatter replaced.
"""

from __future__ import annotations

import random

from oddpower.bipoly import BiPoly
from oddpower.coefficients import solve_coeffs
from oddpower.powersums import conv_sum
from oddpower.rationals import Rational, binomial

F1 = BiPoly({(1, 1): 3, (0, 2): -3, (1, 2): 3, (0, 3): -2})

F2 = BiPoly(
    {
        (2, 1): 5,
        (1, 2): -15,
        (2, 2): 15,
        (0, 3): 10,
        (1, 3): -30,
        (2, 3): 10,
        (0, 4): 15,
        (1, 4): -15,
        (0, 5): 6,
    }
)

F3 = BiPoly(
    {
        (1, 1): -7,
        (2, 1): 14,
        (0, 2): 7,
        (1, 2): -42,
        (3, 2): 35,
        (0, 3): 28,
        (2, 3): -140,
        (3, 3): 70,
        (1, 4): 175,
        (2, 4): -210,
        (3, 4): 35,
        (0, 5): -70,
        (1, 5): 210,
        (2, 5): -84,
        (0, 6): -70,
        (1, 6): 70,
        (0, 7): -20,
    }
)

SUM1 = BiPoly({(1, 0): 3, (0, 1): -3, (1, 1): 6, (0, 2): -3})


def random_rational(rng: random.Random, num_bound: int = 100, den_bound: int = 20) -> Rational:
    return Rational(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_bipoly(
    rng: random.Random,
    max_terms: int = 6,
    max_degree: int = 6,
    num_bound: int = 100,
    den_bound: int = 20,
) -> BiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, max_degree), rng.randint(0, max_degree))
        terms[key] = random_rational(rng, num_bound, den_bound)
    return BiPoly(terms)


def solve_coeffs_by_elimination(m: int) -> list[Rational]:
    """The row A_0..A_m by triangular elimination over the diagonals of H_r.

    D_r = conv_sum(r) on z = x is an odd polynomial of degree 2r + 1.  For
    r = m, ..., 0 read A_r off the x^(2r+1) coefficient of the residual
    (over the leading coefficient of D_r) and subtract A_r * D_r; starting
    from x^(2m+1), the residual must end at zero.
    """
    diagonals = [conv_sum(r).diagonal() for r in range(m + 1)]
    residual = BiPoly.monomial(2 * m + 1, 0)
    values = [Rational(0)] * (m + 1)
    for r in range(m, -1, -1):
        a = residual.coefficient(2 * r + 1, 0) / diagonals[r].coefficient(2 * r + 1, 0)
        values[r] = a
        residual = residual - diagonals[r] * a
    assert residual.is_zero(), f"nonzero residual after solving order {m}: {residual}"
    return values


def build_poly_from_conv_sums(y: int) -> BiPoly:
    """f_y as the bivariate sum of A_r * conv_sum(r)."""
    acc = BiPoly.zero()
    for r, a in enumerate(solve_coeffs(y)):
        acc = acc + conv_sum(r) * a
    return acc


def shift_z(poly: BiPoly, offset: int | Rational) -> BiPoly:
    """Substitute z -> z + offset, expanding each (z + offset)^d binomially."""
    offset = Rational(offset)
    out = BiPoly.zero()
    for dx, dz, coeff in poly.terms():
        expanded = {
            (dx, k): coeff * binomial(dz, k) * offset ** (dz - k) for k in range(dz + 1)
        }
        out = out + BiPoly(expanded)
    return out


def render_plain_reference(poly: BiPoly) -> str:
    """Plain text, formatted term by term with Fraction arithmetic."""
    if poly.is_zero():
        return "0"
    parts: list[str] = []
    for dx, dz, coeff in poly.terms():
        sign = "-" if coeff < 0 else "+"
        magnitude = -coeff if coeff < 0 else coeff
        factors: list[str] = []
        if magnitude != 1 or (dx == 0 and dz == 0):
            factors.append(str(magnitude))
        if dx:
            factors.append("x" if dx == 1 else f"x^{dx}")
        if dz:
            factors.append("z" if dz == 1 else f"z^{dz}")
        body = " ".join(factors)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def _latex_magnitude(value: Rational) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return rf"\frac{{{value.numerator}}}{{{value.denominator}}}"


def render_latex_reference(poly: BiPoly) -> str:
    """LaTeX, formatted term by term with Fraction arithmetic."""
    if poly.is_zero():
        return "0"
    parts: list[str] = []
    for dx, dz, coeff in poly.terms():
        sign = "-" if coeff < 0 else "+"
        magnitude = -coeff if coeff < 0 else coeff
        factors: list[str] = []
        if magnitude != 1 or (dx == 0 and dz == 0):
            factors.append(_latex_magnitude(magnitude))
        if dx:
            factors.append("x" if dx == 1 else f"x^{{{dx}}}")
        if dz:
            factors.append("z" if dz == 1 else f"z^{{{dz}}}")
        body = " ".join(factors)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
