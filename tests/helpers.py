"""Shared test helpers: hand-entered reference polynomials, the reference
corpus, reference implementations and random generators.

The F1/F2/F3 dicts are typed in term by term from the known closed forms,
independently of both the builder and the text corpus, so they can
arbitrate between the two.  ``load_corpus`` reads that corpus,
``reference_fixtures.txt`` next to this file.

``solve_coeffs_by_elimination`` and ``build_poly_from_conv_sums`` are the
generic polynomial-algebra routes that the library's closed-form solver and
direct builder replaced; the differential tests hold the two routes equal.
``bernoulli_reference`` and ``solve_coeffs_reference`` are the
``Fraction``-per-term recurrences that the tangent-number triangle of
``bernoulli`` and the integer sum over one lcm of ``solve_coeffs`` replaced.
``power_sum_reference`` is the ``Fraction``-per-coefficient Faulhaber loop
that the integer row ``power_sum`` replaced, and ``faulhaber_row_reference``
the integer Faulhaber row, C(p+1, j) * B_j over one lcm with B_p fixed by
S_p(1) = 1, that the Appell step of ``power_sum`` replaced.
``conv_sum_reference`` is the separate ``H_r`` expansion, from those
reference power sums, that the shared ``_combine_conv_sums`` loop replaced.
``combine_conv_sums_loop_reference``
is that loop visiting every coefficient of each power sum and skipping the
zeros, which the walk over the degrees that can be nonzero replaced; it
builds its result with the ``BiPoly`` constructor.  ``row_poly`` wraps a
``power_sum`` row as a ``BiPoly`` in z, and ``assert_reduced_row`` checks the
row's invariants.
``render_plain_reference`` and ``render_latex_reference`` are the two
separate term-formatting loops that the shared formatter replaced.
``parse_poly_reference`` is the token-list parser that the one-pass
``parse_poly`` replaced.  It reads a wider grammar (``*``, repeated and
reordered variables, ``a / b``, any Unicode digit) than ``parse_poly``,
which reads only the plain render language, so the differential property is
one way: what ``parse_poly`` accepts the reference reads as the same
polynomial, and what the reference refuses ``parse_poly`` refuses.
``parse_poly_loop_reference`` is the regex loop that the possessive,
one-spelling-per-variable ``parse_poly`` loop replaced, reading the same
language, so that differential property is exact: the same polynomial, or
the same error class, message and position.  Its like terms are summed as
``Fraction``s, not by the constructor's term sum.
``partial_sum_keyset_reference`` is the ``_partial_sum`` that formed a key
set per anti-diagonal, the row's z-degrees and each one just below them,
and read two numerators per key, which the x-part map with the z-part added
in place replaced.
``eval_reference`` and ``diagonal_reference`` are
the term-by-term ``Fraction`` evaluation and diagonal collapse that the
common-denominator ``BiPoly.__call__`` and ``BiPoly.diagonal`` replaced.
``ReferenceBiPoly`` is the ``Fraction``-per-term polynomial that the
integer-numerator ``BiPoly`` replaced, and ``render_json_reference`` the
JSON term list written from its ``Fraction`` coefficients by ``json.dumps``.
``coeff_vector_json_reference`` is the ``json.dumps`` coefficient row that
``oddpower coeffs <m> --format json`` writes with f-strings.
``first_failure_reference`` is the oracle loop that sums every n up to
``n_max``, which ``first_failure`` replaced by one that stops at the degree
bound of its row.  ``traced_peak`` and ``traced_retained`` run a
computation under ``tracemalloc`` for the memory bounds: the most it held
at once, and what it still holds once it returns.  ``degrees`` reads a
polynomial's degrees in x and z off its terms.
"""

from __future__ import annotations

import gc
import json
import random
import re
import tracemalloc
from math import comb, gcd, lcm
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from oddpower.bipoly import BiPoly, _as_rational, _from_ints
from oddpower.coefficients import solve_coeffs
from oddpower.engine import conv_sum
from oddpower.parsing import MAX_DEGREE, PolyParseError, UnknownVariableError, _refuse, parse_poly
from oddpower.rationals import Rational, bernoulli, power_sum

CORPUS = Path(__file__).resolve().parent / "reference_fixtures.txt"
_ENTRY_RE = re.compile(r'^"(?P<name>[^"]+)"\s+"[^"]*"\s*:=\s*(?P<expr>.+)$')


def load_corpus(lines: Iterable[str] | None = None) -> dict[str, BiPoly]:
    """The reference corpus, or ``lines`` in its format, as {name: polynomial}
    in file order.  An entry line is ``"<name>" "<source-ref>" := <expression>``
    in the syntax of ``parse_poly``; blank lines and ``#`` comments are skipped."""
    if lines is None:
        lines = CORPUS.read_text(encoding="utf-8").splitlines()
    corpus: dict[str, BiPoly] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _ENTRY_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed corpus line: {line!r}")
        name = match["name"]
        if name in corpus:
            raise ValueError(f"line {lineno}: duplicate name {name!r}")
        try:
            corpus[name] = parse_poly(match["expr"])
        except PolyParseError as exc:
            raise ValueError(f"line {lineno}: {name!r}: {exc}") from exc
    return corpus

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
        residual = residual - scale(diagonals[r], a)
    assert not residual, f"nonzero residual after solving order {m}: {residual}"
    return values


def bernoulli_reference(n_max: int) -> list[Rational]:
    """B_0..B_n_max from sum_{j=0..n} C(n+1, j) B_j = n + 1, one Fraction
    operation per term and no odd-index shortcut."""
    values: list[Rational] = []
    for n in range(n_max + 1):
        acc = Rational(0)
        for j, b in enumerate(values):
            acc += comb(n + 1, j) * b
        values.append((n + 1 - acc) / (n + 1))
    return values


def solve_coeffs_reference(m: int) -> list[Rational]:
    """The row A_0..A_m from Kolosov's Bernoulli recurrence, one Fraction
    operation per d-term."""
    values = [Rational(0)] * (m + 1)
    values[m] = Rational((2 * m + 1) * comb(2 * m, m))
    for r in range(m - 1, -1, -1):
        total = Rational(0)
        for d in range(2 * r + 1, m + 1):
            if values[d]:
                term = values[d] * comb(d, 2 * r + 1) * bernoulli(2 * d - 2 * r) / (d - r)
                total += term if d % 2 else -term
        values[r] = (2 * r + 1) * comb(2 * r, r) * total
    return values


def first_failure_reference(row, m: int, n_max: int) -> tuple[int, Rational, int] | None:
    """The first ``(n, lhs, rhs)`` in 1..n_max where the double sum over
    ``row`` differs from n^(2m+1), or None, summing every n up to n_max
    on integers over the row's lcm denominator."""
    den = lcm(*(a.denominator for a in row))
    nums = [a.numerator * (den // a.denominator) for a in row]
    for n in range(1, n_max + 1):
        total = 0
        for k in range(1, n + 1):
            base = k * (n - k)
            inner = 0
            for a in reversed(nums):
                inner = inner * base + a
            total += inner
        rhs = n ** (2 * m + 1)
        if total != den * rhs:
            return n, Rational(total, den), rhs
    return None


def build_poly_from_conv_sums(y: int) -> BiPoly:
    """f_y as the bivariate sum of A_r * conv_sum(r)."""
    acc = BiPoly()
    for r, a in enumerate(solve_coeffs(y)):
        acc = acc + scale(conv_sum(r), a)
    return acc


def scale(poly: BiPoly, a: int | Rational) -> BiPoly:
    """``a`` times ``poly``, one Fraction product per term."""
    return BiPoly({(dx, dz): coeff * a for dx, dz, coeff in poly.terms()})


def power_sum_reference(p: int) -> BiPoly:
    """Faulhaber's S_p(z) from one Fraction per coefficient."""
    terms = {}
    for j in range(p + 1):
        coeff = comb(p + 1, j) * bernoulli(j) / (p + 1)
        if coeff:
            terms[(0, p + 1 - j)] = coeff
    return BiPoly(terms)


def faulhaber_row_reference(p: int) -> tuple[int, tuple[int, ...]]:
    """S_p as a reduced integer row ``(den, coeffs)``, as ``power_sum``
    returns it, from Faulhaber's formula.

    Each B_j with j < p that is not 0 (B_0, B_1 and the even j) goes with
    z^(p+1-j) as C(p+1, j) * B_j over den = (p + 1) * L, with L the lcm of
    their denominators.  B_p goes with z^1, and S_p(1) = 1, the recurrence
    that defines B_p, fixes it without reading it: ``nums[1] = den -
    sum(nums)``.  The row is then divided by its content.
    """
    terms = [(j, (b := bernoulli(j)).numerator, b.denominator)
             for j in (*range(min(p, 2)), *range(2, p, 2))]
    common = lcm(*(d for _, _, d in terms))
    den = (p + 1) * common
    nums = [0] * (p + 2)
    for j, num, d in terms:
        nums[p + 1 - j] = comb(p + 1, j) * num * (common // d)
    nums[1] = den - sum(nums)
    g = gcd(den, *nums)
    return den // g, tuple(n // g for n in nums)


def conv_sum_reference(r: int) -> BiPoly:
    """H_r(x, z) = sum_{j=0..r} C(r, j) (-1)^j x^(r-j) S_{r+j}(z), written
    as one scaled coefficient per term of each reference power sum."""
    terms = []
    for j in range(r + 1):
        factor = (-1 if j % 2 else 1) * comb(r, j)
        terms.extend(((r - j, k), factor * c) for _, k, c in power_sum_reference(r + j).terms())
    return BiPoly(terms)


def combine_conv_sums_loop_reference(row) -> BiPoly:
    """sum_r row[r] * H_r(x, z), one x-degree row of Faulhaber numerators at
    a time, visiting every coefficient of each power sum and testing it for
    zero."""
    y = len(row) - 1
    entries = []
    for r, a in enumerate(row):
        a = _as_rational(a, "row entry")
        if a:
            entries.append((r, a.numerator, a.denominator))
    terms = {}
    for i in range(y + 1):
        parts = []
        for r, a_num, a_den in entries:
            if r >= i:
                ps_den, coeffs = power_sum(2 * r - i)
                num = (-1 if (r - i) % 2 else 1) * a_num * comb(r, i)
                den = a_den * ps_den
                g = gcd(num, den)
                parts.append((num // g, den // g, coeffs))
        common = lcm(*(den for _, den, _ in parts))
        acc = [0] * (2 * y - i + 2)
        for num, den, coeffs in parts:
            factor = num * (common // den)
            for k, c in enumerate(coeffs):
                if c:
                    acc[k] += factor * c
        terms.update(((i, k), Rational(n, common)) for k, n in enumerate(acc) if n)
    return BiPoly(terms)


def row_poly(row: tuple[int, tuple[int, ...]]) -> BiPoly:
    """The ``(den, coeffs)`` row of ``power_sum`` as a ``BiPoly`` in z."""
    den, coeffs = row
    return BiPoly({(0, k): Rational(c, den) for k, c in enumerate(coeffs) if c})


def assert_reduced_row(row: tuple[int, tuple[int, ...]], length: int) -> None:
    """The one representation of a ``power_sum`` row: a positive ``int``
    denominator over a tuple of ``length`` ``int`` numerators, with no
    common factor among them."""
    den, coeffs = row
    assert type(den) is int and den > 0
    assert type(coeffs) is tuple and len(coeffs) == length
    assert all(type(c) is int for c in coeffs)
    assert gcd(den, *coeffs) == 1


def eval_reference(poly: BiPoly, x_val: int | Rational, z_val: int | Rational) -> Rational:
    """poly(x_val, z_val), adding one Fraction product per term."""
    x_val = Rational(x_val)
    z_val = Rational(z_val)
    x_pow: dict[int, Rational] = {0: Rational(1)}
    z_pow: dict[int, Rational] = {0: Rational(1)}
    total = Rational(0)
    for dx, dz, coeff in poly.terms():
        xp = x_pow.get(dx)
        if xp is None:
            xp = x_pow[dx] = x_val**dx
        zp = z_pow.get(dz)
        if zp is None:
            zp = z_pow[dz] = z_val**dz
        total += coeff * xp * zp
    return total


def diagonal_reference(poly: BiPoly) -> BiPoly:
    """poly with z = x, accumulating the Fraction coefficients term by term."""
    return BiPoly([((dx + dz, 0), coeff) for dx, dz, coeff in poly.terms()])


def partial_sum_keyset_reference(poly: BiPoly) -> BiPoly:
    """``poly.diff("x") + poly.diff("z")``: anti-diagonal T moves down to
    T - 1, and each z-degree j in the set of the row's z-degrees and each
    one just below them gets (T - j) n(T, j) + (j + 1) n(T, j + 1)."""
    return _from_ints(poly._den, {
        total - 1: row
        for total, old in poly._diags.items()
        if (row := {j: n for j in {*old, *(k - 1 for k in old if k)}
                    if (n := (total - j) * old.get(j, 0) + (j + 1) * old.get(j + 1, 0))})
    })


def assert_canonical_layout(poly: BiPoly) -> None:
    """The one representation of ``poly``: integer numerators over one
    reduced positive denominator, grouped by total degree T into maps
    ``{deg_z: numerator}`` with no empty map, no zero numerator and
    ``0 <= deg_z <= T``."""
    den, diags = poly._den, poly._diags
    assert type(den) is int and den > 0
    for total, row in diags.items():
        assert type(total) is int and row, f"empty anti-diagonal {total}"
        assert all(type(dz) is int and 0 <= dz <= total for dz in row), (total, row)
        assert all(type(n) is int and n for n in row.values()), (total, row)
    assert gcd(den, *(n for row in diags.values() for n in row.values())) == 1


def degrees(poly: BiPoly) -> tuple[int, int]:
    """The largest x-degree and the largest z-degree among the terms of
    ``poly``, each ``-1`` for the zero polynomial."""
    terms = list(poly.terms())
    return max((dx for dx, _, _ in terms), default=-1), max((dz for _, dz, _ in terms), default=-1)


def traced_peak(compute):
    """``compute()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = compute()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def traced_retained(compute):
    """``compute()`` and the memory it allocated that is still held once it
    has returned and garbage has been collected, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = compute()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _collect(pairs: Iterable[tuple[tuple[int, int], Rational]], out: dict | None = None) -> dict:
    """Add ``(monomial, coefficient)`` pairs into ``out`` (a new dict by
    default), dropping every monomial whose sum is zero."""
    if out is None:
        out = {}
    for key, coeff in pairs:
        prev = out.get(key)
        total = coeff if prev is None else prev + coeff
        if total:
            out[key] = total
        elif prev is not None:
            del out[key]
    return out


class ReferenceBiPoly:
    """A polynomial in x and z stored as one nonzero ``Fraction`` per
    monomial; every operation adds or multiplies ``Fraction``s term by term.

    Offers the operations of ``BiPoly`` that the differential tests compare:
    ``+`` and ``-`` with each other and with a scalar on the right, ``diff``,
    ``diagonal``, evaluation, ``coefficient``, ``terms``, ``==``, ``hash`` and
    truth (a zero polynomial is falsy).
    """

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.coeffs = _collect((key, Rational(coeff)) for key, coeff in items)

    @classmethod
    def _of(cls, coeffs: dict) -> "ReferenceBiPoly":
        poly = cls.__new__(cls)
        poly.coeffs = coeffs
        return poly

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, deg_x: int, deg_z: int) -> Rational:
        return self.coeffs.get((deg_x, deg_z), Rational(0))

    def terms(self) -> Iterator[tuple[int, int, Rational]]:
        for key in sorted(self.coeffs, key=lambda k: (k[0] + k[1], k[1])):
            yield key[0], key[1], self.coeffs[key]

    def _lift(self, other) -> "ReferenceBiPoly":
        return other if isinstance(other, ReferenceBiPoly) else ReferenceBiPoly({(0, 0): other})

    def __add__(self, other) -> "ReferenceBiPoly":
        return self._of(_collect(self._lift(other).coeffs.items(), dict(self.coeffs)))

    def __sub__(self, other) -> "ReferenceBiPoly":
        negated = ((key, -coeff) for key, coeff in self._lift(other).coeffs.items())
        return self._of(_collect(negated, dict(self.coeffs)))

    def diff(self, var: str) -> "ReferenceBiPoly":
        items = self.coeffs.items()
        if var == "x":
            return self._of({(dx - 1, dz): c * dx for (dx, dz), c in items if dx})
        return self._of({(dx, dz - 1): c * dz for (dx, dz), c in items if dz})

    def diagonal(self) -> "ReferenceBiPoly":
        return self._of(_collect(((dx + dz, 0), coeff) for (dx, dz), coeff in self.coeffs.items()))

    def __call__(self, x_val, z_val) -> Rational:
        return eval_reference(self, x_val, z_val)

    def __eq__(self, other) -> bool:
        return self.coeffs == self._lift(other).coeffs

    def __hash__(self) -> int:
        if not self.coeffs:
            return hash(Rational(0))
        if len(self.coeffs) == 1 and (0, 0) in self.coeffs:
            return hash(self.coeffs[(0, 0)])
        return hash(frozenset(self.coeffs.items()))


def render_json_reference(poly) -> str:
    """The JSON term list, written from each term's Fraction coefficient."""
    terms = [
        {"dx": dx, "dz": dz, "c": f"{c.numerator}/{c.denominator}"} for dx, dz, c in poly.terms()
    ]
    return json.dumps({"terms": terms}, separators=(",", ":"))


def coeff_vector_json_reference(row) -> str:
    """The coefficient row as JSON, written by ``json.dumps``."""
    values = [f"{a.numerator}/{a.denominator}" for a in row]
    return json.dumps({"m": len(row) - 1, "A": values}, separators=(",", ":"))


def shift_z(poly: BiPoly, offset: int | Rational) -> BiPoly:
    """Substitute z -> z + offset, expanding each (z + offset)^d binomially."""
    offset = Rational(offset)
    out = BiPoly()
    for dx, dz, coeff in poly.terms():
        expanded = {
            (dx, k): coeff * comb(dz, k) * offset ** (dz - k) for k in range(dz + 1)
        }
        out = out + BiPoly(expanded)
    return out


def render_plain_reference(poly: BiPoly) -> str:
    """Plain text, formatted term by term with Fraction arithmetic."""
    if not poly:
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
    if not poly:
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


_TOKEN_RE = re.compile(
    r"(?P<number>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<symbol>[-+*/^])|(?P<junk>\S)"
)


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
        value = Rational(_reference_int(text, pos))
        if self.current[0] == "symbol" and self.current[1] == "/":
            self.advance()
            kind, den_text, den_pos = self.current
            if kind != "number":
                raise self.fail("expected a denominator after '/'")
            den = _reference_int(den_text, den_pos)
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
        exponent = _reference_int(text, pos)
        if exponent == 0:
            raise PolyParseError("exponent must be a positive integer", pos)
        self.advance()
        return exponent


def _reference_int(text: str, position: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        message = f"integer literal of {len(text)} digits is too long"
        raise PolyParseError(message, position) from None


def parse_poly_reference(text: str) -> BiPoly:
    """Tokenize ``text`` in full, then parse the token list by recursive descent."""
    return _Parser(text).parse()


# The term regex of the loop parser: the same language as
# ``oddpower.parsing._TERM_RE``, with backtracking runs and the x and z
# exponents captured as digits.
_LOOP_TERM_RE = re.compile(
    r"\s*(?:([-+])\s*)?(?=[0-9xz])"
    r"(?:([0-9]+)(?:/(0*[1-9][0-9]*))?\s*)?"
    r"(?:(x)(?![A-Za-z0-9_])(?:\^(0*[1-9][0-9]*))?\s*)?"
    r"(?:(z)(?![A-Za-z0-9_])(?:\^(0*[1-9][0-9]*))?\s*)?"
    r"(?=[-+]|\Z)"
)


def parse_poly_loop_reference(text: str) -> BiPoly:
    """One ``_LOOP_TERM_RE.match`` per term at the offset where the last
    term ended, each degree read by ``int`` at every term; the first term it
    cannot read is refused by the parser's own ``_refuse``."""
    terms: list[tuple[tuple[int, int], Rational]] = []
    offset, end = 0, len(text)
    try:
        while match := _LOOP_TERM_RE.match(text, offset):
            sign, num, den, x, deg_x, z, deg_z = match.groups()
            deg_x = (int(deg_x) if deg_x else 1) if x else 0
            deg_z = (int(deg_z) if deg_z else 1) if z else 0
            if deg_x > MAX_DEGREE or deg_z > MAX_DEGREE:
                break
            num = int(num) if num else 1
            coeff = Rational(-num if sign == "-" else num, int(den) if den else 1)
            terms.append(((deg_x, deg_z), coeff))
            offset = match.end()
            if offset == end:
                return BiPoly(_collect(terms))
    except ValueError:  # more digits than int() reads
        pass
    _refuse(text, offset)
