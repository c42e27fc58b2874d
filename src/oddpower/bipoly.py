"""Sparse exact bivariate polynomials in the variables x and z.

A ``BiPoly`` holds its rational coefficients as integer numerators over one
shared denominator, the primitive-part layout of FLINT's ``fmpq_poly``: one
``int`` denominator ``den > 0`` with ``gcd(den, *numerators) == 1``, and the
nonzero ``int`` numerators grouped by anti-diagonal, a map from the total
degree ``T = deg_x + deg_z`` to a map ``{deg_z: numerator}``.  No inner map
is empty and every ``deg_z`` lies in ``0..T``.  The zero polynomial is the
empty map over ``den == 1``.  That pair is unique for each polynomial, so
structural equality is polynomial equality and no normalization is ever
deferred.  Instances are immutable after construction, inner maps included,
and safe to share across threads; no result shares an inner map with an
operand.

The anti-diagonals are what the diagonal substitution z -> x collapses to
one term each, so :meth:`BiPoly.diagonal` is one sum per total degree.  A
partial derivative moves each anti-diagonal down by one, so
:func:`_partial_sum` forms d/dx + d/dz in one pass.  ``+`` and ``-``
hand the terms of both operands to :func:`_from_fractions`, the term sum of
the constructor and the parser, which also adds each term into its
anti-diagonal in one pass.  Both filter zero numerators out only after a
step that can make one: a cancellation in ``_partial_sum``, a repeated key
or a numerator that arrives as 0 in ``_from_fractions``.  All of these and
evaluation work on the integer numerators, over the least common multiple
of the operands' denominators, and reduce each result once by one gcd.
Evaluation keeps its powers and
its one row per x-degree in maps keyed by the degrees the terms hold, so a
term of degree 10^7 costs one entry, not a table of 10^7 slots; the top
degrees it needs are read off those maps, and ``BiPoly`` has no degree
methods.  There is no product:
``engine._combine_conv_sums`` assembles the family as one integer row per
x-degree, and :func:`_from_rows` is the one place such rows become a
``BiPoly``, so no other module reads the layout.
``Rational`` coefficients appear only at the API edge: construction,
:meth:`BiPoly.coefficient` and :meth:`BiPoly.terms`.

Canonical term order, used for iteration and rendering: ascending total
degree, ties broken by ascending z-degree, that is, the anti-diagonals in
ascending order, each in ascending z-degree.  For two variables this is a
total order on exponent pairs, so output is deterministic.  The order is
sorted out of the small integer keys at each walk; nothing caches it.
:func:`render` is the one walk behind all three renders, plain text
(``str``), LaTeX and JSON, and the one place a coefficient is reduced to
lowest terms for display.

Degrees must be non-negative ``int`` (checked by
``rationals._check_order``), and coefficients, scalar operands and
evaluation points ``int`` or ``Rational``; anything else (in particular
``float`` and ``bool``) raises ``TypeError``, to preserve exactness, and a
negative degree ``ValueError``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

from .rationals import Rational, _check_order

__all__ = ["BiPoly", "FORMATS", "render"]

MonomialKey = tuple[int, int]
CoefficientLike = Union[int, Rational]
_Diagonals = dict[int, dict[int, int]]  # total degree -> {deg_z: numerator}


def _as_rational(value: CoefficientLike, what: str) -> Rational:
    """``value`` as a ``Rational``; ``what`` names it in the ``TypeError``."""
    if isinstance(value, Rational):
        return value
    if type(value) is int:  # not isinstance: bool is an int subclass
        return Rational(value)
    raise TypeError(f"{what} must be int or Rational, got {type(value).__name__}")


def _lift(value: object) -> BiPoly:
    """``value`` as a polynomial: a ``BiPoly`` itself, an ``int`` or
    ``Rational`` as a constant, and ``NotImplemented`` for anything else, so
    that the scalar operands of ``+ - ==`` all take the one path."""
    if isinstance(value, BiPoly):
        return value
    if type(value) is int or isinstance(value, Rational):
        return BiPoly.constant(value)
    return NotImplemented


class BiPoly:
    """An exact polynomial in x and z over the rationals.

    Supports ``+``, ``-`` and ``==`` (with each other and with a scalar on
    the right), partial differentiation via :meth:`diff`, evaluation by
    calling the instance, and the diagonal substitution z -> x via
    :meth:`diagonal`.  The zero polynomial is ``BiPoly()``.
    """

    __slots__ = ("_den", "_diags")

    def __init__(
        self,
        terms: Mapping[MonomialKey, CoefficientLike]
        | Iterable[tuple[MonomialKey, CoefficientLike]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        fractions: list[tuple[int, int, int, int]] = []
        for (deg_x, deg_z), coeff in items:
            _check_order(deg_x, "deg_x")
            _check_order(deg_z, "deg_z")
            value = _as_rational(coeff, "coefficient")
            fractions.append((deg_x, deg_z, value.numerator, value.denominator))
        poly = _from_fractions(fractions)
        self._den, self._diags = poly._den, poly._diags

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: CoefficientLike) -> BiPoly:
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, deg_x: int, deg_z: int, coeff: CoefficientLike = 1) -> BiPoly:
        return cls({(deg_x, deg_z): coeff})

    # -- inspection --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._diags)

    def coefficient(self, deg_x: int, deg_z: int) -> Rational:
        """Coefficient of x^deg_x z^deg_z, zero if the monomial is absent."""
        _check_order(deg_x, "deg_x")
        _check_order(deg_z, "deg_z")
        row = self._diags.get(deg_x + deg_z, {})
        return Rational(row.get(deg_z, 0), self._den)

    def terms(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (deg_x, deg_z, coefficient) triples in canonical order."""
        den, diags = self._den, self._diags
        for total in sorted(diags):
            row = diags[total]
            for dz in sorted(row):
                yield total - dz, dz, Rational(row[dz], den)

    # -- addition and subtraction ------------------------------------------

    def __add__(self, other: BiPoly | CoefficientLike) -> BiPoly:
        other = _lift(other)
        return other if other is NotImplemented else _add(self, other, 1)

    def __sub__(self, other: BiPoly | CoefficientLike) -> BiPoly:
        other = _lift(other)
        return other if other is NotImplemented else _add(self, other, -1)

    # -- calculus and substitution ----------------------------------------

    def diff(self, var: str) -> BiPoly:
        """Exact partial derivative with respect to ``"x"`` or ``"z"``.

        Each term x^(T-j) z^j moves down one anti-diagonal, to T - 1: by x
        it keeps its z-degree j and gains the factor T - j, by z it goes to
        z-degree j - 1 and gains the factor j."""
        items = self._diags.items()
        if var == "x":
            return _from_ints(self._den, {
                total - 1: row
                for total, old in items
                if (row := {dz: n * (total - dz) for dz, n in old.items() if dz != total})
            })
        if var == "z":
            return _from_ints(self._den, {
                total - 1: row
                for total, old in items
                if (row := {dz - 1: n * dz for dz, n in old.items() if dz})
            })
        raise ValueError(f"var must be 'x' or 'z', got {var!r}")

    def __call__(self, x_val: CoefficientLike, z_val: CoefficientLike) -> Rational:
        """Exact value at (x_val, z_val).

        With x = a/b, z = c/d, degrees I in x and J in z and coefficients
        N_ij / D, the value is

            sum_i a^i b^(I-i) * sum_j N_ij * c^j d^(J-j)  /  (D * b^I * d^J),

        summed on integers, one row per x-degree, and reduced once.  The
        powers of z are kept for the z-degrees the terms hold, the rows for
        the x-degrees they hold, and the powers of x for the rows that do
        not sum to zero, each in a table keyed by degree, so both time and
        memory follow the terms, not the degrees.
        """
        x_val = _as_rational(x_val, "x")
        z_val = _as_rational(z_val, "z")
        diags = self._diags
        if not diags:
            return Rational(0)
        z_degrees = sorted(set().union(*diags.values()))
        top_z = z_degrees[-1]
        z_pow = dict(_scaled_powers(z_val, z_degrees, top_z))
        rows: dict[int, int] = {}
        for total, row in diags.items():
            for dz, num in row.items():
                rows[total - dz] = rows.get(total - dz, 0) + num * z_pow[dz]
        top_x = max(rows)
        present = sorted(i for i, row in rows.items() if row)
        value = sum(rows[i] * power for i, power in _scaled_powers(x_val, present, top_x))
        return Rational(value, self._den * x_val.denominator**top_x * z_val.denominator**top_z)

    def diagonal(self) -> BiPoly:
        """Substitute z = x: the anti-diagonal of total degree T collapses
        to the one term x^T, its numerators added over the one denominator."""
        return _from_ints(self._den, {
            total: {0: num} for total, row in self._diags.items() if (num := sum(row.values()))
        })

    # -- comparison and display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _lift(other)
        if other is NotImplemented:
            return other
        return self._den == other._den and self._diags == other._diags

    def __hash__(self) -> int:
        diags = self._diags
        if not diags or (len(diags) == 1 and 0 in diags):
            # Constants hash like their scalar value, consistent with __eq__.
            return hash(self.coefficient(0, 0))
        return hash((self._den, frozenset(
            (total, dz, n) for total, row in diags.items() for dz, n in row.items()
        )))

    def __str__(self) -> str:
        return render(self, "plain")

    def __repr__(self) -> str:
        return f"BiPoly({str(self)!r})"


def _from_ints(den: int, diags: _Diagonals) -> BiPoly:
    """The polynomial with numerators ``diags``, in the layout of the module
    docstring, over ``den > 0``, both divided by their gcd once."""
    g = den
    for row in diags.values():
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g != 1:
        den //= g
        diags = {total: {dz: n // g for dz, n in row.items()} for total, row in diags.items()}
    poly = BiPoly.__new__(BiPoly)
    poly._den = den
    poly._diags = diags
    return poly


def _from_fractions(terms: list[tuple[int, int, int, int]]) -> BiPoly:
    """The sum of ``(deg_x, deg_z, numerator, denominator)`` terms, with
    positive denominators, added over the lcm of the denominators in one
    pass.  Each distinct denominator ``d`` gets its scale ``lcm // d`` once,
    however many terms share it, and a numerator is multiplied by it only
    when ``d`` is not the lcm.  A term's anti-diagonal is looked up first,
    a new map is made only for the first term of each anti-diagonal, and a
    numerator is added to an entry only when its key repeats.  Only a
    repeated key or a numerator that arrives as 0 can leave a zero entry,
    so the rows are rebuilt without zeros only after one of those."""
    denominators = {d for _, _, _, d in terms}
    den = lcm(*denominators)
    scales = {d: den // d for d in denominators}
    sums: _Diagonals = {}
    zeros = False  # set by a repeated key or a zero numerator
    for deg_x, deg_z, n, d in terms:
        if d != den:
            n *= scales[d]
        total = deg_x + deg_z
        row = sums.get(total)
        if row is None:
            sums[total] = {deg_z: n}
        elif deg_z in row:
            row[deg_z] += n
            zeros = True
            continue
        else:
            row[deg_z] = n
        if not n:
            zeros = True
    if zeros:
        sums = {
            total: row for total, old in sums.items() if (row := {dz: n for dz, n in old.items() if n})
        }
    return _from_ints(den, sums)


def _from_rows(rows: list[tuple[int, int, list[int]]]) -> BiPoly:
    """The polynomial sum_i x^i * sum_k (nums[k] / den) z^k over the
    ``(i, den, nums)`` rows of integers, one per x-degree ``i``, each
    ``den > 0``.  Each row is divided by its content ``gcd(den, *nums)``,
    so the lcm of the row denominators is the reduced denominator, and the
    rows are written over it, each numerator of x^i z^k straight into the
    anti-diagonal i + k, one map per anti-diagonal.  A row of content 1 is
    not copied, and a row already over the lcm is not rescaled."""
    reduced = []
    for i, d, nums in rows:
        g = gcd(d, *nums)
        reduced.append((i, d, nums) if g == 1 else (i, d // g, [n // g for n in nums]))
    den = lcm(*(d for _, d, _ in reduced))
    width = max((i + len(nums) for i, _, nums in reduced), default=0)
    by_total: list[dict[int, int]] = [{} for _ in range(width)]  # deg_z -> numerator
    for i, d, nums in reduced:
        if d != den:
            scale = den // d
            nums = [n * scale for n in nums]
        for k, n in enumerate(nums):
            if n:
                by_total[i + k][k] = n
    return _from_ints(den, {total: row for total, row in enumerate(by_total) if row})


def _add(a: BiPoly, b: BiPoly, sign: int) -> BiPoly:
    """``a + sign * b``: the terms of both operands, ``b``'s numerators times
    ``sign``, summed by :func:`_from_fractions` as the constructor sums its
    terms, so the result shares no inner map with either operand."""
    return _from_fractions([
        (total - dz, dz, s * n, p._den)
        for p, s in ((a, 1), (b, sign))
        for total, row in p._diags.items()
        for dz, n in row.items()
    ])


def _partial_sum(poly: BiPoly) -> BiPoly:
    """``poly.diff("x") + poly.diff("z")`` in one pass.  Anti-diagonal T
    moves down to T - 1, where x^(T-1-j) z^j gets the numerator
    (T - j) n(T, j) + (j + 1) n(T, j + 1).  The x-part (T - j) n(T, j) is
    one map over the row's z-degrees j but j = T, none of it zero; the
    z-part j n(T, j) of each j > 0 is then added into z-degree j - 1 in
    place.  Only that addition can cancel, so the zeros are filtered out
    only when the row holds one.  The cost follows the terms, not every j
    up to T."""
    diags: _Diagonals = {}
    for total, old in poly._diags.items():
        row = {j: (total - j) * n for j, n in old.items() if j != total}
        for j, n in old.items():
            if j:
                row[j - 1] = row.get(j - 1, 0) + j * n
        if 0 in row.values():
            row = {j: n for j, n in row.items() if n}
        if row:
            diags[total - 1] = row
    return _from_ints(poly._den, diags)


def _scaled_powers(value: Rational, degrees: list[int], top: int) -> Iterator[tuple[int, int]]:
    """``(i, a^i * b^(top-i))`` for ``value = a/b`` and each ``i`` of the
    ascending ``degrees``, none above ``top``: the powers of ``value`` over
    the one denominator ``b^top``.  Each is the one before times ``a^g`` and
    divided exactly by ``b^g``, for the gap ``g`` between their degrees, so
    a run of consecutive degrees costs one small product and one small
    division per degree."""
    num, den = value.numerator, value.denominator
    power, last = den**top, 0
    for i in degrees:
        power = power * num ** (i - last) // den ** (i - last)
        last = i
        yield i, power


FORMATS: tuple[str, ...] = ("plain", "latex", "json")

# The plain and LaTeX spellings of a term's pieces: a non-integer magnitude
# from (numerator, denominator) and a power from (variable, exponent).
_SPELLINGS = {
    "plain": ("{}/{}", "{}^{}"),
    "latex": (r"\frac{{{}}}{{{}}}", "{}^{{{}}}"),
}


def render(poly: BiPoly, fmt: str) -> str:
    """Render ``poly`` as ``"plain"`` text (its ``str``, e.g.
    ``3 x z - 3 z^2 + 3 x z^2 - 2 z^3``), ``"latex"`` source with braced
    exponents and ``\\frac`` coefficients, or ``"json"`` without whitespace,
    ``{"terms":[{"dx":i,"dz":j,"c":"<num>/<den>"}, ...]}``; any other
    ``fmt`` raises ``ValueError``.

    One walk of the anti-diagonals in canonical order reduces each
    coefficient to lowest terms, taking no gcd over a denominator of 1, and
    spells the term in the one format, so equal polynomials render to the
    same bytes.  JSON is written with f-strings, not with the ``json``
    module: the keys are fixed and every value is an ``int`` or a
    ``"<num>/<den>"`` string of digits, a slash and at most a leading minus,
    so nothing needs escaping; each term is followed by a comma but the
    last.  Plain and LaTeX join signed terms, and differ only in their two
    :data:`_SPELLINGS`.  Each power of x and of z that a term uses is spelled
    once per call into a table keyed by the exponent with a leading space
    (``""``, ``" x"``, ``" x^2"``, ...), so ``x^1000000`` spells one
    exponent, not a million: the z-degrees are the keys of the rows, so their
    table is filled from the union of those keys, and each x-degree on its
    first use.  A term is then its sign, read from the reduced numerator,
    one ``str`` of that numerator's magnitude, and one concatenation with
    the two table entries."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    den, diags = poly._den, poly._diags
    json = fmt == "json"
    if not json:
        fraction, power = _SPELLINGS[fmt]
        xs = {0: "", 1: " x"}
        zs = {j: " " + power.format("z", j) for j in set().union(*diags.values())}
        zs.update({0: "", 1: " z"})
    # JSON writes its whole text as parts of one join, so that no second
    # copy of the terms is held while the text is formed.
    parts: list[str] = ['{"terms":['] if json else []
    append = parts.append
    for total in sorted(diags):
        row = diags[total]
        for dz in sorted(row):
            num, d = row[dz], den
            if d != 1 and (g := gcd(num, d)) != 1:
                num //= g
                d //= g
            dx = total - dz
            if json:
                append(f'{{"dx":{dx},"dz":{dz},"c":"{num}/{d}"}},')
                continue
            if num < 0:
                append(" - ")
                num = -num
            else:
                append(" + ")
            try:
                monomial = xs[dx] + zs[dz]
            except KeyError:  # the first term of this x-degree
                monomial = xs.setdefault(dx, " " + power.format("x", dx)) + zs[dz]
            if d != 1:
                append(fraction.format(num, d) + monomial)
            elif num == 1 and monomial:
                append(monomial[1:])
            else:
                append(f"{num}{monomial}")
    if json:
        parts[-1] = parts[-1].removesuffix(",")
        append("]}")
        return "".join(parts)
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)
