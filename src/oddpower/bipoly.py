"""Sparse exact bivariate polynomials in the variables x and z.

A ``BiPoly`` holds its rational coefficients as integer numerators over one
shared denominator, the primitive-part layout of FLINT's ``fmpq_poly``: a
map from exponent pairs ``(deg_x, deg_z)`` to nonzero ``int`` numerators,
and one ``int`` denominator ``den > 0`` with ``gcd(den, *numerators) == 1``.
The zero polynomial is the empty map over ``den == 1``.  That pair is unique
for each polynomial, so structural equality is polynomial equality and no
normalization is ever deferred.  Instances are immutable after construction
and safe to share across threads.

Addition, subtraction, partial derivatives, the diagonal substitution and
evaluation all work on the integer numerators, over the least common
multiple of the operands' denominators, and reduce each result once by one
gcd.  There is no product: the family is assembled from integer rows in
``powersums.combine_conv_sums``.  ``Rational`` coefficients appear only at
the API edge: construction, :meth:`BiPoly.coefficient` and
:meth:`BiPoly.terms`.

Canonical term order, used for iteration and rendering: ascending total
degree, ties broken by ascending z-degree.  For two variables this is a
total order on exponent pairs, so output is deterministic.

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

__all__ = ["BiPoly"]

MonomialKey = tuple[int, int]
CoefficientLike = Union[int, Rational]
_Numerators = dict[MonomialKey, int]


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

    __slots__ = ("_den", "_nums", "_sorted")

    def __init__(
        self,
        terms: Mapping[MonomialKey, CoefficientLike]
        | Iterable[tuple[MonomialKey, CoefficientLike]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        fractions: list[tuple[MonomialKey, int, int]] = []
        for (deg_x, deg_z), coeff in items:
            _check_order(deg_x, "deg_x")
            _check_order(deg_z, "deg_z")
            value = _as_rational(coeff, "coefficient")
            fractions.append(((deg_x, deg_z), value.numerator, value.denominator))
        poly = _from_fractions(fractions)
        self._den, self._nums = poly._den, poly._nums
        self._sorted: list[MonomialKey] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: CoefficientLike) -> BiPoly:
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, deg_x: int, deg_z: int, coeff: CoefficientLike = 1) -> BiPoly:
        return cls({(deg_x, deg_z): coeff})

    # -- inspection --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._nums)

    def coefficient(self, deg_x: int, deg_z: int) -> Rational:
        """Coefficient of x^deg_x z^deg_z, zero if the monomial is absent."""
        _check_order(deg_x, "deg_x")
        _check_order(deg_z, "deg_z")
        return Rational(self._nums.get((deg_x, deg_z), 0), self._den)

    def _keys(self) -> list[MonomialKey]:
        if self._sorted is None:
            self._sorted = sorted(self._nums, key=lambda k: (k[0] + k[1], k[1]))
        return self._sorted

    def terms(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (deg_x, deg_z, coefficient) triples in canonical order."""
        den, nums = self._den, self._nums
        for key in self._keys():
            yield key[0], key[1], Rational(nums[key], den)

    def degree_x(self) -> int:
        return max((dx for dx, _ in self._nums), default=-1)

    def degree_z(self) -> int:
        return max((dz for _, dz in self._nums), default=-1)

    # -- addition and subtraction ------------------------------------------

    def __add__(self, other: BiPoly | CoefficientLike) -> BiPoly:
        other = _lift(other)
        return other if other is NotImplemented else _add(self, other, 1)

    def __sub__(self, other: BiPoly | CoefficientLike) -> BiPoly:
        other = _lift(other)
        return other if other is NotImplemented else _add(self, other, -1)

    # -- calculus and substitution ----------------------------------------

    def diff(self, var: str) -> BiPoly:
        """Exact partial derivative with respect to ``"x"`` or ``"z"``."""
        items = self._nums.items()
        if var == "x":
            return _from_ints(self._den, {(dx - 1, dz): n * dx for (dx, dz), n in items if dx})
        if var == "z":
            return _from_ints(self._den, {(dx, dz - 1): n * dz for (dx, dz), n in items if dz})
        raise ValueError(f"var must be 'x' or 'z', got {var!r}")

    def __call__(self, x_val: CoefficientLike, z_val: CoefficientLike) -> Rational:
        """Exact value at (x_val, z_val).

        With x = a/b, z = c/d, degrees I in x and J in z and coefficients
        N_ij / D, the value is

            sum_i a^i b^(I-i) * sum_j N_ij * c^j d^(J-j)  /  (D * b^I * d^J),

        summed on integers, one row per x-degree, and reduced once.
        """
        x_val = _as_rational(x_val, "x")
        z_val = _as_rational(z_val, "z")
        if not self._nums:
            return Rational(0)
        x_pow = _scaled_powers(x_val, self.degree_x())
        z_pow = _scaled_powers(z_val, self.degree_z())
        rows = [0] * len(x_pow)
        for (dx, dz), num in self._nums.items():
            rows[dx] += num * z_pow[dz]
        total = sum(row * xp for row, xp in zip(rows, x_pow))
        return Rational(total, self._den * x_pow[0] * z_pow[0])

    def diagonal(self) -> BiPoly:
        """Substitute z = x: every term (i, j) collapses to degree i + j in x.

        The numerators are added as integers over the one denominator.
        """
        sums: dict[int, int] = {}
        for (dx, dz), num in self._nums.items():
            sums[dx + dz] = sums.get(dx + dz, 0) + num
        return _from_ints(self._den, {(k, 0): n for k, n in sums.items() if n})

    # -- comparison and display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _lift(other)
        if other is NotImplemented:
            return other
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        if not self._nums or (len(self._nums) == 1 and (0, 0) in self._nums):
            # Constants hash like their scalar value, consistent with __eq__.
            return hash(self.coefficient(0, 0))
        return hash((self._den, frozenset(self._nums.items())))

    def __str__(self) -> str:
        return _format_terms(self, "{}/{}", "{}^{}")

    def __repr__(self) -> str:
        return f"BiPoly({str(self)!r})"


def _from_ints(den: int, nums: _Numerators) -> BiPoly:
    """The polynomial with zero-free integer numerators ``nums`` over
    ``den > 0``, both divided by their gcd once."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: n // g for key, n in nums.items()}
    poly = BiPoly.__new__(BiPoly)
    poly._den = den
    poly._nums = nums
    poly._sorted = None
    return poly


def _from_fractions(terms: list[tuple[MonomialKey, int, int]]) -> BiPoly:
    """The sum of ``(monomial, numerator, denominator)`` triples, with
    positive denominators, added over the lcm of the denominators."""
    den = lcm(*(d for _, _, d in terms))
    sums: _Numerators = {}
    for key, n, d in terms:
        sums[key] = sums.get(key, 0) + n * (den // d)
    return _from_ints(den, {key: n for key, n in sums.items() if n})


def _add(a: BiPoly, b: BiPoly, sign: int) -> BiPoly:
    """``a + sign * b`` over the lcm of the two denominators."""
    den = lcm(a._den, b._den)
    scale_a, scale_b = den // a._den, sign * (den // b._den)
    nums = dict(a._nums) if scale_a == 1 else {k: n * scale_a for k, n in a._nums.items()}
    for key, n in b._nums.items():
        total = nums.get(key, 0) + n * scale_b
        if total:
            nums[key] = total
        else:  # n * scale_b is nonzero, so the key was present
            del nums[key]
    return _from_ints(den, nums)


def _scaled_powers(value: Rational, degree: int) -> list[int]:
    """``[a^i * b^(degree-i) for i in 0..degree]`` for ``value = a/b``: the
    powers of ``value`` over the one denominator ``b^degree``."""
    num, den = value.numerator, value.denominator
    return [num**i * den ** (degree - i) for i in range(degree + 1)]


def _reduced_terms(poly: BiPoly) -> Iterator[tuple[int, int, int, int]]:
    """Yield (deg_x, deg_z, numerator, denominator) in canonical order, each
    coefficient in lowest terms with a positive denominator."""
    den, nums = poly._den, poly._nums
    for key in poly._keys():
        num = nums[key]
        g = gcd(num, den)
        if g == 1:
            yield key[0], key[1], num, den
        else:
            yield key[0], key[1], num // g, den // g


def _format_terms(poly: BiPoly, fraction: str, power: str) -> str:
    """Join ``poly``'s signed terms in canonical order; the format strings
    ``fraction`` (numerator, denominator) and ``power`` (variable, exponent)
    spell non-integer magnitudes and exponents above one.

    Each power of x and of z is formatted once per call, into a table
    indexed by the exponent with a leading space (``""``, ``" x"``,
    ``" x^2"``, ...).  A term is then one ``str`` of its reduced numerator
    from :func:`_reduced_terms`, its sign read off the digits, and one
    concatenation with the two table entries."""
    xs = ["", " x"] + [" " + power.format("x", i) for i in range(2, poly.degree_x() + 1)]
    zs = ["", " z"] + [" " + power.format("z", j) for j in range(2, poly.degree_z() + 1)]
    parts: list[str] = []
    append = parts.append
    for dx, dz, num, den in _reduced_terms(poly):
        digits = str(num)
        if digits[0] == "-":
            append(" - ")
            digits = digits[1:]
        else:
            append(" + ")
        monomial = xs[dx] + zs[dz]
        if den != 1:
            append(fraction.format(digits, den) + monomial)
        elif digits == "1" and monomial:
            append(monomial[1:])
        else:
            append(digits + monomial)
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)

