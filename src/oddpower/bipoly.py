"""Sparse exact bivariate polynomials in the variables x and z.

A ``BiPoly`` maps exponent pairs ``(deg_x, deg_z)`` to nonzero ``Rational``
coefficients.  The zero polynomial is the empty map, so structural equality
of the maps is polynomial equality and no normalization is ever deferred.
Instances are immutable after construction and safe to share across threads.

Canonical term order, used for iteration and rendering: ascending total
degree, ties broken by ascending z-degree.  For two variables this is a
total order on exponent pairs, so output is deterministic.

Evaluation and the diagonal substitution write the coefficients over their
least common denominator once and add integer numerators, forming one
``Rational`` per result value instead of one per term.

Degrees must be ``int`` and coefficients ``int`` or ``Rational``; anything
else (in particular ``float`` and ``bool``) raises ``TypeError``, to
preserve exactness.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

from .rationals import Rational, common_denominator

__all__ = ["BiPoly", "MonomialKey", "X", "Z"]

MonomialKey = tuple[int, int]
CoefficientLike = Union[int, Rational]
_Terms = dict[MonomialKey, Rational]


def _as_rational(value: CoefficientLike) -> Rational:
    if isinstance(value, Rational):
        return value
    if type(value) is int:  # not isinstance: bool is an int subclass
        return Rational(value)
    raise TypeError(f"coefficients must be int or Rational, got {type(value).__name__}")


class BiPoly:
    """An exact polynomial in x and z over the rationals.

    Supports ``+``, ``-``, ``*``, ``**`` (with each other and with scalars),
    partial differentiation via :meth:`diff`, evaluation by calling the
    instance, and the diagonal substitution z -> x via :meth:`diagonal`.
    """

    __slots__ = ("_terms", "_sorted", "_hash")

    def __init__(
        self,
        terms: Mapping[MonomialKey, CoefficientLike]
        | Iterable[tuple[MonomialKey, CoefficientLike]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked: list[tuple[MonomialKey, Rational]] = []
        for (deg_x, deg_z), coeff in items:
            if type(deg_x) is not int or type(deg_z) is not int:  # bool is an int subclass
                raise TypeError(f"degrees must be int, got ({deg_x!r}, {deg_z!r})")
            if deg_x < 0 or deg_z < 0:
                raise ValueError(f"degrees must be non-negative, got ({deg_x}, {deg_z})")
            checked.append(((deg_x, deg_z), _as_rational(coeff)))
        self._terms = _collect(checked)
        self._sorted: list[MonomialKey] | None = None
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> BiPoly:
        return cls()

    @classmethod
    def one(cls) -> BiPoly:
        return cls.constant(1)

    @classmethod
    def constant(cls, value: CoefficientLike) -> BiPoly:
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, deg_x: int, deg_z: int, coeff: CoefficientLike = 1) -> BiPoly:
        return cls({(deg_x, deg_z): coeff})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, deg_x: int, deg_z: int) -> Rational:
        """Coefficient of x^deg_x z^deg_z, zero if the monomial is absent."""
        return self._terms.get((deg_x, deg_z), _ZERO)

    def _keys(self) -> list[MonomialKey]:
        if self._sorted is None:
            self._sorted = sorted(self._terms, key=lambda k: (k[0] + k[1], k[1]))
        return self._sorted

    def terms(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (deg_x, deg_z, coefficient) triples in canonical order."""
        for key in self._keys():
            yield key[0], key[1], self._terms[key]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(dx + dz for dx, dz in self._terms)

    def degree_x(self) -> int:
        if not self._terms:
            return -1
        return max(dx for dx, _ in self._terms)

    def degree_z(self) -> int:
        if not self._terms:
            return -1
        return max(dz for _, dz in self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: BiPoly | CoefficientLike) -> BiPoly:
        if not isinstance(other, BiPoly):
            try:
                other = BiPoly.constant(_as_rational(other))
            except TypeError:
                return NotImplemented
        return _from_canonical(_collect(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return _from_canonical({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: BiPoly | CoefficientLike) -> BiPoly:
        if isinstance(other, BiPoly):
            return self.__add__(-other)
        try:
            return self.__add__(-_as_rational(other))
        except TypeError:
            return NotImplemented

    def __rsub__(self, other: CoefficientLike) -> BiPoly:
        return (-self).__add__(other)

    def __mul__(self, other: BiPoly | CoefficientLike) -> BiPoly:
        if not isinstance(other, BiPoly):
            try:
                scalar = _as_rational(other)
            except TypeError:
                return NotImplemented
            if not scalar:
                return BiPoly.zero()
            return _from_canonical({key: coeff * scalar for key, coeff in self._terms.items()})
        products = (
            ((ax + bx, az + bz), ac * bc)
            for (ax, az), ac in self._terms.items()
            for (bx, bz), bc in other._terms.items()
        )
        return _from_canonical(_collect(products))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> BiPoly:
        if type(exponent) is not int:  # not isinstance: bool is an int subclass
            raise TypeError("exponent must be an int")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = BiPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus and substitution ----------------------------------------

    def diff(self, var: str) -> BiPoly:
        """Exact partial derivative with respect to ``"x"`` or ``"z"``."""
        items = self._terms.items()
        if var == "x":
            return _from_canonical({(dx - 1, dz): c * dx for (dx, dz), c in items if dx})
        if var == "z":
            return _from_canonical({(dx, dz - 1): c * dz for (dx, dz), c in items if dz})
        raise ValueError(f"var must be 'x' or 'z', got {var!r}")

    def __call__(self, x_val: CoefficientLike, z_val: CoefficientLike) -> Rational:
        """Exact value at (x_val, z_val).

        With x = a/b, z = c/d, degrees I in x and J in z and coefficients
        N_ij / D over their common denominator, the value is

            sum_i a^i b^(I-i) * sum_j N_ij * c^j d^(J-j)  /  (D * b^I * d^J),

        summed on integers, one row per x-degree, and reduced once.
        """
        x_val = _as_rational(x_val)
        z_val = _as_rational(z_val)
        if not self._terms:
            return Rational(0)
        den, nums = common_denominator(self._terms.values())
        x_pow = _scaled_powers(x_val, self.degree_x())
        z_pow = _scaled_powers(z_val, self.degree_z())
        rows = [0] * len(x_pow)
        for (dx, dz), num in zip(self._terms, nums):
            rows[dx] += num * z_pow[dz]
        total = sum(row * xp for row, xp in zip(rows, x_pow))
        return Rational(total, den * x_pow[0] * z_pow[0])

    def diagonal(self) -> BiPoly:
        """Substitute z = x: every term (i, j) collapses to degree i + j in x.

        The numerators over the common denominator are added as integers and
        each nonzero sum is reduced once.
        """
        den, nums = common_denominator(self._terms.values())
        sums: dict[int, int] = {}
        for (dx, dz), num in zip(self._terms, nums):
            sums[dx + dz] = sums.get(dx + dz, 0) + num
        return _from_canonical({(k, 0): Rational(n, den) for k, n in sums.items() if n})

    # -- comparison and display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if type(other) is int or isinstance(other, Rational):
            return self._terms == BiPoly.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            if not self._terms:
                self._hash = hash(_ZERO)
            elif len(self._terms) == 1 and (0, 0) in self._terms:
                # Constants hash like their scalar value, consistent with __eq__.
                self._hash = hash(self._terms[(0, 0)])
            else:
                self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        return _format_terms(self, "{}/{}", "{}^{}")

    def __repr__(self) -> str:
        return f"BiPoly({str(self)!r})"


def _collect(pairs: Iterable[tuple[MonomialKey, Rational]], out: _Terms | None = None) -> _Terms:
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


def _scaled_powers(value: Rational, degree: int) -> list[int]:
    """``[a^i * b^(degree-i) for i in 0..degree]`` for ``value = a/b``: the
    powers of ``value`` over the one denominator ``b^degree``."""
    num, den = value.numerator, value.denominator
    return [num**i * den ** (degree - i) for i in range(degree + 1)]


def _format_terms(poly: BiPoly, fraction: str, power: str) -> str:
    """Join ``poly``'s signed terms in canonical order; the format strings
    ``fraction`` (numerator, denominator) and ``power`` (variable, exponent)
    spell non-integer magnitudes and exponents above one."""
    parts: list[str] = []
    for dx, dz, coeff in poly.terms():
        num, den = coeff.numerator, coeff.denominator
        negative = num < 0
        if negative:
            num = -num
        factors: list[str] = []
        if num != den or not (dx or dz):
            factors.append(str(num) if den == 1 else fraction.format(num, den))
        if dx:
            factors.append("x" if dx == 1 else power.format("x", dx))
        if dz:
            factors.append("z" if dz == 1 else power.format("z", dz))
        body = " ".join(factors)
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


def _from_canonical(terms: _Terms) -> BiPoly:
    """Wrap a dict that is already zero-free without re-normalizing."""
    poly = BiPoly.__new__(BiPoly)
    poly._terms = terms
    poly._sorted = None
    poly._hash = None
    return poly


_ZERO = Rational(0)

X = BiPoly.monomial(1, 0)
Z = BiPoly.monomial(0, 1)
