"""Exact rational scalars and dense univariate polynomials over them.

Every quantity in this library is an exact fraction. Floating point never
enters a computation path; floats appear only in display helpers that render
a decimal approximation next to the exact value.

The scalar type is ``Rational``, an alias of :class:`fractions.Fraction`:
always in lowest terms with positive denominator, exact under sums, products
and integer powers, and rendered by ``str()`` as ``"p/q"`` (or ``"p"`` when
the denominator is 1), which is exactly the serialization this library uses.
Every entry point takes a ``Fraction`` or an ``int`` and refuses text as it
refuses a float or a ``bool``: this module writes exact values as text and
never reads them from it.

A ``Polynomial`` stores one exact form: its integer coefficients over one
common denominator, in lowest terms. Its arithmetic and its evaluation both
run on those integers. ``Immutable`` is the base of every value type of the
library, ``Polynomial`` included, and alone decides how values compare.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Union

from .errors import DomainError

Rational = Fraction

RationalLike = Union[Rational, int]


def rational(value: RationalLike) -> Rational:
    """Coerce an int or a Fraction to an exact Rational; anything else, text,
    floats and bools included, is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Rational")


def format_rational(value: RationalLike) -> str:
    """Render a Rational as "p/q", or "p" when the denominator is 1; an int
    or bool renders as its integer value."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(numerator: int, denominator: int) -> str:
    """The text of numerator/denominator for a pair already in lowest terms
    with denominator > 0, without building the Fraction. Digits beyond the
    interpreter's int-to-str limit raise DomainError."""
    try:
        return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)
    except ValueError:
        raise DomainError(
            f"exact value has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's int-to-str conversion limit"
        ) from None


def _rebuild(cls: type, *values: object) -> "Immutable":
    """A cls value with these fields, set without running the checks of its
    __init__ again: copy, pickle and Polynomial's arithmetic build values
    through it, and nothing else builds a value without __init__."""
    value = object.__new__(cls)
    Immutable.__init__(value, *values)
    return value


class Immutable:
    """Base of the library's value types. A subclass names its fields, in
    order, as __slots__, and its __init__ passes them all, in that order, to
    Immutable.__init__, the only code that sets a field. A value is then
    immutable, equal to a value of its own class with equal fields (hashed
    to match), shown by its fields in order, and copied and pickled by field."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The class leads the key, so values of two classes are never equal.
        cls._key = attrgetter("__class__", *cls.__slots__)
        # Each slot's own setter, which bypasses __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *fields: object) -> None:
        if len(fields) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._setters)} fields")
        for setter, field in zip(self._setters, fields):
            setter(self, field)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Immutable):
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return _rebuild, self._key(self)


def _of(lcm: int, ints: list[int]) -> "Polynomial":
    """The polynomial sum_k (ints[k]/lcm) t^k, for lcm > 0, in reduced form:
    trailing zeros dropped, then one division by gcd(lcm, ints)."""
    while ints and not ints[-1]:
        ints.pop()
    g = math.gcd(lcm, *ints)
    return _rebuild(Polynomial, (lcm // g, tuple([a // g for a in ints])))


class Polynomial(Immutable):
    """Dense univariate polynomial over Rational, indexed by degree.

    Immutable. It stores one exact form, read as ``cleared``: the integer
    coefficients a_k = L*c_k over one denominator L, in lowest terms (L > 0,
    gcd(L, a_0, ..., a_deg) = 1, a nonzero leading a_deg; the zero
    polynomial is (1, ())). Arithmetic, differentiation, antidifferentiation
    and evaluation all run on these integers, and each result is reduced
    once; the Fraction coefficients are built only when asked for.
    """

    __slots__ = ("cleared",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()) -> None:
        # Reduced fractions over their lcm are in lowest terms already.
        coeffs = [rational(c) for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        lcm = math.lcm(*[c.denominator for c in coeffs])
        ints = tuple([c.numerator * (lcm // c.denominator) for c in coeffs])
        super().__init__((lcm, ints))

    @classmethod
    def monomial(cls, degree: int, coefficient: RationalLike = 1) -> "Polynomial":
        """The polynomial coefficient * t**degree."""
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        c = rational(coefficient)
        return _of(c.denominator, [0] * degree + [c.numerator])

    @property
    def coefficients(self) -> tuple[Rational, ...]:
        """The coefficients c_0, ..., c_deg as Fractions, built on each call."""
        lcm, ints = self.cleared
        return tuple([Fraction(a, lcm) for a in ints])

    @property
    def is_zero(self) -> bool:
        return not self.cleared[1]

    def __call__(self, point: RationalLike) -> Rational:
        """Evaluate exactly at a rational point p/q: Horner's scheme on the
        integers sum_k L*c_k p^k q^(deg-k), then one division by L*q^deg."""
        x = rational(point)
        p, q = x.numerator, x.denominator
        lcm, ints = self.cleared
        if not ints:
            return Fraction(0)
        h, q_power = ints[-1], 1
        for c in ints[-2::-1]:
            q_power *= q
            h = h * p + c * q_power
        return Fraction(h, lcm * q_power)

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        (la, a), (lb, b) = self.cleared, other.cleared
        lcm = math.lcm(la, lb)
        a, b = [x * (lcm // la) for x in a], [y * (lcm // lb) for y in b]
        if len(a) < len(b):
            a, b = b, a
        for i, y in enumerate(b):
            a[i] += y
        return _of(lcm, a)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.monomial(0, other)
        (lcm, a), (other_lcm, b) = self.cleared, other.cleared
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _of(lcm * other_lcm, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial.monomial(0)
        for _ in range(exponent):
            result = result * self
        return result

    def derivative(self) -> "Polynomial":
        """Exact formal derivative; degree drops by exactly one."""
        lcm, ints = self.cleared
        return _of(lcm, [k * ints[k] for k in range(1, len(ints))])

    def antiderivative(self) -> "Polynomial":
        """Exact antiderivative with zero constant term; degree rises by one.
        The coefficients go over L * lcm(1, ..., deg+1), which _of reduces."""
        lcm, ints = self.cleared
        m = math.lcm(*range(1, len(ints) + 1))
        return _of(lcm * m, [0] + [a * m // (k + 1) for k, a in enumerate(ints)])

    def integrate(self, lo: RationalLike, hi: RationalLike) -> Rational:
        """Exact definite integral over [lo, hi]; requires lo <= hi.

        Computed through the exact antiderivative, so additivity over adjacent
        intervals holds as an identity of rationals, not up to rounding.
        """
        a, b = rational(lo), rational(hi)
        if a > b:
            raise DomainError(f"integration bounds must satisfy lo <= hi, got {a} > {b}")
        anti = self.antiderivative()
        return anti(b) - anti(a)

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k, c in reversed(list(enumerate(self.coefficients))):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = format_rational(abs(c))
            if k == 0:
                body = mag
            else:
                t = "t" if k == 1 else f"t^{k}"
                body = t if mag == "1" else f"{mag}*{t}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

