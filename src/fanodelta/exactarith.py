"""Exact rational scalars and dense univariate polynomials over them.

Every quantity in this library is an exact fraction. Floating point never
enters a computation path; floats appear only in display helpers that render
a decimal approximation next to the exact value.

The scalar type is ``Rational``, an alias of :class:`fractions.Fraction`:
always in lowest terms with positive denominator, exact under sums, products
and integer powers, and rendered by ``str()`` as ``"p/q"`` (or ``"p"`` when
the denominator is 1), which is exactly the serialization this library uses.
Every entry point takes a ``Fraction`` or an ``int`` and refuses text as it
refuses a float: this module writes exact values as text and never reads
them from it.

A ``Polynomial`` stores one exact form: its integer coefficients over one
common denominator, in lowest terms. Its arithmetic and its evaluation both
run on those integers.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError

Rational = Fraction

RationalLike = Union[Rational, int]


def rational(value: RationalLike) -> Rational:
    """Coerce an int or a Fraction to an exact Rational; anything else, text
    and floats included, is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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


def _of(lcm: int, ints: list[int]) -> "Polynomial":
    """The polynomial sum_k (ints[k]/lcm) t^k, for lcm > 0, in reduced form:
    trailing zeros dropped, then one division by gcd(lcm, ints)."""
    while ints and not ints[-1]:
        ints.pop()
    g = math.gcd(lcm, *ints)
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "cleared", (lcm // g, tuple([a // g for a in ints])))
    return poly


class Polynomial:
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
        object.__setattr__(self, "cleared", (lcm, ints))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, value: RationalLike) -> "Polynomial":
        return cls((rational(value),))

    @classmethod
    def monomial(cls, degree: int, coefficient: RationalLike = 1) -> "Polynomial":
        """The polynomial coefficient * t**degree."""
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (rational(coefficient),))

    @property
    def coefficients(self) -> tuple[Rational, ...]:
        """The coefficients c_0, ..., c_deg as Fractions, built on each call."""
        lcm, ints = self.cleared
        return tuple([Fraction(a, lcm) for a in ints])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.cleared[1]) - 1

    @property
    def is_zero(self) -> bool:
        return not self.cleared[1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.cleared == other.cleared
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.cleared)

    def cleared_value(self, point: RationalLike) -> tuple[int, int]:
        """The value at point = p/q as an unreduced integer pair
        (h, L*q^deg), where h = sum_k L*c_k p^k q^(deg-k) comes from Horner's
        scheme on the homogenised integer coefficients; (0, 1) for the zero
        polynomial. Callers reduce once, after any further scaling."""
        x = rational(point)
        p, q = x.numerator, x.denominator
        lcm, ints = self.cleared
        if not ints:
            return 0, 1
        h, q_power = ints[-1], 1
        for c in ints[-2::-1]:
            q_power *= q
            h = h * p + c * q_power
        return h, lcm * q_power

    def __call__(self, point: RationalLike) -> Rational:
        """Evaluate exactly at a rational point: Horner's scheme in integers,
        then one reduction."""
        return Fraction(*self.cleared_value(point))

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __add__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        (la, a), (lb, b) = self.cleared, other.cleared
        lcm = math.lcm(la, lb)
        a, b = [x * (lcm // la) for x in a], [y * (lcm // lb) for y in b]
        if len(a) < len(b):
            a, b = b, a
        for i, y in enumerate(b):
            a[i] += y
        return _of(lcm, a)

    def __sub__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        return self + Polynomial.constant(-1) * other

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        lcm, a = self.cleared
        if not isinstance(other, Polynomial):
            scalar = rational(other)
            return _of(lcm * scalar.denominator, [x * scalar.numerator for x in a])
        other_lcm, b = other.cleared
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _of(lcm * other_lcm, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def derivative(self) -> "Polynomial":
        """Exact formal derivative; degree drops by exactly one."""
        lcm, ints = self.cleared
        return _of(lcm, [k * ints[k] for k in range(1, len(ints))])

    def antiderivative(self) -> "Polynomial":
        """Exact antiderivative with zero constant term; degree rises by one.
        The new denominator is L times the lcm of the reduced (k+1)/gcd(a_k, k+1)."""
        lcm, ints = self.cleared
        m = math.lcm(*[(k + 1) // math.gcd(a, k + 1) for k, a in enumerate(ints)])
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
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                t = "t" if k == 1 else f"t^{k}"
                body = t if mag == 1 else f"{mag}*{t}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

