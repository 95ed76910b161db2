"""Exact rational scalars and dense univariate polynomials over them.

Every quantity in this library is an exact fraction. Floating point never
enters a computation path; floats appear only in display helpers that render
a decimal approximation next to the exact value.

The scalar type is ``Rational``, an alias of :class:`fractions.Fraction`:
always in lowest terms with positive denominator, exact under sums, products
and integer powers, and rendered by ``str()`` as ``"p/q"`` (or ``"p"`` when
the denominator is 1), which is exactly the serialization this library uses.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError

Rational = Fraction

RationalLike = Union[Rational, int, str]


def rational(value: RationalLike) -> Rational:
    """Coerce an int, Fraction, or string to an exact Rational.

    Strings accept "p/q", "p", and decimal forms like "0.25"; decimal
    conversion is exact (0.25 becomes 1/4, never a binary float).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Rational")


def parse_rational(text: str) -> Rational:
    """Parse "p/q", "p", or an exact decimal string into a Rational.
    Exponent notation is refused: "1e10000000" alone takes seconds to expand."""
    try:
        if "e" in text.lower():
            raise ValueError("exponent notation")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def format_rational(value: Rational) -> str:
    """Render a Rational as "p/q", or "p" when the denominator is 1. Digits
    beyond the interpreter's int-to-str limit raise DomainError."""
    if not isinstance(value, Fraction):
        value = Fraction(value)  # an int or bool renders as its integer value
    try:
        return str(value)
    except ValueError:
        raise DomainError(
            f"exact value has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's int-to-str conversion limit"
        ) from None


def _as_coeff_tuple(coefficients: Iterable[RationalLike]) -> tuple[Rational, ...]:
    coeffs = [rational(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Polynomial:
    """Dense univariate polynomial over Rational, indexed by degree.

    Immutable. The zero polynomial stores no coefficients; any other
    polynomial stores coefficients up to a nonzero leading one. Evaluation,
    differentiation, antidifferentiation, and definite integration are all
    exact.

    Evaluation runs in integers: the coefficients are cleared to
    L*c_k over their least common denominator L once, on first use, and
    each value is one reduced fraction.
    """

    __slots__ = ("_coeffs", "_cleared")

    def __init__(self, coefficients: Iterable[RationalLike] = ()) -> None:
        object.__setattr__(self, "_coeffs", _as_coeff_tuple(coefficients))
        object.__setattr__(self, "_cleared", None)

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
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, degree: int) -> Rational:
        if 0 <= degree < len(self._coeffs):
            return self._coeffs[degree]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    @property
    def cleared(self) -> tuple[int, tuple[int, ...]]:
        """(L, (L*c_0, ..., L*c_deg)): the least common denominator L of the
        coefficients and the integer coefficients over it; (1, ()) for the
        zero polynomial. Computed on first use and kept."""
        if self._cleared is None:
            # Lists, not generators: tuple() of a generator allocates ten
            # slots and shrinks, which strands small tuples on the
            # interpreter's free lists.
            lcm = math.lcm(*[c.denominator for c in self._coeffs])
            ints = tuple([c.numerator * (lcm // c.denominator) for c in self._coeffs])
            object.__setattr__(self, "_cleared", (lcm, ints))
        return self._cleared

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
        return Polynomial(-c for c in self._coeffs)

    def __add__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Polynomial(summed)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            scalar = rational(other)
            return Polynomial(scalar * c for c in self._coeffs)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

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
        return Polynomial(k * c for k, c in enumerate(self._coeffs) if k >= 1)

    def antiderivative(self) -> "Polynomial":
        """Exact antiderivative with zero constant term; degree rises by one."""
        if self.is_zero:
            return Polynomial.zero()
        return Polynomial(
            [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self._coeffs)]
        )

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
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
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

