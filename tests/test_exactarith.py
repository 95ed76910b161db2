"""Exact rational and polynomial arithmetic: frozen values and algebraic
invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanodelta import DomainError, cli
from fanodelta.exactarith import Polynomial, format_rational, rational

nonzero_fractions = st.fractions().filter(lambda q: q != 0)

coefficient_lists = st.lists(st.fractions(max_denominator=50), min_size=0, max_size=6)
small_polys = st.builds(Polynomial, coefficient_lists)


class TestRationalHelpers:
    """format_rational writes the text of an exact value, and the command
    line's rational converter is its one reader."""

    def test_parse_simple_forms(self):
        assert cli.rational("3/4") == Fraction(3, 4)
        assert cli.rational("-9") == Fraction(-9)
        assert cli.rational("0.25") == Fraction(1, 4)

    def test_parse_rejects_non_rational_text(self):
        with pytest.raises(ValueError, match="not a rational"):
            cli.rational("abc")
        with pytest.raises(ValueError, match="not a rational"):
            cli.rational("1/0")

    @pytest.mark.parametrize("text", ["1e3", "2.5E-1", " 7e0 "])
    def test_parse_refuses_exponent_notation(self, text):
        # Fraction would expand "1e10000000" into ten million digits.
        with pytest.raises(ValueError, match="not a rational"):
            cli.rational(text)

    def test_parse_strips_surrounding_whitespace(self):
        assert cli.rational(" 3/4\n") == Fraction(3, 4)
        assert cli.rational("\t-.5 ") == Fraction(-1, 2)
        assert cli.rational("+10") == Fraction(10)

    @pytest.mark.parametrize("text", ["1_0", "2 / 3", "\u0663", "1/\u0663", "1\u00a0/2", "0x10"])
    def test_parse_refuses_text_outside_the_ascii_grammar(self, text):
        # Fraction reads "1_0" and "2 / 3" on some Python versions and not on
        # others, and any Unicode digit on all of them.
        with pytest.raises(ValueError, match="not a rational"):
            cli.rational(text)

    def test_format_is_plain_fraction_text(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-2)) == "-2"
        assert format_rational(Fraction(0)) == "0"

    @given(st.fractions())
    def test_parse_inverts_format(self, q):
        assert cli.rational(format_rational(q)) == q

    @given(nonzero_fractions, nonzero_fractions)
    def test_division_round_trip(self, a, b):
        assert (a / b) * (b / a) == 1

    @pytest.mark.parametrize(
        "value,text",
        [(7, "7"), (-3, "-3"), (True, "1"), (False, "0"), (Fraction(3, 4), "3/4"),
         (Fraction(-6, 3), "-2")],
    )
    def test_format_renders_ints_bools_and_fractions_alike(self, value, text):
        # A Fraction is rendered as given; an int or bool as the Fraction of it.
        assert format_rational(value) == text == str(Fraction(value))

    def test_rational_coerces_ints_and_refuses_text(self):
        assert rational(7) == Fraction(7)
        assert rational(Fraction(1, 2)) == Fraction(1, 2)
        for value in ("5/3", 0.5, None):
            with pytest.raises(TypeError, match="cannot coerce"):
                rational(value)


class TestPolynomialBasics:
    def test_trailing_zeros_are_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert p.coefficients == (Fraction(1), Fraction(2))

    def test_zero_polynomial(self):
        z = Polynomial.zero()
        assert z.is_zero
        assert z.degree == -1
        assert z(Fraction(5)) == 0

    def test_monomial_and_constant(self):
        assert Polynomial.monomial(3)(Fraction(2)) == 8
        assert Polynomial.monomial(2, Fraction(1, 2))(4) == 8
        assert Polynomial.constant(Fraction(7, 3)).degree == 0

    def test_refuses_mutation_and_negative_degrees(self):
        p = Polynomial([1, 2])
        with pytest.raises(AttributeError, match="immutable"):
            p.cleared = (1, ())
        with pytest.raises(ValueError, match="nonnegative"):
            Polynomial.monomial(-1)
        with pytest.raises(ValueError, match="nonnegative integer"):
            p ** -1

    def test_evaluation_uses_exact_arithmetic(self):
        p = Polynomial([Fraction(1, 3), Fraction(-1, 7), Fraction(2, 11)])
        x = Fraction(5, 13)
        assert p(x) == Fraction(1, 3) - Fraction(1, 7) * x + Fraction(2, 11) * x * x

    @given(
        st.lists(st.fractions(max_denominator=1000), min_size=0, max_size=8),
        st.fractions(max_denominator=1000),
    )
    @example([], Fraction(5, 3))
    @example([Fraction(2, 3), Fraction(-1, 5)], Fraction(0))
    @example([Fraction(1, 2), 0, Fraction(-7, 4), 3], Fraction(-5, 6))
    @example([Fraction(1, 6), Fraction(5, 9), Fraction(1, 4)], Fraction(-3))
    @example([Fraction(-3, 10), 0, 0, Fraction(9, 14)], Fraction(4))
    def test_evaluation_matches_the_fraction_horner(self, coefficients, x):
        p = Polynomial(coefficients)
        assert p(x) == _reference_horner(p.coefficients, x)
        assert p(x.numerator if x.denominator == 1 else x) == p(x)

    def test_cleared_form(self):
        p = Polynomial([Fraction(1, 6), 0, Fraction(-3, 4), 2])
        assert p.cleared == (12, (2, 0, -9, 24))
        assert Polynomial.zero().cleared == (1, ())
        # (t + 1)/2 at t = 3/5 is h = 3 + 5 over L*q^deg = 2*5, not reduced.
        assert Polynomial([Fraction(1, 2), Fraction(1, 2)]).cleared_value(Fraction(3, 5)) == (
            8, 10)

    def test_pretty_printing(self):
        p = Polynomial([Fraction(-9, 14), 0, Fraction(13, 14), Fraction(-2, 7)])
        assert str(p) == "-2/7*t^3 + 13/14*t^2 - 9/14"
        assert str(Polynomial.zero()) == "0"

    @given(small_polys, small_polys)
    def test_addition_commutes(self, p, q):
        assert (p + q).coefficients == (q + p).coefficients

    @given(small_polys, small_polys, st.fractions(max_denominator=20))
    def test_product_evaluates_pointwise(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)

    @given(small_polys, st.integers(min_value=0, max_value=4))
    def test_power_matches_repeated_product(self, p, k):
        expected = Polynomial.constant(1)
        for _ in range(k):
            expected = expected * p
        assert (p**k).coefficients == expected.coefficients


class TestArithmeticMatchesTheFractionReference:
    """Each operation on the integer form against the same operation on
    plain Fraction coefficient lists: the arithmetic route the integer form
    replaced. Every result is also in reduced form."""

    @given(coefficient_lists, coefficient_lists, st.fractions(max_denominator=50))
    def test_ring_operations(self, a, b, c):
        p, q = Polynomial(a), Polynomial(b)
        cases = [
            (-p, [-x for x in a]),
            (p + q, _reference_sum(a, b)),
            (p - q, _reference_sum(a, [-y for y in b])),
            (p * q, _reference_product(a, b)),
            (p * c, [x * c for x in a]),
            (c * p, [c * x for x in a]),
        ]
        for result, expected in cases:
            assert result.coefficients == _trimmed(expected)
            _assert_reduced(result)

    @given(coefficient_lists)
    def test_calculus(self, a):
        p = Polynomial(a)
        cases = [
            (p.derivative(), [k * x for k, x in enumerate(a)][1:]),
            (p.antiderivative(), [Fraction(0)] + [x / (k + 1) for k, x in enumerate(a)]),
        ]
        for result, expected in cases:
            assert result.coefficients == _trimmed(expected)
            _assert_reduced(result)


class TestCalculus:
    def test_derivative_of_cubic(self):
        p = Polynomial([Fraction(-9, 14), 0, Fraction(13, 14), Fraction(-2, 7)])
        assert p.derivative().coefficients == (
            Fraction(0),
            Fraction(13, 7),
            Fraction(-6, 7),
        )

    def test_derivative_drops_constants(self):
        assert Polynomial.constant(5).derivative().is_zero

    def test_square_integral(self):
        p = Polynomial.monomial(2)
        assert p.integrate(1, 3) == Fraction(26, 3)

    def test_empty_interval_integral_vanishes(self):
        p = Polynomial([1, 2, 3])
        assert p.integrate(Fraction(5, 7), Fraction(5, 7)) == 0

    def test_integral_rejects_reversed_interval(self):
        with pytest.raises(DomainError):
            Polynomial.monomial(1).integrate(3, 1)

    def test_shifted_volume_integral(self):
        # B^(n+1) - (A+t)^(n+1) with n=1, A=1, B=3 over [0, B-A]:
        # 9*2 - 26/3 = 28/3, and dividing by B^(n+1) - A^(n+1) = 8 gives the
        # normalized section area 7/6.
        p = Polynomial.constant(9) - Polynomial([1, 1]) ** 2
        raw = p.integrate(0, 2)
        assert raw == Fraction(28, 3)
        assert raw / 8 == Fraction(7, 6)

    def test_shifted_cubic_constant_integral(self):
        # A constant 27 head with the same quadratic tail lands on 136/3.
        p = Polynomial.constant(27) - Polynomial([1, 1]) ** 2
        assert p.integrate(0, 2) == Fraction(136, 3)

    @given(
        small_polys,
        st.fractions(max_denominator=12),
        st.fractions(max_denominator=12),
        st.fractions(max_denominator=12),
    )
    def test_integral_is_additive_over_adjacent_intervals(self, p, a, b, c):
        lo, mid, hi = sorted([a, b, c])
        whole = p.integrate(lo, hi)
        split = p.integrate(lo, mid) + p.integrate(mid, hi)
        assert whole == split

    @given(small_polys)
    def test_derivative_inverts_antiderivative(self, p):
        assert p.antiderivative().derivative().coefficients == p.coefficients

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=50))
    def test_antiderivative_round_trip_high_degree(self, k):
        p = Polynomial.monomial(k, Fraction(3, 7))
        assert p.antiderivative().derivative().coefficients == p.coefficients


def _reference_horner(coefficients, x):
    """Horner's scheme in Fraction arithmetic, one reduction per step: the
    evaluation route the integer form replaced."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def _trimmed(coefficients):
    coefficients = list(coefficients)
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    return tuple(coefficients)


def _reference_sum(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for coefficients in (a, b):
        for k, c in enumerate(coefficients):
            out[k] += c
    return out


def _reference_product(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _assert_reduced(p):
    """L > 0, gcd(L, a_0, ..., a_deg) = 1 and a nonzero leading a_deg."""
    lcm, ints = p.cleared
    assert lcm > 0
    assert math.gcd(lcm, *ints) == 1
    assert not ints or ints[-1] != 0
