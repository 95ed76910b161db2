"""Optimal K-semistability angle ranges for a Fano with a smooth divisor."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanodelta import (
    ConeBoundary,
    DeltaKnowledge,
    DomainError,
    FanoBase,
    cone_delta,
    optimal_angle_interval,
    semistable_range_lambda_ge_1,
)
from fanodelta.cli import _angle_json


class TestSmallLambdaInterval:
    def test_frozen_endpoint(self):
        interval = optimal_angle_interval(2, Fraction(2, 3))
        assert interval.endpoint == Fraction(3, 4)
        assert interval.closed

    def test_hypersurface_family(self):
        # lambda = d/(n+1) for a degree-d hypersurface section: the endpoint
        # is 1 - (n+1-d)/(d*n).
        for n in range(2, 8):
            for d in range(1, n + 1):
                lam = Fraction(d, n + 1)
                if lam < Fraction(1, n + 1) or lam >= 1:
                    continue
                interval = optimal_angle_interval(n, lam)
                r = 1 / lam - 1
                assert interval.endpoint == 1 - r / n

    def test_degenerate_endpoint_is_zero(self):
        interval = optimal_angle_interval(2, Fraction(1, 3))
        assert interval.endpoint == 0
        assert interval.closed

    def test_small_lambda_is_rejected(self):
        with pytest.raises(DomainError, match="lambda >= 1/\\(n\\+1\\)"):
            optimal_angle_interval(2, Fraction(1, 4))

    def test_lambda_at_least_one_is_routed_elsewhere(self):
        with pytest.raises(DomainError):
            optimal_angle_interval(2, 1)

    @pytest.mark.parametrize("lam", [0, -1])
    def test_nonpositive_lambda_is_rejected(self, lam):
        with pytest.raises(DomainError, match="lambda > 0"):
            optimal_angle_interval(2, lam)

    def test_dimension_is_rejected_below_one(self):
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            optimal_angle_interval(0, Fraction(1, 2))

    def test_json_shape(self):
        d = _angle_json(optimal_angle_interval(2, Fraction(2, 3)))
        assert d["endpoint"] == "3/4"
        assert d["semistable_closed"] is True
        assert d["polystable_open_interval"] is True
        assert isinstance(d["hypotheses"], list) and d["hypotheses"]


class TestLargeLambdaRange:
    def test_lambda_one(self):
        interval = semistable_range_lambda_ge_1(2, 1)
        assert interval.endpoint == 1
        assert not interval.closed
        assert any("interpolation" in h for h in interval.hypotheses)
        assert not any("uniform" in h and "claimed" not in h for h in interval.hypotheses)

    def test_lambda_two(self):
        interval = semistable_range_lambda_ge_1(3, 2)
        assert interval.endpoint == Fraction(1, 2)
        assert not interval.closed

    def test_lambda_three_halves(self):
        interval = semistable_range_lambda_ge_1(2, Fraction(3, 2))
        assert interval.endpoint == Fraction(2, 3)

    def test_requires_lambda_at_least_one(self):
        with pytest.raises(DomainError):
            semistable_range_lambda_ge_1(2, Fraction(9, 10))


class TestEndpointIdentity:
    @settings(max_examples=100)
    @given(
        st.integers(min_value=1, max_value=10),
        st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
    )
    def test_endpoint_balances_the_two_normalizations(self, n, r):
        # At a = 1 - r/n the identities (n+1)(1-a) and r+1-a coincide, which
        # is what makes the endpoint the exact threshold.
        if r > n:
            return
        a = 1 - Fraction(r, n)
        assert (n + 1) * (1 - a) == r + 1 - a


class TestConeOverDivisor:
    # S has dimension n - 1, so the cone over it with angle boundary a is
    # cone_delta one dimension lower with c = a.

    @settings(max_examples=100)
    @given(
        st.integers(min_value=2, max_value=6),
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6),
        st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10),
    )
    def test_infinity_branch_closed_form_one_dimension_lower(self, n, r, a):
        cone = cone_delta(FanoBase(n - 1, r, DeltaKnowledge.exact(1)), ConeBoundary(a))
        assert cone.vinf_branch == (n + 1) * (1 - a) / (r + 1 - a)

    def test_instability_just_past_the_endpoint(self):
        # n=2, lambda=2/3 gives endpoint 3/4 with slope r=1/2 on the divisor;
        # the cone value is 1 there and drops below 1 once a crosses it.
        r = Fraction(1, 2)
        endpoint = optimal_angle_interval(2, Fraction(2, 3)).endpoint
        assert endpoint == Fraction(3, 4)
        divisor = FanoBase(1, r, DeltaKnowledge.at_least_one())
        at_endpoint = cone_delta(divisor, ConeBoundary(endpoint))
        past = cone_delta(divisor, ConeBoundary(Fraction(7, 8)))
        assert at_endpoint.value == 1
        assert past.value < 1
