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
    cone_over_divisor_delta,
    optimal_angle_interval,
    semistable_range_lambda_ge_1,
)


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
        d = optimal_angle_interval(2, Fraction(2, 3)).to_json_dict()
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
    def test_delegates_to_the_cone_formula(self):
        value = cone_over_divisor_delta(
            2, Fraction(1, 2), Fraction(3, 4), DeltaKnowledge.at_least_one()
        )
        direct = cone_delta(
            FanoBase(1, Fraction(1, 2), DeltaKnowledge.at_least_one()),
            ConeBoundary(Fraction(3, 4)),
        )
        assert value.value == direct.value == 1

    @settings(max_examples=100)
    @given(
        st.integers(min_value=2, max_value=6),
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6),
        st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10),
    )
    def test_matches_cone_delta_in_one_dimension_lower(self, n, r, a):
        via_angle = cone_over_divisor_delta(n, r, a, DeltaKnowledge.exact(1))
        direct = cone_delta(
            FanoBase(n - 1, r, DeltaKnowledge.exact(1)), ConeBoundary(a)
        )
        assert via_angle.value == direct.value
        assert via_angle.minimizers == direct.minimizers

    def test_instability_just_past_the_endpoint(self):
        # n=2, lambda=2/3 gives endpoint 3/4 with slope r=1/2 on the divisor;
        # the cone value drops below 1 once a crosses it.
        r = Fraction(1, 2)
        at_endpoint = cone_over_divisor_delta(
            2, r, Fraction(3, 4), DeltaKnowledge.at_least_one()
        )
        past = cone_over_divisor_delta(
            2, r, Fraction(7, 8), DeltaKnowledge.at_least_one()
        )
        assert at_endpoint.value == 1
        assert past.value < 1

    def test_requires_ambient_dimension_at_least_two(self):
        with pytest.raises(DomainError):
            cone_over_divisor_delta(1, 1, 0, DeltaKnowledge.exact(1))
