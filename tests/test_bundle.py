"""Projectivized-bundle delta invariants: frozen values, domain guards, and
structural properties of the three-branch minimum."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanodelta import (
    BundleBoundary,
    ConeBoundary,
    DeltaKnowledge,
    DomainError,
    FanoBase,
    beta_zero,
    bundle_delta,
    centroid_phi,
    smooth_threshold_relation,
    solve_profile,
)
from fanodelta.bundle import DeltaBreakdown, boundary_interval
from fanodelta.cli import _breakdown_json

# Strategy pieces reused across property tests. Slopes and boundary
# coefficients are kept small so the exact arithmetic stays readable in
# failure messages.

dims = st.integers(min_value=1, max_value=6)
slopes = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=8)
unit_coefficients = st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10)
delta_values = st.fractions(
    min_value=Fraction(1, 10), max_value=3, max_denominator=12
)

# A small pool of branch values, so that ties occur, with ints beside equal
# Fractions.
tie_prone_branches = st.sampled_from(
    [Fraction(1, 3), Fraction(1, 2), 1, Fraction(1), Fraction(3, 2), 2]
)


def valid_boundary(n, r, a, b):
    """Mirror the domain rule: a is free in [0,1) for r>1 but pinched to
    (1-r, 1) when r <= 1."""
    if r <= 1 and a <= 1 - r:
        return False
    return 0 <= a < 1 and 0 <= b < 1


class TestDeltaKnowledge:
    def test_exact_and_lower_bound_forms(self):
        exact = DeltaKnowledge.exact(Fraction(3, 4))
        assert exact.is_exact and exact.value == Fraction(3, 4)
        ge1 = DeltaKnowledge.at_least_one()
        assert not ge1.is_exact and ge1.value is None

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            DeltaKnowledge.exact(Fraction(-1, 2))

    def test_constructor_rejects_negative_delta(self):
        # The constructor runs the same check as exact, so a negative value
        # never reaches a formula.
        with pytest.raises(DomainError, match="delta\\(V\\) must be >= 0"):
            bundle_delta(FanoBase(1, 2, DeltaKnowledge(Fraction(-3))))

    def test_constructor_coerces_like_exact(self):
        knowledge = DeltaKnowledge(Fraction(1, 2))
        assert knowledge == DeltaKnowledge.exact(Fraction(1, 2))
        assert bundle_delta(FanoBase(1, 2, knowledge)).value == Fraction(6, 13)
        assert DeltaKnowledge(1) == DeltaKnowledge.exact(1)
        assert DeltaKnowledge(1).value == Fraction(1)
        assert DeltaKnowledge(None) == DeltaKnowledge.at_least_one()
        with pytest.raises(TypeError):
            DeltaKnowledge.exact(None)
        for refused in ("1/2", 0.5):
            with pytest.raises(TypeError, match="cannot coerce"):
                DeltaKnowledge(refused)
            with pytest.raises(TypeError, match="cannot coerce"):
                DeltaKnowledge.exact(refused)

    @pytest.mark.parametrize(
        "build",
        [lambda: FanoBase(1, "2", DeltaKnowledge.exact(1)), lambda: BundleBoundary("1/2")],
        ids=["FanoBase", "BundleBoundary"],
    )
    def test_text_is_refused_as_a_float_is(self, build):
        # Text is read only by the command line's converters.
        with pytest.raises(TypeError, match="cannot coerce str to Rational"):
            build()


class TestCentroid:
    def test_interval_1_3_dimension_1(self):
        assert centroid_phi(1, 3, 1) == Fraction(13, 6)

    def test_unit_interval_dimension_0(self):
        assert centroid_phi(0, 1, 0) == Fraction(1, 2)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            centroid_phi(3, 1, 2)
        with pytest.raises(DomainError):
            centroid_phi(-1, 2, 1)

    def test_rejects_a_point_interval(self):
        with pytest.raises(DomainError, match="interval requires A < B, got A=1, B=1"):
            centroid_phi(1, 1, 2)

    @settings(max_examples=200)
    @given(
        st.integers(min_value=0, max_value=10),
        st.fractions(min_value=0, max_value=20, max_denominator=9),
        st.fractions(min_value=0, max_value=20, max_denominator=9),
    )
    def test_centroid_lies_strictly_inside_the_interval(self, n, x, y):
        if x == y:
            return
        lo, hi = min(x, y), max(x, y)
        phi = centroid_phi(lo, hi, n)
        assert lo < phi < hi

    @settings(max_examples=300)
    @given(
        st.integers(min_value=0, max_value=12),
        st.fractions(min_value=0, max_value=20, max_denominator=30),
        st.fractions(min_value=Fraction(1, 30), max_value=20, max_denominator=30),
    )
    @example(0, Fraction(0), Fraction(1))
    @example(3, Fraction(0), Fraction(5, 2))  # the cone interval [0, B]
    @example(2, Fraction(7, 3), Fraction(1, 6))  # coprime denominators
    def test_integer_route_equals_the_fraction_formula(self, n, lo, width):
        assert centroid_phi(lo, lo + width, n) == _reference_centroid_phi(lo, lo + width, n)

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=8), st.fractions(min_value=0, max_value=5, max_denominator=6))
    def test_centroid_exceeds_midpoint_for_positive_weight(self, n, lo):
        # The weight t^n tilts mass toward the right endpoint once n >= 1.
        hi = lo + 2
        phi = centroid_phi(lo, hi, n)
        mid = (lo + hi) / 2
        if n == 0:
            assert phi == mid
        else:
            assert phi > mid


class TestBetaZero:
    def test_frozen_values(self):
        assert beta_zero(1, 2) == Fraction(6, 7)
        assert beta_zero(1, 3) == Fraction(9, 10)
        assert beta_zero(2, 2) == Fraction(13, 17)

    def test_requires_r_above_one(self):
        with pytest.raises(DomainError):
            beta_zero(1, 1)
        with pytest.raises(DomainError):
            beta_zero(2, Fraction(1, 2))

    def test_strict_window_on_quarter_grid(self):
        # The announced range (1/2, 1) on every n in [1,10] and every slope
        # on the step-1/4 grid in (1, n+1].
        for n in range(1, 11):
            r = Fraction(5, 4)
            while r <= n + 1:
                value = beta_zero(n, r)
                assert Fraction(1, 2) < value < 1, (n, r, value)
                r += Fraction(1, 4)

    @settings(max_examples=150)
    @given(dims, st.fractions(min_value=Fraction(11, 10), max_value=12, max_denominator=16))
    def test_strict_window_everywhere(self, n, r):
        assert Fraction(1, 2) < beta_zero(n, r) < 1


class TestBoundaryInterval:
    def test_interval_for_plain_base(self):
        base = FanoBase(1, 2, DeltaKnowledge.exact(1))
        assert boundary_interval(base, BundleBoundary()) == (1, 3)

    def test_interval_shrinks_with_boundary(self):
        base = FanoBase(2, 3, DeltaKnowledge.exact(1))
        bdry = BundleBoundary(Fraction(1, 2), Fraction(1, 4))
        assert boundary_interval(base, bdry) == (Fraction(5, 2), Fraction(15, 4))

    def test_low_slope_requires_large_a(self):
        base = FanoBase(2, Fraction(1, 2), DeltaKnowledge.at_least_one())
        with pytest.raises(DomainError, match="1-r < a < 1"):
            boundary_interval(base, BundleBoundary(Fraction(1, 4), 0))
        # just inside the window is fine
        A, B = boundary_interval(base, BundleBoundary(Fraction(3, 4), 0))
        assert (A, B) == (Fraction(1, 4), Fraction(3, 2))

    def test_slope_one_takes_the_low_slope_window(self):
        # At r = 1 the window is 1-r < a < 1, so a = 0 (valid for r > 1) is
        # refused: A = r-1+a would be 0.
        base = FanoBase(1, 1, DeltaKnowledge.at_least_one())
        with pytest.raises(DomainError, match="1-r < a < 1 when r <= 1, got a=0 with r=1"):
            boundary_interval(base, BundleBoundary())

    def test_b_range_guard(self):
        base = FanoBase(1, 2, DeltaKnowledge.exact(1))
        with pytest.raises(DomainError, match="0 <= b < 1"):
            boundary_interval(base, BundleBoundary(0, 1))

    def test_a_range_guard_for_high_slope(self):
        base = FanoBase(1, 2, DeltaKnowledge.exact(1))
        with pytest.raises(DomainError, match="0 <= a < 1"):
            boundary_interval(base, BundleBoundary(Fraction(-1, 4), 0))


class TestFrozenBundleValues:
    def test_blowup_of_plane_in_a_point(self):
        b = bundle_delta(FanoBase(1, 2, DeltaKnowledge.exact(1)))
        assert b.value == Fraction(6, 7)
        assert b.minimizers == ("V0",)
        assert b.base_branch == Fraction(12, 13)
        assert b.v0_branch == Fraction(6, 7)
        assert b.vinf_branch == Fraction(6, 5)
        assert _breakdown_json(b)["lower_bound_only"] is False

    def test_boundary_shifts_every_branch(self):
        base = FanoBase(2, 3, DeltaKnowledge.exact(1))
        bdry = BundleBoundary(Fraction(1, 2), Fraction(1, 4))
        b = bundle_delta(base, bdry)
        assert b.base_branch == Fraction(304, 325)
        assert b.v0_branch == Fraction(152, 215)
        assert b.vinf_branch == Fraction(76, 55)
        assert b.value == Fraction(152, 215)
        assert b.minimizers == ("V0",)

    def test_lower_bound_base_still_gives_exact_value(self):
        # With delta(V) only known to be >= 1, the fiber branches still
        # dominate, so the result is exact and BaseDivisor is excluded.
        b = bundle_delta(FanoBase(1, 2, DeltaKnowledge.at_least_one()))
        assert b.value == Fraction(6, 7)
        assert _breakdown_json(b)["lower_bound_only"] is False
        assert b.base_branch is None
        assert "BaseDivisor" not in b.minimizers

    def test_threshold_tie_between_base_and_zero_section(self):
        # delta(V) = 13/14 makes the base branch equal the V0 branch at 6/7.
        b = bundle_delta(FanoBase(1, 2, DeltaKnowledge.exact(Fraction(13, 14))))
        assert b.value == Fraction(6, 7)
        assert b.base_branch == Fraction(6, 7)
        assert set(b.minimizers) == {"BaseDivisor", "V0"}

    def test_json_shape(self):
        d = _breakdown_json(bundle_delta(FanoBase(1, 2, DeltaKnowledge.exact(1))))
        assert d == {
            "branches": {"base": "12/13", "v0": "6/7", "vinf": "6/5"},
            "value": "6/7",
            "lower_bound_only": False,
            "minimizers": ["V0"],
        }


class TestSectionAreas:
    """The expected vanishing orders of the sections, centroid - A for V0
    and B - centroid for Vinf, over the fiber support interval."""

    def test_plain_values(self):
        A, B = boundary_interval(FanoBase(1, 2, DeltaKnowledge.exact(1)), BundleBoundary())
        assert centroid_phi(A, B, 1) - A == Fraction(7, 6)
        assert B - centroid_phi(A, B, 1) == Fraction(5, 6)

    @settings(max_examples=150)
    @given(dims, slopes, unit_coefficients, unit_coefficients)
    def test_areas_sum_to_interval_length(self, n, r, a, b):
        if not valid_boundary(n, r, a, b):
            return
        base = FanoBase(n, r, DeltaKnowledge.at_least_one())
        A, B = boundary_interval(base, BundleBoundary(a, b))
        phi = centroid_phi(A, B, n)
        assert (phi - A) > 0 and (B - phi) > 0
        assert (phi - A) + (B - phi) == 2 - a - b


class TestBranchStructure:
    @settings(max_examples=200)
    @given(dims, slopes, unit_coefficients, unit_coefficients, delta_values)
    def test_value_is_the_minimum_of_the_reported_branches(self, n, r, a, b, dv):
        if not valid_boundary(n, r, a, b):
            return
        breakdown = bundle_delta(
            FanoBase(n, r, DeltaKnowledge.exact(dv)), BundleBoundary(a, b)
        )
        branches = [
            breakdown.base_branch,
            breakdown.v0_branch,
            breakdown.vinf_branch,
        ]
        assert breakdown.value == min(branches)
        assert _breakdown_json(breakdown)["lower_bound_only"] is False

    @settings(max_examples=200)
    @given(dims, slopes, unit_coefficients, unit_coefficients)
    def test_fiber_branches_dominate_base_when_delta_is_one(self, n, r, a, b):
        # The centroid always separates one section branch below the base
        # branch at delta(V) = 1, so a lower-bound-only base still pins the
        # exact value.
        if not valid_boundary(n, r, a, b):
            return
        exact = bundle_delta(
            FanoBase(n, r, DeltaKnowledge.exact(1)), BundleBoundary(a, b)
        )
        assert min(exact.v0_branch, exact.vinf_branch) <= exact.base_branch
        bound_only = bundle_delta(
            FanoBase(n, r, DeltaKnowledge.at_least_one()), BundleBoundary(a, b)
        )
        assert bound_only.value == min(exact.v0_branch, exact.vinf_branch)
        assert _breakdown_json(bound_only)["lower_bound_only"] is False
        assert "BaseDivisor" not in bound_only.minimizers

    @settings(max_examples=120)
    @given(dims, slopes, unit_coefficients, unit_coefficients, delta_values, delta_values)
    def test_value_is_monotone_in_base_delta(self, n, r, a, b, d1, d2):
        if not valid_boundary(n, r, a, b):
            return
        lo, hi = min(d1, d2), max(d1, d2)
        v_lo = bundle_delta(
            FanoBase(n, r, DeltaKnowledge.exact(lo)), BundleBoundary(a, b)
        ).value
        v_hi = bundle_delta(
            FanoBase(n, r, DeltaKnowledge.exact(hi)), BundleBoundary(a, b)
        ).value
        assert v_lo <= v_hi

    @settings(max_examples=150)
    @given(dims, slopes, unit_coefficients, unit_coefficients)
    def test_zero_section_branch_equals_simplified_form(self, n, r, a, b):
        # r*delta/Phi rewrites as r*delta*beta' / (1 - a + A*beta') with
        # beta' = (1-a)/(Phi - A); the two must agree as exact rationals.
        if not valid_boundary(n, r, a, b):
            return
        base = FanoBase(n, r, DeltaKnowledge.exact(1))
        bdry = BundleBoundary(a, b)
        A, B = boundary_interval(base, bdry)
        phi = centroid_phi(A, B, n)
        beta_prime = (1 - a) / (phi - A)
        direct = r / phi
        rewritten = r * beta_prime / ((1 - a) + A * beta_prime)
        assert direct == rewritten

    @settings(max_examples=150)
    @given(dims, st.fractions(min_value=Fraction(11, 10), max_value=6, max_denominator=10))
    def test_zero_section_branch_beats_infinity_for_moderate_slope(self, n, r):
        # Unweighted boundary, slope at most n+1: the zero section is the
        # weaker of the two sections.
        if r > n + 1:
            return
        b = bundle_delta(FanoBase(n, r, DeltaKnowledge.exact(1)))
        assert b.v0_branch <= b.vinf_branch
        assert "Vinf" not in b.minimizers or b.v0_branch == b.vinf_branch


class TestBreakdownFromBranches:
    @pytest.mark.parametrize(
        "branches,value,minimizers",
        [
            ((None, 1, 1), 1, ("V0", "Vinf")),
            ((Fraction(1, 2), 1, 3), Fraction(1, 2), ("BaseDivisor",)),
            ((1, 1, 2), 1, ("BaseDivisor", "V0")),
        ],
    )
    def test_value_and_minimizers_follow_from_the_branches(
        self, branches, value, minimizers
    ):
        b = DeltaBreakdown(*branches)
        assert b.value == value
        assert b.minimizers == minimizers

    @settings(deadline=None)
    @given(st.one_of(st.none(), tie_prone_branches), tie_prone_branches, tie_prone_branches)
    def test_value_and_minimizers_are_the_fraction_min_and_its_tie_set(self, base, v0, vinf):
        tagged = [("BaseDivisor", base), ("V0", v0), ("Vinf", vinf)]
        present = [(tag, branch) for tag, branch in tagged if branch is not None]
        expected = min(branch for _, branch in present)
        b = DeltaBreakdown(base, v0, vinf)
        assert b.value is expected
        assert b.minimizers == tuple(tag for tag, branch in present if branch == expected)

    @pytest.mark.parametrize("derived", ["value", "minimizers"])
    def test_derived_fields_cannot_be_passed(self, derived):
        with pytest.raises(TypeError):
            DeltaBreakdown(1, 2, 3, **{derived: 99})

    def test_replacing_a_branch_recomputes_both(self):
        b = DeltaBreakdown(1, 2, 3)
        assert (b.value, b.minimizers) == (1, ("BaseDivisor",))
        moved = DeltaBreakdown(b.base_branch, Fraction(1, 2), b.vinf_branch)
        assert moved.value == Fraction(1, 2)
        assert moved.minimizers == ("V0",)


class TestSmoothThresholdRelation:
    def test_matches_bundle_delta_for_moderate_slope(self):
        for n in range(1, 5):
            r = Fraction(3, 2)
            while r <= n + 1:
                for dv in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                    expected = bundle_delta(FanoBase(n, r, DeltaKnowledge.exact(dv)))
                    assert smooth_threshold_relation(n, r, dv) == expected.value, (
                        n,
                        r,
                        dv,
                    )
                r += Fraction(1, 2)

    def test_caps_at_beta_zero(self):
        # Large delta(V): the formula saturates at beta0.
        assert smooth_threshold_relation(1, 2, 100) == beta_zero(1, 2)

    def test_requires_r_above_one(self):
        with pytest.raises(DomainError):
            smooth_threshold_relation(1, 1, 1)


class TestDomainGuards:
    def test_dimension_must_be_positive_integer(self):
        with pytest.raises(DomainError):
            FanoBase(0, 2, DeltaKnowledge.exact(1))

    def test_dimension_refuses_a_bool(self):
        # True is an int to Python, but not a dimension.
        with pytest.raises(DomainError, match="n must be an integer >= 1, got True"):
            FanoBase(True, 2, DeltaKnowledge.exact(1))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FanoBase(1, True, DeltaKnowledge.exact(1)),
            lambda: ConeBoundary(False),
            lambda: DeltaKnowledge(True),
            lambda: solve_profile(1, 2, True),
        ],
    )
    def test_rationals_refuse_a_bool(self, build):
        # Every exact input goes through exactarith.rational, which refuses a
        # bool as it refuses text or a float.
        with pytest.raises(TypeError, match="cannot coerce bool to Rational"):
            build()

    def test_slope_must_be_positive(self):
        with pytest.raises(DomainError):
            FanoBase(1, 0, DeltaKnowledge.exact(1))
        with pytest.raises(DomainError):
            FanoBase(1, Fraction(-3, 2), DeltaKnowledge.exact(1))

    def test_delta_must_be_a_delta_knowledge(self):
        with pytest.raises(TypeError, match="delta_v must be a DeltaKnowledge"):
            FanoBase(1, 2, Fraction(1))


def _reference_centroid_phi(A, B, n):
    """The centroid as it was first computed: the closed form in Fraction
    arithmetic, one operation at a time."""
    return Fraction(n + 1, n + 2) * (B ** (n + 2) - A ** (n + 2)) / (B ** (n + 1) - A ** (n + 1))
