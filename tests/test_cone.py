"""Projective-cone delta invariants, iterated cones over hypersurfaces, and
branched-cover cones."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanodelta import (
    BranchedConeSpec,
    ConeBoundary,
    DeltaKnowledge,
    DomainError,
    FanoBase,
    HypersurfaceConeSpec,
    branched_cone_delta,
    centroid_phi,
    cone_bundle_consistency,
    cone_delta,
    iterated_hypersurface_chain,
)
from fanodelta.bundle import DeltaBreakdown
from fanodelta.cli import _breakdown_json
from fanodelta.cone import (
    PROOF_FULL,
    PROOF_UPPER_BOUND,
    branched_side_condition_failures,
    branched_slope,
)

dims = st.integers(min_value=1, max_value=6)
slopes = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=8)
cone_coefficients = st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10)
delta_values = st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=12)


class TestFrozenConeValues:
    def test_quadric_cone_surface(self):
        b = cone_delta(FanoBase(1, 1, DeltaKnowledge.exact(1)))
        assert b.value == Fraction(3, 4)
        assert b.v0_branch == Fraction(3, 4)
        assert b.vinf_branch == Fraction(3, 2)
        assert b.proof_coverage == PROOF_FULL

    def test_cone_over_cubic_surface(self):
        b = cone_delta(FanoBase(2, 1, DeltaKnowledge.at_least_one()))
        assert b.value == Fraction(2, 3)
        assert b.minimizers == ("V0",)
        assert _breakdown_json(b)["lower_bound_only"] is False

    def test_vertex_weight_shifts_branches(self):
        # n=1, r=1/2, c=3/4: B = r+1-c = 3/4, K = 3*(1/2)/(2*(3/4)) = 1.
        b = cone_delta(
            FanoBase(1, Fraction(1, 2), DeltaKnowledge.at_least_one()),
            ConeBoundary(Fraction(3, 4)),
        )
        assert b.value == 1
        assert b.v0_branch == 1
        assert b.vinf_branch == 1

    def test_vertex_weight_can_flip_the_minimizer(self):
        b = cone_delta(
            FanoBase(1, Fraction(1, 2), DeltaKnowledge.at_least_one()),
            ConeBoundary(Fraction(7, 8)),
        )
        assert b.v0_branch == Fraction(6, 5)
        assert b.vinf_branch == Fraction(3, 5)
        assert b.value == Fraction(3, 5)
        assert b.minimizers == ("Vinf",)

    def test_proof_coverage_flag(self):
        assert (
            cone_delta(FanoBase(2, 3, DeltaKnowledge.exact(1))).proof_coverage
            == PROOF_FULL
        )
        high = cone_delta(FanoBase(2, 4, DeltaKnowledge.exact(1)))
        assert high.proof_coverage == PROOF_UPPER_BOUND

    def test_json_shape_includes_cone_extras(self):
        d = _breakdown_json(cone_delta(FanoBase(1, 1, DeltaKnowledge.exact(1))))
        assert d["value"] == "3/4"
        assert d["r_effective"] == "1"
        assert d["proof_coverage"] == "full"


class TestConeStructure:
    @settings(max_examples=200)
    @given(dims, slopes, cone_coefficients, delta_values)
    @example(n=3, r=Fraction(2), c=Fraction(1, 2), dv=Fraction(1))
    def test_value_at_most_one_for_semistable_base(self, n, r, c, dv):
        # With delta(V) <= 1 and r <= n+1, the cone can never beat delta = 1.
        # Equality needs delta = 1 and r = (n+1)(1-c): the base-divisor
        # branch reaches 1 only for r >= (n+1)(1-c), the infinity branch only
        # for r <= (n+1)(1-c).
        if r > n + 1 or dv > 1:
            return
        b = cone_delta(FanoBase(n, r, DeltaKnowledge.exact(dv)), ConeBoundary(c))
        assert b.value <= 1
        assert (b.value == 1) == (dv == 1 and r == (n + 1) * (1 - c))

    @settings(max_examples=200)
    @given(dims, slopes, cone_coefficients)
    def test_infinity_branch_matches_centroid_form(self, n, r, c):
        # The Vinf branch is (1-c)/(B - Phi(0, B, n)) with B = r+1-c.
        b = cone_delta(FanoBase(n, r, DeltaKnowledge.at_least_one()), ConeBoundary(c))
        B = r + 1 - c
        assert b.vinf_branch == (1 - c) / (B - centroid_phi(0, B, n))

    @settings(max_examples=200)
    @given(dims, slopes, cone_coefficients, delta_values)
    def test_base_branch_is_delta_times_the_vertex_branch(self, n, r, c, dv):
        # Scaling delta(V) moves only the base-divisor branch; the vertex
        # branch (log discrepancy over S of the vertex blowup) is fixed.
        unit = cone_delta(FanoBase(n, r, DeltaKnowledge.exact(1)), ConeBoundary(c))
        scaled = cone_delta(FanoBase(n, r, DeltaKnowledge.exact(dv)), ConeBoundary(c))
        assert scaled.base_branch == dv * unit.v0_branch
        assert scaled.v0_branch == unit.v0_branch
        assert scaled.vinf_branch == unit.vinf_branch

    @settings(max_examples=300)
    @given(
        dims,
        st.fractions(min_value=Fraction(1, 30), max_value=12, max_denominator=30),
        st.fractions(min_value=0, max_value=Fraction(29, 30), max_denominator=30),
        st.one_of(st.none(), st.fractions(min_value=0, max_value=3, max_denominator=12)),
    )
    @example(1, Fraction(1), Fraction(0), Fraction(1))  # quadric cone, a three-way tie
    @example(2, Fraction(1), Fraction(0), None)
    @example(3, Fraction(9, 2), Fraction(1, 2), Fraction(0))  # upper-bound-only
    def test_integer_route_equals_the_fraction_formula(self, n, r, c, dv):
        delta = DeltaKnowledge.at_least_one() if dv is None else DeltaKnowledge.exact(dv)
        base, bdry = FanoBase(n, r, delta), ConeBoundary(c)
        # Dataclass equality covers the value, the branches, the minimizers
        # and the metadata.
        assert cone_delta(base, bdry) == _reference_cone_delta(base, bdry)

    def test_vertex_weight_guard(self):
        with pytest.raises(DomainError, match="0 <= c < 1"):
            cone_delta(FanoBase(1, 1, DeltaKnowledge.exact(1)), ConeBoundary(1))


class TestConeBundleConsistency:
    def test_exact_match_on_a_grid(self):
        for n in (1, 2, 3, 4, 5, 6):
            for r in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3):
                for c in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    bundle_route, cone_route = cone_bundle_consistency(
                        FanoBase(n, r, DeltaKnowledge.exact(1)), c
                    )
                    assert bundle_route == cone_route, (n, r, c)

    @settings(max_examples=150)
    @given(dims, slopes, cone_coefficients, delta_values)
    def test_exact_match_generically(self, n, r, c, dv):
        bundle_route, cone_route = cone_bundle_consistency(
            FanoBase(n, r, DeltaKnowledge.exact(dv)), c
        )
        assert bundle_route == cone_route
        # The coefficients do not depend on what is known about delta(V).
        assert cone_bundle_consistency(
            FanoBase(n, r, DeltaKnowledge.at_least_one()), c
        ) == (bundle_route, cone_route)


def last_value(spec):
    return Fraction(*iterated_hypersurface_chain(spec)[-1].value)


def pair(value):
    """A Fraction as the reduced (numerator, denominator) pair of a chain step."""
    return None if value is None else (value.numerator, value.denominator)


class TestIteratedHypersurfaceCones:
    def test_single_step_equals_cone_delta(self):
        spec = HypersurfaceConeSpec(2, 3, 1, DeltaKnowledge.at_least_one())
        base = FanoBase(2, spec.r0, DeltaKnowledge.at_least_one())
        assert last_value(spec) == cone_delta(base).value

    def test_cubic_surface_tower(self):
        expected = {
            1: Fraction(2, 3),
            2: Fraction(5, 9),
            3: Fraction(1, 2),
            4: Fraction(7, 15),
        }
        for i, value in expected.items():
            spec = HypersurfaceConeSpec(2, 3, i, DeltaKnowledge.at_least_one())
            assert last_value(spec) == value, i

    def test_quadric_towers(self):
        spec = HypersurfaceConeSpec(2, 2, 1, DeltaKnowledge.at_least_one())
        assert last_value(spec) == Fraction(8, 9)
        spec = HypersurfaceConeSpec(3, 2, 1, DeltaKnowledge.at_least_one())
        assert last_value(spec) == Fraction(15, 16)

    def test_negative_starting_delta_is_refused_at_construction(self):
        # Neither route may start from it: the telescoped recursion would
        # carry the negative value through, and the composition would only
        # refuse it at its second step.
        with pytest.raises(DomainError, match="must be >= 0"):
            HypersurfaceConeSpec(2, 3, 2, DeltaKnowledge(Fraction(-1)))

    def test_low_starting_delta_propagates(self):
        spec = HypersurfaceConeSpec(2, 3, 1, DeltaKnowledge.exact(Fraction(1, 2)))
        # first factor is min(delta0, 1) * (n+2) r0 / ((n+1)(r0+1)) with r0 = 1
        assert last_value(spec) == Fraction(1, 3)

    def test_chain_records_each_step(self):
        spec = HypersurfaceConeSpec(2, 3, 3, DeltaKnowledge.at_least_one())
        chain = iterated_hypersurface_chain(spec)
        assert [Fraction(*step.value) for step in chain] == [
            Fraction(2, 3),
            Fraction(5, 9),
            Fraction(1, 2),
        ]
        assert all(step.proof_coverage == PROOF_FULL for step in chain)

    def test_closed_form_matches_composition_on_the_full_grid(self):
        for n in range(1, 5):
            for d in range(2, n + 2):
                for i in range(1, 5):
                    spec = HypersurfaceConeSpec(n, d, i, DeltaKnowledge.at_least_one())
                    value = last_value(spec)
                    closed = (
                        Fraction((n + 2 - d) * (n + 1 + i), (n + 1) * (n + 2 + i - d))
                    )
                    assert value == closed, (n, d, i)

    def test_chain_is_the_step_by_step_public_composition(self):
        # Each step equals cone_delta on a FanoBase built from the previous
        # value, whole breakdown included: the slope, each branch and the
        # value as reduced pairs, the tie set and the coverage. cone_delta
        # equals the Fraction formula, so a fault in the shared kernel shows
        # too.
        starts = [DeltaKnowledge.at_least_one()] + [
            DeltaKnowledge.exact(dv) for dv in (Fraction(1, 2), Fraction(3, 4), 1, 2)
        ]
        for n in range(1, 5):
            for d in range(2, n + 2):
                for i in range(1, 7):
                    for start in starts:
                        spec = HypersurfaceConeSpec(n, d, i, start)
                        bases, composed, known = [], [], start
                        for s in range(i):
                            bases.append(FanoBase(n + s, spec.r0 + s, known))
                            composed.append(cone_delta(bases[-1]))
                            known = DeltaKnowledge.exact(composed[-1].value)
                        assert iterated_hypersurface_chain(spec) == [
                            (base.r, pair(breakdown.base_branch), pair(breakdown.v0_branch),
                             pair(breakdown.vinf_branch), pair(breakdown.value),
                             breakdown.minimizers, breakdown.proof_coverage)
                            for base, breakdown in zip(bases, composed)
                        ], (n, d, i, start)
                        assert composed == [
                            _reference_cone_delta(base, ConeBoundary()) for base in bases
                        ]

    def test_degree_window_guard(self):
        with pytest.raises(DomainError):
            HypersurfaceConeSpec(2, 4, 1, DeltaKnowledge.at_least_one())
        with pytest.raises(DomainError):
            HypersurfaceConeSpec(2, 1, 1, DeltaKnowledge.at_least_one())

    def test_iteration_count_guard(self):
        # The spec refuses i = 0, so no route that takes it sees an empty chain.
        with pytest.raises(DomainError, match="i must be an integer >= 1"):
            HypersurfaceConeSpec(2, 3, 0, DeltaKnowledge.at_least_one())

    def test_starting_delta_must_be_a_delta_knowledge(self):
        with pytest.raises(TypeError, match="delta_v0 must be a DeltaKnowledge"):
            HypersurfaceConeSpec(2, 3, 1, Fraction(1))


class TestBranchedCones:
    def test_double_cover_of_the_cubic(self):
        spec = BranchedConeSpec(2, 2, 3, 1)
        assert spec.r == 3
        b = branched_cone_delta(spec)
        assert b.value == 1
        assert set(b.minimizers) == {"V0", "Vinf"}
        assert b.proof_coverage == PROOF_FULL

    def test_curve_case(self):
        spec = BranchedConeSpec(1, 2, 3, 1)
        assert spec.r == 1
        assert branched_cone_delta(spec).value == Fraction(3, 4)

    def test_double_cover_family_in_odd_dimension(self):
        # k=2, d=n+2, l=1 for odd n: slope n and value n(n+2)/(n+1)^2.
        for n in (1, 3, 5):
            spec = BranchedConeSpec(n, 2, n + 2, 1)
            assert spec.r == n
            b = branched_cone_delta(spec)
            assert b.value == Fraction(n * (n + 2), (n + 1) ** 2)
            assert b.value < 1

    def test_explicit_delta_pair_overrides_the_default(self):
        spec = BranchedConeSpec(2, 2, 3, 1)
        b = branched_cone_delta(spec, DeltaKnowledge.exact(Fraction(1, 2)))
        assert b.value == Fraction(1, 2)

    def test_default_requires_the_degree_window(self):
        # d outside [n+1, n+2] has no default semistability guarantee, on
        # either side of the window, and the refusal names the window.
        below, above = BranchedConeSpec(3, 3, 2, 2), BranchedConeSpec(2, 2, 5, 1)
        assert (below.r, above.r) == (8, 1)
        for spec in (below, above):
            with pytest.raises(
                DomainError,
                match=rf"^delta_pair is required outside n\+1 <= d <= n\+2: .* "
                rf"for d={spec.d}, n={spec.n}$",
            ):
                branched_cone_delta(spec)
        b = branched_cone_delta(below, DeltaKnowledge.at_least_one())
        assert b.proof_coverage == PROOF_UPPER_BOUND

    def test_side_condition_failures_are_reported_individually(self):
        msgs = branched_side_condition_failures(2, 4, 3, 2)
        assert any("gcd" in m for m in msgs)
        assert branched_side_condition_failures(2, 2, 3, 2) == [
            "side condition violated: l < k required, got l=2, k=2",
            "side condition violated: gcd(k, l) = 1 required, got gcd(2, 2) = 2",
            "side condition violated: k must divide d*l - 1, got 2 does not divide 5",
        ]

    def test_l_equal_to_k_is_a_violation(self):
        # k = l = 1 meets every other side condition, so l < k alone fails.
        assert branched_side_condition_failures(1, 1, 2, 1) == [
            "side condition violated: l < k required, got l=1, k=1"
        ]

    def test_zero_slope_is_a_violation(self):
        assert branched_slope(1, 2, 4) == 0
        assert (
            "side condition violated: r = (n+1)k - (k-1)d > 0 required, got r=0"
            in branched_side_condition_failures(1, 2, 4, 1)
        )

    def test_constructor_rejects_bad_side_conditions(self):
        with pytest.raises(DomainError):
            BranchedConeSpec(2, 4, 3, 2)  # gcd(4,2) = 2
        with pytest.raises(DomainError):
            BranchedConeSpec(2, 2, 3, 3)  # l >= k
        with pytest.raises(DomainError):
            BranchedConeSpec(2, 3, 3, 1)  # k does not divide d*l-1 = 2
        with pytest.raises(DomainError, match="k must satisfy k >= 2, got 1"):
            BranchedConeSpec(2, 1, 3, 1)

    def test_breakdown_is_the_cone_breakdown_with_its_side_conditions(self):
        for spec, pair in (
            (BranchedConeSpec(2, 2, 3, 1), None),
            (BranchedConeSpec(3, 3, 2, 2), DeltaKnowledge.exact(Fraction(2, 3))),
            (BranchedConeSpec(5, 2, 7, 1), DeltaKnowledge.at_least_one()),
        ):
            known = DeltaKnowledge.at_least_one() if pair is None else pair
            expected = _reference_cone_delta(
                FanoBase(spec.n, spec.r, known), ConeBoundary(), spec.side_conditions()
            )
            assert branched_cone_delta(spec, pair) == expected

    def test_slope_formula(self):
        assert branched_slope(2, 2, 3) == 3
        assert branched_slope(1, 2, 3) == 1
        assert branched_slope(3, 3, 2) == 8

    def test_constructor_agrees_with_the_failure_scan(self):
        # Exhaustive small scan: the constructor accepts exactly the tuples
        # with an empty failure list.
        for n in (1, 2, 3):
            for k in range(2, 13):
                for d in range(1, 15):
                    for l in range(1, k):
                        failures = branched_side_condition_failures(n, k, d, l)
                        if failures:
                            with pytest.raises(DomainError):
                                BranchedConeSpec(n, k, d, l)
                        else:
                            spec = BranchedConeSpec(n, k, d, l)
                            assert spec.r == (n + 1) * k - (k - 1) * d > 0

    def test_side_conditions_surface_in_the_breakdown(self):
        b = branched_cone_delta(BranchedConeSpec(2, 2, 3, 1))
        assert b.side_conditions is not None
        assert any("gcd" in s for s in b.side_conditions)
        d = _breakdown_json(b)
        assert "side_conditions" in d


def _reference_cone_delta(base, bdry, side_conditions=None):
    """cone_delta as it was first computed: the branches in Fraction
    arithmetic, with the base branch the V0 branch times delta(V), and the
    given side conditions."""
    n, r, c = base.n, base.r, bdry.c
    B = r + 1 - c
    v0_branch = Fraction(n + 2, n + 1) * r / B
    vinf_branch = (n + 2) * (1 - c) / B
    delta = base.delta_v.value
    return DeltaBreakdown(
        None if delta is None else v0_branch * delta,
        v0_branch,
        vinf_branch,
        r_effective=r,
        proof_coverage=PROOF_FULL if r <= n + 1 else PROOF_UPPER_BOUND,
        side_conditions=side_conditions,
    )
