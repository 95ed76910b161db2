"""Independent numerical oracles: convergence to the closed forms with
provable error bounds, brute-force branch comparison, the full
verification run, and exact equality of the progression-sum kernel and the
oracles built on it with term-by-term reference loops."""

import json
import math
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
    HypersurfaceConeSpec,
    beta_zero,
    centroid_phi,
    futaki_closed_form,
    futaki_invariant,
    futaki_quadrature,
    hermite_admissible_profile,
    midpoint_centroid_bound,
    midpoint_centroid_offset,
    perturbed_admissible_profile,
    riemann_error_bound,
    riemann_s_limit,
    run_verification,
    solve_profile,
    telescoping_iterated_cone,
)
from fanodelta import calabi, oracles
from fanodelta.calabi import AdmissibleProfile, admissibility_failures, futaki_integrand
from fanodelta.cli import _payload, _report_text, _verify_json, render_json
from fanodelta.exactarith import Polynomial
from fanodelta.bundle import boundary_interval
from fanodelta.oracles import (
    OracleReport,
    _progression_sum,
    branch_min_bruteforce,
    default_branch_grid,
    futaki_quadrature_bound,
)


class TestRiemannOracle:
    def test_flat_weight_is_exact_at_any_resolution(self):
        # n=0 on [0,1]: every finite sum already equals the limit 1/2.
        for m in (1, 2, 7, 100):
            assert riemann_s_limit(0, 0, 1, m) == Fraction(1, 2)

    def test_converges_to_the_centroid_offset(self):
        target = centroid_phi(1, 3, 1) - 1  # 7/6
        value = riemann_s_limit(1, 1, 3, 1000)
        assert abs(value - target) < Fraction(1, 100)

    def test_reference_case_at_ten_thousand(self):
        target = Fraction(7, 6)
        value = riemann_s_limit(1, 1, 3, 10_000)
        assert abs(value - target) <= Fraction(1, 1000)

    def test_square_weight_from_zero(self):
        target = centroid_phi(0, 2, 2)  # 3/2
        value = riemann_s_limit(2, 0, 2, 2000)
        assert abs(value - target) < Fraction(1, 100)

    def test_error_shrinks_with_refinement(self):
        target = Fraction(7, 6)
        errors = [abs(riemann_s_limit(1, 1, 3, m) - target) for m in (100, 1000, 10_000)]
        assert errors[0] > errors[1] > errors[2]

    def test_error_is_within_the_stated_bound(self):
        for n, A, B in ((1, 1, 3), (2, 0, 2), (2, 1, 3), (3, Fraction(1, 2), Fraction(5, 2))):
            target = centroid_phi(A, B, n) - A
            for m in (100, 1000):
                mm = m * Fraction(B - A).denominator
                value = riemann_s_limit(n, A, B, mm)
                bound = riemann_error_bound(n, A, B, mm)
                assert abs(value - target) <= bound, (n, A, B, mm)

    def test_the_limit_and_the_bound_refuse_a_bool_dimension(self):
        # True == 1, but a dimension must be an int that is not a bool.
        for oracle in (riemann_s_limit, riemann_error_bound):
            with pytest.raises(DomainError):
                oracle(True, 1, 3, 10)

    def test_requires_integer_sample_count(self):
        with pytest.raises(DomainError, match="integer"):
            riemann_s_limit(1, 0, Fraction(1, 2), 5)

    def test_rejects_negative_left_endpoint(self):
        with pytest.raises(DomainError):
            riemann_s_limit(1, -1, 1, 10)


class TestMidpointOracle:
    def test_linear_weight_is_exact_for_flat_exponent(self):
        # n=0: the midpoint rule integrates the linear integrand exactly.
        assert midpoint_centroid_offset(0, 0, 1, 1) == Fraction(1, 2)

    def test_converges_quadratically(self):
        target = Fraction(7, 6)
        e1 = abs(midpoint_centroid_offset(1, 1, 3, 100) - target)
        e2 = abs(midpoint_centroid_offset(1, 1, 3, 1000) - target)
        assert e2 < e1 / 50

    def test_within_bound(self):
        for n, A, B in ((1, 1, 3), (2, 0, 2), (3, 1, 2)):
            target = centroid_phi(A, B, n) - A
            value = midpoint_centroid_offset(n, A, B, 500)
            assert abs(value - target) <= midpoint_centroid_bound(n, A, B, 500)


def midpoint_section_area(n, a, b, r, steps):
    """Midpoint route to the zero-section vanishing order over the bundle's
    fiber support interval, as run_verification's quadrature reports take it."""
    base = FanoBase(n, r, DeltaKnowledge.at_least_one())
    lo, hi = boundary_interval(base, BundleBoundary(a, b))
    return midpoint_centroid_offset(n, lo, hi, steps)


class TestQuadratureSectionArea:
    def test_reference_bundle_case(self):
        value = midpoint_section_area(1, 0, 0, 2, 10_000)
        assert abs(value - Fraction(7, 6)) < Fraction(1, 10**6)

    def test_weighted_bundle_case(self):
        # n=2, a=1/2, b=1/4, r=3: the interval is [5/2, 15/4] and the closed
        # form of the zero-section vanishing order is Phi - A.
        A = Fraction(5, 2)
        target = centroid_phi(A, Fraction(15, 4), 2) - A
        value = midpoint_section_area(2, Fraction(1, 2), Fraction(1, 4), 3, 4000)
        assert abs(value - target) < Fraction(1, 10**5)

    def test_cone_interval_case(self):
        # Cone with n=2, r=1: interval [0, 2], S(V0) = Phi(0, 2, 2) = 3/2.
        target = centroid_phi(0, 2, 2)
        value = riemann_s_limit(2, 0, 2, 10_000)
        assert abs(value - target) < Fraction(1, 10**3)


class TestBranchBruteForce:
    def test_default_grid_has_no_disagreements(self):
        reports = branch_min_bruteforce(default_branch_grid())
        assert reports
        bad = [r for r in reports if r.status != "pass"]
        assert bad == []

    def test_single_bundle_point(self):
        reports = branch_min_bruteforce(
            [(FanoBase(1, 2, DeltaKnowledge.exact(1)), BundleBoundary(0, 0))]
        )
        assert len(reports) == 1
        assert reports[0].status == "pass"
        assert reports[0].closed_form == Fraction(6, 7)

    def test_threshold_tie_point(self):
        reports = branch_min_bruteforce(
            [(FanoBase(1, 2, DeltaKnowledge.exact(Fraction(13, 14))), BundleBoundary(0, 0))]
        )
        assert reports[0].status == "pass"
        assert reports[0].closed_form == Fraction(6, 7)

    @pytest.mark.parametrize(
        "r, boundary",
        [
            (Fraction(1), BundleBoundary(2, 0)),
            (Fraction(2), BundleBoundary(0, 2)),
            (Fraction(-1), ConeBoundary(0)),
        ],
        ids=["bundle-a-too-large", "bundle-b-too-large", "cone-negative-slope"],
    )
    def test_out_of_domain_entry_is_a_domain_error(self, r, boundary):
        # These entries make the naive branch formulas divide by zero. The
        # base refuses a negative slope when the case is built; the closed
        # form refuses a bundle boundary out of range before the naive
        # route runs.
        with pytest.raises(DomainError):
            branch_min_bruteforce([(FanoBase(1, r, DeltaKnowledge.exact(1)), boundary)])

    def test_any_order_and_duplicate_rows_give_the_same_reports(self, monkeypatch):
        grid = default_branch_grid()
        shuffled = grid[::-1] + grid[::7]
        singly = [branch_min_bruteforce([entry])[0] for entry in shuffled]
        calls = []
        for name in ("_naive_bundle_branches", "_naive_cone_branches"):
            naive = getattr(oracles, name)
            monkeypatch.setattr(
                oracles, name, lambda *args, naive=naive: calls.append(args) or naive(*args)
            )
        assert branch_min_bruteforce(shuffled) == singly
        # The naive triple is computed once per geometry, whatever the
        # delta, the order or the repeats.
        assert len(calls) == len({(base.n, base.r, bdry) for base, bdry in grid})

    def test_cone_grid_points_included(self):
        grid = default_branch_grid()
        assert any(isinstance(bdry, ConeBoundary) for _, bdry in grid)
        assert any(isinstance(bdry, BundleBoundary) for _, bdry in grid)


class TestFutakiQuadrature:
    def test_reference_convergence(self):
        prof = hermite_admissible_profile(1, 2)
        value = futaki_quadrature(prof, 10_000)
        assert abs(value - Fraction(4, 3)) < Fraction(1, 10**5)

    def test_within_bound_on_a_grid(self):
        for n, r in ((1, 2), (2, 2), (2, 3)):
            prof = hermite_admissible_profile(n, r)
            target = futaki_closed_form(n, r)
            for steps in (200, 1000):
                value = futaki_quadrature(prof, steps)
                bound = futaki_quadrature_bound(prof, steps)
                assert abs(value - target) <= bound, (n, r, steps)

    def test_integrand_is_built_once_per_profile(self, monkeypatch):
        base = hermite_admissible_profile(2, 3)
        built = []
        monkeypatch.setattr(
            calabi, "futaki_integrand", lambda *args: built.append(args) or futaki_integrand(*args)
        )
        profile = perturbed_admissible_profile(base, Fraction(1, 10))
        exact = futaki_invariant(profile)
        value = futaki_quadrature(profile, 100)
        bound = futaki_quadrature_bound(profile, 100)
        assert len(built) == 1
        assert abs(value - exact) <= bound

    def test_rejects_inadmissible_profiles(self):
        # The quadrature takes an AdmissibleProfile, which refuses the
        # threshold ODE numerator and names every failed condition.
        p = solve_profile(1, 2, beta_zero(1, 2))
        with pytest.raises(DomainError) as err:
            AdmissibleProfile(1, 2, p.numerator)
        assert str(err.value) == "; ".join(admissibility_failures(1, 2, p.numerator))
        # The solved profile itself has the same fields, and is refused too.
        for route in (futaki_quadrature, futaki_quadrature_bound):
            with pytest.raises(TypeError, match="AdmissibleProfile"):
                route(p, 100)


@pytest.mark.parametrize(
    "bound, args",
    [
        # m*(B-A) = 3/2 is not an integer, which riemann_s_limit refuses too.
        (riemann_error_bound, (1, 1, Fraction(5, 2), 1)),
        (riemann_error_bound, (1, 1, 3, 0)),
        (midpoint_centroid_bound, (1, 1, 3, 0)),
        (futaki_quadrature_bound, (hermite_admissible_profile(1, 2), 0)),
        # A constant numerator is not admissible: the profile that both
        # Futaki routes take refuses it.
        (AdmissibleProfile, (1, 2, Polynomial([1]))),
    ],
    ids=["riemann-span", "riemann-m0", "midpoint-steps0", "futaki-steps0", "futaki-inadmissible"],
)
def test_bounds_refuse_what_their_oracles_refuse(bound, args):
    with pytest.raises(DomainError):
        bound(*args)


def _telescoped(n, d, i, delta0):
    return telescoping_iterated_cone(HypersurfaceConeSpec(n, d, i, delta0))


class TestTelescoping:
    def test_reference_values(self):
        ge1 = DeltaKnowledge.at_least_one()
        assert _telescoped(1, 2, 1, ge1) == Fraction(3, 4)
        assert _telescoped(2, 3, 1, ge1) == Fraction(2, 3)
        assert _telescoped(2, 3, 2, ge1) == Fraction(5, 9)

    def test_accepts_plain_rationals(self):
        # An exact rational delta0 enters through DeltaKnowledge.exact.
        assert _telescoped(2, 3, 1, DeltaKnowledge.exact(1)) == Fraction(2, 3)
        assert _telescoped(2, 3, 1, DeltaKnowledge.exact(Fraction(1, 2))) == Fraction(1, 3)

    def test_capping_at_one_only_matters_at_the_start(self):
        # delta0 = 5 behaves exactly like delta0 = 1.
        assert _telescoped(2, 3, 3, DeltaKnowledge.exact(5)) == _telescoped(
            2, 3, 3, DeltaKnowledge.exact(1)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=60),
        st.one_of(st.none(), st.fractions(min_value=0, max_value=4, max_denominator=15)),
    )
    @example(2, 1, 3, Fraction(0))  # a zero delta0 stays zero
    @example(2, 1, 3, Fraction(5))  # capped at the first step
    @example(1, 0, 1, None)
    def test_integer_route_equals_the_fraction_loop(self, n, d_offset, i, dv):
        d = 2 + d_offset % n
        delta0 = DeltaKnowledge.at_least_one() if dv is None else DeltaKnowledge.exact(dv)
        spec = HypersurfaceConeSpec(n, d, i, delta0)
        assert telescoping_iterated_cone(spec) == _reference_telescoping(spec)

    def test_degree_window(self):
        # The spec the oracle takes refuses d outside [2, n+1].
        with pytest.raises(DomainError):
            HypersurfaceConeSpec(2, 4, 1, DeltaKnowledge.exact(1))


class TestVerificationRun:
    def test_default_run_passes(self):
        run = run_verification()
        assert run.passed
        assert run.mode == "default"
        failing = [r for r in run.reports if r.status != "pass"]
        assert failing == []

    def test_iterated_cone_finding_is_recorded(self):
        run = run_verification()
        assert any("closed form" in note for note in run.notes)

    def test_summary_mentions_the_check_count(self):
        run = run_verification()
        lines = run.summary_lines()
        assert any("passed" in line for line in lines)

    def test_json_shape(self):
        run = run_verification()
        inputs = {"deep": False, "grid": "default"}
        d = json.loads(render_json(_payload("verify", inputs, _verify_json(run))))["result"]
        assert d["passed"] is True
        assert d["mode"] == "default"
        assert isinstance(d["reports"], list) and d["reports"]
        sample = d["reports"][0]
        assert {"target", "status"} <= set(sample)

    def test_custom_grid_is_honored(self):
        grid = [(FanoBase(1, 2, DeltaKnowledge.exact(1)), BundleBoundary(0, 0))]
        run = run_verification(grid=grid)
        assert run.passed
        branch_targets = [
            report.target for report in run.reports
            if report.target.startswith(("bundle_delta", "cone_delta"))
        ]
        assert branch_targets == ["bundle_delta(n=1, r=2, a=0, b=0, delta=1)"]
        # Every other family keeps its default grid, reports and order.
        def others(reports):
            return [
                _report_text(report) for report in reports
                if not report.target.startswith(("bundle_delta", "cone_delta"))
            ]

        default = run_verification()
        assert len(run.reports) == 188 and len(others(default.reports)) == 187
        assert others(run.reports) == others(default.reports)

    def test_a_report_derives_its_status(self):
        # Exact comparisons pass on the defaults (one step, bound 0) when
        # the values are equal.
        equal = OracleReport("t", Fraction(1, 3), Fraction(1, 3))
        assert (equal.m_or_steps, equal.bound, equal.absolute_error) == (1, 0, 0)
        assert equal.status == "pass"
        # A failed check beyond the value fails the report.
        assert OracleReport("t", Fraction(1, 3), Fraction(1, 3), agrees=False).status == "fail"
        # So does an error above the bound, and one at the bound passes.
        close = OracleReport("t", Fraction(1), Fraction(9, 10), 10, bound=Fraction(1, 10))
        assert (close.absolute_error, close.status) == (Fraction(1, 10), "pass")
        far = OracleReport("t", Fraction(1), Fraction(8, 10), 10, bound=Fraction(1, 10))
        assert (far.absolute_error, far.status) == (Fraction(1, 5), "fail")
        assert json.loads(_report_text(far))["absolute_error"] == "1/5"

    def test_a_report_fixes_its_error_and_status_at_construction(self):
        # Both follow from the other fields: neither can be passed in or
        # assigned, and a report built with one field changed recomputes both.
        for derived in ("absolute_error", "status"):
            with pytest.raises(TypeError):
                OracleReport("t", Fraction(1), Fraction(1), **{derived: Fraction(0)})

        def report(approximation, bound):
            return OracleReport("t", Fraction(1), approximation, 10, bound=bound)

        close = report(Fraction(9, 10), Fraction(1, 10))
        far = report(Fraction(8, 10), close.bound)
        assert (close.status, far.absolute_error, far.status) == ("pass", Fraction(1, 5), "fail")
        assert report(far.approximation, Fraction(1, 5)).status == "pass"
        with pytest.raises(AttributeError, match="OracleReport is immutable"):
            close.status = "fail"


# Term-by-term reference loops: the O(m) evaluations the progression-sum
# kernel replaces, kept as an independent route to the same exact integers,
# and the bound formulas as first written for each oracle.


def _loop_riemann_sums(n, A, B, m):
    q = math.lcm(A.denominator, B.denominator)
    e0 = A.numerator * (q // A.denominator) * m
    count = int((B - A) * m)
    weighted = 0
    total = 0
    for j in range(count + 1):
        w = (e0 + j * q) ** n
        total += w
        weighted += j * w
    return weighted, total


def _loop_riemann_s_limit(n, A, B, m):
    weighted, total = _loop_riemann_sums(n, A, B, m)
    return Fraction(weighted, m * total)


def _reference_telescoping(spec):
    """telescoping_iterated_cone as it was first computed: the running value
    a Fraction, capped with min and multiplied by a Fraction each step."""
    n = spec.n
    value = Fraction(1) if spec.delta_v0.value is None else spec.delta_v0.value
    r0 = n + 2 - spec.d
    for s in range(1, spec.i + 1):
        r_prev = r0 + s - 1
        value = Fraction((n + 1 + s) * r_prev, (n + s) * (r_prev + 1)) * min(
            value, Fraction(1)
        )
    return value


def _loop_riemann_error_bound(n, A, B, m):
    _, total = _loop_riemann_sums(n, A, B, m)
    q = math.lcm(A.denominator, B.denominator)
    v = Fraction(total, m * (q * m) ** n)
    return (2 * B**n / m) * ((B - A) + centroid_phi(A, B, n) - A) / v


def _loop_midpoint_centroid_offset(n, A, B, steps):
    q = math.lcm(A.denominator, B.denominator)
    ia = A.numerator * (q // A.denominator)
    ib = B.numerator * (q // B.denominator)
    big = (2 * steps * ib) ** (n + 1)
    acc = 0
    for k in range(steps):
        e_k = 2 * steps * ia + (2 * k + 1) * (ib - ia)
        acc += big - e_k ** (n + 1)
    integral = Fraction((ib - ia) * acc, q * steps * (2 * steps * q) ** (n + 1))
    return integral / Fraction(ib ** (n + 1) - ia ** (n + 1), q ** (n + 1))


def _reference_midpoint_centroid_bound(n, A, B, steps):
    second = n * (n + 1) * B ** (n - 1) if n >= 1 else Fraction(0)
    return (B - A) ** 3 * second / (24 * steps**2) / (B ** (n + 1) - A ** (n + 1))


def _reference_futaki_quadrature_bound(n, r, profile, steps):
    second = futaki_integrand(n, r, profile.numerator).derivative().derivative()
    peak = sum(abs(c) * (r + 1) ** k for k, c in enumerate(second.coefficients))
    return Fraction(8) * peak / (24 * steps**2)


def _loop_futaki_quadrature(n, r, profile, steps):
    integrand = futaki_integrand(n, r, profile.numerator)
    if integrand.is_zero:
        return Fraction(0)
    q = r.denominator
    big_d = q * steps
    deg = len(integrand.coefficients) - 1
    coeff_lcm = math.lcm(*(c.denominator for c in integrand.coefficients))
    weights = [
        int(c * coeff_lcm) * big_d ** (deg - j)
        for j, c in enumerate(integrand.coefficients)
    ]
    total = 0
    for k in range(steps):
        e_k = (r.numerator - q) * steps + (2 * k + 1) * q
        acc = weights[deg]
        for j in range(deg - 1, -1, -1):
            acc = acc * e_k + weights[j]
        total += acc
    return Fraction(2 * total, steps * coeff_lcm * big_d**deg)


small_dims = st.integers(min_value=0, max_value=6)
endpoints = st.fractions(min_value=0, max_value=4, max_denominator=8)
widths = st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def _monomial(p):
    return Polynomial([0] * p + [1])


class TestPowerSumKernels:
    def test_power_sums_match_brute_force(self):
        # sum_{j<=N} j^p is the progression sum of x^p from 0 in steps of 1.
        for N in (0, 1, 2, 7, 50):
            expected = [sum(j**p for j in range(N + 1)) for p in range(13)]
            got = [
                _progression_sum(_monomial(p), Fraction(0), Fraction(1), N + 1)
                for p in range(13)
            ]
            assert got == expected, N

    def test_zeroth_power_counts_the_origin(self):
        # 0^0 = 1, while 0^p = 0 for p >= 1.
        one = [_progression_sum(_monomial(p), Fraction(0), Fraction(1), 1) for p in range(4)]
        assert one == [1, 0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(rationals, max_size=8).map(Polynomial),
        rationals,
        rationals,
        st.integers(min_value=0, max_value=60),
    )
    @example(Polynomial([3, 0, 1]), Fraction(0), Fraction(1), 1)  # 0^0 counts once
    @example(Polynomial(), Fraction(1, 3), Fraction(2), 5)  # the zero polynomial
    def test_progression_sum_matches_the_direct_sum(self, f, start, step, count):
        expected = sum((f(start + j * step) for j in range(count)), Fraction(0))
        assert _progression_sum(f, start, step, count) == expected

    @settings(max_examples=150, deadline=None)
    @given(small_dims, endpoints, widths, st.integers(min_value=1, max_value=200))
    @example(0, Fraction(0), Fraction(1), 1)
    @example(3, Fraction(0), Fraction(2), 1)
    def test_riemann_kernels_equal_the_loops(self, n, A, width, m):
        B = A + width
        # m*(B-A) must be an integer: round m down to a multiple of the width's
        # denominator, which is at most 8.
        m = max(width.denominator, m - m % width.denominator)
        assert riemann_s_limit(n, A, B, m) == _loop_riemann_s_limit(n, A, B, m)
        assert riemann_error_bound(n, A, B, m) == _loop_riemann_error_bound(n, A, B, m)

    @settings(max_examples=150, deadline=None)
    @given(small_dims, endpoints, widths, st.integers(min_value=1, max_value=200))
    @example(0, Fraction(0), Fraction(1), 1)
    @example(4, Fraction(0), Fraction(3, 2), 1)
    def test_midpoint_kernel_equals_the_loop(self, n, A, width, steps):
        B = A + width
        assert midpoint_centroid_offset(n, A, B, steps) == _loop_midpoint_centroid_offset(
            n, A, B, steps
        )
        assert midpoint_centroid_bound(n, A, B, steps) == _reference_midpoint_centroid_bound(
            n, A, B, steps
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.fractions(min_value=Fraction(7, 6), max_value=4, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=10),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=3),
        st.integers(min_value=1, max_value=200),
    )
    @example(1, Fraction(2), Fraction(0), [], 1)
    def test_futaki_kernel_equals_the_loop(self, n, r, scale, weight, steps):
        profile = hermite_admissible_profile(n, r)
        if weight:
            profile = perturbed_admissible_profile(profile, scale, Polynomial(weight))
        assert futaki_quadrature(profile, steps) == _loop_futaki_quadrature(
            n, r, profile, steps
        )
        assert futaki_quadrature_bound(profile, steps) == _reference_futaki_quadrature_bound(
            n, r, profile, steps
        )
