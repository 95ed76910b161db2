"""Momentum-profile construction: exact ODE solution, edge angles, Ricci
margins, positivity, and the obstruction integral."""

import ast
import inspect
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanodelta import (
    DomainError,
    InternalCheckError,
    beta_zero,
    edge_angles,
    futaki_closed_form,
    futaki_invariant,
    hermite_admissible_profile,
    ode_residual,
    perturbed_admissible_profile,
    ricci_bound_margin,
    ricci_pointwise_residual,
    solve_profile,
    verify_positive_interior,
)
from fanodelta import calabi
from fanodelta.calabi import (
    AdmissibleProfile,
    CalabiProfile,
    admissibility_failures,
    futaki_integrand,
)
from fanodelta.cli import EXIT_INTERNAL, main
from fanodelta.exactarith import Polynomial

PROFILE_GRID = [
    (n, r, beta)
    for n in range(1, 7)
    for r in (Fraction(3, 2), 2, 3, 4)
    for beta in (
        beta_zero(n, r),
        beta_zero(n, r) / 2,
        beta_zero(n, r) / 3,
    )
]


class TestSolveProfile:
    def test_reference_coefficients(self):
        p = solve_profile(1, 2, beta_zero(1, 2))
        assert p.c1 == Fraction(13, 14)
        assert p.c2 == Fraction(-9, 14)
        assert p.numerator.coefficients == (
            Fraction(-9, 14),
            Fraction(0),
            Fraction(13, 14),
            Fraction(-2, 7),
        )

    def test_profile_carries_beta_zero(self):
        for n, r, beta in PROFILE_GRID:
            assert CalabiProfile(n, r, beta).beta0 == beta_zero(n, r)

    def test_numerator_vanishes_at_both_edges(self):
        for n, r, beta in PROFILE_GRID:
            p = solve_profile(n, r, beta)
            assert p.numerator(r - 1) == 0, (n, r, beta)
            assert p.numerator(r + 1) == 0, (n, r, beta)

    def test_ode_residual_is_identically_zero(self):
        for n, r, beta in PROFILE_GRID:
            assert ode_residual(solve_profile(n, r, beta)).is_zero, (n, r, beta)

    def test_profile_scales_linearly_in_beta(self):
        base = solve_profile(2, 3, Fraction(1, 5))
        double = solve_profile(2, 3, Fraction(2, 5))
        assert double.numerator.coefficients == tuple(
            2 * c for c in base.numerator.coefficients
        )

    def test_phi_values(self):
        p = solve_profile(1, 2, beta_zero(1, 2))
        assert p.phi(Fraction(3, 2)) == Fraction(9, 28)
        assert p.phi(2) == Fraction(11, 28)
        assert p.phi_prime(1) == 1

    @settings(max_examples=60)
    @given(
        st.sampled_from(PROFILE_GRID),
        st.fractions(min_value=Fraction(1, 10**4), max_value=10, max_denominator=10**4),
    )
    def test_phi_is_the_numerator_over_tau_to_the_n(self, case, t):
        n, r, beta = case
        p = solve_profile(n, r, beta)
        assert p.phi(t) == sum(c * t**k for k, c in enumerate(p.numerator.coefficients)) / t**n

    @pytest.mark.parametrize("tau", [0, Fraction(-1, 2), -3])
    def test_phi_refuses_nonpositive_tau(self, tau):
        profile = solve_profile(1, 2, beta_zero(1, 2))
        with pytest.raises(DomainError, match="tau > 0"):
            profile.phi(tau)
        with pytest.raises(DomainError, match="tau > 0"):
            profile.phi_prime(tau)

    def test_requires_slope_above_one(self):
        with pytest.raises(DomainError):
            solve_profile(1, 1, Fraction(1, 2))

    def test_requires_positive_twist(self):
        with pytest.raises(DomainError):
            solve_profile(1, 2, 0)


class TestConstruction:
    def test_building_a_profile_solves_it(self):
        for n, r, beta in PROFILE_GRID:
            assert CalabiProfile(n, r, beta) == solve_profile(n, r, beta), (n, r, beta)

    def test_only_n_r_and_beta_are_given(self):
        assert list(inspect.signature(CalabiProfile).parameters) == ["n", "r", "beta"]

    @pytest.mark.parametrize("name", ["c1", "c2", "numerator"])
    def test_a_derived_field_cannot_be_passed(self, name):
        with pytest.raises(TypeError, match=name):
            CalabiProfile(1, 2, 1, **{name: Fraction(0)})

    def test_a_built_profile_cannot_be_changed(self):
        p = CalabiProfile(1, 2, 1)
        with pytest.raises(AttributeError, match="immutable"):
            p.c1 = Fraction(0)

    @pytest.mark.parametrize(
        "n, r, beta, message",
        [
            (0, 2, 1, "n must be an integer >= 1, got 0"),
            (Fraction(3, 2), 2, 1, "n must be an integer >= 1, got 3/2"),
            (1, 1, Fraction(1, 2), "r must satisfy r > 1, got 1"),
            (1, Fraction(1, 2), 0, "r must satisfy r > 1, got 1/2"),
            (1, 2, 0, "beta must satisfy beta > 0, got 0"),
            (1, 2, Fraction(-1, 3), "beta must satisfy beta > 0, got -1/3"),
        ],
    )
    def test_out_of_domain_input_is_refused_before_solving(self, n, r, beta, message):
        for build in (CalabiProfile, solve_profile):
            with pytest.raises(DomainError) as caught:
                build(n, r, beta)
            assert str(caught.value) == message

    @pytest.mark.parametrize("count", [1, 0, -5])
    def test_fewer_than_two_samples_are_refused(self, count):
        samples = CalabiProfile(1, 2, 1).phi_samples(count)
        with pytest.raises(DomainError, match=f"samples must be >= 2, got {count}$"):
            next(samples)


class TestEdgeAngles:
    def test_reference_values_at_the_threshold_twist(self):
        p = solve_profile(1, 2, beta_zero(1, 2))
        assert edge_angles(p) == (1, Fraction(5, 7))

    def test_reference_values_at_a_smaller_twist(self):
        p = solve_profile(1, 2, Fraction(3, 7))
        assert edge_angles(p) == (Fraction(1, 2), Fraction(5, 14))

    def test_first_angle_is_one_exactly_at_the_threshold(self):
        for n in range(1, 5):
            for r in (2, 3):
                beta1, beta2 = edge_angles(solve_profile(n, r, beta_zero(n, r)))
                assert beta1 == 1
                assert 0 < beta2 < 1

    def test_both_routes_agree_on_the_grid(self):
        # edge_angles recomputes each angle from the derivative at the edge
        # and from the closed form, raising if they ever differ; surviving
        # the grid is the assertion.
        for n, r, beta in PROFILE_GRID:
            beta1, beta2 = edge_angles(solve_profile(n, r, beta))
            assert beta1 == beta / beta_zero(n, r)
            assert beta2 == beta * (2 * beta_zero(n, r) - 1) / beta_zero(n, r)


class TestRicciMargins:
    def test_zero_margin_at_the_critical_ratio(self):
        # mu = 13/14 with beta = beta0(1,2) puts the bound exactly at zero.
        p = solve_profile(1, 2, beta_zero(1, 2))
        assert ricci_bound_margin(p, Fraction(13, 14)) == 0

    def test_reference_positive_margin(self):
        p = solve_profile(1, 2, beta_zero(1, 2))
        assert ricci_bound_margin(p, 1) == Fraction(1, 14)

    def test_zero_twist_gives_back_mu(self):
        # beta = 0 is outside a CalabiProfile's domain; on a stand-in with
        # the fields the margin reads, the formula reduces to mu itself.
        p = SimpleNamespace(n=1, r=Fraction(2), beta=Fraction(0), beta0=beta_zero(1, 2))
        assert ricci_bound_margin(p, Fraction(2, 3)) == Fraction(2, 3)

    def test_pointwise_certificate_is_identically_zero(self):
        for n, r, beta in PROFILE_GRID[:12]:
            p = solve_profile(n, r, beta)
            for mu in (Fraction(1), Fraction(1, 2)):
                assert ricci_pointwise_residual(p, mu).is_zero

    def test_rejects_nonpositive_mu(self):
        p = solve_profile(1, 2, Fraction(1, 2))
        with pytest.raises(DomainError):
            ricci_bound_margin(p, 0)


class TestPositivity:
    def test_positive_on_the_grid(self):
        for n, r, beta in PROFILE_GRID:
            assert verify_positive_interior(solve_profile(n, r, beta)), (n, r, beta)


class TestAdmissibleProfiles:
    def test_hermite_profile_is_admissible(self):
        prof = hermite_admissible_profile(1, 2)
        assert admissibility_failures(1, 2, prof.numerator) == []

    def test_canonical_ode_profile_is_not_admissible(self):
        # The ODE solution at the threshold twist has edge slope -5/7 at the
        # outer edge, not -1, so it fails the admissibility contract.
        p = solve_profile(1, 2, beta_zero(1, 2))
        failures = admissibility_failures(1, 2, p.numerator)
        assert failures
        assert any("r+1" in f for f in failures)
        with pytest.raises(DomainError) as err:
            AdmissibleProfile(1, 2, p.numerator)
        assert str(err.value) == "; ".join(failures)

    def test_failures_name_each_broken_condition(self):
        bad = Polynomial.monomial(2)
        failures = admissibility_failures(1, 2, bad)
        assert len(failures) >= 3

    def test_requires_slope_above_one(self):
        with pytest.raises(DomainError, match="r must satisfy r > 1, got 1"):
            AdmissibleProfile(1, 1, Polynomial())

    def test_perturbation_preserves_admissibility(self):
        base = hermite_admissible_profile(2, 2)
        bumped = perturbed_admissible_profile(base, Fraction(1, 10))
        assert admissibility_failures(2, 2, bumped.numerator) == []
        assert bumped.numerator.coefficients != base.numerator.coefficients


class TestFutakiInvariant:
    def test_reference_value(self):
        assert futaki_closed_form(1, 2) == Fraction(4, 3)
        assert futaki_invariant(hermite_admissible_profile(1, 2)) == Fraction(4, 3)

    def test_independent_of_the_profile(self):
        base = hermite_admissible_profile(1, 2)
        profiles = [
            base,
            perturbed_admissible_profile(base, Fraction(1, 10)),
            perturbed_admissible_profile(base, Fraction(-1, 7)),
            perturbed_admissible_profile(
                base, Fraction(1, 5), weight=Polynomial.monomial(1)
            ),
        ]
        values = {futaki_invariant(prof) for prof in profiles}
        assert values == {Fraction(4, 3)}

    def test_matches_closed_form_on_a_grid(self):
        for n, r in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
            prof = hermite_admissible_profile(n, r)
            assert futaki_invariant(prof) == futaki_closed_form(n, r), (n, r)

    def test_refuses_a_solved_profile(self):
        # A CalabiProfile has the fields of an AdmissibleProfile but is not
        # admissible; integrating it would give -80/21, not the invariant.
        with pytest.raises(TypeError, match="AdmissibleProfile"):
            futaki_invariant(solve_profile(1, 2, beta_zero(1, 2)))

    def test_positivity(self):
        # beta0 < 1 forces a strictly positive obstruction for every slope.
        for n, r in ((1, 2), (2, 2), (2, 3), (3, 4), (4, 2)):
            assert futaki_closed_form(n, r) > 0

    def test_canonical_profile_integral_value(self):
        # Integrating the obstruction density against the threshold ODE
        # profile (inadmissible on purpose) gives -80/21, not the invariant.
        p = solve_profile(1, 2, beta_zero(1, 2))
        integrand = futaki_integrand(1, 2, p.numerator)
        assert integrand.integrate(1, 3) == Fraction(-80, 21)

    @settings(max_examples=40)
    @given(
        st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4), max_denominator=8)
    )
    def test_bump_scale_never_moves_the_integral(self, scale):
        base = hermite_admissible_profile(2, 3)
        prof = perturbed_admissible_profile(base, scale)
        assert futaki_invariant(prof) == futaki_closed_form(2, 3)


class TestInternalConsistencyGuards:
    def test_solve_profile_survives_its_own_checks_on_the_grid(self):
        # Building a profile raises InternalCheckError if the residual or
        # the boundary values are off; the grid pass is the guarantee.
        for n, r, beta in PROFILE_GRID:
            solve_profile(n, r, beta)

    def test_edge_angle_mismatch_is_detected(self, monkeypatch):
        # A tampered derivative must trip the dual-route check.
        p = solve_profile(1, 2, beta_zero(1, 2))
        phi_prime = CalabiProfile.phi_prime
        monkeypatch.setattr(
            CalabiProfile, "phi_prime", lambda self, tau: phi_prime(self, tau) + Fraction(1, 100)
        )
        with pytest.raises(InternalCheckError, match="edge angle beta1"):
            edge_angles(p)


def off_at(method, point):
    """method, off by 1 at exactly the one point and right everywhere else."""
    return lambda self, tau: method(self, tau) + (1 if tau == point else 0)


class TestEachCheckFailsAlone:
    """Each exact check of a profile fails on its own when one route is off,
    and main reports it as one internal-check line with exit 4. On [1, 3]
    (n = 1, r = 2) a fault at one endpoint shows which end a check reads."""

    def run_calabi(self, capsys):
        code = main(["calabi", "--n", "1", "--r", "2"])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_INTERNAL, "")
        return err.splitlines()

    @pytest.mark.parametrize(
        "tau, label", [(1, "profile numerator N(r-1)"), (3, "profile numerator N(r+1)")]
    )
    def test_endpoint_values(self, tau, label, capsys, monkeypatch):
        monkeypatch.setattr(Polynomial, "__call__", off_at(Polynomial.__call__, tau))
        assert self.run_calabi(capsys) == [f"internal check failed: {label}: 1 != 0"]

    def test_ode_residual(self, capsys, monkeypatch):
        monkeypatch.setattr(calabi, "ode_residual", lambda profile: Polynomial.monomial(0))
        assert self.run_calabi(capsys) == ["internal check failed: momentum ODE residual: 1 != 0"]

    def test_ricci_pointwise_residual(self, capsys, monkeypatch):
        # The residual certifies the margin: a margin off by 1 leaves -r*tau^n.
        margin = calabi.ricci_bound_margin
        monkeypatch.setattr(calabi, "ricci_bound_margin", lambda *args: margin(*args) + 1)
        assert self.run_calabi(capsys) == [
            "internal check failed: pointwise Ricci gap is the margin: False != True"
        ]

    def test_outer_edge_angle(self, capsys, monkeypatch):
        monkeypatch.setattr(CalabiProfile, "phi_prime", off_at(CalabiProfile.phi_prime, 3))
        [line] = self.run_calabi(capsys)
        assert line.startswith("internal check failed: edge angle beta2: ")

    def test_factored_derivative(self, monkeypatch):
        p = solve_profile(1, 2, beta_zero(1, 2))
        derivative = Polynomial.derivative
        monkeypatch.setattr(
            Polynomial, "derivative", lambda self: derivative(self) + Polynomial.monomial(0)
        )
        with pytest.raises(InternalCheckError, match="^N' against its factored form: "):
            verify_positive_interior(p)


def forms_r_plus_or_minus_one(node):
    """Whether node adds 1 to or subtracts 1 from r, rr or an attribute .r."""
    def is_r(side):
        return (isinstance(side, ast.Name) and side.id in ("r", "rr")) or (
            isinstance(side, ast.Attribute) and side.attr == "r"
        )

    def is_one(side):
        return isinstance(side, ast.Constant) and side.value == 1

    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and (is_r(node.left) and is_one(node.right) or is_one(node.left) and is_r(node.right))
    )


def test_profiles_read_their_interval():
    # bundle.smooth_interval alone forms r-1 and r+1; each profile keeps them
    # as lo and hi, and no code in calabi.py forms them again.
    tree = ast.parse(Path(calabi.__file__).read_text(encoding="utf-8"))
    assert [ast.unparse(node) for node in ast.walk(tree) if forms_r_plus_or_minus_one(node)] == []
    for profile in (solve_profile(1, 2, 1), hermite_admissible_profile(1, 2)):
        assert (profile.lo, profile.hi) == (1, 3)
