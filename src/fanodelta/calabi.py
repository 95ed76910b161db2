"""Momentum-profile calculus for the Calabi ansatz on the projectivized
bundle, reduced to exact one-variable polynomial identities.

A rotationally symmetric Kaehler metric on the bundle is encoded by a
momentum profile phi(tau) on the fiber support interval [lo, hi] = [r-1, r+1]
of bundle.smooth_interval, which each profile keeps as its lo and hi. Writing
N(tau) = tau^n * phi(tau), the twisted constant-scalar-curvature equation
with parameter beta linearizes to an ODE whose solution is the explicit
polynomial

    N(tau) = -(beta/(n+2)) tau^(n+2) + c1 tau^(n+1) + c2

with constants c1, c2 fixed by vanishing at both endpoints. Everything
downstream (edge cone angles, the twisted Ricci lower bound, the Futaki
invariant) becomes an exact statement about N and its derivatives, which is
what this module verifies and evaluates.

Normalization: the polarization volume is 1 and all 2*pi factors are
dropped, so every identity is an identity of rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .bundle import beta_zero, centroid_phi, smooth_interval
from .errors import DomainError, agree
from .exactarith import Immutable, Polynomial, Rational, RationalLike, rational


class CalabiProfile(Immutable):
    """Solved momentum profile of dimension n, slope r and twist beta.

    Building one solves the twisted momentum ODE in closed form, with the
    constants forced by N(lo) = N(hi) = 0 on numerator N = tau^n * phi:

        c1 = (beta/(n+2)) * (hi^(n+2) - lo^(n+2)) / P
        c2 = -(beta/(n+2)) * (hi - lo) * (lo*hi)^(n+1) / P

    with P = hi^(n+1) - lo^(n+1). Both endpoint values and the ODE
    residual are checked exactly by agree before the profile exists. It
    keeps beta0 = beta_zero(n, r) for its edge angles and Ricci margin.
    """

    __slots__ = ("n", "r", "lo", "hi", "beta", "beta0", "c1", "c2", "numerator")

    def __init__(self, n: int, r: RationalLike, beta: RationalLike) -> None:
        rr, bb = rational(r), rational(beta)
        lo, hi = smooth_interval(n, rr)
        beta0 = beta_zero(n, rr)
        if bb <= 0:
            raise DomainError(f"beta must satisfy beta > 0, got {bb}")
        p_const = hi ** (n + 1) - lo ** (n + 1)
        c1 = bb / (n + 2) * (hi ** (n + 2) - lo ** (n + 2)) / p_const
        c2 = -bb / (n + 2) * (hi - lo) * (lo * hi) ** (n + 1) / p_const
        numerator = (
            Polynomial.monomial(n + 2, -bb / (n + 2))
            + Polynomial.monomial(n + 1, c1)
            + Polynomial.monomial(0, c2)
        )
        super().__init__(n, rr, lo, hi, bb, beta0, c1, c2, numerator)
        agree("profile numerator N(r-1)", numerator(lo), 0)
        agree("profile numerator N(r+1)", numerator(hi), 0)
        agree("momentum ODE residual", ode_residual(self), Polynomial())

    def phi(self, tau: RationalLike) -> Rational:
        """Exact profile value phi(tau) = N(tau) / tau^n."""
        t = rational(tau)
        if t <= 0:
            raise DomainError(f"phi is defined for tau > 0, got {t}")
        return self.numerator(t) / t**self.n

    def phi_samples(self, count: int) -> Iterator[tuple[int, int, int, int]]:
        """phi at count >= 2 evenly spaced points of [lo, hi], in order, as
        reduced integer quadruples (tau numerator, tau denominator, phi
        numerator, phi denominator), each denominator positive.

        The points tau_k = lo + (hi-lo)k/(count-1) are one integer progression
        u_k / D over a common D. With N's cleared form (L, a) homogenised once
        to b_j = a_j D^(deg-j), Horner on u_k gives h_k = L D^deg N(tau_k),
        so phi_k = h_k D^n / (L D^deg u_k^n), and each value is reduced by
        one gcd. The middle sample is checked by agree against phi, the
        reference route.
        """
        if count < 2:
            raise DomainError(f"samples must be >= 2, got {count}")
        lo, width = self.lo, self.hi - self.lo
        den = lo.denominator * width.denominator * (count - 1)
        u, du = lo.numerator * width.denominator * (count - 1), width.numerator * lo.denominator
        lcm, ints = self.numerator.cleared
        deg = len(ints) - 1
        coefficients = [a * den ** (deg - j) for j, a in reversed(list(enumerate(ints)))]
        top, bottom = den**self.n, lcm * den**deg
        g = math.gcd(top, bottom)
        top, bottom = top // g, bottom // g
        lead, rest = coefficients[0], coefficients[1:]
        for k in range(count):
            h = lead
            for b in rest:
                h = h * u + b
            g = math.gcd(u, den)
            phi_num, phi_den = h * top, bottom * u**self.n
            g_phi = math.gcd(phi_num, phi_den)
            sample = (u // g, den // g, phi_num // g_phi, phi_den // g_phi)
            if k == count // 2:
                tau = Fraction(u, den)
                phi = self.phi(tau)
                agree(
                    "phi sample by integer progression vs phi",
                    sample,
                    (tau.numerator, tau.denominator, phi.numerator, phi.denominator),
                )
            yield sample
            u += du

    def phi_prime(self, tau: RationalLike) -> Rational:
        """Exact derivative phi'(tau) = (tau*N'(tau) - n*N(tau)) / tau^(n+1)."""
        t = rational(tau)
        if t <= 0:
            raise DomainError(f"phi' is defined for tau > 0, got {t}")
        return (t * self.numerator.derivative()(t) - self.n * self.numerator(t)) / t ** (
            self.n + 1
        )


def solve_profile(n: int, r: RationalLike, beta: RationalLike) -> CalabiProfile:
    """The profile that CalabiProfile(n, r, beta) builds: the twisted
    momentum ODE solved in closed form and checked exactly."""
    return CalabiProfile(n, r, beta)


def ode_residual(profile: CalabiProfile) -> Polynomial:
    """Numerator polynomial of -(n*phi/tau + phi')' - beta.

    Clearing the tau^(n+1) denominator, the residual is
    -(tau*N''(tau) - n*N'(tau)) - beta*tau^(n+1); the profile solves the
    ODE exactly when this polynomial is identically zero.
    """
    N = profile.numerator
    t = Polynomial.monomial(1)
    return -(t * N.derivative().derivative() - profile.n * N.derivative()) - Polynomial.monomial(
        profile.n + 1, profile.beta
    )


def edge_angles(profile: CalabiProfile) -> tuple[Rational, Rational]:
    """Cone angles (beta1, beta2) of the metric along the two sections.

    beta1 = phi'(lo) and beta2 = -phi'(hi), computed by exact
    differentiation of the profile and cross-checked against the closed
    forms beta/beta0 and beta*(2*beta0 - 1)/beta0 by agree: a mismatch is
    an internal error, not bad input.
    """
    return (
        agree("edge angle beta1", profile.phi_prime(profile.lo), profile.beta / profile.beta0),
        agree(
            "edge angle beta2",
            -profile.phi_prime(profile.hi),
            profile.beta * (2 * profile.beta0 - 1) / profile.beta0,
        ),
    )


def ricci_bound_margin(profile: CalabiProfile, mu: RationalLike) -> Rational:
    """Constant margin of the twisted Ricci lower bound.

    Returns mu - beta/(r*beta0) - beta*(1 - 1/r). The pointwise bound
    mu - n*phi/(r*tau) - phi'/r - (beta/r)*tau >= 0 on [lo, hi] holds with
    equality of the left side to this constant (see
    ricci_pointwise_residual), so the bound holds exactly when the margin is
    nonnegative, i.e. when beta <= mu*beta0 / (1/r + beta0*(1 - 1/r)).
    """
    m = rational(mu)
    if m <= 0:
        raise DomainError(f"mu must satisfy mu > 0, got {m}")
    return m - profile.beta / (profile.r * profile.beta0) - profile.beta * (1 - 1 / profile.r)


def ricci_pointwise_residual(profile: CalabiProfile, mu: RationalLike) -> Polynomial:
    """Polynomial certificate that the Ricci bound's left side is constant.

    The claim: mu - n*phi/(r*tau) - phi'/r - (beta/r)*tau equals
    ricci_bound_margin identically in tau. Since n*phi/tau + phi' =
    N'(tau)/tau^n, clearing r*tau^n turns the claim into the polynomial
    identity

        r*mu*tau^n - N'(tau) - beta*tau^(n+1) - r*margin*tau^n == 0,

    and this function returns that left side. The zero polynomial certifies
    the bound pointwise on the whole interval with margin as the exact gap.
    """
    m = rational(mu)
    margin = ricci_bound_margin(profile, m)
    r, n = profile.r, profile.n
    return (
        Polynomial.monomial(n, r * m)
        - profile.numerator.derivative()
        - Polynomial.monomial(n + 1, profile.beta)
        - Polynomial.monomial(n, r * margin)
    )


def verify_positive_interior(profile: CalabiProfile) -> bool:
    """Exact proof that phi > 0 on the open interval (lo, hi).

    Method (unimodality certificate, no floating point): N'(tau) factors
    exactly as tau^n * ((n+1)*c1 - beta*tau), a polynomial identity checked
    here. Every CalabiProfile is built with N(lo) = N(hi) = 0, beta > 0
    and 0 < lo < hi, so by Rolle N' vanishes in (lo, hi), where tau^n > 0, and
    the linear factor's only root (n+1)*c1/beta lies strictly inside. The
    factor strictly decreases, so N'(lo) > 0 > N'(hi): N strictly rises
    then strictly falls on [lo, hi], and since it vanishes at both ends
    it is positive between them, as is phi = N/tau^n.
    """
    agree(
        "N' against its factored form",
        profile.numerator.derivative(),
        Polynomial.monomial(profile.n)
        * Polynomial([(profile.n + 1) * profile.c1, -profile.beta]),
    )
    return True


class AdmissibleProfile(Immutable):
    """Profile numerator satisfying the smooth-metric boundary conditions:
    phi vanishes at both endpoints with phi'(r-1) = 1 and phi'(r+1) = -1,
    equivalently N(r-1) = N(r+1) = 0, N'(r-1) = (r-1)^n,
    N'(r+1) = -(r+1)^n. Construction validates all four exactly and sets
    integrand = futaki_integrand(n, r, numerator), which the invariant and
    each quadrature of the profile integrate."""

    __slots__ = ("n", "r", "lo", "hi", "numerator", "integrand")

    def __init__(self, n: int, r: RationalLike, numerator: Polynomial) -> None:
        r = rational(r)
        lo, hi = smooth_interval(n, r)
        failures = admissibility_failures(n, r, numerator)
        if failures:
            raise DomainError("; ".join(failures))
        integrand = futaki_integrand(n, r, numerator)
        super().__init__(n, r, lo, hi, numerator, integrand)


def admissibility_failures(n: int, r: RationalLike, numerator: Polynomial) -> list[str]:
    """Every violated admissibility condition, as constraint-naming
    messages; empty when the numerator is admissible for (n, r)."""
    lo, hi = smooth_interval(n, r)
    n_prime = numerator.derivative()
    checks = (
        ("N(r-1) = 0 (phi vanishes at the inner edge)", numerator(lo), Fraction(0)),
        ("N(r+1) = 0 (phi vanishes at the outer edge)", numerator(hi), Fraction(0)),
        ("N'(r-1) = (r-1)^n (edge slope phi'(r-1) = 1)", n_prime(lo), lo**n),
        ("N'(r+1) = -(r+1)^n (edge slope phi'(r+1) = -1)", n_prime(hi), -(hi**n)),
    )
    return [
        f"admissibility violated: {label} requires {expected}, got {actual}"
        for label, actual, expected in checks
        if actual != expected
    ]


def hermite_admissible_profile(n: int, r: RationalLike) -> AdmissibleProfile:
    """The minimal-degree admissible numerator: the cubic-type Hermite
    interpolant matching zero values and the required slopes at both
    endpoints,

        N(tau) = (r-1)^n (tau-(r-1)) (tau-(r+1))^2 / 4
               - (r+1)^n (tau-(r-1))^2 (tau-(r+1)) / 4.
    """
    lo, hi = smooth_interval(n, r)
    left, right = Polynomial([-lo, 1]), Polynomial([-hi, 1])
    numerator = (lo**n * right - hi**n * left) * left * right * Fraction(1, 4)
    return AdmissibleProfile(n=n, r=r, numerator=numerator)


def perturbed_admissible_profile(
    base: AdmissibleProfile, scale: RationalLike, weight: Polynomial = Polynomial.monomial(0)
) -> AdmissibleProfile:
    """A distinct admissible profile: add scale * weight(tau) * bump(tau)
    where bump = (tau-(r-1))^2 (tau-(r+1))^2 vanishes to second order at
    both endpoints, preserving all four admissibility conditions."""
    bump = Polynomial([-base.lo, 1]) ** 2 * Polynomial([-base.hi, 1]) ** 2
    return AdmissibleProfile(
        n=base.n, r=base.r, numerator=base.numerator + rational(scale) * weight * bump
    )


def futaki_integrand(n: int, r: RationalLike, numerator: Polynomial) -> Polynomial:
    """Fiber-reduced integrand of the Futaki invariant.

    After integrating out the base (scalar curvature integral n * r^n,
    volume r^n, both exact under the normalization), the invariant is the
    integral over [r-1, r+1] of

        (n+1) * (n*r*tau^n - tau*N''(tau) - (n+1)*tau^(n+1)).
    """
    rr = rational(r)
    t = Polynomial.monomial(1)
    return (n + 1) * (
        Polynomial.monomial(n, n * rr)
        - t * numerator.derivative().derivative()
        - Polynomial.monomial(n + 1, n + 1)
    )


def admissible_integrand(profile: AdmissibleProfile) -> Polynomial:
    """futaki_integrand of an admissible profile. Anything else is refused:
    a solved CalabiProfile has an n, an r and a numerator too, but it is not
    admissible, and its integral is not the invariant."""
    if not isinstance(profile, AdmissibleProfile):
        raise TypeError(f"expected an AdmissibleProfile, got {type(profile).__name__}")
    return profile.integrand


def futaki_invariant(profile: AdmissibleProfile) -> Rational:
    """Futaki invariant of the fiberwise scaling field, as an exact integral.

    The value depends only on the boundary data (an integration by parts
    moves every profile term to the endpoints), so it is the same rational
    for every admissible profile; that independence is a tested property,
    not an assumption used here.
    """
    return admissible_integrand(profile).integrate(profile.lo, profile.hi)


def futaki_closed_form(n: int, r: RationalLike) -> Rational:
    """Boundary-data evaluation of the same invariant: (Phi - r) * ((r+1)^(n+1)
    - (r-1)^(n+1)) with Phi = centroid_phi(r-1, r+1, n) = r - 1 + 1/beta0.
    Always positive: the increasing weight t^n puts Phi above the midpoint r."""
    lo, hi = smooth_interval(n, r)
    return (centroid_phi(lo, hi, n) - rational(r)) * (hi ** (n + 1) - lo ** (n + 1))
