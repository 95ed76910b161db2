"""Independent finite-scale oracles for the closed forms.

Six oracle families recompute the closed forms from first principles:
Riemann sums for the section-threshold limits, midpoint quadrature for the
volume integrals, naive three-branch comparison for the minimizer logic,
quadrature for the Futaki integral, the telescoped recursion for iterated
cones, and the bundle formula specialized to the cone. Accumulation is
exact rational arithmetic throughout, so "error" always means
discretization distance to the limit, never rounding, and each report
carries a provable bound for it.

Every finite-level sum is still the exact discrete sum over all m sample
points, but one kernel, _progression_sum, evaluates it in closed form: the
sum of a polynomial of degree k over an arithmetic progression expands
binomially into power sums S_p = sum_{j<m} j^p, each an exact integer from
a recurrence. So every kernel, the Futaki quadrature included, costs
O(k^2) big-integer operations whatever m is. The midpoint oracles share
one midpoint rule and one error bound on top of it.

Reports come in that family order, each family over its own fixed grid,
so output is reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .bundle import (
    BundleBoundary,
    DeltaKnowledge,
    FanoBase,
    MINIMIZER_BASE,
    MINIMIZER_V0,
    MINIMIZER_VINF,
    boundary_interval,
    bundle_delta,
    centroid_phi,
    check_integer,
    check_interval,
)
from .calabi import (
    AdmissibleProfile,
    admissible_integrand,
    futaki_closed_form,
    futaki_invariant,
    hermite_admissible_profile,
    perturbed_admissible_profile,
)
from .cone import (
    ConeBoundary,
    HypersurfaceConeSpec,
    cone_bundle_consistency,
    cone_delta,
    iterated_hypersurface_chain,
)
from .errors import DomainError
from .exactarith import Polynomial, Rational, RationalLike, format_rational

DEFAULT_RESOLUTION = 1000
DEEP_RESOLUTION = 100000


@dataclass(frozen=True)
class OracleReport:
    """One oracle evaluation: the exact closed form, the finite-scale
    approximation, and a provable bound for their distance, from which the
    exact absolute error and the status follow.

    For purely exact comparisons (branch logic, consistency, telescoping)
    the defaults hold: one step, bound 0, so passing means literal rational
    equality, and agrees is False when a check beyond the value fails.
    """

    target: str
    closed_form: Rational
    approximation: Rational
    m_or_steps: int = 1
    bound: Rational = Fraction(0)
    agrees: bool = True

    @functools.cached_property
    def absolute_error(self) -> Rational:
        return abs(self.closed_form - self.approximation)

    @functools.cached_property
    def status(self) -> str:
        return "pass" if self.agrees and self.absolute_error <= self.bound else "fail"

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "closed_form": format_rational(self.closed_form),
            "approximation": format_rational(self.approximation),
            "m_or_steps": self.m_or_steps,
            "absolute_error": format_rational(self.absolute_error),
            "bound": format_rational(self.bound),
            "status": self.status,
        }


def _progression_sum(f: Polynomial, start: Rational, step: Rational, count: int) -> Rational:
    """Exact sum_{j<count} f(start + j*step) in O(deg^2) integer operations.

    f is read in its cleared integer form (L, L*c_k). Over the common
    denominator D of start and step the samples are (e0 + c1*j)/D, and each
    (e0 + c1*j)^k expands binomially into power sums
    S_p = sum_{j<count} j^p (0^0 = 1). Summing (j+1)^(p+1) - j^(p+1) over
    j < count telescopes to count^(p+1) = sum_{i<=p} C(p+1, i) S_i, which
    fixes each S_p from the lower ones; the division by p+1 is exact.
    """
    lcm, ints = f.cleared
    if not ints:
        return Fraction(0)
    deg = len(ints) - 1
    den = math.lcm(start.denominator, step.denominator)
    e0 = start.numerator * (den // start.denominator)
    c1 = step.numerator * (den // step.denominator)
    sums: list[int] = []
    for p in range(deg + 1):
        lower = sum(math.comb(p + 1, i) * s for i, s in enumerate(sums))
        sums.append((count ** (p + 1) - lower) // (p + 1))
    total = 0
    for k, c in enumerate(ints):
        if c:
            powers = sum(
                math.comb(k, i) * e0 ** (k - i) * c1**i * sums[i] for i in range(k + 1)
            )
            total += c * den ** (deg - k) * powers
    return Fraction(total, lcm * den**deg)


def _midpoint_rule(f: Polynomial, lo: Rational, hi: Rational, steps: int) -> Rational:
    """Composite midpoint approximation of the integral of f over [lo, hi]."""
    check_integer(steps, "steps")
    h = (hi - lo) / steps
    return h * _progression_sum(f, lo + h / 2, h, steps)


def _midpoint_bound(f: Polynomial, lo: Rational, hi: Rational, steps: int) -> Rational:
    """Provable error bound of _midpoint_rule for 0 <= lo <= hi:
    (hi-lo)^3 * max|f''| / (24 steps^2), with max|f''| bounded by the sum
    of |c_k| hi^k over the coefficients of f''."""
    check_integer(steps, "steps")
    second = f.derivative().derivative()
    peak = sum(abs(c) * hi**k for k, c in enumerate(second.coefficients))
    return (hi - lo) ** 3 * peak / (24 * steps**2)


def _riemann_weight(
    n: int, A: RationalLike, B: RationalLike, m: int
) -> tuple[Rational, Rational, Rational]:
    """Validate the Riemann oracle's inputs and return (A, B, v), where v is
    the exact finite weight sum sum_j a_j^n / m over the lattice samples
    a_j = A + j/m for j = 0..m(B-A). The limit and its bound both divide
    by v.
    """
    a, b = check_interval(n, A, B)
    check_integer(m, "m")
    span = (b - a) * m
    if span.denominator != 1:
        raise DomainError(
            f"m*(B-A) must be an integer (pick m divisible by the denominator "
            f"of B-A), got {span}"
        )
    v = _progression_sum(Polynomial.monomial(n), a, Fraction(1, m), int(span) + 1) / m
    return a, b, v


def riemann_s_limit(n: int, A: RationalLike, B: RationalLike, m: int) -> Rational:
    """Finite Riemann-sum proxy for the zero-section threshold limit.

    Counts lattice samples a_j = A + j/m for j = 0..m(B-A) with the
    leading-order weight a_j^n (the top term of the section count at level
    j) and returns the weighted mean offset

        sum_j (j/m) a_j^n / sum_j a_j^n,

    which converges to centroid_phi(A, B, n) - A as m grows. Since
    j/m = a_j - A, the numerator sums (t - A) t^n over the same samples.
    """
    a, b, v = _riemann_weight(n, A, B, m)
    count = int((b - a) * m) + 1
    w = _progression_sum(Polynomial([0] * n + [-a, 1]), a, Fraction(1, m), count) / m
    return w / v


def riemann_error_bound(n: int, A: RationalLike, B: RationalLike, m: int) -> Rational:
    """Provable bound on |riemann_s_limit - (centroid - A)|.

    Both finite sums are within 2*B^n/m of their integrals (the integrands
    t^n and (t-A)*t^n are monotone, and the closed sum adds one endpoint
    term), which propagates through the quotient to

        (2*B^n / m) * ((B-A) + (centroid-A)) / v,

    where v is the exact finite weight sum sum_j a_j^n / m. Every factor is
    an exact rational, so the bound itself is exact.
    """
    a, b, v = _riemann_weight(n, A, B, m)
    phi_offset = centroid_phi(a, b, n) - a
    return (2 * b**n / m) * ((b - a) + phi_offset) / v


def midpoint_centroid_offset(n: int, A: RationalLike, B: RationalLike, steps: int) -> Rational:
    """Composite midpoint approximation of the normalized volume integral

        integral_A^B (B^(n+1) - t^(n+1)) dt / (B^(n+1) - A^(n+1)),

    whose exact value is centroid_phi(A, B, n) - A. Works on any raw
    interval with 0 <= A < B, including the cone case A = 0.
    """
    a, b = check_interval(n, A, B)
    f = Polynomial([b ** (n + 1)] + [0] * n + [-1])  # B^(n+1) - t^(n+1)
    return _midpoint_rule(f, a, b, steps) / (b ** (n + 1) - a ** (n + 1))


def midpoint_centroid_bound(n: int, A: RationalLike, B: RationalLike, steps: int) -> Rational:
    """Provable midpoint error bound for midpoint_centroid_offset: the
    midpoint bound of its integrand, normalized by the exact volume
    difference B^(n+1) - A^(n+1)."""
    a, b = check_interval(n, A, B)
    f = Polynomial([b ** (n + 1)] + [0] * n + [-1])  # B^(n+1) - t^(n+1)
    return _midpoint_bound(f, a, b, steps) / (b ** (n + 1) - a ** (n + 1))


def _naive_bundle_branches(
    n: int, r: Rational, bdry: BundleBoundary
) -> tuple[Rational, Rational, Rational]:
    # Spelled out from scratch on purpose; only the assembly logic is shared
    # with the module under test, never the branch values.
    a, b = bdry.a, bdry.b
    A = r - 1 + a
    B = r + 1 - b
    phi = (
        Fraction(n + 1, n + 2)
        * (B ** (n + 2) - A ** (n + 2))
        / (B ** (n + 1) - A ** (n + 1))
    )
    return r / phi, (1 - a) / (phi - A), (1 - b) / (B - phi)


def _naive_cone_branches(
    n: int, r: Rational, bdry: ConeBoundary
) -> tuple[Rational, Rational, Rational]:
    B = r + 1 - bdry.c
    coeff = Fraction(n + 2, n + 1) * r / B
    return coeff, coeff, (n + 2) * (1 - bdry.c) / B


def _naive_expected(
    coefficient: Rational,
    v0: Rational,
    vinf: Rational,
    delta: DeltaKnowledge,
) -> tuple[Rational, frozenset[str], bool]:
    """From-scratch min/argmin, and whether the minimum is exact: with only
    delta >= 1 known it is exact only when a section branch is at most the
    base coefficient."""
    if delta.is_exact:
        branches = {
            MINIMIZER_BASE: coefficient * delta.value,
            MINIMIZER_V0: v0,
            MINIMIZER_VINF: vinf,
        }
        value = min(branches.values())
        return value, frozenset(t for t, x in branches.items() if x == value), True
    section_min = min(v0, vinf)
    tags = frozenset(
        t for t, x in ((MINIMIZER_V0, v0), (MINIMIZER_VINF, vinf)) if x == section_min
    )
    return section_min, tags, section_min <= coefficient


# One branch-comparison case: a bundle or a cone over the base, told apart
# by the type of its boundary.
BranchCase = tuple[FanoBase, BundleBoundary | ConeBoundary]


def default_branch_grid() -> list[BranchCase]:
    """Deterministic default grid of valid branch-comparison cases."""
    deltas = [
        DeltaKnowledge.exact(Fraction(1, 2)),
        DeltaKnowledge.exact(1),
        DeltaKnowledge.exact(2),
        DeltaKnowledge.at_least_one(),
    ]
    grid: list[BranchCase] = []
    for n in range(1, 5):
        for r in (Fraction(1), Fraction(2), Fraction(3)):
            for a in (Fraction(0), Fraction(1, 2)):
                if r <= 1 and not (1 - r < a < 1):
                    continue
                for b in (Fraction(0), Fraction(1, 2)):
                    bdry = BundleBoundary(a, b)
                    grid.extend((FanoBase(n, r, delta), bdry) for delta in deltas)
    for n in range(1, 5):
        for r in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
            for c in (Fraction(0), Fraction(1, 2)):
                bdry = ConeBoundary(c)
                grid.extend((FanoBase(n, r, delta), bdry) for delta in deltas)
    return grid


def branch_min_bruteforce(cases: Iterable[BranchCase]) -> list[OracleReport]:
    """Independently evaluate the three branch formulas on each case and
    check the value and minimizer set of the module breakdown against a
    from-scratch min/argmin, which must also be exact.

    The naive branch triple is plain Fraction arithmetic, a different
    computation from the integer closed forms. It depends on the geometry
    only, so it is computed once per (n, r, boundary) and shared by every
    delta on that geometry, in any case order.
    """
    naive: dict[tuple, tuple[Rational, Rational, Rational]] = {}
    reports: list[OracleReport] = []
    for base, bdry in cases:
        n, r, delta = base.n, base.r, base.delta_v
        if isinstance(bdry, ConeBoundary):
            breakdown = cone_delta(base, bdry)
            naive_branches = _naive_cone_branches
            target = f"cone_delta(n={n}, r={r}, c={bdry.c}, delta={delta})"
        else:
            # The closed form validates the boundary range before the naive
            # route divides by anything.
            breakdown = bundle_delta(base, bdry)
            naive_branches = _naive_bundle_branches
            target = f"bundle_delta(n={n}, r={r}, a={bdry.a}, b={bdry.b}, delta={delta})"
        geometry = (n, r, bdry)
        if geometry not in naive:
            naive[geometry] = naive_branches(n, r, bdry)
        value, tags, exact = _naive_expected(*naive[geometry], delta)
        reports.append(
            OracleReport(
                target=target,
                closed_form=breakdown.value,
                approximation=value,
                agrees=exact and tags == frozenset(breakdown.minimizers),
            )
        )
    return reports


def futaki_quadrature(profile: AdmissibleProfile, steps: int) -> Rational:
    """Composite midpoint approximation of the Futaki integral over
    [r-1, r+1] for the profile's n and r, exact in O(deg^2) operations."""
    return _midpoint_rule(admissible_integrand(profile), profile.r - 1, profile.r + 1, steps)


def futaki_quadrature_bound(profile: AdmissibleProfile, steps: int) -> Rational:
    """Provable midpoint bound for futaki_quadrature on [r-1, r+1]."""
    return _midpoint_bound(admissible_integrand(profile), profile.r - 1, profile.r + 1, steps)


def telescoping_iterated_cone(spec: HypersurfaceConeSpec) -> Rational:
    """Iterated-cone value by multiplying the single-step factors
    (n+1+s) * r_{s-1} / ((n+s) * (r_{s-1}+1)) for s = 1..i, capping the
    running delta at 1 before each step. This is the oracle route: it never
    calls cone_delta and never uses the closed form.

    The running value is an integer pair (num, den) reduced by its gcd at
    every step; unreduced, the pair grows by a factor per step and the loop
    turns quadratic in i.
    """
    n = spec.n
    start = Fraction(1) if spec.delta_v0.value is None else spec.delta_v0.value
    num, den = start.numerator, start.denominator
    r0 = n + 2 - spec.d
    for s in range(1, spec.i + 1):
        r_prev = r0 + s - 1
        if num > den:
            num, den = 1, 1
        num *= (n + 1 + s) * r_prev
        den *= (n + s) * (r_prev + 1)
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return Fraction(num, den)


@dataclass(frozen=True)
class VerificationRun:
    """Aggregated oracle run: every report, free-form notes, overall verdict."""

    mode: str
    reports: tuple[OracleReport, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(report.status == "pass" for report in self.reports)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "passed": self.passed,
            "notes": list(self.notes),
            "reports": [report.to_json_dict() for report in self.reports],
        }

    def summary_lines(self) -> list[str]:
        failed = [report for report in self.reports if report.status == "fail"]
        lines = [
            f"FAIL {report.target}: closed form {report.closed_form}, "
            f"got {report.approximation} (bound {report.bound})"
            for report in failed
        ]
        lines.append(
            f"{len(self.reports) - len(failed)} of {len(self.reports)} oracle checks passed "
            f"({self.mode} mode)"
        )
        lines.extend(f"note: {note}" for note in self.notes)
        return lines


def _riemann_family(resolution: int) -> Iterator[OracleReport]:
    for n, A, B in ((1, 1, 3), (2, 0, 2), (2, 1, 3), (3, Fraction(1, 2), Fraction(5, 2))):
        m = resolution * (B - A).denominator
        yield OracleReport(
            target=f"riemann_s_limit(n={n}, A={A}, B={B})",
            closed_form=centroid_phi(A, B, n) - A,
            approximation=riemann_s_limit(n, A, B, m),
            m_or_steps=m,
            bound=riemann_error_bound(n, A, B, m),
        )


def _midpoint_family(resolution: int) -> Iterator[OracleReport]:
    # The support intervals of three bundles (n, a, b, r), then two cone
    # substitution intervals [0, B].
    unknown = DeltaKnowledge.at_least_one()
    intervals = [
        (f"quadrature_s_v0(n={n}, a={a}, b={b}, r={r})", n,
         *boundary_interval(FanoBase(n, r, unknown), BundleBoundary(a, b)))
        for n, a, b, r in (
            (1, 0, 0, 2), (2, Fraction(1, 2), Fraction(1, 4), 3), (3, 0, Fraction(1, 2), 2)
        )
    ] + [
        (f"quadrature cone interval (n={n}, A=0, B={B})", n, 0, B)
        for n, B in ((2, 2), (1, Fraction(3, 2)))
    ]
    for target, n, lo, hi in intervals:
        yield OracleReport(
            target=target,
            closed_form=centroid_phi(lo, hi, n) - lo,
            approximation=midpoint_centroid_offset(n, lo, hi, resolution),
            m_or_steps=resolution,
            bound=midpoint_centroid_bound(n, lo, hi, resolution),
        )


def _futaki_family(resolution: int) -> Iterator[OracleReport]:
    for n, r in ((1, 2), (2, 2), (2, 3)):
        hermite = hermite_admissible_profile(n, r)
        exact = futaki_invariant(hermite)
        yield OracleReport(
            target=f"futaki closed form vs integral (n={n}, r={r})",
            closed_form=futaki_closed_form(n, r),
            approximation=exact,
        )
        bump = perturbed_admissible_profile(hermite, Fraction(1, 10))
        linear = perturbed_admissible_profile(hermite, Fraction(1, 7), Polynomial([0, 1]))
        for label, profile in (("hermite", hermite), ("bump", bump), ("bump-linear", linear)):
            yield OracleReport(
                target=f"futaki quadrature (n={n}, r={r}, profile={label})",
                closed_form=exact,
                approximation=futaki_quadrature(profile, resolution),
                m_or_steps=resolution,
                bound=futaki_quadrature_bound(profile, resolution),
            )
            if profile is not hermite:
                yield OracleReport(
                    target=f"futaki profile-independence (n={n}, r={r}, profile={label})",
                    closed_form=exact,
                    approximation=futaki_invariant(profile),
                )


def _telescoping_family() -> Iterator[OracleReport]:
    for n in range(1, 5):
        for d in range(2, n + 2):
            for i in range(1, 5):
                spec = HypersurfaceConeSpec(n, d, i, DeltaKnowledge.at_least_one())
                yield OracleReport(
                    target=f"telescoping vs composition (n={n}, d={d}, i={i})",
                    closed_form=Fraction(*iterated_hypersurface_chain(spec)[-1].value),
                    approximation=telescoping_iterated_cone(spec),
                    m_or_steps=i,
                )


def _consistency_family() -> Iterator[OracleReport]:
    for n in range(1, 7):
        for r in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3):
            base = FanoBase(n, r, DeltaKnowledge.at_least_one())
            for c in (Fraction(k, 4) for k in range(4)):
                bundle_route, cone_route = cone_bundle_consistency(base, c)
                yield OracleReport(
                    target=f"cone/bundle consistency (n={n}, r={r}, c={c})",
                    closed_form=cone_route[0],
                    approximation=bundle_route[0],
                    agrees=bundle_route == cone_route,
                )


# iterated_hypersurface_chain checks its last value against the closed form
# by agree, so the telescoping reports cover the closed form too.
_ITERATED_CONE_NOTE = (
    "iterated-cone finding: the telescoped per-step recursion agrees exactly "
    "with both the step-wise composition and the closed form "
    "(n+2-d)(n+1+i)/((n+1)(n+2+i-d)) on the full grid n<=4, d in [2,n+1], "
    "i<=4; per-step capping at 1 never binds after the first step"
)


def run_verification(
    deep: bool = False, grid: Optional[Iterable[BranchCase]] = None
) -> VerificationRun:
    """Run the six oracle families and aggregate their reports in family
    order: Riemann, midpoint, branch minimum, Futaki, telescoping and
    cone/bundle consistency. deep raises the Riemann, midpoint and Futaki
    resolution from 10^3 to 10^5. grid, a list of (FanoBase, boundary)
    branch cases, replaces only the default branch-minimum cases.
    """
    resolution = DEEP_RESOLUTION if deep else DEFAULT_RESOLUTION
    families = (
        _riemann_family(resolution),
        _midpoint_family(resolution),
        branch_min_bruteforce(default_branch_grid() if grid is None else grid),
        _futaki_family(resolution),
        _telescoping_family(),
        _consistency_family(),
    )
    return VerificationRun(
        mode="deep" if deep else "default",
        reports=tuple(report for family in families for report in family),
        notes=(_ITERATED_CONE_NOTE,),
    )
