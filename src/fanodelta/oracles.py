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

import math
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
from .exactarith import Immutable, Polynomial, Rational, RationalLike

DEFAULT_RESOLUTION = 1000
DEEP_RESOLUTION = 100000


class OracleReport(Immutable):
    """One oracle evaluation: the exact closed form, the finite-scale
    approximation, and a provable bound for their distance, from which the
    exact absolute error and the status follow.

    For purely exact comparisons (branch logic, consistency, telescoping)
    the defaults hold: one step, bound 0, so passing means literal rational
    equality, and agrees is False when a check beyond the value fails.

    Both follow from one integer cross-difference: with closed form p/q and
    approximation s/t, the error is |pt - sq| / (qt), and it is within the
    bound u/v exactly when |pt - sq| * v <= u * qt.
    """

    __slots__ = ("target", "closed_form", "approximation", "m_or_steps", "bound", "agrees",
                 "absolute_error", "status")

    def __init__(
        self, target: str, closed_form: Rational, approximation: Rational,
        m_or_steps: int = 1, bound: Rational = Fraction(0), agrees: bool = True,
    ) -> None:
        den = closed_form.denominator * approximation.denominator
        gap = abs(closed_form.numerator * approximation.denominator
                  - approximation.numerator * closed_form.denominator)
        within = gap * bound.denominator <= bound.numerator * den
        super().__init__(target, closed_form, approximation, m_or_steps, bound, agrees,
                         Fraction(gap, den), "pass" if agrees and within else "fail")


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
        powers = sum(math.comb(k, i) * e0 ** (k - i) * c1**i * sums[i] for i in range(k + 1))
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


def _naive_section_minimum(
    coefficient: Rational, v0: Rational, vinf: Rational
) -> tuple[Rational, Rational, frozenset[str]]:
    """The base coefficient, the least section branch and the tags of the
    section branches equal to it: the part of the min/argmin that depends
    on the geometry only."""
    section_min = min(v0, vinf)
    return coefficient, section_min, frozenset(
        t for t, x in ((MINIMIZER_V0, v0), (MINIMIZER_VINF, vinf)) if x == section_min
    )


def _naive_expected(
    coefficient: Rational,
    section_min: Rational,
    section_tags: frozenset[str],
    delta: DeltaKnowledge,
) -> tuple[Rational, frozenset[str], bool]:
    """From-scratch min/argmin over the base branch coefficient * delta and
    the section minimum, and whether the minimum is exact: with only
    delta >= 1 known it is exact only when a section branch is at most the
    base coefficient."""
    if not delta.is_exact:
        return section_min, section_tags, section_min <= coefficient
    base = coefficient * delta.value
    if base > section_min:
        return section_min, section_tags, True
    if base < section_min:
        return base, frozenset((MINIMIZER_BASE,)), True
    return base, section_tags | {MINIMIZER_BASE}, True


# One branch-comparison case: a bundle or a cone over the base, told apart
# by the type of its boundary.
BranchCase = tuple[FanoBase, BundleBoundary | ConeBoundary]


def default_branch_grid() -> list[BranchCase]:
    """Deterministic default grid of valid branch-comparison cases. One
    FanoBase per (n, r, delta) serves every boundary over it."""
    deltas = [
        DeltaKnowledge.exact(Fraction(1, 2)),
        DeltaKnowledge.exact(1),
        DeltaKnowledge.exact(2),
        DeltaKnowledge.at_least_one(),
    ]
    grid: list[BranchCase] = []
    for n in range(1, 5):
        for r in (Fraction(1), Fraction(2), Fraction(3)):
            bases = [FanoBase(n, r, delta) for delta in deltas]
            for a in (Fraction(0), Fraction(1, 2)):
                if r <= 1 and not (1 - r < a < 1):
                    continue
                for b in (Fraction(0), Fraction(1, 2)):
                    bdry = BundleBoundary(a, b)
                    grid.extend((base, bdry) for base in bases)
    for n in range(1, 5):
        for r in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
            bases = [FanoBase(n, r, delta) for delta in deltas]
            for c in (Fraction(0), Fraction(1, 2)):
                bdry = ConeBoundary(c)
                grid.extend((base, bdry) for base in bases)
    return grid


def branch_min_bruteforce(cases: Iterable[BranchCase]) -> list[OracleReport]:
    """Independently evaluate the three branch formulas on each case and
    check the value and minimizer set of the module breakdown against a
    from-scratch min/argmin, which must also be exact.

    The naive branch triple is plain Fraction arithmetic, a different
    computation from the integer closed forms, and the naive minimum never
    calls branch_minimum. The triple, its section minimum and that
    minimum's tie set depend on the geometry only, so they are computed
    once per (n, r, boundary), looked up once per case, and shared by every
    delta on that geometry, in any case order; each delta then costs one
    product and its comparison with the section minimum.
    """
    naive: dict[tuple, tuple[Rational, Rational, frozenset[str]]] = {}
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
        expected = naive.get(geometry)
        if expected is None:
            expected = naive[geometry] = _naive_section_minimum(*naive_branches(n, r, bdry))
        value, tags, exact = _naive_expected(*expected, delta)
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
    """Composite midpoint approximation of the Futaki integral over the
    profile's [lo, hi], exact in O(deg^2) operations."""
    return _midpoint_rule(admissible_integrand(profile), profile.lo, profile.hi, steps)


def futaki_quadrature_bound(profile: AdmissibleProfile, steps: int) -> Rational:
    """Provable midpoint bound for futaki_quadrature on the profile's [lo, hi]."""
    return _midpoint_bound(admissible_integrand(profile), profile.lo, profile.hi, steps)


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


class VerificationRun(Immutable):
    """Aggregated oracle run: every report, free-form notes, overall verdict."""

    __slots__ = ("mode", "reports", "notes")

    def __init__(
        self, mode: str, reports: tuple[OracleReport, ...], notes: tuple[str, ...]
    ) -> None:
        super().__init__(mode, reports, notes)

    @property
    def passed(self) -> bool:
        return all(report.status == "pass" for report in self.reports)

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
