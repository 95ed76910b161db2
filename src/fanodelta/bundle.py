"""Delta invariants of projectivized line-bundle compactifications over Fano bases.

The geometry: V is a Fano base of dimension n polarized by an ample line
bundle L with -K_V = r*L for a rational slope r > 0. Y is the P^1-bundle
obtained by projectivizing O + L^(-1) over V, carrying a zero section V0 and
an infinity section Vinf. The pair (Y, a*V0 + b*Vinf) is log Fano exactly on
the boundary domain validated here, and its delta invariant is the minimum
of three branch values: one for divisors pulled back from the base (the only
branch that needs the delta invariant of V itself), one for the zero
section, one for the infinity section.

All formulas reduce to the centroid of t on the fiber support interval
[A, B] = [r - (1 - a), r + (1 - b)] against the weight t^n, so everything is
an exact rational computation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError
from .exactarith import Immutable, Rational, RationalLike, format_rational, rational

MINIMIZER_BASE = "BaseDivisor"
MINIMIZER_V0 = "V0"
MINIMIZER_VINF = "Vinf"
_TAGS = (MINIMIZER_BASE, MINIMIZER_V0, MINIMIZER_VINF)


class DeltaKnowledge(Immutable):
    """What is known about the delta invariant of the base.

    Either an exact rational value >= 0 (coerced and checked at
    construction), or None: only the fact that it is at least 1
    (a K-semistable base). The latter is enough information whenever a
    section branch attains the minimum, which for cones is always the case.
    """

    __slots__ = ("value",)

    def __init__(self, value: Optional[RationalLike]) -> None:
        if value is not None:
            value = rational(value)
            if value < 0:
                raise DomainError(f"delta(V) must be >= 0, got {value}")
        super().__init__(value)

    @classmethod
    def exact(cls, value: RationalLike) -> "DeltaKnowledge":
        """An exact value; None is refused here (that is at_least_one)."""
        return cls(rational(value))

    @classmethod
    def at_least_one(cls) -> "DeltaKnowledge":
        return cls(None)

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return ">=1" if self.value is None else format_rational(self.value)


class FanoBase(Immutable):
    """Base data: dimension n >= 1, slope r > 0 with -K_V = r*L, and what is
    known about delta(V). The polarization volume L^n is normalized to 1 and
    never enters any formula."""

    __slots__ = ("n", "r", "delta_v")

    def __init__(self, n: int, r: RationalLike, delta_v: DeltaKnowledge) -> None:
        check_integer(n)
        r = rational(r)
        if r <= 0:
            raise DomainError(f"r must satisfy r > 0, got {r}")
        if not isinstance(delta_v, DeltaKnowledge):
            raise TypeError("delta_v must be a DeltaKnowledge")
        super().__init__(n, r, delta_v)


class BundleBoundary(Immutable):
    """Boundary coefficients (a, b) of a*V0 + b*Vinf.

    Range validation depends on the slope r of the base, so it happens in
    boundary_interval rather than here.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = Fraction(0), b: RationalLike = Fraction(0)) -> None:
        super().__init__(rational(a), rational(b))


def boundary_interval(base: FanoBase, bdry: BundleBoundary) -> tuple[Rational, Rational]:
    """Validate the log Fano boundary domain and return the fiber support
    interval endpoints (A, B) = (r - (1 - a), r + (1 - b)).

    For r > 1 the valid domain is 0 <= a < 1; for 0 < r <= 1 positivity of
    the pair additionally forces a > 1 - r. In both regimes 0 <= b < 1.
    On this domain A > 0 and B > A automatically.

    Decided on the integers of r = p/q, a = s/t and b = u/v (denominators
    positive): r > 1 is p > q, 0 <= a < 1 is 0 <= s < t, 1 - r < a is
    (q - p)t < sq, and A and B are built as one Fraction each.
    """
    r, a, b = base.r, bdry.a, bdry.b
    p, q = r.numerator, r.denominator
    s, t = a.numerator, a.denominator
    u, v = b.numerator, b.denominator
    if p > q:
        if not (0 <= s < t):
            raise DomainError(f"a must satisfy 0 <= a < 1 when r > 1, got a={a}")
    elif not ((q - p) * t < s * q and s < t):
        raise DomainError(
            f"a must satisfy 1-r < a < 1 when r <= 1, got a={a} with r={r}"
        )
    if not (0 <= u < v):
        raise DomainError(f"b must satisfy 0 <= b < 1, got b={b}")
    return Fraction((p - q) * t + s * q, q * t), Fraction((p + q) * v - u * q, q * v)


def check_integer(value: object, name: str = "n", least: int = 1) -> int:
    """value itself, after checking that it is an integer >= least (a bool
    is refused, as the CLI's integer converter refuses it). Dimensions,
    iteration counts, step counts and resolutions share it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value}")
    return value


def check_interval(n: int, A: RationalLike, B: RationalLike) -> tuple[Rational, Rational]:
    """The exact (A, B) of a weight-t^n interval, after checking that n is an
    integer >= 0 and 0 <= A < B. The centroid and its oracles share it."""
    a, b = rational(A), rational(B)
    check_integer(n, least=0)
    if a < 0:
        raise DomainError(f"A must satisfy A >= 0, got {a}")
    if a >= b:
        raise DomainError(f"interval requires A < B, got A={a}, B={b}")
    return a, b


def centroid_phi(A: RationalLike, B: RationalLike, n: int) -> Rational:
    """Centroid of t on [A, B] against the weight t^n.

    Equals ((n+1)/(n+2)) * (B^(n+2) - A^(n+2)) / (B^(n+1) - A^(n+1)), i.e.
    the ratio of the exact integrals of t^(n+1) and t^n over [A, B], and
    always lies strictly between A and B.
    """
    a, b = check_interval(n, A, B)
    return _centroid(a, b, n)


def _centroid(a: Rational, b: Rational, n: int) -> Rational:
    """centroid_phi on an interval its caller has validated, in integers:
    over q = den(a)*den(b), a = x/q and b = y/q, so the centroid is
    (n+1)(y^(n+2) - x^(n+2)) / ((n+2) q (y^(n+1) - x^(n+1))), one Fraction
    and one reduction."""
    x, y = a.numerator * b.denominator, b.numerator * a.denominator
    q = a.denominator * b.denominator
    return Fraction(
        (n + 1) * (y ** (n + 2) - x ** (n + 2)),
        (n + 2) * q * (y ** (n + 1) - x ** (n + 1)),
    )


def smooth_interval(n: int, r: RationalLike) -> tuple[Rational, Rational]:
    """(r-1, r+1), the fiber support interval of the boundary-free bundle and of
    every Calabi profile, after checking that n is an integer >= 1 and r > 1."""
    rr = rational(r)
    check_integer(n)
    if rr <= 1:
        raise DomainError(f"r must satisfy r > 1, got {rr}")
    return rr - 1, rr + 1


def beta_zero(n: int, r: RationalLike) -> Rational:
    """Stability threshold of the zero section for the boundary-free bundle.

    The reciprocal of the expected vanishing order of the zero section,
    1 / (centroid_phi(r-1, r+1, n) - (r-1)). Strictly between 1/2 and 1 for
    every n >= 1 and r > 1.
    """
    lo, hi = smooth_interval(n, r)
    return 1 / (centroid_phi(lo, hi, n) - lo)


class DeltaBreakdown(Immutable):
    """The three branch values of a delta formula, their minimum (value),
    and the divisor tags attaining it (minimizers). value and minimizers are
    derived from the branches at construction and cannot be passed in, so
    they always agree with the branches (branch_minimum decides both). The
    value is always exact.

    The base branch is base_coefficient * delta(V), with base_coefficient
    r/Phi for a bundle and the V0 branch for a cone. base_branch is None when
    only delta(V) >= 1 is known: the branch is then not a single rational,
    only at least base_coefficient. The value is still exact, because
    min(v0, vinf) <= base_coefficient always holds: the base branch can only
    be larger or equal, and equality would require the unknown delta(V) to
    be exactly 1. So the value is min(v0, vinf), and the base divisor is left
    out of the minimizers. Proof of the inequality: for a cone,
    base_coefficient is v0 itself. For a bundle, on the boundary domain
    A = r-1+a > 0, so 1-a = r-A and 1-b = B-r. Hence v0 = (r-A)/(Phi-A) <=
    r/Phi exactly when Phi >= r, and vinf = (B-r)/(B-Phi) <= r/Phi exactly
    when Phi <= r: one of the two always holds.

    The optional metadata fields are populated by the cone operations:
    r_effective echoes the slope the formula actually used (derived, for
    branched constructions), proof_coverage records whether the closed form
    is an identity or only an upper bound for the given slope, and
    side_conditions lists the arithmetic conditions checked for branched
    constructions.
    """

    __slots__ = ("base_branch", "v0_branch", "vinf_branch", "value", "minimizers",
                 "r_effective", "proof_coverage", "side_conditions")

    def __init__(
        self, base_branch: Optional[Rational], v0_branch: Rational, vinf_branch: Rational,
        r_effective: Optional[Rational] = None, proof_coverage: Optional[str] = None,
        side_conditions: Optional[tuple[str, ...]] = None,
    ) -> None:
        branches = (base_branch, v0_branch, vinf_branch)
        least, minimizers = branch_minimum(
            [None if branch is None else (branch.numerator, branch.denominator)
             for branch in branches]
        )
        super().__init__(*branches, branches[least], minimizers,
                         r_effective, proof_coverage, side_conditions)


def branch_minimum(branches: Sequence[Optional[tuple[int, int]]]) -> tuple[int, tuple[str, ...]]:
    """The index of the least of the (base, v0, vinf) branches and the tags
    of every branch equal to it. Each branch is a (numerator, denominator)
    pair with a positive denominator, or None for a base branch that is not
    a single rational; at least one branch is a pair.

    One pass in integers: p/q < s/t exactly when p*t < s*q. A tie keeps the
    earlier branch, as min does.
    """
    least, tags = -1, ()
    for index, branch in enumerate(branches):
        if branch is None:
            continue
        # The sign of branch - num/den, the least pair so far.
        sign = -1 if least < 0 else branch[0] * den - num * branch[1]
        if sign < 0:
            least, tags, (num, den) = index, (_TAGS[index],), branch
        elif sign == 0:
            tags += (_TAGS[index],)
    return least, tags


def bundle_delta(base: FanoBase, bdry: BundleBoundary = BundleBoundary()) -> DeltaBreakdown:
    """Delta invariant of (Y, a*V0 + b*Vinf) as a three-branch minimum.

    Branches: r * delta(V) / Phi for divisors pulled back from the base
    (None when only delta(V) >= 1 is known), (1 - a) / (Phi - A) for the
    zero section, (1 - b) / (B - Phi) for the infinity section, where
    Phi = centroid_phi(A, B, n).

    boundary_interval has validated [A, B], so the centroid is read without
    checking it again. The branches stay Fraction operations: at n = 1500
    the centroid's terms have about 10^4 bits, and rebuilding each branch
    from integer pairs would rerun gcds of that size.
    """
    A, B = boundary_interval(base, bdry)
    phi = _centroid(A, B, base.n)
    delta = base.delta_v.value
    return DeltaBreakdown(
        None if delta is None else base.r / phi * delta,
        (1 - bdry.a) / (phi - A),
        (1 - bdry.b) / (B - phi),
    )


def smooth_threshold_relation(n: int, r: RationalLike, delta_v: RationalLike) -> Rational:
    """Boundary-free delta invariant in its two-branch threshold form.

    Returns min{ delta(V) * r * beta0 / (1 + beta0*(r - 1)), beta0 } with
    beta0 = beta_zero(n, r). Requires r > 1 (checked by beta_zero) and an
    exact delta(V) >= 0 (checked by DeltaKnowledge.exact). Agrees with
    bundle_delta at a = b = 0; the crossover between the two branches
    happens at delta(V) = 1/r + beta0*(1 - 1/r).
    """
    rr = rational(r)
    b0 = beta_zero(n, rr)
    dv = DeltaKnowledge.exact(delta_v).value
    return min(dv * rr * b0 / (1 + b0 * (rr - 1)), b0)
