"""Delta invariants of projective cones over Fano bases.

The geometry: V is a Fano base of dimension n with -K_V = r*L, and Y is the
projective cone over V with respect to L, with vertex blowup divisor V0 and
section at infinity Vinf. The pair (Y, c*Vinf) is the object of study. A
cone is the degenerate case of the projectivized bundle in which the zero
section contracts to the vertex: the fiber support interval becomes [0, B]
with B = r + 1 - c, the vertex blowup divisor has log discrepancy r, and
the infinity section has log discrepancy 1 - c. cone_bundle_consistency
computes the branch coefficients both ways, and the verification suite
compares them.

Two derived constructions are included: iterated cones over smooth
hypersurfaces, whose step-wise composition is checked against a telescoped
closed form by agree, and cones over branched covers attached to
hypersurfaces of the shape x_{n+1}^k * x_{n+2}^{d-k} = g_d, where the slope
r is derived from the arithmetic data (n, k, d, l) rather than given.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .bundle import (
    DeltaBreakdown,
    DeltaKnowledge,
    FanoBase,
    branch_minimum,
    centroid_phi,
    check_integer,
)
from .errors import DomainError, agree
from .exactarith import Immutable, Rational, RationalLike, format_ratio, rational

PROOF_FULL = "full"
PROOF_UPPER_BOUND = "upper-bound-only"

# An exact rational as a reduced (numerator, denominator) pair, denominator > 0.
Pair = tuple[int, int]


class ConeBoundary(Immutable):
    """Boundary coefficient c of c*Vinf, with 0 <= c < 1."""

    __slots__ = ("c",)

    def __init__(self, c: RationalLike = Fraction(0)) -> None:
        c = rational(c)
        if not (0 <= c < 1):
            raise DomainError(f"c must satisfy 0 <= c < 1, got {c}")
        super().__init__(c)


def cone_delta(base: FanoBase, bdry: ConeBoundary = ConeBoundary()) -> DeltaBreakdown:
    """Delta invariant of the cone pair (Y, c*Vinf) as a three-branch minimum.

    Branches, with B = r + 1 - c: base divisors give
    (n+2)*r*delta(V) / ((n+1)*B), the vertex blowup divisor V0 gives
    (n+2)*r / ((n+1)*B) (its log discrepancy is r), and the infinity section
    gives (n+2)*(1-c) / B. The base branch is the V0 branch times delta(V),
    or None when only delta(V) >= 1 is known.

    Evaluated in integers by the kernel _cone_branches, which the iterated
    chain shares; each branch becomes one Fraction here.

    The value is flagged proof_coverage="upper-bound-only" when r > n + 1:
    there the closed form is only known to bound the delta invariant from
    above. For r <= n + 1 it is an equality and the flag says "full".
    """
    delta = base.delta_v.value
    branches, coverage = _cone_branches(
        base.n, base.r, bdry.c, None if delta is None else (delta.numerator, delta.denominator)
    )
    return DeltaBreakdown(
        *[None if pair is None else Fraction(*pair) for pair in branches],
        r_effective=base.r,
        proof_coverage=coverage,
    )


def _reduced(numerator: int, denominator: int) -> Pair:
    g = math.gcd(numerator, denominator)
    return numerator // g, denominator // g


def _cone_branches(
    n: int, r: Rational, c: Rational, delta: Optional[Pair]
) -> tuple[tuple[Optional[Pair], Pair, Pair], str]:
    """cone_delta's formula in integers, on inputs the caller has validated:
    n >= 1, r > 0, 0 <= c < 1 (an int will do for either), and delta a pair
    >= 0 or None (only >= 1 known).

    With r = p/q and c = s/t, B = r + 1 - c = b/(qt) for b = pt + qt - sq > 0,
    so V0 gives (n+2)pt / ((n+1)b), Vinf gives (n+2)(t-s)q / b, and the base
    branch is V0 times delta. Returns the branches (base, v0, vinf) as
    reduced pairs, base None when delta is, and the proof coverage of r.
    """
    p, q = r.numerator, r.denominator
    s, t = c.numerator, c.denominator
    b = p * t + q * t - s * q
    v0 = _reduced((n + 2) * p * t, (n + 1) * b)
    vinf = _reduced((n + 2) * (t - s) * q, b)
    base = None if delta is None else _reduced(v0[0] * delta[0], v0[1] * delta[1])
    return (base, v0, vinf), PROOF_FULL if p <= (n + 1) * q else PROOF_UPPER_BOUND


def cone_bundle_consistency(
    base: FanoBase, c: RationalLike = 0
) -> tuple[tuple[Rational, Rational], tuple[Rational, Rational]]:
    """Branch coefficients (v0, vinf) of the cone formula computed two ways,
    as the pair (bundle_route, cone_route); they must be equal.

    bundle_route substitutes a = 1 - r and b = c into the bundle support
    interval, which gives A = 0 and B = r + 1 - c; the vertex branch
    becomes r / (Phi - 0) and the infinity branch (1 - c) / (B - Phi), with
    the cone log discrepancies r for V0 and 1 - c for Vinf. cone_route reads
    the same pair off cone_delta(base, c). The base coefficient r / Phi(0, B, n)
    is the V0 branch by construction, so it is not compared again. Since
    Phi(0, B, n) = (n+1)*B/(n+2), the two must agree exactly. The
    coefficients do not depend on delta(V), so any knowledge of it will do.
    """
    bdry = ConeBoundary(c)
    n, r, cc = base.n, base.r, bdry.c
    B = r + 1 - cc
    phi = centroid_phi(0, B, n)
    bundle_route = (r / phi, (1 - cc) / (B - phi))
    cone = cone_delta(base, bdry)
    return bundle_route, (cone.v0_branch, cone.vinf_branch)


class HypersurfaceConeSpec(Immutable):
    """Iterated-cone input: a smooth degree-d hypersurface of dimension n in
    projective space (slope r0 = n + 2 - d), coned i >= 1 times.

    delta_v0 is what is known about the delta invariant of the original
    hypersurface.
    """

    __slots__ = ("n", "d", "i", "delta_v0")

    def __init__(self, n: int, d: int, i: int, delta_v0: DeltaKnowledge) -> None:
        check_integer(n)
        if not isinstance(d, int) or not (2 <= d <= n + 1):
            raise DomainError(f"d must satisfy 2 <= d <= n+1, got d={d} with n={n}")
        check_integer(i, "i")
        if not isinstance(delta_v0, DeltaKnowledge):
            raise TypeError("delta_v0 must be a DeltaKnowledge")
        super().__init__(n, d, i, delta_v0)

    @property
    def r0(self) -> int:
        return self.n + 2 - self.d


def iterated_hypersurface_closed_form(spec: HypersurfaceConeSpec) -> Rational:
    """Telescoped closed form of the i-fold iterated cone,
    (n + 2 - d)(n + 1 + i) / ((n + 1)(n + 2 + i - d)) * min(delta0, 1),
    with delta0 = 1 when only delta >= 1 is known."""
    n, d, i = spec.n, spec.d, spec.i
    capped = min(spec.delta_v0.value, 1) if spec.delta_v0.is_exact else 1
    return Fraction((n + 2 - d) * (n + 1 + i), (n + 1) * (n + 2 + i - d)) * capped


class ChainStep(NamedTuple):
    """One step of iterated_hypersurface_chain: the integer slope of the
    step's base, its cone branches (base None when only delta >= 1 is
    known), their minimum (value, the very pair of the least branch) and
    the tags attaining it, and the proof coverage. Every branch and the
    value is a reduced (numerator, denominator) pair with a positive
    denominator; Fraction(*step.value) is the step's delta."""

    slope: int
    base: Optional[Pair]
    v0: Pair
    vinf: Pair
    value: Pair
    minimizers: tuple[str, ...]
    proof_coverage: str


def iterated_hypersurface_chain(spec: HypersurfaceConeSpec) -> list[ChainStep]:
    """Step-wise composition: cone once per iteration, feeding each exact
    delta value into the next step's base.

    Step s goes from dimension n + s - 1 with slope r0 + s - 1 to dimension
    n + s with slope r0 + s. Every step's value is exact (see
    DeltaBreakdown), so knowledge never degrades along the chain. Each step
    runs cone_delta's kernel and DeltaBreakdown's minimum on reduced integer
    pairs, on inputs valid by construction: the spec has checked n, d, i and
    delta0 >= 0, r0 >= 1, c = 0, and every later delta is a minimum of
    positive branches. The last value is checked against
    iterated_hypersurface_closed_form by agree, so a mismatch raises
    InternalCheckError rather than trusting either route. The value is
    always < 1: coning strictly destabilizes.
    """
    chain: list[ChainStep] = []
    start = spec.delta_v0.value
    delta = None if start is None else (start.numerator, start.denominator)
    for step in range(spec.i):
        slope = spec.r0 + step
        branches, coverage = _cone_branches(spec.n + step, slope, 0, delta)
        least, minimizers = branch_minimum(branches)
        delta = branches[least]
        chain.append(ChainStep(slope, *branches, delta, minimizers, coverage))
    agree(
        "iterated cone: composition vs closed form",
        Fraction(*chain[-1].value),
        iterated_hypersurface_closed_form(spec),
    )
    return chain


class BranchedConeSpec(Immutable):
    """Branched-cover cone input (n, k, d, l) for hypersurfaces of the shape
    x_{n+1}^k * x_{n+2}^{d-k} = g_d in weighted coordinates.

    The slope of the associated pair is derived: r = (n+1)*k - (k-1)*d.
    Side conditions l < k, gcd(k, l) = 1, k | d*l - 1, and r > 0 are all
    checked at construction, each violation reported individually.
    """

    __slots__ = ("n", "k", "d", "l")

    def __init__(self, n: int, k: int, d: int, l: int) -> None:
        for name, value in zip(self.__slots__, (n, k, d, l)):
            check_integer(value, name)
        if k < 2:
            raise DomainError(f"k must satisfy k >= 2, got {k}")
        failures = branched_side_condition_failures(n, k, d, l)
        if failures:
            raise DomainError("; ".join(failures))
        super().__init__(n, k, d, l)

    @property
    def r(self) -> int:
        return branched_slope(self.n, self.k, self.d)

    def side_conditions(self) -> tuple[str, ...]:
        """Human-readable record of the checked conditions (all hold)."""
        return tuple(record() for _, record, _ in _side_conditions(self.n, self.k, self.d, self.l))


def branched_slope(n: int, k: int, d: int) -> int:
    """Derived slope r = (n+1)*k - (k-1)*d of the branched construction."""
    return (n + 1) * k - (k - 1) * d


def _side_conditions(
    n: int, k: int, d: int, l: int
) -> tuple[tuple[bool, Callable[[], str], Callable[[], str]], ...]:
    """Each side condition of the branched construction: whether it holds,
    its record, and its violation text. A text is written only when it is
    read, since d*l - 1 or r may be too long to print."""
    gcd, product, r = math.gcd(k, l), d * l - 1, branched_slope(n, k, d)
    return (
        (l < k, lambda: f"l < k: {l} < {k}", lambda: f"l < k required, got l={l}, k={k}"),
        (gcd == 1, lambda: f"gcd(k, l) = 1: gcd({k}, {l}) = 1",
         lambda: f"gcd(k, l) = 1 required, got gcd({k}, {l}) = {gcd}"),
        (product % k == 0, lambda: f"k divides d*l - 1: {k} | {format_ratio(product, 1)}",
         lambda: f"k must divide d*l - 1, got {k} does not divide {format_ratio(product, 1)}"),
        (r > 0, lambda: f"r = (n+1)k - (k-1)d > 0: r = {format_ratio(r, 1)}",
         lambda: f"r = (n+1)k - (k-1)d > 0 required, got r={format_ratio(r, 1)}"),
    )


def branched_side_condition_failures(n: int, k: int, d: int, l: int) -> list[str]:
    """Every violated side condition of the branched construction, as
    constraint-naming messages; empty when (n, k, d, l) is valid."""
    return [
        f"side condition violated: {violation()}"
        for holds, _, violation in _side_conditions(n, k, d, l) if not holds
    ]


def branched_cone_delta(
    spec: BranchedConeSpec, delta_pair: Optional[DeltaKnowledge] = None
) -> DeltaBreakdown:
    """Delta invariant of the cone attached to a branched hypersurface.

    The underlying pair has slope r = (n+1)*k - (k-1)*d and boundary-free
    cone shape (c = 0). delta_pair is what is known about the delta
    invariant of that pair; when omitted, it defaults to >= 1 in the large-
    degree window n + 1 <= d <= n + 2 (where the pair is K-semistable),
    and is required otherwise.
    """
    if delta_pair is None:
        if spec.n + 1 <= spec.d <= spec.n + 2:
            delta_pair = DeltaKnowledge.at_least_one()
        else:
            raise DomainError(
                "delta_pair is required outside n+1 <= d <= n+2: no automatic semistability "
                f"guarantee for d={spec.d}, n={spec.n}"
            )
    cone = cone_delta(FanoBase(spec.n, rational(spec.r), delta_pair))
    return DeltaBreakdown(
        cone.base_branch, cone.v0_branch, cone.vinf_branch,
        cone.r_effective, cone.proof_coverage, spec.side_conditions(),
    )
