"""K-semistability angle ranges for pairs (V, a*S).

V is a K-semistable Fano of dimension n and S a smooth divisor proportional
to -lambda * K_V. The question answered here: for which cone angles a is the
pair (V, a*S) K-semistable?

For 0 < lambda < 1 the answer is the closed interval [0, 1 - r/n] with
r = 1/lambda - 1; instability strictly past the endpoint is certified by the
delta invariant of the projective cone over S, which drops below 1 there.
S has dimension n - 1, so that invariant is
cone_delta(FanoBase(n - 1, r, delta(S)), ConeBoundary(a)). Its infinity
branch (n+1)(1-a)/(r+1-a) equals 1 exactly at a = 1 - r/n, by the identity
(n+1)(1-a) = r + 1 - a there, and drops below 1 past it.
For lambda >= 1 the answer contains [0, 1/lambda) with K-stability on the
open interval. Polystability and stability refinements carry extra
hypotheses, so they are reported as hypothesis strings, never as bare
claims.
"""

from __future__ import annotations

from .bundle import check_integer
from .errors import DomainError
from .exactarith import Immutable, Rational, RationalLike, rational


class AngleInterval(Immutable):
    """A semistable angle range [0, endpoint] or [0, endpoint).

    closed says whether the endpoint itself is included in the K-semistable
    set. Stability refinements on the open interval are carried in
    hypotheses as explicit conditional statements.
    """

    __slots__ = ("endpoint", "closed", "hypotheses")

    def __init__(self, endpoint: Rational, closed: bool, hypotheses: tuple[str, ...]) -> None:
        super().__init__(endpoint, closed, hypotheses)


def optimal_angle_interval(n: int, lam: RationalLike) -> AngleInterval:
    """Optimal K-semistability angle range for 0 < lambda < 1, with V of
    dimension n and S proportional to -lambda * K_V, both K-semistable.

    The range is exactly [0, 1 - r/n] with r = 1/lambda - 1; it is closed,
    and past the endpoint the pair is K-unstable (certified by the delta
    invariant of the cone over S dropping below 1, see the module
    docstring). K-polystability holds on the half-open interval
    [0, endpoint) under the stronger hypothesis that V and S are both
    K-polystable.
    """
    check_integer(n)
    ll = rational(lam)
    if ll <= 0:
        raise DomainError(f"lambda must satisfy lambda > 0, got {ll}")
    if ll >= 1:
        raise DomainError(
            f"lambda must satisfy lambda < 1 here (use the lambda >= 1 range "
            f"operation otherwise), got {ll}"
        )
    endpoint = 1 - (1 / ll - 1) / n
    if endpoint < 0:
        raise DomainError(
            f"lambda must satisfy lambda >= 1/(n+1) for a K-semistable base, "
            f"got lambda={ll} with n={n}"
        )
    return AngleInterval(
        endpoint=endpoint,
        closed=True,
        hypotheses=(
            "V and S are K-semistable (asserted by the caller)",
            "K-semistability of (V, a*S) holds exactly for a in the closed "
            "interval [0, endpoint]",
            "K-polystability on [0, endpoint) additionally requires V and S "
            "K-polystable",
        ),
    )


def semistable_range_lambda_ge_1(n: int, lam: RationalLike) -> AngleInterval:
    """K-semistable angle range for lambda >= 1: the half-open [0, 1/lambda).

    The pair is K-stable on the open interval (0, 1/lambda); at lambda = 1
    the stability statement comes from a small-angle alpha-invariant bound
    interpolated toward the Calabi-Yau endpoint, with no claim about which
    uniform variant survives the interpolation.
    """
    check_integer(n)
    ll = rational(lam)
    if ll < 1:
        raise DomainError(
            f"lambda must satisfy lambda >= 1 here (use the optimal-interval "
            f"operation otherwise), got {ll}"
        )
    hypotheses = [
        "V is K-semistable (asserted by the caller)",
        "K-semistability of (V, a*S) holds for a in the half-open interval "
        "[0, endpoint)",
    ]
    if ll > 1:
        hypotheses.append("K-stable on the open interval (0, endpoint)")
    else:
        hypotheses.append(
            "K-stable on the open interval (0, endpoint) per the interpolation "
            "argument from a small-angle alpha-invariant bound; no uniform "
            "variant is claimed"
        )
    return AngleInterval(endpoint=1 / ll, closed=False, hypotheses=tuple(hypotheses))

