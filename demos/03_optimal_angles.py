"""
Optimal angle ranges for a Fano with a smooth divisor
=====================================================

Given a Fano V and a smooth divisor S with S ~ lambda * (-K_V), the pair
(V, a*S) stays K-semistable for a in an interval starting at 0. The
endpoint is explicit, and the destabilizing geometry past it is the cone
over S.
"""

from fractions import Fraction

from fanodelta import (
    ConeBoundary,
    DeltaKnowledge,
    FanoBase,
    cone_delta,
    optimal_angle_interval,
    semistable_range_lambda_ge_1,
)

# lambda < 1: the interval is closed, with endpoint 1 - r/n where
# r = 1/lambda - 1 is the slope of -K_S against the restricted divisor.
interval = optimal_angle_interval(2, Fraction(2, 3))
print("n=2, lambda=2/3:")
print("  semistable exactly on [0,", str(interval.endpoint) + "]")
for hypothesis in interval.hypotheses:
    print("   -", hypothesis)

# Sweeping lambda through the hypersurface values d/(n+1) shows the
# endpoint marching toward 1 as the divisor gets heavier.
print("endpoints for hypersurface sections of the quartic threefold:")
n = 3
for d in (1, 2, 3):
    lam = Fraction(d, n + 1)
    iv = optimal_angle_interval(n, lam)
    print(f"  degree {d} (lambda = {lam}): endpoint = {iv.endpoint}")

# At lambda = 1/(n+1) the interval degenerates to the single point {0}.
tight = optimal_angle_interval(2, Fraction(1, 3))
print("degenerate case endpoint:", tight.endpoint)

# lambda >= 1 flips the regime: the range is half-open [0, 1/lambda).
for lam in (Fraction(1), Fraction(3, 2), Fraction(2)):
    iv = semistable_range_lambda_ge_1(2, lam)
    print(f"lambda = {lam}: semistable on [0, {iv.endpoint})")

# Why the endpoint is sharp: past it, the projective cone over S with
# vertex weight a destabilizes. Watch the cone's delta cross 1 exactly at
# the endpoint a = 3/4 (here S has slope r = 1/2 inside V of dimension 2,
# so S itself has dimension 1).
divisor = FanoBase(1, Fraction(1, 2), DeltaKnowledge.at_least_one())
for a in (Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)):
    cone = cone_delta(divisor, ConeBoundary(a))
    state = "semistable" if cone.value >= 1 else "UNSTABLE"
    print(f"  a = {a}: cone delta = {cone.value}  ({state})")
