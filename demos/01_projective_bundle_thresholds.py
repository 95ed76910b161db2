"""
Delta invariants of projectivized bundles
=========================================

A walk through the three-branch formula: the base divisors, the zero
section, and the infinity section each contribute a candidate threshold,
and the delta invariant of the total space is their minimum.
"""

from fractions import Fraction

from fanodelta import (
    BundleBoundary,
    DeltaKnowledge,
    FanoBase,
    beta_zero,
    bundle_delta,
    centroid_phi,
    smooth_threshold_relation,
)

# The running example: the blowup of the plane in one point, viewed as the
# projectivization of O(-1) + O over the line. Dimension of the base n = 1,
# slope r = 2, and the line itself has delta = 1.
base = FanoBase(n=1, r=2, delta_v=DeltaKnowledge.exact(1))
breakdown = bundle_delta(base)

print("blowup of the plane in a point")
print("  branches:", breakdown.base_branch, breakdown.v0_branch, breakdown.vinf_branch)
print("  delta =", breakdown.value, "from", breakdown.minimizers)

# The zero-section branch is beta0 = 1 / (Phi(r-1, r+1, n) - (r-1)), where
# Phi is the weighted centroid of the momentum interval. For this example
# Phi(1, 3, 1) = 13/6, so beta0 = 6/7 -- and that is the minimum.
print("  centroid Phi(1,3,1) =", centroid_phi(1, 3, 1))
print("  beta0 =", beta_zero(1, 2))

# beta0 lives in (1/2, 1) for every dimension and slope, so a bundle like
# this is never K-semistable: the zero section always destabilizes it.
for n in (1, 2, 3, 5, 8):
    r = Fraction(3, 2)
    print(f"  beta0(n={n}, r=3/2) = {beta_zero(n, r)} = {float(beta_zero(n, r)):.4f}")

# Knowing only delta(V) >= 1 is still enough for an exact answer, because
# one of the two section branches always sits below the base branch.
bound_only = bundle_delta(FanoBase(1, 2, DeltaKnowledge.at_least_one()))
print("with delta(V) >= 1 only:", bound_only.value, "from", bound_only.minimizers)

# A boundary divisor with coefficients a on the zero section and b at
# infinity tilts the momentum interval to [r-(1-a), r+(1-b)] and shifts
# all three branches.
weighted = bundle_delta(
    FanoBase(n=2, r=3, delta_v=DeltaKnowledge.exact(1)),
    BundleBoundary(a=Fraction(1, 2), b=Fraction(1, 4)),
)
print("weighted bundle delta =", weighted.value, "from", weighted.minimizers)

# For moderate slopes the whole computation collapses to a closed form in
# (n, r, delta): min(delta * r * beta0 / (1 + beta0 (r-1)), beta0).
for dv in (Fraction(1, 2), Fraction(13, 14), Fraction(1), Fraction(2)):
    via_formula = smooth_threshold_relation(1, 2, dv)
    via_branches = bundle_delta(FanoBase(1, 2, DeltaKnowledge.exact(dv))).value
    assert via_formula == via_branches
    print(f"  delta(V) = {dv}: threshold = {via_formula}")
