"""
Projective cones, iterated cones, and branched covers
=====================================================

The cone over a Fano base is the degenerate bundle with the zero section
collapsed to a vertex. Its delta invariant has the same three-branch shape,
and composing cones over hypersurfaces telescopes into a closed form.
"""

from fractions import Fraction

from fanodelta import (
    BranchedConeSpec,
    ConeBoundary,
    DeltaKnowledge,
    FanoBase,
    HypersurfaceConeSpec,
    branched_cone_delta,
    cone_bundle_consistency,
    cone_delta,
    iterated_hypersurface_chain,
)

# The cone over a conic (the quadric cone surface): n = 1, r = 1, delta = 1.
quadric = cone_delta(FanoBase(1, 1, DeltaKnowledge.exact(1)))
print("quadric cone delta =", quadric.value)          # 3/4
print("  proof coverage:", quadric.proof_coverage)

# The cone over a cubic surface: here we only need delta >= 1 on the base.
cubic = cone_delta(FanoBase(2, 1, DeltaKnowledge.at_least_one()))
print("cone over a cubic surface delta =", cubic.value)  # 2/3

# A vertex weight c scales the picture; at c = 3/4 over a degree-(1/2)
# slope base all three branches collide at 1.
balanced = cone_delta(
    FanoBase(1, Fraction(1, 2), DeltaKnowledge.at_least_one()),
    ConeBoundary(Fraction(3, 4)),
)
print("balanced weighted cone:", balanced.value, "minimizers:", balanced.minimizers)

# Every cone is the a = 1-r, b = c specialization of the bundle formula.
# Both routes give the same branch coefficients, exactly.
bundle_route, cone_route = cone_bundle_consistency(
    FanoBase(2, 1, DeltaKnowledge.exact(1)), c=0
)
print("cone/bundle substitution matches:", bundle_route == cone_route)

# Iterating the cone over a degree-d hypersurface drops the delta by a
# fixed factor each step; the chain records each stage, its delta as an
# exact (numerator, denominator) pair.
spec = HypersurfaceConeSpec(n=2, d=3, i=4, delta_v0=DeltaKnowledge.at_least_one())
chain = iterated_hypersurface_chain(spec)
print("cones over the cubic surface:")
for i, step in enumerate(chain, start=1):
    print(f"  after {i} cone(s): delta = {Fraction(*step.value)}")

# The product of the per-step factors telescopes to
# (n+2-d)(n+1+i) / ((n+1)(n+2+i-d)); the chain recomputes both routes
# and insists they agree.
value = Fraction(*chain[-1].value)
closed = Fraction((2 + 2 - 3) * (2 + 1 + 4), (2 + 1) * (2 + 2 + 4 - 3))
print("after 4 cones:", value, "= closed form", closed)

# Branched covers: the cone attached to x^k = f_d(y) over a hypersurface.
# The side conditions (l < k, coprimality, k | dl-1, positive slope) carve
# out the valid lattice of shapes.
double_cover = BranchedConeSpec(n=2, k=2, d=3, l=1)
result = branched_cone_delta(double_cover)
print("double cover over the cubic: delta =", result.value)  # exactly 1
print("  side conditions:")
for condition in result.side_conditions:
    print("   -", condition)

# The k = 2, d = n+2 family in odd dimension walks the value n(n+2)/(n+1)^2
# up toward 1 without ever reaching it.
for n in (1, 3, 5, 7):
    member = branched_cone_delta(BranchedConeSpec(n, 2, n + 2, 1))
    print(f"  n = {n}: delta = {member.value}")
