"""
Independent oracles: trusting the closed forms
==============================================

Every closed form in the package is double-checked by a route that shares
no code with it. The suite has six oracle families: finite Riemann sums
with provable error bounds, midpoint quadratures, brute-force branch
minima, Futaki quadratures against the closed form, a telescoped recursion
for the iterated cones, and the cone formula against the bundle formula.
This script runs some oracles by hand and then the whole suite.
"""

from fractions import Fraction

from fanodelta import (
    DeltaKnowledge,
    HypersurfaceConeSpec,
    centroid_phi,
    midpoint_centroid_bound,
    midpoint_centroid_offset,
    riemann_error_bound,
    riemann_s_limit,
    run_verification,
    telescoping_iterated_cone,
)

# The centroid offset Phi(1,3,1) - 1 = 7/6 drives the running example's
# beta0 = 6/7. The Riemann oracle approaches it from lattice counts alone.
target = centroid_phi(1, 3, 1) - 1
print("target centroid offset:", target)
for m in (100, 1_000, 10_000):
    value = riemann_s_limit(1, 1, 3, m)
    err = abs(value - target)
    bound = riemann_error_bound(1, 1, 3, m)
    print(f"  m = {m:>6}: value = {float(value):.8f}  |err| = {float(err):.2e}  bound = {float(bound):.2e}")
    assert err <= bound

# The midpoint rule converges quadratically, so it overtakes the Riemann
# route fast; both are exact rational arithmetic throughout.
for steps in (10, 100, 1_000):
    value = midpoint_centroid_offset(1, 1, 3, steps)
    err = abs(value - target)
    bound = midpoint_centroid_bound(1, 1, 3, steps)
    print(f"  midpoint {steps:>5}: |err| = {float(err):.2e}  bound = {float(bound):.2e}")
    assert err <= bound

# The recursion oracle for iterated cones multiplies single-step factors
# and never touches the closed form.
print("iterated cones over the cubic surface:")
for i in (1, 2, 3, 4):
    spec = HypersurfaceConeSpec(n=2, d=3, i=i, delta_v0=DeltaKnowledge.exact(1))
    print(f"  i = {i}: telescoped = {telescoping_iterated_cone(spec)}")

# The one-call version: every oracle on its default grid. "deep" raises
# the resolutions by two orders of magnitude.
run = run_verification()
print()
for line in run.summary_lines():
    print(line)
assert run.passed

# A closer look at what was checked.
kinds = {}
for report in run.reports:
    kind = report.target.split("(")[0].strip()
    kinds[kind] = kinds.get(kind, 0) + 1
print("checks by kind:")
for kind, count in sorted(kinds.items()):
    print(f"  {kind}: {count}")
