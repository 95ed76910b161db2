"""
Momentum profiles: the ODE solved exactly
=========================================

The rotation-invariant metric ansatz on the bundle reduces everything to
one profile function phi(tau) on the momentum interval [r-1, r+1]. The
package solves the defining ODE in closed form over the rationals and
re-verifies every claimed identity exactly.
"""

from fractions import Fraction

from fanodelta import (
    beta_zero,
    edge_angles,
    futaki_closed_form,
    futaki_invariant,
    futaki_quadrature,
    hermite_admissible_profile,
    ode_residual,
    perturbed_admissible_profile,
    ricci_bound_margin,
    ricci_pointwise_residual,
    solve_profile,
    verify_positive_interior,
)

# Solve at the threshold twist beta = beta0 for the running example.
n, r = 1, 2
beta = beta_zero(n, r)
profile = solve_profile(n, r, beta)
print(f"profile numerator N(tau) = {profile.numerator}")
print("c1 =", profile.c1, " c2 =", profile.c2)

# The ODE residual is the zero polynomial: not small, zero.
print("ODE residual is identically zero:", ode_residual(profile).is_zero)

# phi > 0 strictly between the endpoints; the certificate is the factored
# derivative N'(tau) = tau^n ((n+1) c1 - beta tau), checked exactly.
print("phi positive on the interior:", verify_positive_interior(profile))

# Edge cone angles along the two sections, from two independent routes:
# exact differentiation at the endpoints and the closed forms.
beta1, beta2 = edge_angles(profile)
print("edge angles: beta1 =", beta1, " beta2 =", beta2)

# At the threshold twist the zero-section angle is exactly 1; smaller
# twists scale both angles linearly.
half = solve_profile(n, r, Fraction(3, 7))
print("at beta = 3/7:", edge_angles(half))

# The twisted Ricci lower bound has a constant margin: the pointwise gap
# mu - n*phi/(r*tau) - phi'/r - (beta/r)*tau is literally a constant
# polynomial, so one rational number decides the bound.
for mu in (Fraction(13, 14), Fraction(1)):
    margin = ricci_bound_margin(profile, mu)
    certificate = ricci_pointwise_residual(profile, mu)
    print(f"mu = {mu}: margin = {margin}, certificate zero: {certificate.is_zero}")

# The obstruction integral. Admissible comparison profiles must match the
# boundary behavior of the metric; the value then does not depend on which
# admissible profile you feed in. Each profile carries its own n and r.
hermite = hermite_admissible_profile(n, r)
bumped = perturbed_admissible_profile(hermite, Fraction(1, 10))
print("obstruction, hermite profile :", futaki_invariant(hermite))
print("obstruction, bumped profile  :", futaki_invariant(bumped))
print("closed form (1/beta0 - 1)*((r+1)^(n+1)-(r-1)^(n+1)) =", futaki_closed_form(n, r))

# A midpoint quadrature converges to the same number, which is the
# numerical cross-check that the exact routes never used.
approx = futaki_quadrature(hermite, steps=2000)
print("quadrature at 2000 steps:", float(approx), "difference:", float(abs(approx - Fraction(4, 3))))

# Positivity of the obstruction for every (n, r) is exactly the statement
# beta0 < 1: these bundles are never K-semistable.
for pair in ((1, 2), (2, 2), (2, 3), (3, 4)):
    print(f"  Fut{pair} = {futaki_closed_form(*pair)} > 0")
