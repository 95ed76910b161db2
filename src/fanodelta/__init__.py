"""Exact delta invariants of projective bundles and cones over Fano bases.

Closed-form K-stability thresholds with exact rational arithmetic end to
end, cross-checked by independent finite-scale oracles, plus the momentum-
profile calculus for the associated twisted metrics.

The package exports the entry points listed in ``__all__``; every other
name is internal to its module and imported from there.
"""

from .angle import optimal_angle_interval, semistable_range_lambda_ge_1
from .bundle import (
    BundleBoundary,
    DeltaKnowledge,
    FanoBase,
    beta_zero,
    bundle_delta,
    centroid_phi,
    smooth_threshold_relation,
)
from .calabi import (
    edge_angles,
    futaki_closed_form,
    futaki_invariant,
    hermite_admissible_profile,
    ode_residual,
    perturbed_admissible_profile,
    ricci_bound_margin,
    ricci_pointwise_residual,
    solve_profile,
    verify_positive_interior,
)
from .cone import (
    BranchedConeSpec,
    ConeBoundary,
    HypersurfaceConeSpec,
    branched_cone_delta,
    cone_bundle_consistency,
    cone_delta,
    iterated_hypersurface_chain,
)
from .errors import DomainError, InternalCheckError
from .oracles import (
    futaki_quadrature,
    midpoint_centroid_bound,
    midpoint_centroid_offset,
    riemann_error_bound,
    riemann_s_limit,
    run_verification,
    telescoping_iterated_cone,
)

__version__ = "0.1.0"

__all__ = [
    "BranchedConeSpec",
    "BundleBoundary",
    "ConeBoundary",
    "DeltaKnowledge",
    "DomainError",
    "FanoBase",
    "HypersurfaceConeSpec",
    "InternalCheckError",
    "beta_zero",
    "branched_cone_delta",
    "bundle_delta",
    "centroid_phi",
    "cone_bundle_consistency",
    "cone_delta",
    "edge_angles",
    "futaki_closed_form",
    "futaki_invariant",
    "futaki_quadrature",
    "hermite_admissible_profile",
    "iterated_hypersurface_chain",
    "midpoint_centroid_bound",
    "midpoint_centroid_offset",
    "ode_residual",
    "optimal_angle_interval",
    "perturbed_admissible_profile",
    "ricci_bound_margin",
    "ricci_pointwise_residual",
    "riemann_error_bound",
    "riemann_s_limit",
    "run_verification",
    "semistable_range_lambda_ge_1",
    "smooth_threshold_relation",
    "solve_profile",
    "telescoping_iterated_cone",
    "verify_positive_interior",
]
