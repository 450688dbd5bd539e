"""Intended verdict of every check entry, keyed by (geometry, check_id).

Every preset entry is intended to pass.  The non-Hessian counterexample is
intended to fail its Hessian symmetry and Kahler closedness checks and to
pass the exact value of d(omega) at the marked point.  A known defect is
never recorded here as intended: the table states what the mathematics
says, and the benchmark counts every disagreement as a failed operation.
"""

CONE_CHECKS = (
    "cone_full_invariance",
    "cone_negative_control",
    "cone_unimodular_invariance",
    "conformal_norm_homothety",
    "conformal_omega_ck_flow",
    "conformal_omega_negative_control",
    "conformal_psi_invariance",
    "dilation_law_q0.5",
    "dilation_law_q2.0",
    "dilation_law_q3.0",
    "hessian_positive_definite",
    "hessian_symmetry",
    "hypothesis_completeness_transitivity",
    "kahler_closed",
    "kahler_potential",
    "lifted_field_lemma",
    "orbit_reachability",
    "psi_invariance",
    "radiant_law",
    "selfsimilar_metric",
)

CMAP_CHECKS = (
    "hk_closed_forms",
    "hk_fiber_shift",
    "hk_hermitian",
    "hk_psi_hat_invariance",
    "hk_quaternion",
    "sk_complex_structure",
    "sk_hermitian",
    "sk_hessian",
    "sk_integrable",
    "sk_omega_parallel",
)

CONFORMAL_HK_CHECKS = (
    "chk_base_holomorphic",
    "chk_base_homothety",
    "chk_complex_structures_flow",
    "chk_metric_flow",
    "chk_norm_homothety",
    "chk_unscaled_negative_control",
    "hypothesis_completeness_transitivity",
)

INTENDED = {}
for _geometry in ("orthant2", "orthant3", "lorentz3", "spd2"):
    INTENDED.update({(_geometry, c): True for c in CONE_CHECKS})
for _geometry in ("sk_flat", "sk_conic"):
    INTENDED.update({(_geometry, c): True for c in CMAP_CHECKS + CONFORMAL_HK_CHECKS})
INTENDED.update({("sk_cubic", c): True for c in CMAP_CHECKS})
INTENDED.update(
    {
        ("noncone_counterexample", "hessian_positive_definite"): True,
        ("noncone_counterexample", "hessian_symmetry"): False,
        ("noncone_counterexample", "kahler_closed"): False,
        ("noncone_counterexample", "noncone_exterior_value"): True,
    }
)


def intended_checks(geometry):
    """The check ids a report of `geometry` must hold, sorted."""
    return sorted(c for g, c in INTENDED if g == geometry)
