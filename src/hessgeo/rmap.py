"""Kahler structure on TM = M x R^n built from a Hessian structure.

With flat base coordinates x and fiber coordinates y, the complex structure
sends d/dx^i to d/dy^i, the lifted metric is block-diagonal (g(x), g(x)), and
the Kahler form is w = g_ij(x) dx^i ^ dy^j.  A selfsimilar base additionally
yields the conformal rescaling w_cK = g(xi, xi)^{-1} w, invariant under the
flow of the lifted homothetic field (A x + b, A y + b).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .expressions import parse_expression
from .report import measured
from .structures import (
    HessianStructure,
    SelfsimilarHessianStructure,
    conformal_rescaling,
    norm_homothety_defect,
)
from .tensors import (
    AffineAutomorphism,
    TensorField,
    VectorFieldSpec,
    blocks,
    bundle_sample_points,
    exterior_derivative_2form,
    flow_defect,
    invariance_defect,
    largest,
    lift_automorphisms,
    lift_field,
    lift_tensor,
    max_abs,
    require_isometry,
    standard_symplectic,
)

__all__ = [
    "KahlerLift",
    "build_kahler_lift",
    "check_kahler",
    "check_potential_identity",
    "check_invariance_psi",
    "check_lemma_xi_items",
    "check_conformal_invariance",
]


class KahlerLift(NamedTuple):
    base: HessianStructure
    J: np.ndarray
    metric: TensorField  # g_r on M x R^n
    omega: TensorField

    @property
    def dim(self):
        return 2 * self.base.dim

    def sample_points(self, count=None, salt=0):
        """Base samples paired with fiber points drawn from [-1, 1]^n."""
        return bundle_sample_points(self.base, count, salt, 1000)


def build_kahler_lift(structure: HessianStructure) -> KahlerLift:
    """g_r = diag(g, g) and w = g dx ^ dy, lifted from the base metric g."""
    return KahlerLift(
        base=structure,
        J=standard_symplectic(structure.dim),
        metric=lift_tensor(structure.metric, lambda G: blocks(G, 0, 0, G)),
        omega=lift_tensor(structure.metric, lambda G: blocks(0, G, -G.swapaxes(-1, -2), 0)),
    )


# -- checks ----------------------------------------------------------------


def check_kahler(lift: KahlerLift, samples=None):
    """Closedness of w, and the identities tying w, J and g_r together."""
    points = lift.sample_points(samples)
    J, G, w = lift.J, lift.metric(points), lift.omega(points)
    dw = exterior_derivative_2form(lift.omega, points)
    return measured(
        "kahler_closed",
        "d(omega) = 0, J^2 = -Id, g_r(J., J.) = g_r and omega = g_r(J., .) "
        "for the lifted structure",
        1e-5,
        largest(
            max_abs(J @ J + np.eye(lift.dim)),
            max_abs(dw, 3),
            max_abs(J.T @ G @ J - G),
            max_abs(w - J.T @ G),
        ),
    )


def check_potential_identity(lift: KahlerLift, samples=None):
    """g_r equals the complex Hessian of 4 phi(x) on M x R^n."""
    n, potential = lift.base.dim, lift.base.potential
    variables = list(potential.variables) + [f"y{k + 1}" for k in range(n)]
    lifted = parse_expression(f"4.0*({potential.serialize()})", variables)
    points = lift.sample_points(samples)
    H = lifted.jet3(points, 2).hessian  # an order-2 walk: no third derivative
    # Hermitian components 4 * d^2 phi / dz^i dz*^j realified
    h = 0.25 * (H[..., :n, :n] + H[..., n:, n:])
    return measured(
        "kahler_potential",
        "g_r equals the complex Hessian of 4 pi^* phi",
        1e-8,
        largest(max_abs(blocks(h, 0, 0, h) - lift.metric(points)), max_abs(H[..., :n, n:])),
    )


def check_invariance_psi(
    lift: KahlerLift,
    automorphisms: Sequence[AffineAutomorphism],
    fiber_shifts: Sequence[np.ndarray],
    samples=None,
):
    """Invariance of (g_r, J) under lifted automorphisms and fiber shifts."""
    require_isometry(lift.base, automorphisms)
    return measured(
        "psi_invariance",
        "(g_r, J) is invariant under lifted isometries with fiber shifts",
        1e-8,
        invariance_defect(
            lift_automorphisms(automorphisms, lambda A: A, fiber_shifts),
            lift.sample_points(samples),
            (lift.metric,),
            (TensorField.constant(lift.J),),
            floor=1.0,
        ),
    )


def check_lemma_xi_items(ss: SelfsimilarHessianStructure, samples=None):
    """L_{xi1} pi*g = 2 pi*g, L_{xi2} pi*g = 0, L_{xi1+xi2} J = 0 for the
    horizontal part xi1 = (A x + b, 0) and the vertical part xi2 = (0, A y + b)."""
    n = ss.dim
    lift = build_kahler_lift(ss.base)
    pg = lift_tensor(ss.metric, lambda G: blocks(G, 0, 0, 0))  # pi^* g
    points = lift.sample_points(samples)
    xi1 = lift_field(ss.xi, np.zeros((n, n)), np.zeros(n))
    xi2 = lift_field(VectorFieldSpec.from_affine(np.zeros((n, n))), ss.xi.A, ss.xi.b)
    X = lift_field(ss.xi, ss.xi.A, ss.xi.b)  # xi1 + xi2
    return measured(
        "lifted_field_lemma",
        "L_{xi1} pi*g = 2 pi*g, L_{xi2} pi*g = 0, L_{xi1+xi2} J = 0",
        1e-8,
        largest(
            flow_defect(xi1, points, (pg,), factor=2.0),
            flow_defect(xi2, points, (pg,)),
            flow_defect(X, points, endomorphisms=(TensorField.constant(lift.J),)),
        ),
    )


def check_conformal_invariance(
    ss: SelfsimilarHessianStructure,
    samples=None,
    automorphisms=(),
    fiber_shifts=(),
):
    """Conformal flow suite: homothety of the norm function, L w_cK = 0,
    psi-invariance of w_cK, and the unscaled negative control L w = 2 w."""
    lift = build_kahler_lift(ss.base)
    points = lift.sample_points(samples)
    X = lift_field(ss.xi, ss.xi.A, ss.xi.b)
    omega_ck = conformal_rescaling(ss, lift.omega)
    entries = [
        measured(
            "conformal_norm_homothety",
            "L_{xi1+xi2} (pi^* g(xi,xi)) = 2 pi^* g(xi,xi)",
            1e-6,
            norm_homothety_defect(ss, points),
        ),
        measured(
            "conformal_omega_ck_flow",
            "L_{xi1+xi2} omega_cK = 0 for omega_cK = g(xi,xi)^{-1} omega",
            1e-6,
            flow_defect(X, points, (omega_ck,)),
        ),
        measured(
            "conformal_omega_negative_control",
            "without the conformal factor L_{xi1+xi2} omega = 2 omega exactly",
            1e-4,
            flow_defect(X, points, (lift.omega,), factor=2.0),
        ),
    ]
    if automorphisms:
        require_isometry(ss.base, automorphisms)
        entries.append(
            measured(
                "conformal_psi_invariance",
                "omega_cK is invariant under lifted unimodular isometries",
                1e-8,
                invariance_defect(
                    lift_automorphisms(automorphisms, lambda A: A, fiber_shifts),
                    points,
                    (omega_ck,),
                    floor=1.0,
                ),
            )
        )
    return entries
