"""Kahler structure on TM = M x R^n built from a Hessian structure.

With flat base coordinates x and fiber coordinates y, the complex structure
sends d/dx^i to d/dy^i, the lifted metric is block-diagonal (g(x), g(x)), and
the Kahler form is w = g_ij(x) dx^i ^ dy^j.  A selfsimilar base additionally
yields the conformal rescaling w_cK = g(xi, xi)^{-1} w, invariant under the
flow of the lifted homothetic field (A x + b, A y + b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expressions import parse_expression
from .report import CheckResult
from .structures import (
    HessianStructure,
    SelfsimilarHessianStructure,
    conformal_flow_residuals,
    conformal_rescaling,
)
from .tensors import (
    AffineAutomorphism,
    Residual,
    TensorField,
    VectorFieldSpec,
    blocks,
    bundle_sample_points,
    exterior_derivative_2form,
    invariance_defect,
    lie_derivative_metric,
    lift_automorphisms,
    lift_field,
    lift_tensor,
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


@dataclass(frozen=True)
class KahlerLift:
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
    """Closedness of w (and exact Hermitian block identity of g_r)."""
    points = lift.sample_points(samples)
    residual = Residual()
    for p in points:
        G = lift.metric(p)
        residual.add_max_abs(
            exterior_derivative_2form(lift.omega, p), lift.J.T @ G @ lift.J - G
        )
    return CheckResult(
        check_id="kahler_closed",
        claim="d(omega) = 0 and g_r(J., J.) = g_r for the lifted structure",
        residual=residual.value,
        tolerance=1e-5,
        samples=len(points),
    )


def check_potential_identity(lift: KahlerLift, samples=None):
    """g_r equals the complex Hessian of 4 phi(x) on M x R^n."""
    base = lift.base
    n = base.dim
    variables = list(base.potential.variables) + [f"y{k + 1}" for k in range(n)]
    lifted_potential = parse_expression(
        f"4.0*({base.potential.serialize()})", variables
    )
    jet = lifted_potential.jet3
    hessian = TensorField(2 * n, lambda q: jet(q).gradient, lambda q: jet(q).hessian)
    points = lift.sample_points(samples)
    residual = Residual()
    for p in points:
        H = hessian.derivative(p)
        # Hermitian components 4 * d^2 phi / dz^i dz*^j realified
        h = 0.25 * (H[:n, :n] + H[n:, n:])
        residual.add_max_abs(blocks(h, 0, 0, h) - lift.metric(p), H[:n, n:])
    return CheckResult(
        check_id="kahler_potential",
        claim="g_r equals the complex Hessian of 4 pi^* phi",
        residual=residual.value,
        tolerance=1e-8,
        samples=len(points),
    )


def check_invariance_psi(
    lift: KahlerLift,
    automorphisms: Sequence[AffineAutomorphism],
    fiber_shifts: Sequence[np.ndarray],
    samples=None,
):
    """Invariance of (g_r, J) under lifted automorphisms and fiber shifts."""
    require_isometry(lift.base, automorphisms)
    points = lift.sample_points(samples)
    residual = invariance_defect(
        lift_automorphisms(automorphisms, lambda A: A, fiber_shifts),
        points,
        (lift.metric,),
        (TensorField.constant(lift.J),),
        floor=1.0,
    )
    return CheckResult(
        check_id="psi_invariance",
        claim="(g_r, J) is invariant under lifted isometries with fiber shifts",
        residual=residual,
        tolerance=1e-8,
        samples=len(points) * max(1, len(automorphisms)),
    )


def check_lemma_xi_items(ss: SelfsimilarHessianStructure, samples=None):
    """L_{xi1} pi*g = 2 pi*g, L_{xi2} pi*g = 0, L_{xi1+xi2} J = 0 for the
    horizontal part xi1 = (A x + b, 0) and the vertical part xi2 = (0, A y + b)."""
    n = ss.dim
    lift = build_kahler_lift(ss.base)
    pg = lift_tensor(ss.metric, lambda G: blocks(G, 0, 0, 0))  # pi^* g
    points = lift.sample_points(samples)
    J = lift.J
    xi1 = lift_field(ss.xi, np.zeros((n, n)), np.zeros(n))
    xi2 = lift_field(VectorFieldSpec.from_affine(np.zeros((n, n))), ss.xi.A, ss.xi.b)
    A_total = lift_field(ss.xi, ss.xi.A, ss.xi.b).A
    residual = Residual()
    for p in points:
        L1 = lie_derivative_metric(pg, xi1, p)
        L2 = lie_derivative_metric(pg, xi2, p)
        residual.add_max_abs(L1 - 2.0 * pg(p), L2)
    # constant J: L_{xi1+xi2} J = [J, A1 + A2]
    residual.add_max_abs(J @ A_total - A_total @ J)
    return CheckResult(
        check_id="lifted_field_lemma",
        claim="L_{xi1} pi*g = 2 pi*g, L_{xi2} pi*g = 0, L_{xi1+xi2} J = 0",
        residual=residual.value,
        tolerance=1e-8,
        samples=len(points),
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
    res_norm, res_wck, res_control = conformal_flow_residuals(
        ss, lift_field(ss.xi, ss.xi.A, ss.xi.b), lift.omega, points
    )
    entries = [
        CheckResult(
            check_id="conformal_norm_homothety",
            claim="L_{xi1+xi2} (pi^* g(xi,xi)) = 2 pi^* g(xi,xi)",
            residual=res_norm,
            tolerance=1e-6,
            samples=len(points),
        ),
        CheckResult(
            check_id="conformal_omega_ck_flow",
            claim="L_{xi1+xi2} omega_cK = 0 for omega_cK = g(xi,xi)^{-1} omega",
            residual=res_wck,
            tolerance=1e-6,
            samples=len(points),
        ),
        CheckResult(
            check_id="conformal_omega_negative_control",
            claim="without the conformal factor L_{xi1+xi2} omega = 2 omega exactly",
            residual=res_control,
            tolerance=1e-4,
            samples=len(points),
        ),
    ]
    if automorphisms:
        require_isometry(ss.base, automorphisms)
        res_inv = invariance_defect(
            lift_automorphisms(automorphisms, lambda A: A, fiber_shifts),
            points,
            (conformal_rescaling(ss, lift.omega),),
            floor=1.0,
        )
        entries.append(
            CheckResult(
                check_id="conformal_psi_invariance",
                claim="omega_cK is invariant under lifted unimodular isometries",
                residual=res_inv,
                tolerance=1e-8,
                samples=len(points) * len(automorphisms),
            )
        )
    return entries
