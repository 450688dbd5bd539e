"""Kahler structure on TM = M x R^n built from a Hessian structure.

With flat base coordinates x and fiber coordinates y, the complex structure
sends d/dx^i to d/dy^i, the lifted metric is block-diagonal (g(x), g(x)), and
the Kahler form is w = g_ij(x) dx^i ^ dy^j.  A selfsimilar base additionally
yields the conformal rescaling w_cK = g(xi, xi)^{-1} w together with the
lifted homothetic field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotAnIsometry
from .expressions import parse_expression
from .report import CheckResult
from .structures import (
    HessianStructure,
    SelfsimilarHessianStructure,
    norm_squared,
)
from .tensors import (
    AffineAutomorphism,
    Residual,
    TensorField,
    VectorFieldSpec,
    exterior_derivative_2form,
    fd_gradient,
    fd_tensor_derivative,
    lie_derivative_metric,
    pullback_defect,
    standard_symplectic,
)

__all__ = [
    "KahlerLift",
    "LiftedField",
    "ConformalKahlerLift",
    "build_kahler_lift",
    "lift_metric_field",
    "check_kahler",
    "check_potential_identity",
    "check_invariance_psi",
    "check_lemma_xi_items",
    "check_conformal_invariance",
]

FIBER_BOX = (-1.0, 1.0)


def lift_metric_field(g: TensorField):
    """Block lift of any base metric field: g_r = diag(g, g), w = g dx ^ dy."""
    n = g.dim

    def gr(p):
        G = g(p[:n])
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = G
        out[n:, n:] = G
        return out

    def om(p):
        G = g(p[:n])
        out = np.zeros((2 * n, 2 * n))
        out[:n, n:] = G
        out[n:, :n] = -G
        return out

    def dgr(p):
        D = g.derivative(p[:n])
        out = np.zeros((2 * n, 2 * n, 2 * n))
        out[:n, :n, :n] = D
        out[:n, n:, n:] = D
        return out

    def dom(p):
        D = g.derivative(p[:n])
        out = np.zeros((2 * n, 2 * n, 2 * n))
        out[:n, :n, n:] = D
        out[:n, n:, :n] = -np.transpose(D, (0, 2, 1))
        return out

    metric = TensorField(2 * n, gr, dgr if g.dfunc is not None else None)
    omega = TensorField(2 * n, om, dom if g.dfunc is not None else None)
    return metric, omega


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
        """Base samples paired with fiber points from the default fiber box."""
        xs = self.base.sample_points(count, salt=salt)
        rng = self.base.rng(salt + 1000)
        lo, hi = FIBER_BOX
        ys = lo + (hi - lo) * rng.random((len(xs), self.base.dim))
        return np.hstack([xs, ys])


def build_kahler_lift(structure: HessianStructure) -> KahlerLift:
    metric, omega = lift_metric_field(structure.metric)
    return KahlerLift(
        base=structure,
        J=standard_symplectic(structure.dim),
        metric=metric,
        omega=omega,
    )


@dataclass(frozen=True)
class LiftedField:
    """xi_1 = (xi(x), 0) and xi_2 = (0, xi(y)) for an affine base field."""

    xi1: VectorFieldSpec
    xi2: VectorFieldSpec
    total: VectorFieldSpec

    @classmethod
    def from_affine(cls, A, b, n):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        A1 = np.zeros((2 * n, 2 * n))
        A1[:n, :n] = A
        b1 = np.concatenate([b, np.zeros(n)])
        A2 = np.zeros((2 * n, 2 * n))
        A2[n:, n:] = A
        b2 = np.concatenate([np.zeros(n), b])
        return cls(
            VectorFieldSpec.from_affine(A1, b1),
            VectorFieldSpec.from_affine(A2, b2),
            VectorFieldSpec.from_affine(A1 + A2, b1 + b2),
        )


@dataclass(frozen=True)
class ConformalKahlerLift:
    base: SelfsimilarHessianStructure
    lift: KahlerLift
    fields: LiftedField

    def factor(self, p):
        """Conformal factor f = g(xi, xi)^{-1} pulled back from the base."""
        n = self.base.dim
        return 1.0 / norm_squared(self.base, np.asarray(p)[:n])

    def omega_ck(self):
        lift = self.lift
        n = self.base.dim

        def func(p):
            return self.factor(p) * lift.omega(p)

        def dfunc(p):
            f = self.factor(p)
            grad_norm = self.base.norm_gradient(np.asarray(p)[:n])
            df = np.concatenate([-f * f * grad_norm, np.zeros(n)])
            w = lift.omega(p)
            return f * lift.omega.derivative(p) + np.einsum("k,ij->kij", df, w)

        return TensorField(2 * n, func, dfunc)


def build_conformal_lift(structure: SelfsimilarHessianStructure) -> ConformalKahlerLift:
    A, b = structure.xi.affine
    return ConformalKahlerLift(
        base=structure,
        lift=build_kahler_lift(structure.base),
        fields=LiftedField.from_affine(A, b, structure.base.dim),
    )


# -- checks ----------------------------------------------------------------


def check_kahler(lift: KahlerLift, samples=None, tolerance=1e-5, fd=False):
    """Closedness of w (and exact Hermitian block identity of g_r)."""
    points = lift.sample_points(samples)
    residual = Residual()
    for p in points:
        G = lift.metric(p)
        residual.add_max_abs(
            exterior_derivative_2form(lift.omega, p, fd=fd), lift.J.T @ G @ lift.J - G
        )
    return CheckResult(
        check_id="kahler_closed",
        claim="d(omega) = 0 and g_r(J., J.) = g_r for the lifted structure",
        residual=residual.value,
        tolerance=tolerance,
        samples=len(points),
    )


def check_potential_identity(lift: KahlerLift, samples=None, tolerance=1e-8, fd=False):
    """g_r equals the complex Hessian of 4 phi(x) on M x R^n."""
    base = lift.base
    n = base.dim
    variables = list(base.potential.variables) + [f"y{k + 1}" for k in range(n)]
    lifted_potential = parse_expression(
        f"4.0*({base.potential.serialize()})", variables
    )
    points = lift.sample_points(samples)
    residual = Residual()
    for p in points:
        if fd:
            H = fd_tensor_derivative(
                lambda q: fd_gradient(lifted_potential, q), p
            )
        else:
            H = lifted_potential.jet3(p).hessian
        # Hermitian components 4 * d^2 phi / dz^i dz*^j realified
        h = 0.25 * (H[:n, :n] + H[n:, n:])
        complex_hessian = np.zeros((2 * n, 2 * n))
        complex_hessian[:n, :n] = h
        complex_hessian[n:, n:] = h
        residual.add_max_abs(complex_hessian - lift.metric(p), H[:n, n:])
    return CheckResult(
        check_id="kahler_potential",
        claim="g_r equals the complex Hessian of 4 pi^* phi",
        residual=residual.value,
        tolerance=tolerance,
        samples=len(points),
    )


def lift_automorphism(T: AffineAutomorphism, fiber_shift=None):
    """Psi(x, y) = (A x + b, A y + u)."""
    n = T.A.shape[0]
    P = np.zeros((2 * n, 2 * n))
    P[:n, :n] = T.A
    P[n:, n:] = T.A
    u = np.zeros(n) if fiber_shift is None else np.asarray(fiber_shift, dtype=float)
    return AffineAutomorphism(P, np.concatenate([T.b, u]), T.tag)


def _require_isometry(structure, autos, tol=1e-8):
    points = structure.sample_points(10, salt=3)
    for T in autos:
        for p in points:
            defect, scale = pullback_defect(T, structure.metric, p)
            if not defect <= tol * max(1.0, scale):
                raise NotAnIsometry(
                    f"{T.A.tolist()} changes the base metric (defect {defect:.2e})"
                )


def check_invariance_psi(
    lift: KahlerLift,
    automorphisms: Sequence[AffineAutomorphism],
    fiber_shifts: Sequence[np.ndarray],
    samples=None,
    tolerance=1e-8,
):
    """Invariance of (g_r, J) under lifted automorphisms and fiber shifts."""
    _require_isometry(lift.base, automorphisms)
    points = lift.sample_points(samples)
    shifts = list(fiber_shifts) or [np.zeros(lift.base.dim)]
    residual = Residual()
    for k, T in enumerate(automorphisms):
        lifted = lift_automorphism(T, shifts[k % len(shifts)])
        for p in points:
            defect, scale = pullback_defect(lifted, lift.metric, p)
            conj = np.linalg.solve(lifted.A, lift.J @ lifted.A) - lift.J
            residual.add(defect / max(1.0, scale), np.max(np.abs(conj)))
    return CheckResult(
        check_id="psi_invariance",
        claim="(g_r, J) is invariant under lifted isometries with fiber shifts",
        residual=residual.value,
        tolerance=tolerance,
        samples=len(points) * max(1, len(automorphisms)),
    )


def projected_metric_field(g: TensorField):
    """pi^* g as a degenerate covariant 2-tensor diag(g, 0) on M x R^n."""
    n = g.dim

    def func(p):
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = g(p[:n])
        return out

    def dfunc(p):
        out = np.zeros((2 * n, 2 * n, 2 * n))
        out[:n, :n, :n] = g.derivative(p[:n])
        return out

    return TensorField(2 * n, func, dfunc if g.dfunc is not None else None)


def check_lemma_xi_items(cl: ConformalKahlerLift, samples=None, tolerance=1e-8, fd=False):
    """L_{xi1} pi*g = 2 pi*g, L_{xi2} pi*g = 0, L_{xi1+xi2} J = 0."""
    pg = projected_metric_field(cl.base.metric)
    points = cl.lift.sample_points(samples)
    J = cl.lift.J
    A_total = cl.fields.total.affine[0]
    residual = Residual()
    for p in points:
        L1 = lie_derivative_metric(pg, cl.fields.xi1, p, fd=fd)
        L2 = lie_derivative_metric(pg, cl.fields.xi2, p, fd=fd)
        residual.add_max_abs(L1 - 2.0 * pg(p), L2)
    # constant J: L_{xi1+xi2} J = [J, A1 + A2]
    residual.add_max_abs(J @ A_total - A_total @ J)
    return CheckResult(
        check_id="lifted_field_lemma",
        claim="L_{xi1} pi*g = 2 pi*g, L_{xi2} pi*g = 0, L_{xi1+xi2} J = 0",
        residual=residual.value,
        tolerance=tolerance,
        samples=len(points),
    )


def check_conformal_invariance(
    cl: ConformalKahlerLift,
    samples=None,
    tolerance=1e-6,
    automorphisms=(),
    fiber_shifts=(),
    invariance_tolerance=1e-8,
    fd=False,
):
    """Conformal flow suite: homothety of the norm function, L w_cK = 0,
    psi-invariance of w_cK, and the unscaled negative control L w = 2 w."""
    n = cl.base.dim
    points = cl.lift.sample_points(samples)
    omega_ck = cl.omega_ck()
    X = cl.fields.total
    res_norm, res_wck, res_control = Residual(), Residual(), Residual()
    for p in points:
        x = p[:n]
        value = norm_squared(cl.base, x)
        grad = cl.base.norm_gradient(x, fd=fd)
        lie_norm = float(cl.fields.xi1.value(p)[:n] @ grad)
        res_norm.add(abs(lie_norm - 2.0 * value))
        res_wck.add_max_abs(lie_derivative_metric(omega_ck, X, p, fd=fd))
        Lraw = lie_derivative_metric(cl.lift.omega, X, p, fd=fd)
        res_control.add_max_abs(Lraw - 2.0 * cl.lift.omega(p))
    entries = [
        CheckResult(
            check_id="conformal_norm_homothety",
            claim="L_{xi1+xi2} (pi^* g(xi,xi)) = 2 pi^* g(xi,xi)",
            residual=res_norm.value,
            tolerance=tolerance,
            samples=len(points),
        ),
        CheckResult(
            check_id="conformal_omega_ck_flow",
            claim="L_{xi1+xi2} omega_cK = 0 for omega_cK = g(xi,xi)^{-1} omega",
            residual=res_wck.value,
            tolerance=tolerance,
            samples=len(points),
        ),
        CheckResult(
            check_id="conformal_omega_negative_control",
            claim="without the conformal factor L_{xi1+xi2} omega = 2 omega exactly",
            residual=res_control.value,
            tolerance=1e-4,
            samples=len(points),
        ),
    ]
    if automorphisms:
        _require_isometry(cl.base.base, automorphisms)
        shifts = list(fiber_shifts) or [np.zeros(n)]
        res_inv = Residual()
        for k, T in enumerate(automorphisms):
            lifted = lift_automorphism(T, shifts[k % len(shifts)])
            for p in points:
                defect, scale = pullback_defect(lifted, omega_ck, p)
                res_inv.add(defect / max(1.0, scale))
        entries.append(
            CheckResult(
                check_id="conformal_psi_invariance",
                claim="omega_cK is invariant under lifted unimodular isometries",
                residual=res_inv.value,
                tolerance=invariance_tolerance,
                samples=len(points) * len(automorphisms),
            )
        )
    return entries
