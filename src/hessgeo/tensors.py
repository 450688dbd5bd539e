"""Pointwise tensor operations on fields over a single global flat chart.

Every field, whether a metric, a 2-form or an endomorphism, is one
`TensorField`: an evaluator `point -> array`.  Fields built from expressions
carry analytic derivatives (order-3 jets); fields only available numerically,
and every field inside `finite_differences()`, differentiate by
Richardson-extrapolated central finite differences with step
`FD_STEP * max(1, |p|)`.  A field whose value and derivative come from the
same per-point work reads both from one `point_bundle`, always computed exactly.
Checks collect their residuals in a `Residual`, and measure invariance under
affine maps with `invariance_defect`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NotAnIsometry
from .expressions import ScalarExpression

__all__ = [
    "FD_STEP",
    "POINT_CACHE_SIZE",
    "finite_differences",
    "point_bundle",
    "TensorField",
    "VectorFieldSpec",
    "AffineAutomorphism",
    "Residual",
    "blocks",
    "lift_tensor",
    "standard_symplectic",
    "bundle_sample_points",
    "lift_automorphisms",
    "lift_field",
    "lie_derivative_metric",
    "lie_derivative_endomorphism",
    "exterior_derivative_2form",
    "symmetry_defect",
    "nijenhuis",
    "pullback_metric",
    "pullback_defect",
    "invariance_defect",
    "require_isometry",
    "is_positive_definite",
    "fd_gradient",
    "fd_tensor_derivative",
]

FD_STEP = 1e-5
# A default `check sk_flat` visits 442 distinct Darboux points and inverts each
# once at this size (1,062 inversions at 32); at m = 2 that cache holds < 1 MB.
POINT_CACHE_SIZE = 512

# on in `finite_differences()`, off in `point_bundle`; read by `TensorField.derivative` alone
_FINITE_DIFFERENCES = ContextVar("finite_differences", default=False)


@contextmanager
def _derivatives_by_fd(on):
    token = _FINITE_DIFFERENCES.set(on)
    try:
        yield
    finally:
        _FINITE_DIFFERENCES.reset(token)


def finite_differences():
    """Inside this block every `TensorField.derivative` is the finite
    difference of the field's values, exact derivative or not."""
    return _derivatives_by_fd(True)


def point_bundle(compute):
    """`compute(p)`, a tuple of arrays, memoised per point for the most
    recent `POINT_CACHE_SIZE` points.  The arrays are read-only, since every
    caller at that point shares them, and exact: `compute` runs outside
    `finite_differences()`, so no finite difference is cached."""

    @lru_cache(maxsize=POINT_CACHE_SIZE)
    def cached(key):
        with _derivatives_by_fd(False):
            arrays = compute(np.frombuffer(key))
        for array in arrays:
            array.setflags(write=False)
        return arrays

    return lambda p: cached(np.asarray(p, dtype=float).tobytes())


def _central_difference(func, p, h):
    rows = []
    for e in h * np.eye(len(p)):
        rows.append((np.asarray(func(p + e)) - np.asarray(func(p - e))) / (2 * h))
    return np.stack(rows, axis=0)


def _richardson(func, p):
    """(4 D(h/2) - D(h)) / 3 for the central difference D with step
    h = FD_STEP * max(1, |p|): fourth order."""
    p = np.asarray(p, dtype=float)
    h = FD_STEP * max(1.0, float(np.max(np.abs(p))))
    return (4 * _central_difference(func, p, h / 2) - _central_difference(func, p, h)) / 3


def fd_gradient(func, p):
    """Finite-difference gradient of a scalar evaluator."""
    return _richardson(func, p)


def fd_tensor_derivative(func, p):
    """Finite-difference derivative D[k, ...] = d_k T_... of a tensor evaluator."""
    return _richardson(func, p)


@dataclass(frozen=True)
class TensorField:
    """Tensor field (metric, 2-form or endomorphism) given by an evaluator,
    optionally with its exact derivative D[k, ...] = d_k T_...; without one,
    or inside `finite_differences()`, `derivative` is a finite difference."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    dfunc: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def from_bundle(cls, dim, bundle, value, derivative):
        """The field whose value and derivative are entries `value` and
        `derivative` of `bundle(p)`."""
        return cls(dim, lambda p: bundle(p)[value], lambda p: bundle(p)[derivative])

    @classmethod
    def from_potential(cls, potential: ScalarExpression):
        """Hess(potential), with the third derivatives as its derivative; one
        jet per point gives both."""
        hessian_and_third = attrgetter("hessian", "third")
        bundle = point_bundle(lambda p: hessian_and_third(potential.jet3(p)))
        return cls.from_bundle(len(potential.variables), bundle, 0, 1)

    @classmethod
    def from_components(cls, components):
        """Explicit component expressions; one jet per component per point
        gives the value and the derivative."""
        comps = [list(row) for row in components]

        def value_and_derivative(p):
            jets = [[c.jet3(p) for c in row] for row in comps]
            value = np.array([[jet.value for jet in row] for row in jets], dtype=float)
            gradients = np.array([[jet.gradient for jet in row] for row in jets])
            return value, np.ascontiguousarray(np.moveaxis(gradients, 2, 0))

        return cls.from_bundle(len(comps), point_bundle(value_and_derivative), 0, 1)

    @classmethod
    def constant(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        zero = np.zeros((n, n, n))
        return cls(n, lambda p: matrix, lambda p: zero)

    def __call__(self, p):
        return self.func(np.asarray(p, dtype=float))

    def derivative(self, p):
        if self.dfunc is None or _FINITE_DIFFERENCES.get():
            return fd_tensor_derivative(self.func, p)
        return self.dfunc(np.asarray(p, dtype=float))


@dataclass(frozen=True)
class VectorFieldSpec:
    """Affine vector field xi(x) = A x + b."""

    A: np.ndarray
    b: np.ndarray

    @classmethod
    def from_affine(cls, A, b=None):
        A = np.asarray(A, dtype=float)
        return cls(A, np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float))

    def value(self, p):
        return self.A @ np.asarray(p, dtype=float) + self.b

    def jacobian(self, p):
        """J[i, k] = d_k xi^i."""
        return self.A


@dataclass(frozen=True)
class AffineAutomorphism:
    """Invertible affine map x -> A x + b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if abs(np.linalg.det(A)) <= 1e-12:
            raise ValueError("affine automorphism with singular linear part")

    @classmethod
    def linear(cls, A):
        A = np.asarray(A, dtype=float)
        return cls(A, np.zeros(A.shape[0]))

    def __call__(self, p):
        return self.A @ np.asarray(p, dtype=float) + self.b


# -- operations ------------------------------------------------------------


def blocks(a, b, c, d):
    """[[a, b], [c, d]] over the last two axes.  The blocks are real numpy
    arrays of one shape: (n, n) matrices, or stacks (..., n, n) of derivative
    slices.  A block given as 0 (anything but an array) is zero and skipped."""
    given = (
        a if isinstance(a, np.ndarray)
        else b if isinstance(b, np.ndarray)
        else c if isinstance(c, np.ndarray)
        else d
    )
    n = given.shape[-1]
    out = np.zeros(given.shape[:-2] + (2 * n, 2 * n))
    if isinstance(a, np.ndarray):
        out[..., :n, :n] = a
    if isinstance(b, np.ndarray):
        out[..., :n, n:] = b
    if isinstance(c, np.ndarray):
        out[..., n:, :n] = c
    if isinstance(d, np.ndarray):
        out[..., n:, n:] = d
    return out


def lift_tensor(g: TensorField, assemble):
    """The field assemble(g(x)) at the points (x, y) of M x R^n, for a linear
    `assemble` such as a `blocks` layout: its derivative is
    assemble(g.derivative(x)) on the base rows and zero on the fiber rows."""
    n = g.dim

    def derivative(p):
        D = assemble(g.derivative(p[:n]))
        return np.concatenate([D, np.zeros_like(D)])

    return TensorField(2 * n, lambda p: assemble(g(p[:n])), derivative)


def standard_symplectic(m):
    """[[0, -Id], [Id, 0]]: the matrix of Omega = du^i ^ dv_i, and equally the
    complex structure J(d/dx^i) = d/dy^i on a flat tangent bundle."""
    return blocks(0, -np.eye(m), np.eye(m), 0)


def bundle_sample_points(base, count, salt, fiber_salt):
    """Points (x, y) of a bundle with flat fibers over `base`: base samples
    paired with fiber points drawn from [-1, 1]^n at salt + fiber_salt."""
    xs = base.sample_points(count, salt=salt)
    ys = -1.0 + 2.0 * base.rng(salt + fiber_salt).random((len(xs), base.dim))
    return np.hstack([xs, ys])


def lift_automorphisms(autos, fiber_linear, shifts=()):
    """Psi(x, y) = (A x + b, fiber_linear(A) y + s) for each automorphism, on
    a bundle with flat fibers; the shifts s are taken cyclically, zero when
    there are none."""
    lifted = []
    for k, T in enumerate(autos):
        n = T.A.shape[0]
        shift = shifts[k % len(shifts)] if len(shifts) else np.zeros(n)
        b = np.concatenate([T.b, np.asarray(shift, dtype=float)])
        lifted.append(AffineAutomorphism(blocks(T.A, 0, 0, fiber_linear(T.A)), b))
    return lifted


def lift_field(xi: VectorFieldSpec, fiber_linear, fiber_shift):
    """The field (A x + b, F y + c) on a bundle with flat fibers, for the
    base field xi = A x + b and the fiber part F y + c."""
    X = blocks(xi.A, 0, 0, np.asarray(fiber_linear, dtype=float))
    return VectorFieldSpec(X, np.concatenate([xi.b, np.asarray(fiber_shift, dtype=float)]))


def lie_derivative_metric(T: TensorField, xi: VectorFieldSpec, p):
    """(L_xi T)_ij of a covariant 2-tensor T, a metric or a 2-form:
    xi^k d_k T_ij + T_kj d_i xi^k + T_ik d_j xi^k."""
    p = np.asarray(p, dtype=float)
    Tp = T(p)
    DT = T.derivative(p)
    J = xi.jacobian(p)
    return np.einsum("k,kij->ij", xi.value(p), DT) + J.T @ Tp + Tp @ J


def lie_derivative_endomorphism(J: TensorField, xi: VectorFieldSpec, p):
    """(L_xi J)^i_j = xi^k d_k J^i_j - J^k_j d_k xi^i + J^i_k d_j xi^k."""
    p = np.asarray(p, dtype=float)
    Jm = J(p)
    DJ = J.derivative(p)
    X = xi.jacobian(p)
    return np.einsum("k,kij->ij", xi.value(p), DJ) + Jm @ X - X @ Jm


def exterior_derivative_2form(omega: TensorField, p):
    """(d omega)_{kij} = d_k w_ij - d_i w_kj + d_j w_ki."""
    D = omega.derivative(p)
    return D - np.transpose(D, (1, 0, 2)) + np.transpose(D, (1, 2, 0))


def symmetry_defect(D):
    """Largest deviation of D[k, i, j] from total symmetry; zero for the
    derivative of a Hessian metric."""
    return Residual().add_max_abs(
        D - np.transpose(D, (1, 0, 2)), D - np.transpose(D, (2, 1, 0))
    ).value


def nijenhuis(J: TensorField, p):
    """Nijenhuis tensor N^i_{jk}, antisymmetric in j, k."""
    p = np.asarray(p, dtype=float)
    Jm = J(p)
    D = J.derivative(p)  # D[m,i,j] = d_m J^i_j
    # N(X,Y)^i = J^m_j d_m J^i_k - J^m_k d_m J^i_j - J^i_m (d_j J^m_k - d_k J^m_j)
    t1 = np.einsum("mj,mik->ijk", Jm, D)
    t2 = np.einsum("mk,mij->ijk", Jm, D)
    t3 = np.einsum("im,jmk->ijk", Jm, D)
    t4 = np.einsum("im,kmj->ijk", Jm, D)
    return t1 - t2 - t3 + t4


def pullback_metric(T: AffineAutomorphism, g: TensorField, p):
    """(T^* g)(p) = A^T g(Ap + b) A for a covariant 2-tensor g."""
    image = T(p)
    try:
        gi = g(image)
    except DomainError as exc:
        raise DomainError(f"image point {image} left the domain: {exc}") from exc
    return T.A.T @ gi @ T.A


def pullback_defect(T: AffineAutomorphism, g: TensorField, p, factor=1.0):
    """(max |T^* g - factor g|, max |factor g|) at p: the defect and the scale
    a caller normalises it by."""
    expected = factor * g(p)
    return (
        np.max(np.abs(pullback_metric(T, g, p) - expected)),
        np.max(np.abs(expected)),
    )


def invariance_defect(maps, points, covariant=(), endomorphisms=(), factor=1.0, floor=0.0):
    """Max over maps T and points p of |T^* S - factor S| / max(floor, |factor S|)
    for each covariant 2-tensor field S, and of |A^{-1} K(Tp) A - K(p)| for
    each endomorphism field K."""
    residual = Residual()
    for T in maps:
        for p in points:
            image = T(p)
            for S in covariant:
                defect, scale = pullback_defect(T, S, p, factor)
                residual.add(defect / max(floor, scale))
            for K in endomorphisms:
                residual.add_max_abs(np.linalg.solve(T.A, K(image) @ T.A) - K(p))
    return residual.value


def require_isometry(base, autos, endomorphisms=()):
    """Raises `NotAnIsometry` unless each map preserves the base metric and
    the given endomorphism fields, at 10 base samples (salt 3)."""
    points = base.sample_points(10, salt=3)
    for T in autos:
        defect = invariance_defect([T], points, (base.metric,), endomorphisms, floor=1.0)
        if not defect <= 1e-8:
            raise NotAnIsometry(
                f"linear part {T.A.tolist()} does not preserve the base structure "
                f"(defect {defect:.2e})"
            )


class Residual:
    """Running maximum of residuals.  Unlike Python's `max`, a NaN is kept
    once seen (as is an inf), so a residual that became non-finite fails its
    check instead of vanishing."""

    def __init__(self):
        self.value = 0.0

    def add(self, *values):
        for v in values:
            v = float(v)
            if not v <= self.value and not math.isnan(self.value):
                self.value = v
        return self

    def add_max_abs(self, *arrays):
        """Adds max |a| of each array."""
        return self.add(*(np.max(np.abs(a)) for a in arrays))


def is_positive_definite(M, tol=1e-10):
    M = np.asarray(M, dtype=float)
    return bool(np.min(np.linalg.eigvalsh(0.5 * (M + M.T))) > tol)
