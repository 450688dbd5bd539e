"""Tensor operations on fields over a single global flat chart.

Every field, whether a metric, a 2-form or an endomorphism, is one
`TensorField`: an evaluator of a point or a batch of points, with its exact
derivative.  Fields built from expressions differentiate by order-3 jets (one
walk per batch), the others by the product rule or implicit differentiation.
`fd_tensor_derivative`, Richardson-extrapolated central finite differences with
step `FD_STEP * max(1, |p|)` per point, is the independent cross-check of any
of them.  A field whose value and derivative come from the same per-point work
reads both from one `point_bundle`.  A check measures per-point defects on a
whole sample and hands them to `report.measured`: invariance under maps with
`invariance_defect`, flows with `flow_defect`, with `max_abs` and `largest` to
reduce tensors and combine defects.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, HessgeoError, NotAnIsometry
from .expressions import ScalarExpression

__all__ = [
    "FD_STEP",
    "POINT_CACHE_SIZE",
    "point_bundle",
    "TensorField",
    "VectorFieldSpec",
    "AffineAutomorphism",
    "max_abs",
    "largest",
    "blocks",
    "zero_fiber_rows",
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
    "flow_defect",
    "first_failure",
    "require_isometry",
    "is_positive_definite",
    "fd_tensor_derivative",
]

FD_STEP = 1e-5
# Distinct Darboux points and Newton inversions at this size: 442 and 442 for a default `check
# sk_flat`, 1,242 and 1,242 for `check sk_flat --seed 4 --fd-check` (2,142 inversions at 512), and
# 2,041 and 3,741 for `check sk_conic --fd-check`, whose base and bundle audit passes each cover
# 1,700 stencil points (2,041 inversions at 2,048).  A point holds 10,672 bytes of arrays at
# m = 2, 8,584 of them the T*M frame's, so a full cache about 11 MB.
POINT_CACHE_SIZE = 1024


def point_bundle(compute):
    """`compute(p)`, a tuple of arrays, memoised per point for the most
    recent `POINT_CACHE_SIZE` points.  The arrays are read-only, since every
    caller at that point shares them."""

    @lru_cache(maxsize=POINT_CACHE_SIZE)
    def cached(key):
        arrays = compute(np.frombuffer(key))
        for array in arrays:
            array.setflags(write=False)
        return arrays

    def at(p):  # a batch (B, n) row by row, each entry stacked
        p = np.asarray(p, dtype=float)
        return cached(p.tobytes()) if p.ndim == 1 else tuple(map(np.stack, zip(*map(at, p))))

    return at


def _central_difference(func, p, h):
    rows = []
    for e in np.eye(p.shape[-1]):
        step = np.multiply.outer(h, e)  # h e at each point
        diff = np.asarray(func(p + step)) - np.asarray(func(p - step))
        rows.append(diff / np.reshape(2 * h, np.shape(h) + (1,) * (diff.ndim - np.ndim(h))))
    return np.stack(rows, axis=p.ndim - 1)


def fd_tensor_derivative(func, p):
    """Finite-difference derivative D[..., k, ...] = d_k T_...: (4 D(h/2) - D(h)) / 3
    for the central difference D with step h = FD_STEP * max(1, |p|) per point."""
    p = np.asarray(p, dtype=float)
    h = FD_STEP * np.maximum(1.0, np.max(np.abs(p), axis=-1))
    return (4 * _central_difference(func, p, h / 2) - _central_difference(func, p, h)) / 3


class TensorField(NamedTuple):
    """Tensor field (metric, 2-form or endomorphism) given by an evaluator of
    points (..., dim) and its exact derivative D[..., k, i, j] = d_k T_ij."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    dfunc: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_potential(cls, potential: ScalarExpression):
        """Hess(potential), with the third derivatives as its derivative:
        one jet pass over the points for either."""
        hessian, third = (lambda p: potential.jet3(p).hessian), (lambda p: potential.jet3(p).third)
        return cls(len(potential.variables), hessian, third)

    @classmethod
    def from_components(cls, components):
        """Explicit component expressions: one value-only pass per component
        for the value, one order-1 jet pass per component for the derivative."""
        comps = [list(row) for row in components]

        def stacked(f):  # entries (i, j, ...) -> (..., i, j)
            return lambda p: np.moveaxis(
                np.array([[f(c, p) for c in row] for row in comps], dtype=float), (0, 1), (-2, -1)
            )

        value, gradient = stacked(lambda c, p: c(p)), stacked(lambda c, p: c.jet3(p, 1).gradient)
        return cls(len(comps), value, gradient)

    @classmethod
    def constant(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        zero = np.zeros(matrix.shape[:1] + matrix.shape)
        each = [lambda p, a=a: np.broadcast_to(a, p.shape[:-1] + a.shape) for a in (matrix, zero)]
        return cls(len(matrix), *each)

    def __call__(self, p):
        return self.func(np.asarray(p, dtype=float))

    def derivative(self, p):
        return self.dfunc(np.asarray(p, dtype=float))


class VectorFieldSpec(NamedTuple):
    """Affine vector field xi(x) = A x + b."""

    A: np.ndarray
    b: np.ndarray

    @classmethod
    def from_affine(cls, A, b=None):
        A = np.asarray(A, dtype=float)
        return cls(A, np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float))

    def value(self, p):
        return (self.A @ np.asarray(p, dtype=float)[..., None])[..., 0] + self.b

    def jacobian(self, p):
        """J[i, k] = d_k xi^i."""
        return self.A


class AffineAutomorphism(NamedTuple("AffineMap", [("A", np.ndarray), ("b", np.ndarray)])):
    """Invertible affine map x -> A x + b."""

    __slots__ = ()

    def __new__(cls, A, b):
        A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        if abs(np.linalg.det(A)) <= 1e-12:
            raise ValueError("affine automorphism with singular linear part")
        return super().__new__(cls, A, b)

    @classmethod
    def linear(cls, A):
        A = np.asarray(A, dtype=float)
        return cls(A, np.zeros(A.shape[0]))

    def __call__(self, p):
        return (self.A @ np.asarray(p, dtype=float)[..., None])[..., 0] + self.b


# -- operations ------------------------------------------------------------


def blocks(a, b, c, d):
    """[[a, b], [c, d]] over the last two axes.  The blocks are real numpy
    arrays of one shape: (n, n) matrices, or stacks (..., n, n) of derivative
    slices.  A block given as 0 (anything but an array) is zero and skipped."""
    given = next(block for block in (a, b, c, d) if isinstance(block, np.ndarray))
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


def zero_fiber_rows(D):
    """D[..., k, i, j] over the base coordinates of M x R^n, with the fiber's zero rows appended."""
    return np.concatenate([D, np.zeros_like(D)], axis=-3)


def lift_tensor(g: TensorField, assemble):
    """The field assemble(g(x)) at the points (x, y) of M x R^n, for a linear
    `assemble` such as a `blocks` layout: its derivative is
    assemble(g.derivative(x)) on the base rows and zero on the fiber rows."""
    n = g.dim
    return TensorField(
        2 * n,
        lambda p: assemble(g(p[..., :n])),
        lambda p: zero_fiber_rows(assemble(g.derivative(p[..., :n]))),
    )


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
        shift = shifts[k % len(shifts)] if len(shifts) else np.zeros(len(T.b))
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
    Tp, DT, J = T(p), T.derivative(p), xi.jacobian(p)
    return np.einsum("...k,...kij->...ij", xi.value(p), DT) + J.T @ Tp + Tp @ J


def lie_derivative_endomorphism(J: TensorField, xi: VectorFieldSpec, p):
    """(L_xi J)^i_j = xi^k d_k J^i_j - J^k_j d_k xi^i + J^i_k d_j xi^k."""
    p = np.asarray(p, dtype=float)
    Jm, DJ, X = J(p), J.derivative(p), xi.jacobian(p)
    return np.einsum("...k,...kij->...ij", xi.value(p), DJ) + Jm @ X - X @ Jm


def exterior_derivative_2form(omega: TensorField, p):
    """(d omega)_{kij} = d_k w_ij - d_i w_kj + d_j w_ki."""
    D = omega.derivative(p)
    return D - D.swapaxes(-3, -2) + np.moveaxis(D, -3, -1)


def max_abs(array, axes=2):
    """max |a| over the last `axes` axes: per point of a batch of matrices
    (axes=2) or of 3-tensors (axes=3)."""
    return np.max(np.abs(array), axis=tuple(range(-axes, 0)))


def largest(*defects):
    """Elementwise maximum of defects that broadcast together.  A NaN is
    kept, where Python's `max(1.0, nan)` is 1.0."""
    return reduce(np.maximum, defects)


def symmetry_defect(D):
    """Deviation of D[..., k, i, j] from total symmetry, per point; zero for
    the derivative of a Hessian metric."""
    return largest(max_abs(D - D.swapaxes(-3, -2), 3), max_abs(D - D.swapaxes(-3, -1), 3))


def nijenhuis(J: TensorField, p):
    """Nijenhuis tensor N^i_{jk}, antisymmetric in j, k."""
    p = np.asarray(p, dtype=float)
    Jm, D = J(p), J.derivative(p)  # D[m,i,j] = d_m J^i_j
    # N(X,Y)^i = J^m_j d_m J^i_k - J^m_k d_m J^i_j - J^i_m (d_j J^m_k - d_k J^m_j)
    t1 = np.einsum("...mj,...mik->...ijk", Jm, D)
    t2 = np.einsum("...mk,...mij->...ijk", Jm, D)
    t3 = np.einsum("...im,...jmk->...ijk", Jm, D)
    t4 = np.einsum("...im,...kmj->...ijk", Jm, D)
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
    """(max |T^* g - factor g|, max |factor g|) at each point: the defect and
    the scale a caller normalises it by."""
    expected = factor * g(p)
    return max_abs(pullback_metric(T, g, p) - expected), max_abs(expected)


def invariance_defect(maps, points, covariant=(), endomorphisms=(), factor=1.0, floor=0.0):
    """Defects (maps, points): the largest of |T^* S - factor S| / max(floor, |factor S|)
    at p over covariant 2-tensor fields S, and of |A^{-1} K(Tp) A - K(p)| over
    endomorphism fields K; the images under each map are one batch."""
    points = np.asarray(points, dtype=float)

    def relative(T, S, p):
        defect, scale = pullback_defect(T, S, p, factor)
        return defect / np.maximum(floor, scale)

    def under(T):
        def at(p):
            return largest(
                *(relative(T, S, p) for S in covariant),
                *(max_abs(np.linalg.solve(T.A, K(T(p)) @ T.A) - K(p)) for K in endomorphisms),
            )

        return first_failure(at, points)

    return np.array([under(T) for T in maps])


def flow_defect(X: VectorFieldSpec, points, covariant=(), endomorphisms=(), factor=0.0):
    """Defects per point: the largest of |L_X S - factor S| over covariant
    2-tensor fields S and of |L_X K| over endomorphism fields K; the flow
    counterpart of `invariance_defect`, absolute."""

    def at(p):
        return largest(
            *(max_abs(lie_derivative_metric(S, X, p) - factor * S(p)) for S in covariant),
            *(max_abs(lie_derivative_endomorphism(K, X, p)) for K in endomorphisms),
        )

    return first_failure(at, np.asarray(points, dtype=float))


def require_isometry(base, autos, endomorphisms=()):
    """Raises `NotAnIsometry` unless each map preserves the base metric and
    the given endomorphism fields, at 10 base samples (salt 3)."""
    points = base.sample_points(10, salt=3)
    for T in autos:
        defect = np.max(invariance_defect([T], points, (base.metric,), endomorphisms, floor=1.0))
        if not defect <= 1e-8:
            raise NotAnIsometry(
                f"linear part {T.A.tolist()} does not preserve the base structure "
                f"(defect {defect:.2e})"
            )


def first_failure(at, points):
    """`at(points)` over a batch; where it raises, the error that the first
    failing point raises alone, as a loop over the points would."""
    try:
        return at(points)
    except HessgeoError:
        for p in points if np.ndim(points) > 1 else ():
            at(p)
        raise


def is_positive_definite(M, tol=1e-10):
    """Whether the matrix M, or every matrix of a stack (..., n, n), is."""
    M = np.asarray(M, dtype=float)
    return bool(np.min(np.linalg.eigvalsh(0.5 * (M + M.swapaxes(-1, -2)))) > tol)
