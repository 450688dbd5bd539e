"""Special Kahler structures in flat Darboux coordinates and their
hyper-Kahler lift to T*M.

A holomorphic prepotential F(z1..zm) with Im F'' positive definite generates
the structure: Darboux coordinates are q = (u, v) = (Re z, Re F'(z)), the
metric is the push-forward of Im(F_ij) dz^i dz*^j and the complex structure
is the push-forward of multiplication by sqrt(-1).  Recovering z from q needs
a Newton inversion of Re F'(u + i y) = v in the m unknowns y = Im z (u = Re z
is exact); derivatives of the pushed-forward tensors are available
analytically through implicit differentiation with the third-order jets of F.

On T*M = M x (R^{2m})*, with the flat splitting, the frame is

    g_c = diag(g, g^{-1}),  I1 = diag(I, I^T),  I2 = [[0, -w^{-1}], [w, 0]],
    I3 = I1 I2,   with w = I^T g (constant = lambda * Omega).

Its derivatives are exact: they follow from g, I, dg and dI by the product
rule and d(M^{-1}) = -M^{-1} dM M^{-1}.

The conformal rescaling takes a selfsimilar structure (sk, xi) with a linear
homothetic field xi(q) = A q; its vertical lift is transported through the
w-identification of fibers: xi_2 = (0, w A w^{-1} p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    NewtonDivergence,
    NotPositiveDefinite,
    SingularMetric,
    TranslationUnsupported,
    UnknownPreset,
)
from .expressions import ScalarExpression, parse_expression
from .report import CheckResult
from .structures import Domain, SelfsimilarHessianStructure, conformal_flow_residuals
from .tensors import (
    AffineAutomorphism,
    Residual,
    TensorField,
    blocks,
    bundle_sample_points,
    exterior_derivative_2form,
    invariance_defect,
    is_positive_definite,
    lie_derivative_endomorphism,
    lie_derivative_metric,
    lift_automorphisms,
    lift_field,
    nijenhuis,
    point_bundle,
    require_isometry,
    standard_symplectic,
    symmetry_defect,
)

__all__ = [
    "Prepotential",
    "SpecialKahlerStructure",
    "HyperKahlerFrame",
    "special_kahler_from_prepotential",
    "special_kahler_preset",
    "SK_PRESET_NAMES",
    "build_hyperkahler",
    "check_special_kahler_axioms",
    "check_hyperkahler",
    "check_invariance_psi_hat",
    "check_conformal_hyperkahler",
]

SK_PRESET_NAMES = ("sk_flat", "sk_cubic", "sk_conic")

NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 80
FIBER_SALT = 2000  # fiber points of T*M are drawn at salt + FIBER_SALT


@dataclass(frozen=True)
class Prepotential:
    """Holomorphic prepotential over z1..zm with Im F'' positive definite."""

    m: int
    F: ScalarExpression
    zbox: np.ndarray  # (2m, 2) bounds, rows = (Re z1..Re zm, Im z1..Im zm)

    def z_from_real(self, w):
        w = np.asarray(w, dtype=float)
        return w[: self.m] + 1j * w[self.m :]

    def jets(self, z):
        return self.F.jet3(np.asarray(z, dtype=np.complex128))

    def sample_z(self, count, rng):
        lo, hi = self.zbox[:, 0], self.zbox[:, 1]
        w = lo + (hi - lo) * rng.random((count, 2 * self.m))
        return np.array([self.z_from_real(row) for row in w])

    def center_z(self):
        return self.z_from_real(self.zbox.mean(axis=1))


class SpecialKahlerStructure:
    """Flat Darboux chart q = (u, v), constant Omega, metric g and complex
    structure I evaluated per point; generated from a prepotential or from
    explicit component expressions."""

    def __init__(
        self,
        name,
        m,
        metric: TensorField,
        complex_structure: TensorField,
        sampler: Callable[[int, np.random.Generator], np.ndarray],
        prepotential: Optional[Prepotential] = None,
        potential: Optional[ScalarExpression] = None,
        seed=42,
        samples=100,
    ):
        self.name = name
        self.m = m
        self.dim = 2 * m
        self.Omega = standard_symplectic(m)
        self.metric = metric
        self.complex_structure = complex_structure
        self._sampler = sampler
        self.prepotential = prepotential
        self.potential = potential  # None means "implicit"
        self.seed = seed
        self.samples = samples
        self.omega_scale = None  # lambda with omega = lambda * Omega
        # angles t of the holomorphic isometries cos t + sin t I, set by a
        # preset whose I is constant
        self.rotations = ()

    def rng(self, salt=0):
        return np.random.default_rng([self.seed, salt])

    def sample_points(self, count=None, salt=0):
        return self._sampler(count or self.samples, self.rng(salt))

    @cached_property
    def frame(self):
        """(g_c, (I1, I2, I3)) on T*M, one frame bundle per structure."""
        return _frame_fields(self)

    def omega(self, q):
        """w = g(I., .) as a matrix: I^T g."""
        return self.complex_structure(q).T @ self.metric(q)

    def omega_constant(self):
        """lambda * Omega, with lambda estimated at the first sample."""
        if self.omega_scale is None:
            q = self.sample_points(1, salt=5)[0]
            w = self.omega(q)
            lam = float(np.sum(w * self.Omega) / np.sum(self.Omega * self.Omega))
            self.omega_scale = lam
        return self.omega_scale * self.Omega


# -- prepotential construction ---------------------------------------------


def _newton_invert(prep: Prepotential, q):
    """Solve Re F'(u + i y) = v for y; returns z = u + i y and the jets of F there."""
    m = prep.m
    q = np.asarray(q, dtype=float)
    u, v = q[:m], q[m:]
    y = np.array(prep.center_z().imag, dtype=float)
    scale = max(1.0, float(np.max(np.abs(v))))
    for _ in range(NEWTON_MAX_ITER):
        jets = prep.jets(u + 1j * y)
        r = jets.gradient.real - v
        if np.max(np.abs(r)) < NEWTON_TOL * scale:
            return u + 1j * y, jets
        N = jets.hessian.imag
        try:
            step = np.linalg.solve(N, r)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence(q) from exc
        y = y + step
    raise NewtonDivergence(q)


def _tensors_at_z(prep: Prepotential, z, jets):
    """(g, I, dg, dI) in Darboux coordinates at the point with complex
    coordinate z, from the jets of F there; dg and dI are stacked over k."""
    m = prep.m
    N, R = jets.hessian.imag, jets.hessian.real
    J = standard_symplectic(m)
    T = blocks(np.eye(m), 0, R, -N)
    try:
        Tinv = np.linalg.inv(T)
        Ninv = np.linalg.inv(N)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"Im F'' singular at z = {z}") from exc
    G = blocks(N, 0, 0, N)
    g = Tinv.T @ G @ Tinv
    Imat = T @ J @ Tinv
    # implicit differentiation: dz/du = Id + i N^{-1} R, dz/dv = -i N^{-1};
    # stored as dz[k, l] = dz_l / dq_k, hence the transpose
    dz = np.concatenate([np.eye(m) + 1j * (Ninv @ R).T, -1j * Ninv.T])
    dF2 = np.einsum("kl,ijl->kij", dz, jets.third)  # d_k F_ij over the 2m chart
    dN, dR = dF2.imag, dF2.real
    dT = blocks(0, 0, dR, -dN)
    dTinv = -Tinv @ dT @ Tinv
    dG = blocks(dN, 0, 0, dN)
    dg = np.transpose(dTinv, (0, 2, 1)) @ G @ Tinv + Tinv.T @ dG @ Tinv + Tinv.T @ G @ dTinv
    dI = dT @ J @ Tinv + T @ J @ dTinv
    return g, Imat, dg, dI


def special_kahler_from_prepotential(
    prep: Prepotential, name="prepotential", seed=42, samples=100
) -> SpecialKahlerStructure:
    m = prep.m

    def q_of_z(z):
        jets = prep.jets(z)
        return np.concatenate([z.real, jets.gradient.real])

    # (g, I, dg, dI) at a Darboux point q: one Newton inversion per point
    tensors = point_bundle(lambda q: _tensors_at_z(prep, *_newton_invert(prep, q)))

    def sampler(count, rng):
        return np.array([q_of_z(z) for z in prep.sample_z(count, rng)])

    structure = SpecialKahlerStructure(
        name=name,
        m=m,
        metric=TensorField.from_bundle(2 * m, tensors, 0, 2),
        complex_structure=TensorField.from_bundle(2 * m, tensors, 1, 3),
        sampler=sampler,
        prepotential=prep,
        potential=None,  # implicit; certified through d(g) symmetry
        seed=seed,
        samples=samples,
    )
    for z in prep.sample_z(25, structure.rng(7)):
        if not is_positive_definite(prep.jets(z).hessian.imag):
            raise NotPositiveDefinite(z, "Im F'' not positive definite")
    for entry in check_special_kahler_axioms(structure, samples=25):
        if not entry.passed:
            raise ConfigError(
                f"prepotential structure fails {entry.check_id}: "
                f"residual {entry.residual:.2e}"
            )
    return structure


def special_kahler_from_config(config) -> SpecialKahlerStructure:
    """Direct configuration: explicit I components and potential over q1..q2m."""
    try:
        dim = int(config["dim"])
        if dim % 2:
            raise ConfigError("dim must be even")
        m = dim // 2
        variables = [f"q{k + 1}" for k in range(dim)]
        if config.get("potential", "implicit") == "implicit":
            raise ConfigError("direct config needs an explicit potential")
        potential = parse_expression(config["potential"], variables)
        rows = [[parse_expression(text, variables) for text in row] for row in config["I"]]
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ConfigError(f"I must have {dim} rows of {dim} components")
        I = TensorField.from_components(rows)
        inequalities = tuple(
            parse_expression(text, variables) for text in config.get("domain", [])
        )
        box = np.asarray(config["box"], dtype=float)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad special-Kahler config: {exc}") from exc
    domain = Domain(inequalities, box)
    return SpecialKahlerStructure(
        name=config.get("name", "special_kahler"),
        m=m,
        metric=TensorField.from_potential(potential),
        complex_structure=I,
        sampler=lambda count, rng: domain.sample(count, rng),
        potential=potential,
        seed=int(config.get("seed", 42)),
        samples=int(config.get("samples", 100)),
    )


def prepotential_from_config(config) -> SpecialKahlerStructure:
    """Prepotential configuration {name, m, F, box, seed, samples}."""
    try:
        m = int(config["m"])
        variables = [f"z{k + 1}" for k in range(m)]
        F = parse_expression(config["F"], variables, mode="complex")
        zbox = np.asarray(config["box"], dtype=float)
        if zbox.shape != (2 * m, 2):
            raise ConfigError(f"box must be {2 * m} rows of [lo, hi]")
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad prepotential config: {exc}") from exc
    return special_kahler_from_prepotential(
        Prepotential(m, F, zbox),
        name=config.get("name", "prepotential"),
        seed=int(config.get("seed", 42)),
        samples=int(config.get("samples", 100)),
    )


def special_kahler_preset(name, seed=42, samples=100) -> SpecialKahlerStructure:
    if name == "sk_flat":
        config = {
            "name": name,
            "m": 1,
            "F": "i*z1^2/2",
            "box": [[-1.0, 1.0], [-1.0, 1.0]],
        }
    elif name == "sk_cubic":
        config = {
            "name": name,
            "m": 1,
            "F": "z1^3/6",
            "box": [[-1.0, 1.0], [0.5, 1.5]],
        }
    elif name == "sk_conic":
        # The conic cubic-over-linear prepotential; the i factor places the
        # positive definite branch at z2/z1 ~ 1 (without it det Im F'' <= 0
        # identically).
        config = {
            "name": name,
            "m": 2,
            "F": "i*z2^3/z1",
            "box": [
                [0.9, 1.1],
                [0.9, 1.1],
                [-0.05, 0.05],
                [-0.05, 0.05],
            ],
        }
    else:
        raise UnknownPreset(name)
    config["seed"] = seed
    config["samples"] = samples
    structure = prepotential_from_config(config)
    if name == "sk_flat":
        structure.rotations = (0.3, -1.1, 2.0)
    return structure


# -- hyper-Kahler frame ----------------------------------------------------


class HyperKahlerFrame(NamedTuple):
    gc: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    I3: np.ndarray


def build_hyperkahler(sk: SpecialKahlerStructure, q, p=None) -> HyperKahlerFrame:
    """Frame matrices at (q, p); all tensors are independent of p."""
    g = sk.metric(np.asarray(q, dtype=float))
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric singular at {q}") from exc
    I = sk.complex_structure(np.asarray(q, dtype=float))
    w = I.T @ g
    winv = np.linalg.inv(w)
    I1 = blocks(I, 0, 0, I.T)
    I2 = blocks(0, -winv, w, 0)
    return HyperKahlerFrame(blocks(g, 0, 0, ginv), I1, I2, I1 @ I2)


def _frame_derivative(sk: SpecialKahlerStructure, q, frame) -> HyperKahlerFrame:
    """D[k] = d_k of each frame matrix for the n base coordinates q of T*M,
    from the frame at q and dg, dI there; the rows along p vanish."""
    n = sk.dim
    g, I = frame.gc[:n, :n], frame.I1[:n, :n]
    dg, dI = sk.metric.derivative(q), sk.complex_structure.derivative(q)
    ginv, winv = frame.gc[n:, n:], -frame.I2[:n, n:]
    dIT = np.transpose(dI, (0, 2, 1))
    dw = dIT @ g + I.T @ dg  # w = I^T g
    dgc = blocks(dg, 0, 0, -ginv @ dg @ ginv)  # d(g^{-1}) = -g^{-1} dg g^{-1}
    dI1 = blocks(dI, 0, 0, dIT)
    dI2 = blocks(0, winv @ dw @ winv, dw, 0)  # d(-w^{-1}) = w^{-1} dw w^{-1}
    return HyperKahlerFrame(dgc, dI1, dI2, dI1 @ frame.I2 + frame.I1 @ dI2)


def _frame_fields(sk: SpecialKahlerStructure):
    """g_c and (I1, I2, I3) on T*M with exact derivatives, from one bundle per q."""
    n = sk.dim

    def frame_and_derivative(q):
        frame = build_hyperkahler(sk, q)
        base_rows = _frame_derivative(sk, q, frame)
        return (*frame, *(np.concatenate([D, np.zeros_like(D)]) for D in base_rows))

    at_q = point_bundle(frame_and_derivative)
    gc, I1, I2, I3 = (
        TensorField.from_bundle(2 * n, lambda pt: at_q(pt[:n]), k, k + 4) for k in range(4)
    )
    return gc, (I1, I2, I3)


def _kahler_form(gc: TensorField, Ik: TensorField) -> TensorField:
    """w_k = I_k^T g_c, differentiated by the product rule."""
    return TensorField(
        gc.dim,
        lambda x: Ik(x).T @ gc(x),
        lambda x: np.transpose(Ik.derivative(x), (0, 2, 1)) @ gc(x)
        + Ik(x).T @ gc.derivative(x),
    )


# -- checks ----------------------------------------------------------------


def check_special_kahler_axioms(sk: SpecialKahlerStructure, samples=None) -> List[CheckResult]:
    points = sk.sample_points(samples)
    n = sk.dim
    res_sq, res_herm, res_nij, res_omega, res_sym = (Residual() for _ in range(5))
    w_const = sk.omega_constant()
    for q in points:
        g = sk.metric(q)
        I = sk.complex_structure(q)
        res_sq.add_max_abs(I @ I + np.eye(n))
        res_herm.add_max_abs(I.T @ g @ I - g)
        res_nij.add_max_abs(nijenhuis(sk.complex_structure, q))
        res_omega.add_max_abs(I.T @ g - w_const)
        res_sym.add(symmetry_defect(sk.metric.derivative(q)))
        if not is_positive_definite(g):
            raise NotPositiveDefinite(q)
    count = len(points)
    tolerance = 1e-6
    return [
        CheckResult("sk_complex_structure", "I(q)^2 = -Id", res_sq.value, tolerance, count),
        CheckResult("sk_hermitian", "g(I., I.) = g", res_herm.value, tolerance, count),
        CheckResult(
            "sk_integrable", "Nijenhuis tensor of I vanishes", res_nij.value, tolerance, count
        ),
        CheckResult(
            "sk_omega_parallel",
            "omega = g(I., .) has constant components lambda * Omega",
            res_omega.value,
            tolerance,
            count,
        ),
        CheckResult(
            "sk_hessian",
            "d_k g_ij is totally symmetric (g is Hessian for the flat connection)",
            res_sym.value,
            tolerance,
            count,
        ),
    ]


def check_hyperkahler(sk: SpecialKahlerStructure, samples=None) -> List[CheckResult]:
    n = sk.dim
    points = bundle_sample_points(sk, samples, 0, FIBER_SALT)
    gc_field, I_fields = sk.frame
    res_quat, res_herm, res_closed, res_shift = (Residual() for _ in range(4))
    rng = sk.rng(31)
    for pt in points:
        gc, (I1, I2, I3) = gc_field(pt), (Ik(pt) for Ik in I_fields)
        eye = np.eye(2 * n)
        for Ik in (I1, I2, I3):
            res_quat.add_max_abs(Ik @ Ik + eye)
            res_herm.add_max_abs(Ik.T @ gc @ Ik - gc)
        res_quat.add_max_abs(I1 @ I2 - I3, I2 @ I1 + I3)
        shift = -1.0 + 2.0 * rng.random(n)
        shifted = np.concatenate([pt[:n], pt[n:] + shift])
        res_shift.add_max_abs(gc_field(shifted) - gc, I_fields[2](shifted) - I3)
    for pt in points[: min(len(points), 20)]:
        for Ik_field in I_fields:
            res_closed.add_max_abs(
                exterior_derivative_2form(_kahler_form(gc_field, Ik_field), pt)
            )
    count = len(points)
    return [
        CheckResult(
            "hk_quaternion",
            "I1, I2, I3 = I1 I2 satisfy the quaternion relations",
            res_quat.value,
            1e-8,
            count,
        ),
        CheckResult(
            "hk_hermitian",
            "g_c is Hermitian for each of I1, I2, I3",
            res_herm.value,
            1e-8,
            count,
        ),
        CheckResult(
            "hk_closed_forms",
            "the three Kahler forms g_c(I_k ., .) are closed on T*M",
            res_closed.value,
            1e-5,
            min(count, 20),
        ),
        CheckResult(
            "hk_fiber_shift",
            "the frame is exactly invariant under fiber translations",
            res_shift.value,
            1e-12,
            count,
        ),
    ]


def check_invariance_psi_hat(
    sk: SpecialKahlerStructure,
    automorphisms: Sequence[AffineAutomorphism],
    fiber_shifts: Sequence[np.ndarray] = (),
    samples=None,
) -> CheckResult:
    """Invariance of the frame under Psi(q, p) = (B q + c, B^{-T} p + u) for
    holomorphic isometries B q + c; they preserve omega = I^T g as well."""
    require_isometry(sk, automorphisms, (sk.complex_structure,))
    points = bundle_sample_points(sk, samples, 0, FIBER_SALT)
    gc_field, I_fields = sk.frame
    residual = invariance_defect(
        lift_automorphisms(automorphisms, lambda A: np.linalg.inv(A).T, fiber_shifts),
        points,
        (gc_field,),
        I_fields,
        floor=1.0,
    )
    return CheckResult(
        "hk_psi_hat_invariance",
        "the frame is invariant under lifted holomorphic isometries",
        residual,
        1e-8,
        len(points) * max(1, len(automorphisms)),
    )


# -- conformal rescaling ---------------------------------------------------


def check_conformal_hyperkahler(ss: SelfsimilarHessianStructure, samples=None) -> List[CheckResult]:
    """Conformal flow suite on T*M for the lifted field X = (A q, w A w^{-1} p),
    whose fiber part is xi transported through w."""
    sk = ss.base
    if np.max(np.abs(ss.xi.b)) > 0:
        raise TranslationUnsupported(
            "homothetic fields with translation are not supported on T*M"
        )
    w = sk.omega_constant()
    X = lift_field(ss.xi, w @ ss.xi.A @ np.linalg.inv(w), np.zeros(sk.dim))
    qs = sk.sample_points(samples)
    pts = bundle_sample_points(sk, samples, 0, FIBER_SALT)
    gc_field, I_fields = sk.frame
    res_base_g, res_base_I = Residual(), Residual()
    for q in qs:
        L = lie_derivative_metric(sk.metric, ss.xi, q)
        res_base_g.add_max_abs(L - 2.0 * sk.metric(q))
        res_base_I.add_max_abs(
            lie_derivative_endomorphism(sk.complex_structure, ss.xi, q)
        )
    res_norm, res_chk, res_control = conformal_flow_residuals(ss, X, gc_field, pts)
    res_ik = Residual()
    for pt in pts:
        for Ik in I_fields:
            res_ik.add_max_abs(lie_derivative_endomorphism(Ik, X, pt))
    count = len(pts)
    tolerance = 1e-5
    return [
        CheckResult(
            "chk_base_homothety", "L_xi g = 2 g on the base", res_base_g.value, tolerance, len(qs)
        ),
        CheckResult(
            "chk_base_holomorphic", "L_xi I = 0 on the base", res_base_I.value, tolerance, len(qs)
        ),
        CheckResult(
            "chk_norm_homothety",
            "L_{xi1+xi2} (pi^* g(xi,xi)) = 2 pi^* g(xi,xi)",
            res_norm,
            tolerance,
            count,
        ),
        CheckResult(
            "chk_metric_flow",
            "L_{xi1+xi2} g_chK = 0 for g_chK = g(xi,xi)^{-1} g_c",
            res_chk,
            tolerance,
            count,
        ),
        CheckResult(
            "chk_complex_structures_flow",
            "L_{xi1+xi2} I_k = 0 for k = 1, 2, 3",
            res_ik.value,
            tolerance,
            count,
        ),
        CheckResult(
            "chk_unscaled_negative_control",
            "without the conformal factor L_{xi1+xi2} g_c = 2 g_c exactly",
            res_control,
            tolerance,
            count,
        ),
    ]
