"""Special Kahler structures in flat Darboux coordinates and their
hyper-Kahler lift to T*M.

A holomorphic prepotential F(z1..zm) with Im F'' positive definite generates
the structure: Darboux coordinates are q = (u, v) = (Re z, Re F'(z)), the
metric is the push-forward of Im(F_ij) dz^i dz*^j and the complex structure
is the push-forward of multiplication by sqrt(-1).  Recovering z from q needs
a Newton inversion of Re F'(u + i y) = v in the m unknowns y = Im z (u = Re z
is exact).  At each Darboux point two bundles hold the tensors: the values
(z, g, I), after one Newton inversion on order-2 jets of F, and the derivatives
(dg, dI), by implicit differentiation with one order-3 jet of F at the z the
values hold.  A frame query reads the values alone, so it computes no third
derivative of F.

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

from functools import cached_property
from typing import List, NamedTuple, Sequence

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
from .report import CheckResult, measured, require
from .structures import (
    Domain,
    SelfsimilarHessianStructure,
    config_box,
    conformal_rescaling,
    norm_homothety_defect,
    require_count,
)
from .tensors import (
    AffineAutomorphism,
    TensorField,
    blocks,
    bundle_sample_points,
    exterior_derivative_2form,
    first_failure,
    flow_defect,
    invariance_defect,
    is_positive_definite,
    largest,
    lift_automorphisms,
    lift_field,
    max_abs,
    nijenhuis,
    point_bundle,
    require_isometry,
    standard_symplectic,
    symmetry_defect,
    zero_fiber_rows,
)

__all__ = [
    "Prepotential",
    "SpecialKahlerStructure",
    "HyperKahlerFrame",
    "special_kahler_from_prepotential",
    "special_kahler_preset",
    "SK_PRESETS",
    "SK_PRESET_NAMES",
    "build_hyperkahler",
    "check_special_kahler_axioms",
    "check_hyperkahler",
    "check_invariance_psi_hat",
    "check_conformal_hyperkahler",
]

NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 80
FIBER_SALT = 2000  # fiber points of T*M are drawn at salt + FIBER_SALT


class Prepotential(NamedTuple):
    """Holomorphic prepotential over z1..zm with Im F'' positive definite."""

    m: int
    F: ScalarExpression
    zbox: np.ndarray  # (2m, 2) bounds, rows = (Re z1..Re zm, Im z1..Im zm)

    def z_from_real(self, w):
        w = np.asarray(w, dtype=float)
        return w[: self.m] + 1j * w[self.m :]

    def jets(self, z, order=3):
        return self.F.jet3(np.asarray(z, dtype=np.complex128), order)

    def sample_z(self, count, rng):
        lo, hi = self.zbox[:, 0], self.zbox[:, 1]
        w = lo + (hi - lo) * rng.random((count, 2 * self.m))
        return np.array([self.z_from_real(row) for row in w])

    def center_z(self):
        return self.z_from_real(self.zbox.mean(axis=1))


class SpecialKahlerStructure:
    """Flat Darboux chart q = (u, v), constant Omega, metric g and complex
    structure I evaluated per point; generated from a prepotential or from
    explicit component expressions.  `sampler(count, rng)` draws Darboux
    points, and `isometries` are the holomorphic isometries B q + c that a
    preset states (none: no psi-hat check)."""

    def __init__(self, name, m, metric, complex_structure, sampler, prepotential=None, seed=42,
                 samples=100, isometries=()):
        self.name, self.m, self.metric, self.complex_structure = name, m, metric, complex_structure
        self.sampler, self.prepotential, self.isometries = sampler, prepotential, isometries
        self.seed, self.samples = seed, samples

    @property
    def dim(self):
        return 2 * self.m

    @cached_property
    def Omega(self):
        return standard_symplectic(self.m)

    def rng(self, salt=0):
        return np.random.default_rng([self.seed, salt])

    def sample_points(self, count=None, salt=0):
        return self.sampler(count or self.samples, self.rng(salt))

    @cached_property
    def frame(self):
        """(g_c, (I1, I2, I3)) on T*M, one frame bundle per structure."""
        return _frame_fields(self)

    @cached_property
    def omega(self):
        """w = g(I., .) as a matrix field: I^T g."""
        return _kahler_form(self.metric, self.complex_structure)

    @cached_property
    def omega_scale(self):
        """lambda with omega = lambda * Omega, estimated at the first sample."""
        w = self.omega(self.sample_points(1, salt=5)[0])
        return float(np.sum(w * self.Omega) / np.sum(self.Omega * self.Omega))

    def omega_constant(self):
        """lambda * Omega."""
        return self.omega_scale * self.Omega


# -- prepotential construction ---------------------------------------------


def _newton_invert(prep: Prepotential, q):
    """Solve Re F'(u + i y) = v for y, on order-2 jets of F; returns
    z = u + i y and the order-2 jets there."""
    m = prep.m
    q = np.asarray(q, dtype=float)
    u, v = q[:m], q[m:]
    y = np.array(prep.center_z().imag, dtype=float)
    scale = max(1.0, float(np.max(np.abs(v))))
    for _ in range(NEWTON_MAX_ITER):
        jets = prep.jets(u + 1j * y, order=2)
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


def _inverse(matrix, what, coordinate, point):
    """matrix^{-1}, or `SingularMetric("<what> singular at <coordinate> = <point>")`."""
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"{what} singular at {coordinate} = {point}") from exc


def _darboux_jacobian(z, jets):
    """T = d(u, v)/d(Re z, Im z), its inverse and G = diag(N, N), from F'' at z."""
    N, R = jets.hessian.imag, jets.hessian.real
    T = blocks(np.eye(len(z)), 0, R, -N)
    return T, _inverse(T, "Im F''", "z", z), blocks(N, 0, 0, N)


def _values_at_z(z, jets):
    """(z, g, I) in Darboux coordinates at the point with complex coordinate
    z, from the order-2 jets of F there."""
    T, Tinv, G = _darboux_jacobian(z, jets)
    return z, Tinv.T @ G @ Tinv, T @ standard_symplectic(len(z)) @ Tinv


def _derivatives_at_z(prep: Prepotential, z):
    """(dg, dI) stacked over k at z, by implicit differentiation with one
    order-3 jet of F there."""
    jets = prep.jets(z)
    T, Tinv, G = _darboux_jacobian(z, jets)
    N, R = jets.hessian.imag, jets.hessian.real
    Ninv = _inverse(N, "Im F''", "z", z)
    J = standard_symplectic(prep.m)
    # implicit differentiation: dz/du = Id + i N^{-1} R, dz/dv = -i N^{-1};
    # stored as dz[k, l] = dz_l / dq_k, hence the transpose
    dz = np.concatenate([np.eye(prep.m) + 1j * (Ninv @ R).T, -1j * Ninv.T])
    dF2 = np.einsum("kl,ijl->kij", dz, jets.third)  # d_k F_ij over the 2m chart
    dN, dR = dF2.imag, dF2.real
    dT = blocks(0, 0, dR, -dN)
    dTinv = -Tinv @ dT @ Tinv
    dG = blocks(dN, 0, 0, dN)
    dg = np.transpose(dTinv, (0, 2, 1)) @ G @ Tinv + Tinv.T @ dG @ Tinv + Tinv.T @ G @ dTinv
    dI = dT @ J @ Tinv + T @ J @ dTinv
    return dg, dI


def special_kahler_from_prepotential(
    prep: Prepotential, name="prepotential", seed=42, samples=100
) -> SpecialKahlerStructure:
    m = prep.m

    def q_of_z(z):
        jets = prep.jets(z)
        return np.concatenate([z.real, jets.gradient.real])

    # at a Darboux point q, two bundles: the values (z, g, I) after one Newton
    # inversion, and the derivatives (dg, dI) at the z the values hold
    values = point_bundle(lambda q: _values_at_z(*_newton_invert(prep, q)))
    derivatives = point_bundle(lambda q: _derivatives_at_z(prep, values(q)[0]))

    def sampler(count, rng):
        return np.array([q_of_z(z) for z in prep.sample_z(count, rng)])

    structure = SpecialKahlerStructure(
        name=name,
        m=m,
        metric=TensorField(2 * m, lambda q: values(q)[1], lambda q: derivatives(q)[0]),
        complex_structure=TensorField(2 * m, lambda q: values(q)[2], lambda q: derivatives(q)[1]),
        sampler=sampler,
        prepotential=prep,
        seed=seed,
        samples=samples,
    )
    for z in prep.sample_z(25, structure.rng(7)):
        if not is_positive_definite(prep.jets(z, order=2).hessian.imag):
            raise NotPositiveDefinite(z, "Im F'' not positive definite")
    require("prepotential structure", check_special_kahler_axioms(structure, samples=25))
    return structure


def special_kahler_from_config(config) -> SpecialKahlerStructure:
    """Direct configuration: explicit I components and potential over q1..q2m."""
    try:
        dim = config["dim"]
        require_count("dim", dim, 0)
        if dim < 2 or dim % 2:
            raise ConfigError(f"dim must be even and at least 2, got {dim}")
        m = dim // 2
        variables = [f"q{k + 1}" for k in range(dim)]
        if config.get("potential", "implicit") == "implicit":
            raise ConfigError("direct config needs an explicit potential")
        potential = parse_expression(config["potential"], variables)
        rows = [[parse_expression(text, variables) for text in row] for row in config["I"]]
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ConfigError(f"I must have {dim} rows of {dim} components")
        I = TensorField.from_components(rows)
        domain = Domain.from_config(config, variables)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad special-Kahler config: {exc}") from exc
    return SpecialKahlerStructure(
        name=config.get("name", "special_kahler"),
        m=m,
        metric=TensorField.from_potential(potential),
        complex_structure=I,
        sampler=lambda count, rng: domain.sample(count, rng),
        seed=require_count("seed", config.get("seed", 42), 0),
        samples=require_count("samples", config.get("samples", 100), 1),
    )


def prepotential_from_config(config) -> SpecialKahlerStructure:
    """Prepotential configuration {name, m, F, box, seed, samples}."""
    try:
        m = config["m"]
        require_count("m", m, 1)
        variables = [f"z{k + 1}" for k in range(m)]
        F = parse_expression(config["F"], variables, mode="complex")
        zbox = config_box(config, 2 * m)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad prepotential config: {exc}") from exc
    return special_kahler_from_prepotential(
        Prepotential(m, F, zbox),
        name=config.get("name", "prepotential"),
        seed=require_count("seed", config.get("seed", 42), 0),
        samples=require_count("samples", config.get("samples", 100), 1),
    )


def _rotations(sk):
    """The rotations cos t + sin t I of a constant I."""
    I = sk.complex_structure(sk.sample_points(1, salt=9)[0])
    return tuple(
        AffineAutomorphism.linear(np.cos(t) * np.eye(2) + np.sin(t) * I) for t in (0.3, -1.1, 2.0)
    )


# name: (m, F, box of (Re z, Im z), the holomorphic isometries B q + c of the
# structure); adding a preset is adding a row
SK_PRESETS = {
    "sk_flat": (1, "i*z1^2/2", [[-1.0, 1.0], [-1.0, 1.0]], _rotations),
    # z -> z + a: (u, v) -> (u + a, v + a u + a^2/2) in Darboux coordinates
    "sk_cubic": (
        1,
        "z1^3/6",
        [[-1.0, 1.0], [0.5, 1.5]],
        lambda sk: tuple(
            AffineAutomorphism(np.array([[1.0, 0.0], [a, 1.0]]), np.array([a, a * a / 2]))
            for a in (0.1, -0.2, 0.05)
        ),
    ),
    # the conic cubic-over-linear prepotential; the i factor places the positive
    # definite branch at z2/z1 ~ 1 (without it det Im F'' <= 0 identically);
    # (z1, z2) -> (mu^3 z1, mu z2) preserves F
    "sk_conic": (
        2,
        "i*z2^3/z1",
        [[0.9, 1.1], [0.9, 1.1], [-0.05, 0.05], [-0.05, 0.05]],
        lambda sk: tuple(
            AffineAutomorphism.linear(np.diag([mu**3, mu, mu**-3, mu**-1]))
            for mu in (1.02, 0.98, 1.01)
        ),
    ),
}
SK_PRESET_NAMES = tuple(SK_PRESETS)


def special_kahler_preset(name, seed=42, samples=100) -> SpecialKahlerStructure:
    if name not in SK_PRESETS:
        raise UnknownPreset(name)
    m, F, box, isometries = SK_PRESETS[name]
    structure = prepotential_from_config(
        {"name": name, "m": m, "F": F, "box": box, "seed": seed, "samples": samples}
    )
    structure.isometries = isometries(structure)
    return structure


# -- hyper-Kahler frame ----------------------------------------------------


class HyperKahlerFrame(NamedTuple):
    gc: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    I3: np.ndarray


def _frame(sk: SpecialKahlerStructure, q, derivative=False):
    """(g_c, I1, I2) at the base point q; with `derivative`, then (dg_c, dI1, dI2)
    along the n base coordinates of T*M (the rows along p, all zero, left out)."""
    q = np.asarray(q, dtype=float)
    g, I = sk.metric(q), sk.complex_structure(q)
    ginv = _inverse(g, "metric", "q", q)
    w = I.T @ g
    winv = _inverse(w, "w = I^T g", "q", q)
    frame = (blocks(g, 0, 0, ginv), blocks(I, 0, 0, I.T), blocks(0, -winv, w, 0))
    if not derivative:
        return frame
    dg, dI = sk.metric.derivative(q), sk.complex_structure.derivative(q)
    dIT = np.transpose(dI, (0, 2, 1))
    dw = dIT @ g + I.T @ dg  # w = I^T g
    dgc = blocks(dg, 0, 0, -ginv @ dg @ ginv)  # d(g^{-1}) = -g^{-1} dg g^{-1}
    dI1 = blocks(dI, 0, 0, dIT)
    dI2 = blocks(0, winv @ dw @ winv, dw, 0)  # d(-w^{-1}) = w^{-1} dw w^{-1}
    return (*frame, dgc, dI1, dI2)


def build_hyperkahler(sk: SpecialKahlerStructure, q, p=None) -> HyperKahlerFrame:
    """Frame matrices at (q, p); all tensors are independent of p."""
    gc, I1, I2 = _frame(sk, q)
    return HyperKahlerFrame(gc, I1, I2, I1 @ I2)


def _frame_fields(sk: SpecialKahlerStructure):
    """g_c and (I1, I2, I3) on T*M with exact derivatives.  A bundle per q holds (g_c, I1, I2)
    and their base rows; a read builds I3 = I1 I2, dI3 and the zero fiber rows, read-only."""
    at_q = point_bundle(lambda q: _frame(sk, q, derivative=True))

    def read(build):  # build(gc, I1, I2, dgc, dI1, dI2) from the entries at q
        def at(pt):
            out = build(*at_q(pt[..., : sk.dim]))
            out.setflags(write=False)
            return out

        return at

    def field(value, base_rows):
        return TensorField(2 * sk.dim, read(value), read(lambda *e: zero_fiber_rows(base_rows(*e))))

    gc, I1, I2 = (field(lambda *e, k=k: e[k], lambda *e, k=k: e[k + 3]) for k in range(3))
    I3 = field(
        lambda gc, I1, I2, *_: I1 @ I2,
        lambda gc, I1, I2, dgc, dI1, dI2: dI1 @ I2[..., None, :, :] + I1[..., None, :, :] @ dI2,
    )
    return gc, (I1, I2, I3)


def _kahler_form(gc: TensorField, Ik: TensorField) -> TensorField:
    """w_k = I_k^T g_c, differentiated by the product rule."""
    return TensorField(
        gc.dim,
        lambda x: Ik(x).swapaxes(-1, -2) @ gc(x),
        lambda x: Ik.derivative(x).swapaxes(-1, -2) @ gc(x)[..., None, :, :]
        + Ik(x).swapaxes(-1, -2)[..., None, :, :] @ gc.derivative(x),
    )


# -- checks ----------------------------------------------------------------


SK_AXIOMS = (
    ("sk_complex_structure", "I(q)^2 = -Id"),
    ("sk_hermitian", "g(I., I.) = g"),
    ("sk_integrable", "Nijenhuis tensor of I vanishes"),
    ("sk_omega_parallel", "omega = g(I., .) has constant components lambda * Omega"),
    ("sk_hessian", "d_k g_ij is totally symmetric (g is Hessian for the flat connection)"),
)


def check_special_kahler_axioms(sk: SpecialKahlerStructure, samples=None) -> List[CheckResult]:
    """The `SK_AXIOMS` at each sample; raises `NotPositiveDefinite` at the
    first sample where g is not positive definite."""
    w_const, eye = sk.omega_constant(), np.eye(sk.dim)

    def defects(q):
        g, I = sk.metric(q), sk.complex_structure(q)
        IT = I.swapaxes(-1, -2)
        out = (
            max_abs(I @ I + eye),
            max_abs(IT @ g @ I - g),
            max_abs(nijenhuis(sk.complex_structure, q), 3),
            max_abs(IT @ g - w_const),
            symmetry_defect(sk.metric.derivative(q)),
        )
        if not is_positive_definite(g):
            raise NotPositiveDefinite(q)
        return out

    each = first_failure(defects, sk.sample_points(samples))
    return [measured(check_id, claim, 1e-6, d) for (check_id, claim), d in zip(SK_AXIOMS, each)]


def check_hyperkahler(sk: SpecialKahlerStructure, samples=None) -> List[CheckResult]:
    n = sk.dim
    points = bundle_sample_points(sk, samples, 0, FIBER_SALT)
    gc_field, I_fields = sk.frame
    gc, (I1, I2, I3) = gc_field(points), (Ik(points) for Ik in I_fields)
    eye = np.eye(2 * n)
    shift = -1.0 + 2.0 * sk.rng(31).random((len(points), n))
    shifted = np.concatenate([points[:, :n], points[:, n:] + shift], axis=1)
    closed = largest(
        *(max_abs(exterior_derivative_2form(_kahler_form(gc_field, Ik), points[:20]), 3)
          for Ik in I_fields)
    )
    return [
        measured(
            "hk_quaternion",
            "I1, I2, I3 = I1 I2 satisfy the quaternion relations",
            1e-8,
            largest(
                *(max_abs(Ik @ Ik + eye) for Ik in (I1, I2, I3)),
                max_abs(I1 @ I2 - I3),
                max_abs(I2 @ I1 + I3),
            ),
        ),
        measured(
            "hk_hermitian",
            "g_c is Hermitian for each of I1, I2, I3",
            1e-8,
            largest(*(max_abs(Ik.swapaxes(-1, -2) @ gc @ Ik - gc) for Ik in (I1, I2, I3))),
        ),
        measured(
            "hk_closed_forms",
            "the three Kahler forms g_c(I_k ., .) are closed on T*M",
            1e-5,
            closed,
        ),
        measured(
            "hk_fiber_shift",
            "the frame is exactly invariant under fiber translations",
            1e-12,
            largest(max_abs(gc_field(shifted) - gc), max_abs(I_fields[2](shifted) - I3)),
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
    gc_field, I_fields = sk.frame
    return measured(
        "hk_psi_hat_invariance",
        "the frame is invariant under lifted holomorphic isometries",
        1e-8,
        invariance_defect(
            lift_automorphisms(automorphisms, lambda A: np.linalg.inv(A).T, fiber_shifts),
            bundle_sample_points(sk, samples, 0, FIBER_SALT),
            (gc_field,),
            I_fields,
            floor=1.0,
        ),
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
    winv = _inverse(w, "w = I^T g = lambda Omega", "lambda", sk.omega_scale)
    X = lift_field(ss.xi, w @ ss.xi.A @ winv, np.zeros(sk.dim))
    qs = sk.sample_points(samples)
    pts = bundle_sample_points(sk, samples, 0, FIBER_SALT)
    gc_field, I_fields = sk.frame
    return [
        measured(
            "chk_base_homothety",
            "L_xi g = 2 g on the base",
            1e-5,
            flow_defect(ss.xi, qs, (sk.metric,), factor=2.0),
        ),
        measured(
            "chk_base_holomorphic",
            "L_xi I = 0 on the base",
            1e-5,
            flow_defect(ss.xi, qs, endomorphisms=(sk.complex_structure,)),
        ),
        measured(
            "chk_norm_homothety",
            "L_{xi1+xi2} (pi^* g(xi,xi)) = 2 pi^* g(xi,xi)",
            1e-5,
            norm_homothety_defect(ss, pts),
        ),
        measured(
            "chk_metric_flow",
            "L_{xi1+xi2} g_chK = 0 for g_chK = g(xi,xi)^{-1} g_c",
            1e-5,
            flow_defect(X, pts, (conformal_rescaling(ss, gc_field),)),
        ),
        measured(
            "chk_complex_structures_flow",
            "L_{xi1+xi2} I_k = 0 for k = 1, 2, 3",
            1e-5,
            flow_defect(X, pts, endomorphisms=I_fields),
        ),
        measured(
            "chk_unscaled_negative_control",
            "without the conformal factor L_{xi1+xi2} g_c = 2 g_c exactly",
            1e-5,
            flow_defect(X, pts, (gc_field,), factor=2.0),
        ),
    ]
