"""Validated Hessian and selfsimilar Hessian structures on open domains.

A structure bundles a flat chart (the coordinates themselves), an open domain
cut out by strict inequalities inside a sampling box, and a potential.  The
metric is the coordinate Hessian of the potential; validation samples the
domain and checks positive definiteness and the stated identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    EmptyDomainSample,
    NonpositiveNorm,
    NotPositiveDefinite,
)
from .expressions import ScalarExpression, parse_expression
from .report import CheckResult
from .tensors import (
    Residual,
    TensorField,
    VectorFieldSpec,
    is_positive_definite,
    lie_derivative_metric,
    symmetry_defect,
)

__all__ = [
    "Domain",
    "HessianStructure",
    "SelfsimilarHessianStructure",
    "make_hessian_structure",
    "check_selfsimilar",
    "norm_squared",
    "norm_gradient",
    "conformal_rescaling",
    "conformal_flow_residuals",
]

DEFAULT_SAMPLES = 100
DOMAIN_MARGIN = 1e-3


@dataclass(frozen=True)
class Domain:
    """Open set {expr > 0 for all inequalities} sampled from a bounding box."""

    inequalities: Tuple[ScalarExpression, ...]
    box: np.ndarray  # (n, 2) rows [lo, hi]
    margin: float = DOMAIN_MARGIN

    @property
    def dim(self):
        return self.box.shape[0]

    def contains(self, p, margin=None):
        margin = self.margin if margin is None else margin
        try:
            return all(ineq(p) > margin for ineq in self.inequalities)
        except DomainError:
            return False

    def sample(self, count, rng, max_tries=10000):
        """Rejection-sample `count` interior points; resample, never skip.
        Gives up after `max_tries` draws in a row outside the domain."""
        lo, hi = self.box[:, 0], self.box[:, 1]
        points, misses = [], 0
        while len(points) < count:
            p = lo + (hi - lo) * rng.random(self.dim)
            if self.contains(p):
                points.append(p)
                misses = 0
                continue
            misses += 1
            if misses == max_tries:
                raise EmptyDomainSample(
                    f"only {len(points)}/{count} domain points found in the bounding "
                    f"box: {max_tries} draws in a row missed the domain"
                )
        return np.array(points)


@dataclass(frozen=True)
class HessianStructure:
    """Flat chart + domain + potential; g = Hess(potential)."""

    name: str
    dim: int
    potential: ScalarExpression
    domain: Domain
    seed: int = 42
    samples: int = DEFAULT_SAMPLES
    metric: TensorField = None

    def __post_init__(self):
        if self.metric is None:
            object.__setattr__(
                self, "metric", TensorField.from_potential(self.potential)
            )

    @property
    def variables(self):
        return self.potential.variables

    def rng(self, salt=0):
        return np.random.default_rng([self.seed, salt])

    def sample_points(self, count=None, salt=0):
        return self.domain.sample(count or self.samples, self.rng(salt))

    def validate(self):
        """PD of Hess(potential) and total symmetry of its derivative at samples."""
        points = self.sample_points()
        for p in points:
            H = self.metric(p)
            if not is_positive_definite(H):
                raise NotPositiveDefinite(p, f"Hess({self.name}) not positive definite")
            defect = symmetry_defect(self.metric.derivative(p))
            if not defect <= 1e-8:
                raise ConfigError(
                    f"potential-generated metric derivative not symmetric ({defect:.2e})"
                )
        return self


@dataclass(frozen=True)
class SelfsimilarHessianStructure:
    """A Hessian (or special Kahler) base plus an affine field xi with
    L_xi g = 2 g, which `validate` checks at the base's samples."""

    base: HessianStructure
    xi: VectorFieldSpec

    @property
    def metric(self):
        return self.base.metric

    @property
    def dim(self):
        return self.base.dim

    @property
    def seed(self):
        return self.base.seed

    @property
    def domain(self):
        return self.base.domain

    def validate(self):
        for p in self.base.sample_points():
            L = lie_derivative_metric(self.metric, self.xi, p)
            if np.max(np.abs(L - 2.0 * self.metric(p))) > 1e-8:
                raise ConfigError(f"L_xi g != 2 g at {p}")
            norm_squared(self, p)  # raises NonpositiveNorm when <= 0
        return self


def check_selfsimilar(structure: HessianStructure, xi: VectorFieldSpec, samples=None):
    """Max over samples of ||L_xi g - 2 g||_inf."""
    points = structure.sample_points(samples)
    residual = Residual()
    for p in points:
        L = lie_derivative_metric(structure.metric, xi, p)
        residual.add_max_abs(L - 2.0 * structure.metric(p))
    return CheckResult(
        check_id="selfsimilar_metric",
        claim="L_xi g = 2 g for the affine homothetic field xi",
        residual=residual.value,
        tolerance=1e-8,
        samples=len(points),
    )


# -- the conformal rescaling, shared by TM and T*M ----------------------------
#
# `s` is a `SelfsimilarHessianStructure`, over a Hessian or a special Kahler
# base; a field T on the bundle takes points (x, y) whose first half x is the
# base point.


def norm_squared(s, p, check=True):
    """g(xi, xi) at p; strictly positive on a valid structure."""
    p = np.asarray(p, dtype=float)
    v = s.xi.value(p)
    value = float(v @ s.metric(p) @ v)
    if check and value <= 0.0:
        raise NonpositiveNorm(f"g(xi, xi) = {value} at {p}")
    return value


def norm_gradient(s, p):
    """d_k g(xi, xi), the derivative of the scalar field g(xi, xi): exactly
    2 (J^T g xi)_k + dg[k](xi, xi), J the Jacobian of xi."""

    def exact(x):
        v, D = s.xi.value(x), s.metric.derivative(x)
        return 2.0 * (s.xi.jacobian(x).T @ (s.metric(x) @ v)) + np.einsum("i,j,kij->k", v, v, D)

    return TensorField(s.dim, lambda q: norm_squared(s, q, check=False), exact).derivative(p)


def conformal_rescaling(s, T: TensorField) -> TensorField:
    """f T with f = 1 / pi^* g(xi, xi), differentiated as f dT + df (x) T
    with df = -f^2 dN."""
    n = T.dim // 2

    def func(p):
        return (1.0 / norm_squared(s, p[:n])) * T(p)

    def dfunc(p):
        f = 1.0 / norm_squared(s, p[:n])
        df = np.concatenate([-f * f * norm_gradient(s, p[:n]), np.zeros(n)])
        return f * T.derivative(p) + np.einsum("k,ij->kij", df, T(p))

    return TensorField(T.dim, func, dfunc)


def conformal_flow_residuals(s, X, T: TensorField, points):
    """Residuals over bundle points of the flow of the lifted field X, which
    moves the base point along xi: (|L_X N - 2 N| for N = pi^* g(xi, xi),
    |L_X (T / N)|, the unscaled control |L_X T - 2 T|)."""
    n = T.dim // 2
    rescaled = conformal_rescaling(s, T)
    res_norm, res_flow, res_control = Residual(), Residual(), Residual()
    for p in points:
        x = p[:n]
        lie_norm = float(s.xi.value(x) @ norm_gradient(s, x))
        res_norm.add(abs(lie_norm - 2.0 * norm_squared(s, x)))
        res_flow.add_max_abs(lie_derivative_metric(rescaled, X, p))
        res_control.add_max_abs(lie_derivative_metric(T, X, p) - 2.0 * T(p))
    return res_norm.value, res_flow.value, res_control.value


# -- configuration ---------------------------------------------------------


def make_hessian_structure(config) -> HessianStructure:
    """Build and validate a structure from a geometry-config mapping.

    Schema: {name, dim, potential, domain: [expr...], box: [[lo,hi]...],
    field: [expr...] (optional), field_affine: {A, b} (optional), seed, samples}.
    """
    try:
        name = config.get("name", "geometry")
        dim = int(config["dim"])
        variables = [f"x{k + 1}" for k in range(dim)]
        potential = parse_expression(config["potential"], variables)
        inequalities = tuple(
            parse_expression(text, variables) for text in config.get("domain", [])
        )
        box = np.asarray(config["box"], dtype=float)
        if box.shape != (dim, 2):
            raise ConfigError(f"box must be {dim} rows of [lo, hi]")
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad geometry config: {exc}") from exc
    structure = HessianStructure(
        name=name,
        dim=dim,
        potential=potential,
        domain=Domain(inequalities, box),
        seed=int(config.get("seed", 42)),
        samples=int(config.get("samples", DEFAULT_SAMPLES)),
    )
    return structure.validate()


def field_from_config(config, structure: HessianStructure) -> Optional[VectorFieldSpec]:
    """The affine field xi = A x + b of a config: `field_affine` {A, b}, or
    `field` components, or both.  Components are certified affine at 20
    samples (their Hessians vanish) and must agree there with `field_affine`."""
    dim = structure.dim
    xi = None
    if "field_affine" in config:
        try:
            xi = VectorFieldSpec(
                *(np.asarray(config["field_affine"][key], dtype=float) for key in ("A", "b"))
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad field_affine: {exc!r}") from exc
        if xi.A.shape != (dim, dim) or xi.b.shape != (dim,):
            raise ConfigError(f"field_affine needs a {dim}x{dim} A and a length-{dim} b")
    if "field" not in config:
        return xi
    variables = [f"x{k + 1}" for k in range(dim)]
    components = [parse_expression(text, variables) for text in config["field"]]
    if len(components) != dim:
        raise ConfigError(f"field must have {dim} components")
    for p in structure.sample_points(20, salt=1):
        jets = [c.jet3(p) for c in components]
        if np.max(np.abs([jet.hessian for jet in jets])) > 1e-10:
            raise ConfigError("field is not affine (component Hessians do not vanish)")
        values = np.array([jet.value for jet in jets])
        if xi is None:
            A = np.array([jet.gradient for jet in jets])
            xi = VectorFieldSpec(A, values - A @ p)
        if np.max(np.abs(values - xi.value(p))) > 1e-12:
            raise ConfigError(f"field disagrees with field_affine at {p}")
    return xi
