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
    fd_gradient,
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
        """Rejection-sample `count` interior points; resample, never skip."""
        lo, hi = self.box[:, 0], self.box[:, 1]
        points = []
        for _ in range(max_tries):
            p = lo + (hi - lo) * rng.random(self.dim)
            if self.contains(p):
                points.append(p)
                if len(points) == count:
                    return np.array(points)
        if not points:
            raise EmptyDomainSample(
                "no domain point found in the bounding box after "
                f"{max_tries} draws"
            )
        raise EmptyDomainSample(
            f"only {len(points)}/{count} domain points found in the bounding box"
        )


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
    """Hessian structure plus an affine field xi with L_xi g = 2 g."""

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

    def validate(self, tol=1e-8):
        points = self.base.sample_points(20, salt=1)
        if not self.xi.is_affine_certified(points):
            raise ConfigError("field is not affine (component Hessians do not vanish)")
        for p in self.base.sample_points():
            L = lie_derivative_metric(self.metric, self.xi, p)
            if np.max(np.abs(L - 2.0 * self.metric(p))) > tol:
                raise ConfigError(f"L_xi g != 2 g at {p}")
            norm_squared(self, p)  # raises NonpositiveNorm when <= 0
        return self

    def norm_gradient(self, p, fd=False):
        """Gradient of g(xi, xi); analytic from the potential jets unless fd."""
        p = np.asarray(p, dtype=float)
        if fd:
            return fd_gradient(lambda q: norm_squared(self, q, check=False), p)
        g = self.metric(p)
        D = self.metric.derivative(p)
        v = self.xi.value(p)
        J = self.xi.jacobian(p)
        return 2.0 * (J.T @ (g @ v)) + np.einsum("i,j,kij->k", v, v, D)


def norm_squared(structure: SelfsimilarHessianStructure, p, check=True):
    """g(xi, xi) at p; strictly positive on a valid structure."""
    p = np.asarray(p, dtype=float)
    v = structure.xi.value(p)
    value = float(v @ structure.metric(p) @ v)
    if check and value <= 0.0:
        raise NonpositiveNorm(f"g(xi, xi) = {value} at {p}")
    return value


def check_selfsimilar(
    structure: HessianStructure,
    xi: VectorFieldSpec,
    samples=None,
    tolerance=1e-8,
    fd=False,
):
    """Max over samples of ||L_xi g - 2 g||_inf."""
    points = structure.sample_points(samples)
    if not xi.is_affine_certified(points[: min(len(points), 20)]):
        raise ConfigError("field is not affine (component Hessians do not vanish)")
    residual = Residual()
    for p in points:
        L = lie_derivative_metric(structure.metric, xi, p, fd=fd)
        residual.add_max_abs(L - 2.0 * structure.metric(p))
    return CheckResult(
        check_id="selfsimilar_metric",
        claim="L_xi g = 2 g for the affine homothetic field xi",
        residual=residual.value,
        tolerance=tolerance,
        samples=len(points),
    )


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


def field_from_config(config, dim) -> Optional[VectorFieldSpec]:
    variables = [f"x{k + 1}" for k in range(dim)]
    components = None
    if "field" in config:
        components = tuple(
            parse_expression(text, variables) for text in config["field"]
        )
        if len(components) != dim:
            raise ConfigError(f"field must have {dim} components")
    affine = None
    if "field_affine" in config:
        affine = (config["field_affine"]["A"], config["field_affine"]["b"])
    if components is None and affine is None:
        return None
    if components is None:
        return VectorFieldSpec.from_affine(*affine)
    return VectorFieldSpec.from_components(components, affine)


def structure_to_config(structure: HessianStructure, xi=None):
    config = {
        "name": structure.name,
        "dim": structure.dim,
        "potential": structure.potential.serialize(),
        "domain": [ineq.serialize() for ineq in structure.domain.inequalities],
        "box": structure.domain.box.tolist(),
        "seed": structure.seed,
        "samples": structure.samples,
    }
    if xi is not None:
        if xi.components is not None:
            config["field"] = [c.serialize() for c in xi.components]
        if xi.affine is not None:
            config["field_affine"] = {
                "A": xi.affine[0].tolist(),
                "b": xi.affine[1].tolist(),
            }
    return config
