"""Validated Hessian and selfsimilar Hessian structures on open domains.

A structure bundles a flat chart (the coordinates themselves), an open domain
cut out by strict inequalities inside a sampling box, and a potential.  The
metric is the coordinate Hessian of the potential; validation samples the
domain and checks positive definiteness and the stated identities.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    EmptyDomainSample,
    NonpositiveNorm,
    NotPositiveDefinite,
)
from .expressions import ScalarExpression, parse_expression
from .report import measured, require
from .tensors import (
    TensorField,
    VectorFieldSpec,
    flow_defect,
    is_positive_definite,
    symmetry_defect,
)

__all__ = [
    "Domain",
    "HessianStructure",
    "SelfsimilarHessianStructure",
    "make_hessian_structure",
    "require_count",
    "config_box",
    "check_hessian",
    "check_selfsimilar",
    "norm_squared",
    "norm_gradient",
    "conformal_rescaling",
    "norm_homothety_defect",
]

DEFAULT_SAMPLES = 100
DOMAIN_MARGIN = 1e-3


class Domain(NamedTuple):
    """Open set {expr > 0 for all inequalities} sampled from a bounding box."""

    inequalities: Tuple[ScalarExpression, ...]
    box: np.ndarray  # (n, 2) rows [lo, hi]
    margin: float = DOMAIN_MARGIN

    @classmethod
    def from_config(cls, config, variables):
        """The domain of a config: its `domain` inequalities over `variables`
        and its `box`, which must hold one row [lo, hi] per variable."""
        inequalities = tuple(parse_expression(text, variables) for text in config.get("domain", []))
        return cls(inequalities, config_box(config, len(variables)))

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


class HessianStructure:
    """Flat chart + domain + potential; g = Hess(potential) unless `metric` is given."""

    def __init__(self, name, dim, potential, domain, seed=42, samples=DEFAULT_SAMPLES, metric=None):
        self.name, self.dim, self.potential, self.domain = name, dim, potential, domain
        self.seed, self.samples = seed, samples
        self.metric = TensorField.from_potential(potential) if metric is None else metric

    def rng(self, salt=0):
        return np.random.default_rng([self.seed, salt])

    def sample_points(self, count=None, salt=0):
        return self.domain.sample(count or self.samples, self.rng(salt))

    def validate(self):
        """Runs `check_hessian`; raises on a failed entry."""
        require(self.name, check_hessian(self))
        return self


class SelfsimilarHessianStructure(NamedTuple):
    """A Hessian (or special Kahler) base plus an affine field xi with
    L_xi g = 2 g and g(xi, xi) > 0, which `validate` checks at the base's
    samples."""

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

    def validate(self):
        """Runs `check_selfsimilar`; raises on a failed entry."""
        require(self.base.name, [check_selfsimilar(self.base, self.xi)])
        return self


def check_hessian(structure: HessianStructure, samples=None):
    """Positive definiteness of the metric and total symmetry of its
    derivative at samples; raises `NotPositiveDefinite` at the first sample
    where `is_positive_definite` fails."""
    negative, asymmetric = [], []  # -lambda_min and the symmetry defect per sample
    for p in structure.sample_points(samples):
        H = structure.metric(p)
        if not is_positive_definite(H):
            raise NotPositiveDefinite(p, f"Hess({structure.name}) not positive definite")
        negative.append(-np.min(np.linalg.eigvalsh(H)))
        asymmetric.append(symmetry_defect(structure.metric.derivative(p)))
    return [
        measured(
            "hessian_positive_definite",
            "the metric is positive definite on the sampled domain",
            1e-10,
            np.maximum(0.0, negative),
        ),
        measured(
            "hessian_symmetry",
            "d_k g_ij is totally symmetric (g is locally a Hessian)",
            1e-8,
            asymmetric,
        ),
    ]


def check_selfsimilar(structure, xi: VectorFieldSpec, samples=None):
    """Max over samples of ||L_xi g - 2 g||_inf, for a Hessian or a special
    Kahler structure; raises `NonpositiveNorm` at the first sample where
    g(xi, xi) <= 0."""
    points = structure.sample_points(samples)
    ss = SelfsimilarHessianStructure(structure, xi)
    for p in points:
        norm_squared(ss, p)
    return measured(
        "selfsimilar_metric",
        "L_xi g = 2 g for the affine homothetic field xi",
        1e-8,
        flow_defect(xi, points, (structure.metric,), factor=2.0),
    )


# -- the conformal rescaling, shared by TM and T*M ----------------------------
#
# `s` is a `SelfsimilarHessianStructure`, over a Hessian or a special Kahler
# base; a field T on the bundle takes points (x, y) whose first half x is the
# base point.


def norm_squared(s, p, check=True):
    """g(xi, xi) at p, or at each of a batch of points; strictly positive on a
    valid structure."""
    p = np.asarray(p, dtype=float)
    v = s.xi.value(p)
    value = ((v[..., None, :] @ s.metric(p)) @ v[..., None])[..., 0, 0]
    value = value if value.ndim else float(value)
    if check and np.any(value <= 0.0):
        raise NonpositiveNorm(f"g(xi, xi) = {value} at {p}")
    return value


def norm_gradient(s, p):
    """d_k g(xi, xi), the derivative of the scalar field g(xi, xi): exactly
    2 (J^T g xi)_k + dg[k](xi, xi), J the Jacobian of xi."""
    p = np.asarray(p, dtype=float)
    v = s.xi.value(p)
    dg = np.einsum("...i,...j,...kij->...k", v, v, s.metric.derivative(p))
    return 2.0 * (s.xi.jacobian(p).T @ (s.metric(p) @ v[..., None]))[..., 0] + dg


def conformal_rescaling(s, T: TensorField) -> TensorField:
    """f T with f = 1 / pi^* g(xi, xi), differentiated as f dT + df (x) T
    with df = -f^2 dN."""
    n = T.dim // 2

    def func(p):
        return np.asarray(1.0 / norm_squared(s, p[..., :n]))[..., None, None] * T(p)

    def dfunc(p):
        x = p[..., :n]
        f = np.asarray(1.0 / norm_squared(s, x))[..., None]
        df = np.concatenate([-f * f * norm_gradient(s, x), np.zeros(x.shape)], axis=-1)
        return f[..., None, None] * T.derivative(p) + np.einsum("...k,...ij->...kij", df, T(p))

    return TensorField(T.dim, func, dfunc)


def norm_homothety_defect(s, points):
    """|L_X N - 2 N| at each bundle point (x, y), for N = pi^* g(xi, xi) and a
    lifted field X that moves x along xi."""
    return np.array(
        [abs(float(s.xi.value(x) @ norm_gradient(s, x)) - 2.0 * norm_squared(s, x))
         for x in np.asarray(points, dtype=float)[:, : s.dim]]
    )


# -- configuration ---------------------------------------------------------


def require_count(what, value, least):
    """`value`; raises ConfigError unless it is an integer of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{what} must be at least {least}, got {value}")
    return value


def config_box(config, rows):
    """The config's `box`: `rows` rows [lo, hi] of finite bounds with lo < hi."""
    box = np.asarray(config["box"], dtype=float)
    if box.shape != (rows, 2):
        raise ConfigError(f"box must be {rows} rows of [lo, hi]")
    if not (np.all(np.isfinite(box)) and np.all(box[:, 0] < box[:, 1])):
        raise ConfigError(f"box bounds must be finite with lo < hi, got {box.tolist()}")
    return box


def make_hessian_structure(config) -> HessianStructure:
    """Build and validate a structure from a geometry-config mapping.

    Schema: {name, dim, potential, domain: [expr...], box: [[lo,hi]...],
    field: [expr...] (optional), field_affine: {A, b} (optional), seed, samples}.
    """
    try:
        dim = config["dim"]
        require_count("dim", dim, 1)
        variables = [f"x{k + 1}" for k in range(dim)]
        potential = parse_expression(config["potential"], variables)
        domain = Domain.from_config(config, variables)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad geometry config: {exc}") from exc
    structure = HessianStructure(
        name=config.get("name", "geometry"),
        dim=dim,
        potential=potential,
        domain=domain,
        seed=require_count("seed", config.get("seed", 42), 0),
        samples=require_count("samples", config.get("samples", DEFAULT_SAMPLES), 1),
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
        jets = [c.jet3(p, order=2) for c in components]
        if np.max(np.abs([jet.hessian for jet in jets])) > 1e-10:
            raise ConfigError("field is not affine (component Hessians do not vanish)")
        values = np.array([jet.value for jet in jets])
        if xi is None:
            A = np.array([jet.gradient for jet in jets])
            xi = VectorFieldSpec(A, values - A @ p)
        if np.max(np.abs(values - xi.value(p))) > 1e-12:
            raise ConfigError(f"field disagrees with field_affine at {p}")
    return xi
