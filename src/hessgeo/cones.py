"""Built-in homogeneous regular convex cones.

Each preset is one row of `CONES`: a closed-form characteristic potential phi
over x1..xn (constant normalized to 1), homogeneous of degree -n, the
inequalities that cut the cone out of a sampling box, and a sampler of
automorphisms (full group and the unimodular subgroup).  A preset carries its
seed and its one `Domain`, and builds the canonical metric g_can = Hess(ln phi)
and the conical metric g_con = Hess(phi) on that domain, and the selfsimilar
structure (g_con, xi); each once, validated, on first use.  rho = sum x^i
d/dx^i is the radiant field.  Adding a preset is adding a row.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from .errors import UnknownPreset
from .expressions import parse_expression
from .report import measured
from .structures import Domain, HessianStructure, SelfsimilarHessianStructure
from .tensors import (
    AffineAutomorphism,
    VectorFieldSpec,
    flow_defect,
    invariance_defect,
)

__all__ = ["ConePreset", "preset", "CONES", "PRESET_NAMES", "dilation_law", "radiant_law",
           "automorphism_samples"]


class ConePreset:
    """A cone's characteristic potential, its `Domain` (shared by g_can and
    g_con), its automorphism sampler (count, rng, unimodular) -> a list of
    `AffineAutomorphism`, and its seed."""

    def __init__(self, name, phi_char, domain, sample_automorphisms, seed=42):
        self.name, self.phi_char, self.domain, self.seed = name, phi_char, domain, seed
        self.sample_automorphisms = sample_automorphisms

    @property
    def dim(self):
        return len(self.phi_char.variables)

    @property
    def rho(self):
        return VectorFieldSpec.from_affine(np.eye(self.dim))

    def hessian_structure(self, metric="can", seed=42, samples=100):
        """The validated Hessian structure for g_can (ln phi) or g_con (phi)."""
        phi = CONES[self.name][0]
        potential = {"can": f"ln({phi})", "con": phi}.get(metric)
        if potential is None:
            raise ValueError(f"metric must be 'can' or 'con', got {metric!r}")
        potential = parse_expression(potential, self.phi_char.variables)
        return HessianStructure(
            f"{self.name}_g{metric}", self.dim, potential, self.domain, seed, samples
        ).validate()

    @cached_property
    def can(self):
        return self.hessian_structure("can", seed=self.seed)

    @cached_property
    def con(self):
        return self.hessian_structure("con", seed=self.seed)

    @cached_property
    def selfsimilar(self):
        """(V, g_con, xi) with xi = -(2/n) rho."""
        xi = VectorFieldSpec.from_affine(-(2.0 / self.dim) * np.eye(self.dim))
        return SelfsimilarHessianStructure(self.con, xi).validate()


# -- automorphism samplers: (count, rng, unimodular) -> AffineAutomorphisms --


def _orthant_automorphisms(n, count, rng, unimodular):
    autos = []
    for _ in range(count):
        d = np.exp(rng.uniform(-0.7, 0.7, size=n))
        if unimodular:
            d /= np.prod(d) ** (1.0 / n)
        perm = np.eye(n)[rng.permutation(n)]
        autos.append(AffineAutomorphism.linear(perm @ np.diag(d)))
    return autos


def _lorentz_automorphisms(count, rng, unimodular):
    autos = []
    for _ in range(count):
        theta = rng.uniform(-np.pi, np.pi)
        t = rng.uniform(-0.4, 0.4)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
        ch, sh = np.cosh(t), np.sinh(t)
        boost = np.array([[ch, sh, 0], [sh, ch, 0], [0, 0, 1]], dtype=float)
        A = boost @ rot
        if not unimodular:
            A = np.exp(rng.uniform(-0.3, 0.3)) * A
        autos.append(AffineAutomorphism.linear(A))
    return autos


def _congruence_matrix(G):
    """Action of X -> G^T X G on the chart (a, b, c) of [[a, b], [b, c]]."""
    p, qq = G[0]
    r, s = G[1]
    # derived once symbolically from G^T [[a,b],[b,c]] G
    return np.array(
        [
            [p * p, 2 * p * r, r * r],
            [p * qq, qq * r + p * s, r * s],
            [qq * qq, 2 * qq * s, s * s],
        ]
    )


def _spd2_automorphisms(count, rng, unimodular):
    autos = []
    while len(autos) < count:
        G = rng.normal(size=(2, 2)) * 0.7 + np.eye(2)
        d = np.linalg.det(G)
        if abs(d) < 0.3:
            continue
        if unimodular:
            G = G / np.sqrt(abs(d))
        autos.append(AffineAutomorphism.linear(_congruence_matrix(G)))
    return autos


# name: (phi, inequalities, box, automorphism sampler); spd2 charts the
# symmetric matrix [[a, b], [b, c]] as (x1, x2, x3) = (a, b, c)
CONES = {
    "orthant2": ("1/(x1*x2)", ("x1", "x2"), [[0.5, 2.0]] * 2, partial(_orthant_automorphisms, 2)),
    "orthant3": (
        "1/(x1*x2*x3)", ("x1", "x2", "x3"), [[0.5, 2.0]] * 3, partial(_orthant_automorphisms, 3)
    ),
    "lorentz3": (
        "(x1^2-x2^2-x3^2)^(-1.5)",
        ("x1^2-x2^2-x3^2", "x1"),
        [[1.5, 2.5], [-0.7, 0.7], [-0.7, 0.7]],
        _lorentz_automorphisms,
    ),
    "spd2": (
        "(x1*x3-x2^2)^(-1.5)",
        ("x1", "x1*x3-x2^2"),
        [[0.8, 2.0], [-0.5, 0.5], [0.8, 2.0]],
        _spd2_automorphisms,
    ),
}
PRESET_NAMES = tuple(CONES)


def preset(name, seed=42) -> ConePreset:
    if name not in CONES:
        raise UnknownPreset(name)
    phi, inequalities, box, sample = CONES[name]
    variables = [f"x{k + 1}" for k in range(len(box))]
    domain = Domain.from_config({"domain": inequalities, "box": box}, variables)
    return ConePreset(name, parse_expression(phi, variables), domain, sample, seed)


def automorphism_samples(cone: ConePreset, count=20, unimodular=False):
    rng = np.random.default_rng([cone.seed, 17])
    return cone.sample_automorphisms(count, rng, unimodular)


# -- verified laws ---------------------------------------------------------


def dilation_law(cone: ConePreset, q, samples=50):
    """Relative defect of lambda_q^* g_con = q^{-n} g_con."""
    return measured(
        f"dilation_law_q{q}",
        f"pullback of g_con under x -> {q} x equals {q}^(-n) g_con",
        1e-8,
        invariance_defect(
            [AffineAutomorphism.linear(q * np.eye(cone.dim))],
            cone.con.sample_points(samples),
            (cone.con.metric,),
            factor=q ** (-cone.dim),
        ),
    )


def radiant_law(cone: ConePreset, samples=50):
    """||L_rho g_con + n g_con||_inf at each sample."""
    points = cone.con.sample_points(samples)
    return measured(
        "radiant_law",
        "L_rho g_con = -n g_con for the radiant field rho",
        1e-8,
        flow_defect(cone.rho, points, (cone.con.metric,), factor=-cone.dim),
    )
