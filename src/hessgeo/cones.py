"""Built-in homogeneous regular convex cones.

Each preset carries a closed-form characteristic potential phi (constant
normalized to 1), homogeneous of degree -n, the canonical metric
g_can = Hess(ln phi), the conical metric g_con = Hess(phi), the radiant field
rho = sum x^i d/dx^i, and samplers for automorphisms (full group and the
unimodular subgroup).  A preset carries its seed and builds g_can, g_con and
the selfsimilar structure (g_con, xi) once, validated, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, List

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

__all__ = ["ConePreset", "preset", "PRESET_NAMES", "dilation_law", "radiant_law",
           "automorphism_samples"]

PRESET_NAMES = ("orthant2", "orthant3", "lorentz3", "spd2")


@dataclass(frozen=True)
class ConePreset:
    name: str
    dim: int
    phi_char: "ScalarExpression"
    domain: Domain
    rho: VectorFieldSpec
    sample_automorphisms: Callable[[int, np.random.Generator, bool], List[AffineAutomorphism]]
    seed: int = 42

    @property
    def variables(self):
        return self.phi_char.variables

    def hessian_structure(self, metric="can", seed=42, samples=100):
        """The validated Hessian structure for g_can (ln phi) or g_con (phi)."""
        if metric == "can":
            text = f"ln({self.phi_char.serialize()})"
        elif metric == "con":
            text = self.phi_char.serialize()
        else:
            raise ValueError(f"metric must be 'can' or 'con', got {metric!r}")
        potential = parse_expression(text, self.variables)
        return HessianStructure(
            name=f"{self.name}_g{metric}",
            dim=self.dim,
            potential=potential,
            domain=self.domain,
            seed=seed,
            samples=samples,
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


def _orthant(n):
    variables = [f"x{k + 1}" for k in range(n)]
    phi = parse_expression("1/(" + "*".join(variables) + ")", variables)
    inequalities = tuple(parse_expression(v, variables) for v in variables)
    box = np.array([[0.5, 2.0]] * n)

    def sample(count, rng, unimodular):
        autos = []
        for _ in range(count):
            d = np.exp(rng.uniform(-0.7, 0.7, size=n))
            if unimodular:
                d /= np.prod(d) ** (1.0 / n)
            perm = np.eye(n)[rng.permutation(n)]
            autos.append(AffineAutomorphism.linear(perm @ np.diag(d)))
        return autos

    return ConePreset(
        name=f"orthant{n}",
        dim=n,
        phi_char=phi,
        domain=Domain(inequalities, box),
        rho=VectorFieldSpec.from_affine(np.eye(n)),
        sample_automorphisms=sample,
    )


def _lorentz3():
    variables = ["x1", "x2", "x3"]
    q = "x1^2-x2^2-x3^2"
    phi = parse_expression(f"({q})^(-1.5)", variables)
    inequalities = (
        parse_expression(q, variables),
        parse_expression("x1", variables),
    )
    box = np.array([[1.5, 2.5], [-0.7, 0.7], [-0.7, 0.7]])

    def sample(count, rng, unimodular):
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

    return ConePreset(
        name="lorentz3",
        dim=3,
        phi_char=phi,
        domain=Domain(inequalities, box),
        rho=VectorFieldSpec.from_affine(np.eye(3)),
        sample_automorphisms=sample,
    )


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


def _spd2():
    variables = ["x1", "x2", "x3"]  # (a, b, c) of [[a, b], [b, c]]
    det = "x1*x3-x2^2"
    phi = parse_expression(f"({det})^(-1.5)", variables)
    inequalities = (
        parse_expression("x1", variables),
        parse_expression(det, variables),
    )
    box = np.array([[0.8, 2.0], [-0.5, 0.5], [0.8, 2.0]])

    def sample(count, rng, unimodular):
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

    return ConePreset(
        name="spd2",
        dim=3,
        phi_char=phi,
        domain=Domain(inequalities, box),
        rho=VectorFieldSpec.from_affine(np.eye(3)),
        sample_automorphisms=sample,
    )


def preset(name, seed=42) -> ConePreset:
    if name in ("orthant2", "orthant3"):
        cone = _orthant(int(name[-1]))
    elif name == "lorentz3":
        cone = _lorentz3()
    elif name == "spd2":
        cone = _spd2()
    else:
        raise UnknownPreset(name)
    return replace(cone, seed=seed)


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
