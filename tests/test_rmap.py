import numpy as np
import pytest

from hessgeo.cones import automorphism_samples, preset
from hessgeo.errors import NotAnIsometry
from hessgeo.rmap import (
    LiftedField,
    affine_flow,
    build_conformal_lift,
    build_kahler_lift,
    check_conformal_invariance,
    check_invariance_psi,
    check_kahler,
    check_lemma_xi_items,
    check_potential_identity,
    lift_automorphism,
)
from hessgeo.tensors import (
    AffineAutomorphism,
    exterior_derivative_2form,
    standard_symplectic,
)


@pytest.fixture(scope="module")
def orthant_lift():
    return build_kahler_lift(preset("orthant2").hessian_structure("can", samples=20))


def test_complex_structure_squares_to_minus_one():
    J = standard_symplectic(3)
    assert J @ J == pytest.approx(-np.eye(6))


def test_lift_block_layout(orthant_lift):
    p = np.array([2.0, 1.0, 0.3, -0.4])
    g = preset("orthant2").hessian_structure("can", samples=5).metric(p[:2])
    G = orthant_lift.metric(p)
    assert G[:2, :2] == pytest.approx(g)
    assert G[2:, 2:] == pytest.approx(g)
    assert G[:2, 2:] == pytest.approx(np.zeros((2, 2)))
    w = orthant_lift.omega(p)
    assert w[:2, 2:] == pytest.approx(g)
    assert w == pytest.approx(-w.T)
    # w = g_r(J., .)
    assert w == pytest.approx(orthant_lift.J.T @ G)


def test_kahler_closed(orthant_lift):
    entry = check_kahler(orthant_lift, samples=20)
    assert entry.passed
    assert entry.residual < 1e-10


def test_potential_identity(orthant_lift):
    entry = check_potential_identity(orthant_lift, samples=20)
    assert entry.passed
    assert entry.residual < 1e-10


def test_potential_identity_fd(orthant_lift):
    entry = check_potential_identity(orthant_lift, samples=5, fd=True, tolerance=1e-3)
    assert entry.passed


def test_psi_invariance(orthant_lift):
    cone = preset("orthant2")
    autos = automorphism_samples(cone, 5)
    rng = np.random.default_rng([42, 11])
    shifts = [rng.uniform(-1.0, 1.0, 2) for _ in autos]
    entry = check_invariance_psi(orthant_lift, autos, shifts, samples=20)
    assert entry.passed


def test_non_isometry_rejected(orthant_lift):
    skew = AffineAutomorphism.linear(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotAnIsometry):
        check_invariance_psi(orthant_lift, [skew], [], samples=5)


def test_lift_automorphism_shape():
    T = AffineAutomorphism(np.diag([2.0, 0.5]), np.array([0.1, 0.2]))
    lifted = lift_automorphism(T, np.array([1.0, -1.0]))
    assert lifted.A == pytest.approx(np.diag([2.0, 0.5, 2.0, 0.5]))
    assert lifted.b == pytest.approx([0.1, 0.2, 1.0, -1.0])


def test_lifted_field_split():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.array([0.5, 0.0])
    fields = LiftedField.from_affine(A, b, 2)
    p = np.array([1.0, 2.0, 3.0, 4.0])
    assert fields.xi1.value(p) == pytest.approx([2.5, -1.0, 0.0, 0.0])
    assert fields.xi2.value(p) == pytest.approx([0.0, 0.0, 4.5, -3.0])
    assert fields.total.value(p) == pytest.approx([2.5, -1.0, 4.5, -3.0])


def test_lemma_xi_items():
    ss = preset("orthant2").selfsimilar
    cl = build_conformal_lift(ss)
    entry = check_lemma_xi_items(cl, samples=20)
    assert entry.passed


def test_conformal_invariance_suite():
    cone = preset("lorentz3")
    cl = build_conformal_lift(cone.selfsimilar)
    unim = automorphism_samples(cone, 3, unimodular=True)
    entries = check_conformal_invariance(cl, samples=15, automorphisms=unim)
    by_id = {e.check_id: e for e in entries}
    assert by_id["conformal_norm_homothety"].passed
    assert by_id["conformal_omega_ck_flow"].passed
    assert by_id["conformal_omega_negative_control"].passed
    assert by_id["conformal_psi_invariance"].passed


def test_negative_control_is_sharp():
    # the unscaled form genuinely flows with weight 2: remove the "- 2w" term
    # and the residual is large
    ss = preset("orthant2").selfsimilar
    cl = build_conformal_lift(ss)
    from hessgeo.tensors import lie_derivative_metric

    p = cl.lift.sample_points(1, salt=4)[0]
    L = lie_derivative_metric(cl.lift.omega, cl.fields.total, p)
    assert np.max(np.abs(L)) > 0.5


def test_noncone_counterexample_value():
    from hessgeo.cli import NONCONE_POINT, noncone_structure

    lift = build_kahler_lift(noncone_structure(samples=10))
    dw = exterior_derivative_2form(lift.omega, NONCONE_POINT)
    # d_1 g_22 = 2 x1 = 1 at x1 = 0.5 and the symmetry defect is exactly that
    assert np.max(np.abs(dw)) == pytest.approx(1.0, abs=1e-12)
    entry = check_kahler(lift, samples=10)
    assert not entry.passed


def test_affine_flow_consistency():
    A = np.array([[0.2, -0.3], [0.1, 0.4]])
    b = np.array([1.0, -0.5])
    half = affine_flow(A, b, 0.5)
    full = affine_flow(A, b, 1.0)
    p = np.array([0.7, 0.2])
    assert half(half(p)) == pytest.approx(full(p))
    inverse = affine_flow(A, b, -1.0)
    assert inverse(full(p)) == pytest.approx(p)
