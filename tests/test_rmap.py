import numpy as np
import pytest
from flows import affine_flow

from hessgeo.cones import automorphism_samples, preset
from hessgeo.errors import NotAnIsometry
from hessgeo.expressions import parse_expression
from hessgeo.rmap import (
    build_kahler_lift,
    check_conformal_invariance,
    check_invariance_psi,
    check_kahler,
    check_lemma_xi_items,
    check_potential_identity,
)
from hessgeo.tensors import (
    AffineAutomorphism,
    TensorField,
    VectorFieldSpec,
    exterior_derivative_2form,
    fd_tensor_derivative,
    lie_derivative_metric,
    lift_automorphisms,
    lift_field,
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


@pytest.mark.parametrize(
    "mutation",
    [
        pytest.param({"omega": TensorField.constant(np.zeros((4, 4)))}, id="omega-zero"),
        pytest.param({"J": np.eye(4)}, id="J-identity"),
    ],
)
def test_kahler_check_ties_omega_to_J_and_the_metric(orthant_lift, mutation):
    # a closed omega and a J preserving g_r are not enough: omega = 0 and
    # J = Id pass both, and fail omega = g_r(J., .) and J^2 = -Id
    entry = check_kahler(orthant_lift._replace(**mutation), samples=5)
    assert not entry.passed


def test_potential_identity(orthant_lift):
    entry = check_potential_identity(orthant_lift, samples=20)
    assert entry.passed
    assert entry.residual < 1e-10


def test_potential_identity_fd(orthant_lift):
    # the Hessian that `kahler_potential` reads against the finite difference of
    # the exact gradient of 4 pi^* phi
    potential = orthant_lift.base.potential
    lifted = parse_expression(f"4.0*({potential.serialize()})", ["x1", "x2", "y1", "y2"])
    points = orthant_lift.sample_points(5)
    fd = fd_tensor_derivative(lambda q: lifted.jet3(q, 1).gradient, points)
    assert np.max(np.abs(fd - lifted.jet3(points, 2).hessian)) < 1e-3
    assert check_potential_identity(orthant_lift, samples=5).passed


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
    first, second = lift_automorphisms([T, T], lambda A: A, [np.array([1.0, -1.0])])
    assert first.A == pytest.approx(np.diag([2.0, 0.5, 2.0, 0.5]))
    assert first.b == pytest.approx([0.1, 0.2, 1.0, -1.0])
    # the shifts are taken cyclically, and zero when there are none
    assert second.b == pytest.approx(first.b)
    (unshifted,) = lift_automorphisms([T], lambda A: A)
    assert unshifted.b == pytest.approx([0.1, 0.2, 0.0, 0.0])


def test_lifted_field_split():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.array([0.5, 0.0])
    xi = VectorFieldSpec(A, b)
    zero = VectorFieldSpec.from_affine(np.zeros((2, 2)))
    p = np.array([1.0, 2.0, 3.0, 4.0])
    assert lift_field(xi, np.zeros((2, 2)), np.zeros(2)).value(p) == pytest.approx(
        [2.5, -1.0, 0.0, 0.0]
    )
    assert lift_field(zero, A, b).value(p) == pytest.approx([0.0, 0.0, 4.5, -3.0])
    assert lift_field(xi, A, b).value(p) == pytest.approx([2.5, -1.0, 4.5, -3.0])


def test_lemma_xi_items():
    entry = check_lemma_xi_items(preset("orthant2").selfsimilar, samples=20)
    assert entry.passed


def test_conformal_invariance_suite():
    cone = preset("lorentz3")
    unim = automorphism_samples(cone, 3, unimodular=True)
    entries = check_conformal_invariance(cone.selfsimilar, samples=15, automorphisms=unim)
    by_id = {e.check_id: e for e in entries}
    assert by_id["conformal_norm_homothety"].passed
    assert by_id["conformal_omega_ck_flow"].passed
    assert by_id["conformal_omega_negative_control"].passed
    assert by_id["conformal_psi_invariance"].passed


def test_negative_control_is_sharp():
    # the unscaled form genuinely flows with weight 2: remove the "- 2w" term
    # and the residual is large
    ss = preset("orthant2").selfsimilar
    lift = build_kahler_lift(ss.base)
    p = lift.sample_points(1, salt=4)[0]
    L = lie_derivative_metric(lift.omega, lift_field(ss.xi, ss.xi.A, ss.xi.b), p)
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
