import numpy as np
import pytest

from hessgeo import cmap
from hessgeo.cmap import (
    Prepotential,
    FIBER_SALT,
    _frame_fields,
    _newton_invert,
    _tensors_at_z,
    build_hyperkahler,
    check_conformal_hyperkahler,
    check_hyperkahler,
    check_invariance_psi_hat,
    check_special_kahler_axioms,
    special_kahler_preset,
    standard_symplectic,
)
from hessgeo.errors import (
    ConfigError,
    NotAnIsometry,
    TranslationUnsupported,
    UnknownPreset,
)
from hessgeo.expressions import parse_expression
from hessgeo.structures import SelfsimilarHessianStructure, conformal_rescaling, norm_gradient
from hessgeo.tensors import (
    AffineAutomorphism,
    TensorField,
    VectorFieldSpec,
    bundle_sample_points,
    fd_tensor_derivative,
    finite_differences,
    lift_automorphisms,
)


def cubic_prepotential():
    F = parse_expression("z1^3/6", ["z1"], mode="complex")
    return Prepotential(1, F, np.array([[-1.0, 1.0], [0.5, 1.5]]))


def conic_prepotential():
    F = parse_expression("i*z2^3/z1", ["z1", "z2"], mode="complex")
    zbox = np.array([[0.9, 1.1], [0.9, 1.1], [-0.05, 0.05], [-0.05, 0.05]])
    return Prepotential(2, F, zbox)


def test_unknown_sk_preset():
    with pytest.raises(UnknownPreset):
        special_kahler_preset("sk_nope")


def test_newton_round_trip():
    prep = conic_prepotential()
    rng = np.random.default_rng([42, 0])
    for z in prep.sample_z(10, rng):
        jets = prep.jets(z)
        q = np.concatenate([z.real, jets.gradient.real])
        root, jets_at_root = _newton_invert(prep, q)
        assert root == pytest.approx(z, abs=1e-11)
        assert jets_at_root.hessian == pytest.approx(prep.jets(root).hessian)


def test_cubic_metric_oracle():
    # F = z^3/6: F'' = z, N = Im z; at z = i the Darboux metric in
    # q = (Re z, Re F') is (T^-1)^T diag(N, N) T^-1 with T = [[1, 0], [0, -1]]
    prep = cubic_prepotential()
    z = np.array([1j])
    g, I, dg, dI = _tensors_at_z(prep, z, prep.jets(z))
    assert g == pytest.approx(np.eye(2))
    assert I @ I == pytest.approx(-np.eye(2))
    assert I.T @ g @ I == pytest.approx(g)


def test_analytic_derivatives_match_fd():
    prep = conic_prepotential()
    z = np.array([1.02 + 0.01j, 0.97 - 0.02j])
    q = np.concatenate([z.real, prep.jets(z).gradient.real])
    g, I, dg, dI = _tensors_at_z(prep, z, prep.jets(z))

    def g_of(qq):
        return _tensors_at_z(prep, *_newton_invert(prep, qq))[0]

    def I_of(qq):
        return _tensors_at_z(prep, *_newton_invert(prep, qq))[1]

    assert dg == pytest.approx(fd_tensor_derivative(g_of, q), abs=1e-6)
    assert dI == pytest.approx(fd_tensor_derivative(I_of, q), abs=1e-6)


@pytest.mark.parametrize("name", ["sk_flat", "sk_cubic", "sk_conic"])
def test_special_kahler_axioms(name):
    sk = special_kahler_preset(name, samples=15)
    for entry in check_special_kahler_axioms(sk, samples=15):
        assert entry.passed, (entry.check_id, entry.residual)


def test_omega_is_constant_multiple_of_standard():
    sk = special_kahler_preset("sk_conic", samples=10)
    w = sk.omega_constant()
    lam = w[sk.m, 0]
    assert w == pytest.approx(lam * standard_symplectic(sk.m))
    for q in sk.sample_points(5):
        assert sk.omega(q) == pytest.approx(w, abs=1e-12)


def test_hyperkahler_frame_algebra():
    sk = special_kahler_preset("sk_conic", samples=5)
    q = sk.sample_points(1)[0]
    frame = build_hyperkahler(sk, q)
    n = sk.dim
    eye = np.eye(2 * n)
    assert frame.I1 @ frame.I1 == pytest.approx(-eye, abs=1e-12)
    assert frame.I2 @ frame.I2 == pytest.approx(-eye, abs=1e-12)
    assert frame.I3 @ frame.I3 == pytest.approx(-eye, abs=1e-12)
    assert frame.I1 @ frame.I2 + frame.I2 @ frame.I1 == pytest.approx(
        np.zeros((2 * n, 2 * n)), abs=1e-12
    )


@pytest.mark.parametrize("name", ["sk_flat", "sk_cubic", "sk_conic"])
def test_hyperkahler_checks(name):
    sk = special_kahler_preset(name, samples=10)
    for entry in check_hyperkahler(sk, samples=10):
        assert entry.passed, (entry.check_id, entry.residual)


def test_corrupted_frame_fails_quaternion_relations():
    sk = special_kahler_preset("sk_flat", samples=5)
    q = sk.sample_points(1)[0]
    frame = build_hyperkahler(sk, q)
    corrupted = frame.I1 + 0.05 * np.eye(2 * sk.dim)
    assert np.max(np.abs(corrupted @ corrupted + np.eye(2 * sk.dim))) > 1e-3


def test_psi_hat_invariance_flat_rotations():
    sk = special_kahler_preset("sk_flat", samples=10)
    I = sk.complex_structure(sk.sample_points(1)[0])
    autos = [
        AffineAutomorphism.linear(np.cos(t) * np.eye(2) + np.sin(t) * I)
        for t in (0.4, -0.9)
    ]
    entry = check_invariance_psi_hat(sk, autos, samples=10)
    assert entry.passed


def test_psi_hat_rejects_non_isometry():
    sk = special_kahler_preset("sk_flat", samples=5)
    with pytest.raises(NotAnIsometry):
        check_invariance_psi_hat(
            sk, [AffineAutomorphism.linear(2.0 * np.eye(2))], samples=5
        )


def test_psi_hat_rejects_an_isometry_that_reverses_I():
    # diag(1, -1) preserves the flat metric but maps I to -I
    sk = special_kahler_preset("sk_flat", samples=5)
    with pytest.raises(NotAnIsometry):
        check_invariance_psi_hat(sk, [AffineAutomorphism.linear(np.diag([1.0, -1.0]))], samples=5)


def test_fiber_shift_lift():
    T = AffineAutomorphism.linear(np.array([[2.0, 1.0], [0.0, 0.5]]))
    (lifted,) = lift_automorphisms([T], lambda A: np.linalg.inv(A).T, [np.array([0.3, -0.3])])
    # the cotangent lift's fiber block B^{-T} preserves the pairing <p, v>
    p, v = np.array([0.7, -1.2]), np.array([0.4, 2.5])
    assert (lifted.A[2:, 2:] @ p) @ (T.A @ v) == pytest.approx(p @ v)
    assert lifted.b == pytest.approx([0.0, 0.0, 0.3, -0.3])


@pytest.mark.parametrize("name", ["sk_flat", "sk_conic"])
def test_conformal_hyperkahler(name):
    sk = special_kahler_preset(name, samples=8)
    ss = SelfsimilarHessianStructure(sk, VectorFieldSpec.from_affine(np.eye(sk.dim)))
    for entry in check_conformal_hyperkahler(ss, samples=8):
        assert entry.passed, (entry.check_id, entry.residual)


def test_translation_part_rejected():
    sk = special_kahler_preset("sk_flat", samples=5)
    xi = VectorFieldSpec.from_affine(np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(TranslationUnsupported):
        check_conformal_hyperkahler(SelfsimilarHessianStructure(sk, xi), samples=5)


def test_sk_conic_needs_rotated_branch():
    # without the extra imaginary factor the conic prepotential has
    # det Im F'' <= 0 everywhere, so no metric exists
    F = parse_expression("z2^3/z1", ["z1", "z2"], mode="complex")
    rng = np.random.default_rng([9, 9])
    worst = -np.inf
    for _ in range(200):
        z = rng.uniform(0.5, 1.5, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
        N = Prepotential(2, F, conic_prepotential().zbox).jets(z).hessian.imag
        worst = max(worst, float(np.min(np.linalg.eigvalsh(N))))
    assert worst <= 1e-10


def test_bad_prepotential_config():
    from hessgeo.cmap import prepotential_from_config

    with pytest.raises(ConfigError):
        prepotential_from_config({"m": 1, "F": "i*z1^2/2", "box": [[0, 1]]})


@pytest.mark.parametrize("name", ["sk_cubic", "sk_conic"])
def test_exact_frame_derivatives_match_fd(name):
    sk = special_kahler_preset(name, samples=4)
    ss = SelfsimilarHessianStructure(sk, VectorFieldSpec.from_affine(np.eye(sk.dim)))
    gc, (I1, I2, I3) = _frame_fields(sk)
    fields = {"gc": gc, "I1": I1, "I2": I2, "I3": I3, "g_chk": conformal_rescaling(ss, gc)}

    def assert_close(exact, fd, label):
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - fd)) <= 1e-5 * scale, label

    for pt in bundle_sample_points(sk, 4, 41, FIBER_SALT):
        for label, field in fields.items():
            assert_close(field.derivative(pt), fd_tensor_derivative(field, pt), label)
        q = pt[: sk.dim]
        with finite_differences():
            fd = norm_gradient(ss, q)
        assert_close(norm_gradient(ss, q), fd, "dN")


def test_frame_first_built_under_finite_differences_stays_exact():
    # the frame bundle differentiates g and I; built inside the block, it must
    # not cache their finite differences for the exact derivatives read later
    sk = special_kahler_preset("sk_conic", samples=3)
    pt = bundle_sample_points(sk, 1, 0, FIBER_SALT)[0]
    gc, I_fields = sk.frame
    with finite_differences():
        gc(pt)
    fresh_gc, fresh_I_fields = special_kahler_preset("sk_conic", samples=3).frame
    assert np.array_equal(gc.derivative(pt), fresh_gc.derivative(pt))
    assert np.array_equal(I_fields[1].derivative(pt), fresh_I_fields[1].derivative(pt))


def test_one_newton_inversion_per_darboux_point(monkeypatch):
    sk = special_kahler_preset("sk_conic", samples=5)
    calls = []

    def counted(prep, q):
        calls.append(q)
        return _newton_invert(prep, q)

    monkeypatch.setattr(cmap, "_newton_invert", counted)
    q = sk.sample_points(1, salt=43)[0]
    build_hyperkahler(sk, q)
    assert len(calls) == 1
    build_hyperkahler(sk, q, np.ones(sk.dim))
    assert len(calls) == 1


def test_frame_fields_assemble_one_frame_per_base_point(monkeypatch):
    sk = special_kahler_preset("sk_conic", samples=5)
    calls = []

    def counted(sk, q, p=None):
        calls.append(np.asarray(q).tobytes())
        return build_hyperkahler(sk, q, p)

    monkeypatch.setattr(cmap, "build_hyperkahler", counted)
    gc, I_fields = _frame_fields(sk)
    points = bundle_sample_points(sk, 3, 0, FIBER_SALT)
    for pt in points:
        for fiber in (pt[sk.dim :], np.zeros(sk.dim)):
            shifted = np.concatenate([pt[: sk.dim], fiber])
            for field in (gc, *I_fields):
                field(shifted)
                field.derivative(shifted)
    assert len(calls) == len(set(calls)) == len(points)


def test_cached_darboux_tensors_are_read_only():
    sk = special_kahler_preset("sk_cubic", samples=5)
    q = sk.sample_points(1)[0]
    pt = bundle_sample_points(sk, 1, 0, FIBER_SALT)[0]
    gc, I_fields = _frame_fields(sk)
    g = TensorField.from_potential(parse_expression("-ln(x1)-ln(x2)", ["x1", "x2"]))
    x = np.array([0.5, 2.0])
    reads = [
        (sk.metric, q),
        (sk.metric.derivative, q),
        (sk.complex_structure.derivative, q),
        (gc, pt),
        (I_fields[2].derivative, pt),
        (g, x),
        (g.derivative, x),
    ]
    for read, point in reads:
        value = read(point)
        first = value.flat[0]
        with pytest.raises(ValueError):
            value.flat[0] = first + 1.0
        assert read(point).flat[0] == first
