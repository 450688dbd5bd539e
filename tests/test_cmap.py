import numpy as np
import pytest

from hessgeo import cmap
from hessgeo.cmap import (
    Prepotential,
    FIBER_SALT,
    _derivatives_at_z,
    _frame,
    _frame_fields,
    _newton_invert,
    _values_at_z,
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
from hessgeo.structures import (
    SelfsimilarHessianStructure,
    conformal_rescaling,
    norm_gradient,
    norm_squared,
)
from hessgeo.tensors import (
    AffineAutomorphism,
    TensorField,
    VectorFieldSpec,
    bundle_sample_points,
    fd_tensor_derivative,
    lift_automorphisms,
    point_bundle,
    require_isometry,
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
    _, g, I = _values_at_z(z, prep.jets(z, order=2))
    assert g == pytest.approx(np.eye(2))
    assert I @ I == pytest.approx(-np.eye(2))
    assert I.T @ g @ I == pytest.approx(g)


def test_analytic_derivatives_match_fd():
    prep = conic_prepotential()
    z = np.array([1.02 + 0.01j, 0.97 - 0.02j])
    q = np.concatenate([z.real, prep.jets(z).gradient.real])
    dg, dI = _derivatives_at_z(prep, z)

    def g_of(qq):
        return _values_at_z(*_newton_invert(prep, qq))[1]

    def I_of(qq):
        return _values_at_z(*_newton_invert(prep, qq))[2]

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
        assert sk.omega.derivative(q) == pytest.approx(0.0, abs=1e-10)


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


@pytest.mark.parametrize("name", ["sk_flat", "sk_cubic", "sk_conic"])
def test_preset_isometries_preserve_the_metric_and_I(name):
    sk = special_kahler_preset(name, samples=5)
    assert len(sk.isometries) == 3
    require_isometry(sk, sk.isometries, (sk.complex_structure,))


def test_sk_cubic_rejects_a_wrong_translation():
    # z -> z + 0.1 is (u, v) -> (u + 0.1, v + 0.1 u + 0.005): the constant matters
    sk = special_kahler_preset("sk_cubic", samples=5)
    wrong = AffineAutomorphism(np.array([[1.0, 0.0], [0.1, 1.0]]), np.array([0.1, 0.0]))
    with pytest.raises(NotAnIsometry):
        require_isometry(sk, [wrong], (sk.complex_structure,))


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


def test_conformal_hyperkahler_transports_a_non_euler_field_through_w():
    # xi = (Id + 0.1 D) q, D the generator of the isometries diag(mu^3, mu, mu^-3, mu^-1):
    # w D w^{-1} = -D, so a fiber part that skips the transport through w fails
    sk = special_kahler_preset("sk_conic", seed=42)
    A = np.eye(sk.dim) + 0.1 * np.diag([3.0, 1.0, -3.0, -1.0])
    ss = SelfsimilarHessianStructure(sk, VectorFieldSpec.from_affine(A))
    for entry in check_conformal_hyperkahler(ss):
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", 2.5, "seed must be an integer, got 2.5"),
        ("samples", True, "samples must be an integer, got True"),
        ("samples", 0, "samples must be at least 1, got 0"),
    ],
)
def test_special_kahler_configs_take_integer_seed_and_samples(key, value, message):
    # `int()` would build the structure at seed 2, or with 1 sample, without a word
    from hessgeo.cmap import prepotential_from_config, special_kahler_from_config

    direct = {"dim": 2, "potential": "(q1^2+q2^2)/2", "I": [["0", "-1"], ["1", "0"]],
              "box": [[-1, 1], [-1, 1]]}
    with pytest.raises(ConfigError, match=message):
        special_kahler_from_config({**direct, key: value})
    prepotential = {"m": 1, "F": "i*z1^2/2", "box": [[-1, 1], [-1, 1]]}
    with pytest.raises(ConfigError, match=message):
        prepotential_from_config({**prepotential, key: value})


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
        fd = fd_tensor_derivative(lambda x: norm_squared(ss, x, check=False), q)
        assert_close(norm_gradient(ss, q), fd, "dN")


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


def test_a_frame_query_computes_no_third_derivative(monkeypatch):
    # the frame reads g and I alone: Newton and the values take order-2 jets
    # of F; the first derivative read at q takes one order-3 jet, at the
    # root the values hold
    sk = special_kahler_preset("sk_conic", samples=5)
    q = sk.sample_points(1, salt=44)[0]
    orders, inversions = [], []
    jets, invert = Prepotential.jets, cmap._newton_invert

    def counted_jets(prep, z, order=3):
        orders.append(order)
        return jets(prep, z, order)

    def counted_invert(prep, q):
        inversions.append(q)
        return invert(prep, q)

    monkeypatch.setattr(Prepotential, "jets", counted_jets)
    monkeypatch.setattr(cmap, "_newton_invert", counted_invert)
    build_hyperkahler(sk, q)
    assert orders and max(orders) <= 2
    assert len(inversions) == 1
    orders.clear()
    sk.metric.derivative(q)
    sk.complex_structure.derivative(q)
    assert orders == [3]
    assert len(inversions) == 1


def test_frame_fields_assemble_one_frame_per_base_point(monkeypatch):
    sk = special_kahler_preset("sk_conic", samples=5)
    calls = []

    def counted(sk, q, derivative=False):
        calls.append(np.asarray(q).tobytes())
        return _frame(sk, q, derivative)

    monkeypatch.setattr(cmap, "_frame", counted)
    gc, I_fields = _frame_fields(sk)
    points = bundle_sample_points(sk, 3, 0, FIBER_SALT)
    for pt in points:
        for fiber in (pt[sk.dim :], np.zeros(sk.dim)):
            shifted = np.concatenate([pt[: sk.dim], fiber])
            for field in (gc, *I_fields):
                field(shifted)
                field.derivative(shifted)
    assert len(calls) == len(set(calls)) == len(points)


@pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
def test_frame_bundle_holds_three_matrices_and_their_base_rows(monkeypatch, batch):
    sk = special_kahler_preset("sk_conic", samples=3)
    n = sk.dim
    reads = []

    def recorded(compute):
        at = point_bundle(compute)

        def read(q):
            reads.append(at(q))
            return reads[-1]

        return read

    monkeypatch.setattr(cmap, "point_bundle", recorded)
    gc, _ = _frame_fields(sk)
    points = bundle_sample_points(sk, 3, 0, FIBER_SALT)
    gc(points if batch else points[0])
    (entry,) = reads
    lead = (3,) if batch else ()
    assert [a.shape for a in entry] == [lead + (2 * n, 2 * n)] * 3 + [lead + (n, 2 * n, 2 * n)] * 3


@pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
def test_frame_reads_build_i3_and_the_zero_fiber_rows(batch):
    sk = special_kahler_preset("sk_conic", samples=3)
    n = sk.dim
    points = bundle_sample_points(sk, 3, 0, FIBER_SALT)
    gc_field, I_fields = _frame_fields(sk)
    at = points if batch else points[0]
    reads = [read(at) for f in (gc_field, *I_fields) for read in (f, f.derivative)]
    for read in reads:
        assert not read.flags.writeable
    # a point read as a batch of one
    (gc, dgc), (I1, dI1), (I2, dI2), (I3, dI3) = (
        (v, d) if batch else (v[None], d[None]) for v, d in zip(reads[::2], reads[1::2])
    )
    for D in (dgc, dI1, dI2, dI3):
        assert D.shape == (len(I1), 2 * n, 2 * n, 2 * n)
        assert np.all(D[:, n:] == 0.0)
    for k, q in enumerate(points[: len(I1), :n]):
        exact = _frame(sk, q, derivative=True)[3:]
        for D, base_rows in zip((dgc, dI1, dI2), exact):
            assert np.array_equal(D[k, :n], base_rows)
        assert np.array_equal(I3[k], I1[k] @ I2[k])
        assert np.array_equal(dI3[k, :n], dI1[k, :n] @ I2[k] + I1[k] @ dI2[k, :n])


def test_cached_darboux_tensors_are_read_only():
    sk = special_kahler_preset("sk_cubic", samples=5)
    q = sk.sample_points(1)[0]
    pt = bundle_sample_points(sk, 1, 0, FIBER_SALT)[0]
    gc, I_fields = _frame_fields(sk)
    reads = [
        (sk.metric, q),
        (sk.metric.derivative, q),
        (sk.complex_structure.derivative, q),
        (gc, pt),
        (I_fields[2].derivative, pt),
    ]
    for read, point in reads:
        value = read(point)
        first = value.flat[0]
        with pytest.raises(ValueError):
            value.flat[0] = first + 1.0
        assert read(point).flat[0] == first
    # a potential's field has no cache: each read is a new array
    g = TensorField.from_potential(parse_expression("-ln(x1)-ln(x2)", ["x1", "x2"]))
    x = np.array([0.5, 2.0])
    for read in (g, g.derivative):
        value = read(x)
        first = value.flat[0]
        value.flat[0] = first + 1.0
        assert read(x).flat[0] == first
