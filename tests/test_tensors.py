import numpy as np
import pytest
from flows import affine_flow
from walks import count_walks

from hessgeo.cmap import special_kahler_preset
from hessgeo.cones import preset
from hessgeo.errors import DomainError
from hessgeo.expressions import parse_expression
from hessgeo.report import measured
from hessgeo.rmap import build_kahler_lift
from hessgeo.tensors import (
    AffineAutomorphism,
    TensorField,
    VectorFieldSpec,
    blocks,
    exterior_derivative_2form,
    fd_tensor_derivative,
    flow_defect,
    invariance_defect,
    is_positive_definite,
    largest,
    lie_derivative_endomorphism,
    lie_derivative_metric,
    lift_tensor,
    nijenhuis,
    pullback_defect,
    pullback_metric,
    standard_symplectic,
)

VARS = ["x1", "x2"]


def metric_from(text):
    return TensorField.from_potential(parse_expression(text, VARS))


def test_hessian_metric_oracle():
    # Hess(-ln x1 - ln x2) = diag(1/x1^2, 1/x2^2)
    g = metric_from("-ln(x1)-ln(x2)")
    assert g([2.0, 1.0]) == pytest.approx(np.diag([0.25, 1.0]))
    D = g.derivative([1.0, 1.0])
    assert D[0, 0, 0] == pytest.approx(-2.0)
    assert D[1, 1, 1] == pytest.approx(-2.0)
    assert D[0, 1, 1] == pytest.approx(0.0)


def test_potential_field_makes_one_jet_per_point(monkeypatch):
    # one tree walk per evaluation, over every point of a batch at once
    potential = parse_expression("1/(x1*x2)+x1^4", VARS)
    g = TensorField.from_potential(potential)
    walks = count_walks(monkeypatch)
    points = np.array([[0.8, 1.4], [1.1, 0.7], [0.8, 1.4]])
    H, D = g(points), g.derivative(points)
    assert walks == [("jet3", (3, 2), 3)] * 2
    assert H.shape == (3, 2, 2) and D.shape == (3, 2, 2, 2)
    for p, Hp, Dp in zip(points, H, D):
        assert np.array_equal(Hp, g(p)) and np.array_equal(Dp, g.derivative(p))
    assert walks[2:] == [("jet3", (2,), 3)] * 6


def test_component_field_makes_one_jet_per_component_per_point(monkeypatch):
    # per component, one value-only walk for the value and one order-1 jet
    # walk for the derivative, a gradient, over every point of a batch at once
    rows = (("1", "x1*x2"), ("x1*x2", "1+x1^2"))
    g = TensorField.from_components([[parse_expression(t, VARS) for t in row] for row in rows])
    walks = count_walks(monkeypatch, ("jet3", "__call__"))
    points = np.array([[0.8, 1.4], [2.0, 0.5], [0.8, 1.4]])
    value, derivative = g(points), g.derivative(points)
    assert walks == [("__call__", (3, 2), 0)] * 4 + [("jet3", (3, 2), 1)] * 4
    for k in (0, 2):
        assert value[k] == pytest.approx(np.array([[1.0, 1.12], [1.12, 1.64]]))
        assert derivative[k][:, 1, 1] == pytest.approx([1.6, 0.0])
    assert value[1] == pytest.approx(np.array([[1.0, 1.0], [1.0, 5.0]]))
    assert derivative[1][:, 0, 1] == pytest.approx([0.5, 2.0])


def test_blocks_equal_np_block_with_zero_blocks_given_as_0():
    rng = np.random.default_rng(0)
    for shape in ((3, 3), (4, 3, 3)):
        a, b, c, d = (rng.standard_normal(shape) for _ in range(4))
        zero = np.zeros(shape)
        for given in ((a, b, c, d), (a, 0, 0, d), (0, b, c, 0), (0, 0, c, 0), (0, 0, 0, d)):
            full = [x if isinstance(x, np.ndarray) else zero for x in given]
            assert np.array_equal(blocks(*given), np.block([full[:2], full[2:]]))


@pytest.mark.parametrize(
    "assemble",
    [lambda G: blocks(G, 0, 0, G), lambda G: blocks(0, G, -G.swapaxes(-1, -2), 0)],
    ids=["diag", "omega"],
)
def test_lift_tensor_is_constant_along_the_fiber(assemble):
    lifted = lift_tensor(metric_from("1/(x1*x2)+x1^4"), assemble)
    x = np.array([0.8, 1.4])
    p = np.concatenate([x, [0.3, -0.5]])
    assert np.array_equal(lifted(p), lifted(np.concatenate([x, [-1.2, 2.0]])))
    D = lifted.derivative(p)
    assert D.shape == (4, 4, 4) and not np.any(D[2:])
    assert fd_tensor_derivative(lifted, p) == pytest.approx(D, abs=1e-8)


def test_metric_derivative_fd_agrees():
    g = metric_from("1/(x1*x2)")
    p = np.array([0.8, 1.4])
    assert fd_tensor_derivative(g, p) == pytest.approx(g.derivative(p), abs=1e-6)


def test_lie_derivative_of_radiant_field():
    # g homogeneous of degree -4 under the radiant field: L_rho g = -2 g ... for
    # Hess(1/(x1 x2)) the full Lie derivative is (-4 + 2) g = -2 g
    g = metric_from("1/(x1*x2)")
    rho = VectorFieldSpec.from_affine(np.eye(2))
    p = np.array([1.1, 0.7])
    assert lie_derivative_metric(g, rho, p) == pytest.approx(-2.0 * g(p), abs=1e-12)


def test_lie_derivative_matches_flow():
    # pull back along the time-t flow of an affine field and differentiate in t
    g = metric_from("x1^4+x2^4+x1^2*x2^2")
    A = np.array([[0.3, -0.2], [0.5, 0.1]])
    b = np.array([0.05, -0.1])
    xi = VectorFieldSpec.from_affine(A, b)
    p = np.array([0.9, 1.2])
    t = 1e-5
    plus = pullback_metric(affine_flow(A, b, t), g, p)
    minus = pullback_metric(affine_flow(A, b, -t), g, p)
    numeric = (plus - minus) / (2 * t)
    assert lie_derivative_metric(g, xi, p) == pytest.approx(numeric, abs=1e-7)


def test_lie_derivative_2form_matches_flow():
    w_expr = parse_expression("x1^2+x2", VARS)

    def w(p):
        s = w_expr(p)
        return np.array([[0.0, s], [-s, 0.0]])

    form = TensorField(2, w, lambda p: fd_tensor_derivative(w, p))
    A = np.array([[0.0, 1.0], [-1.0, 0.4]])
    xi = VectorFieldSpec.from_affine(A)
    p = np.array([0.6, 1.0])
    t = 1e-5
    flow_p = affine_flow(A, np.zeros(2), t)
    flow_m = affine_flow(A, np.zeros(2), -t)
    numeric = (
        flow_p.A.T @ w(flow_p(p)) @ flow_p.A - flow_m.A.T @ w(flow_m(p)) @ flow_m.A
    ) / (2 * t)
    assert lie_derivative_metric(form, xi, p) == pytest.approx(numeric, abs=1e-6)


def test_lie_derivative_constant_endomorphism():
    # for constant J and linear field A x: L J = J A - A J
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    field = TensorField.constant(J)
    xi = VectorFieldSpec.from_affine(A)
    L = lie_derivative_endomorphism(field, xi, np.array([0.3, 0.4]))
    assert L == pytest.approx(J @ A - A @ J)


def test_flow_defect_is_the_max_of_the_lie_derivative_residual():
    cone = preset("orthant2")
    g, n = cone.con.metric, cone.dim
    points = cone.con.sample_points(10)
    # L_rho g_con = -n g_con, so without the factor the defect is max |n g_con|
    assert np.max(flow_defect(cone.rho, points, (g,), factor=-n)) < 1e-10
    scale = max(np.max(np.abs(n * g(p))) for p in points)
    assert np.max(flow_defect(cone.rho, points, (g,))) == pytest.approx(scale, rel=1e-12)
    # a constant J under X = A x: L_X J = J A - A J, the same at every point
    J, A = standard_symplectic(1), np.diag([1.0, 2.0])
    defect = flow_defect(
        VectorFieldSpec.from_affine(A), points, endomorphisms=(TensorField.constant(J),)
    )
    assert np.max(defect) == np.max(np.abs(J @ A - A @ J)) == 1.0


def test_exterior_derivative_oracle():
    # in 3 variables: d(x1 dx1 ^ dx2) = 0 while d(x3 dx1 ^ dx2) = dx3 ^ dx1 ^ dx2
    def w(s):
        def func(p):
            out = np.zeros((3, 3))
            out[0, 1] = s(p)
            out[1, 0] = -s(p)
            return out

        return TensorField(3, func, lambda p: fd_tensor_derivative(func, p))

    closed = w(lambda q: q[0])
    assert exterior_derivative_2form(closed, [0.5, 0.5, 0.5]) == pytest.approx(
        np.zeros((3, 3, 3)), abs=1e-9
    )
    d = exterior_derivative_2form(w(lambda q: q[2]), [0.5, 0.5, 0.5])
    assert d[2, 0, 1] == pytest.approx(1.0, abs=1e-9)
    assert d[0, 2, 1] == pytest.approx(-1.0, abs=1e-9)
    assert np.max(np.abs(d)) == pytest.approx(1.0, abs=1e-9)


def test_nijenhuis_constant_vanishes():
    J = TensorField.constant(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert nijenhuis(J, [0.2, 0.9]) == pytest.approx(np.zeros((2, 2, 2)))


def test_nijenhuis_nonvanishing_for_scaled_structure():
    # rescaling a complex structure by a nonconstant function breaks the
    # tensor identity N = 0
    J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    def scaled(p):
        return (1.0 + p[0] ** 2) * J0

    N = nijenhuis(TensorField(2, scaled, lambda p: fd_tensor_derivative(scaled, p)), [0.7, 0.1])
    assert np.max(np.abs(N)) > 1e-3


def test_pullback_metric():
    g = metric_from("x1^2*x2^2")
    T = AffineAutomorphism(np.array([[2.0, 0.0], [0.0, 0.5]]), np.array([0.1, 0.0]))
    p = np.array([0.4, 0.9])
    expected = T.A.T @ g(T(p)) @ T.A
    assert pullback_metric(T, g, p) == pytest.approx(expected)
    defect, scale = pullback_defect(T, g, p, factor=2.0)
    assert defect == np.max(np.abs(expected - 2.0 * g(p)))
    assert scale == np.max(np.abs(2.0 * g(p)))


@pytest.mark.parametrize("name", ["orthant2", "lorentz3"])
def test_invariance_defect_of_a_dilation(name):
    # g_con is homogeneous of degree -n - 2, so under x -> 2x the relative
    # defect is |2^(-n) g - g| / |g| = 1 - 2^(-n) at every point
    con = preset(name).con
    T = AffineAutomorphism.linear(2.0 * np.eye(con.dim))
    defect = invariance_defect([T], con.sample_points(5), (con.metric,))
    assert np.max(defect) == pytest.approx(1.0 - 2.0 ** (-con.dim), abs=1e-12)
    # and with the factor 2^(-n) the dilation preserves it
    scaled = invariance_defect([T], con.sample_points(5), (con.metric,), factor=2.0 ** (-con.dim))
    assert np.max(scaled) < 1e-12


def test_invariance_defect_of_a_reflection_on_I():
    # diag(1, -1) preserves the flat metric of sk_flat but maps I to -I
    sk = special_kahler_preset("sk_flat", samples=5)
    T = AffineAutomorphism.linear(np.diag([1.0, -1.0]))
    points = sk.sample_points(5)
    assert np.max(invariance_defect([T], points, (sk.metric,), floor=1.0)) < 1e-12
    defect = invariance_defect([T], points, endomorphisms=(sk.complex_structure,))
    assert np.max(defect) == pytest.approx(2.0, abs=1e-12)


def test_singular_automorphism_rejected():
    with pytest.raises(ValueError):
        AffineAutomorphism(np.zeros((2, 2)), np.zeros(2))


def test_automorphism_holds_float_arrays():
    T = AffineAutomorphism([[2, 0], [0, 1]], [0, 1])
    assert isinstance(T.A, np.ndarray) and T.A.dtype == float and T.A.shape == (2, 2)
    assert isinstance(T.b, np.ndarray) and T.b.dtype == float and T.b.shape == (2,)
    assert np.array_equal(T([1, 1]), [2.0, 2.0])


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: TensorField.constant(np.eye(2)), "func"),
        (lambda: preset("orthant2").domain, "box"),
        (lambda: AffineAutomorphism(np.eye(2), np.zeros(2)), "A"),
        (lambda: parse_expression("x1+1", VARS), "ast"),
        (lambda: build_kahler_lift(preset("orthant2").can), "omega"),
        (lambda: parse_expression("x1+1", VARS).ast, "left"),
    ],
    ids=["TensorField", "Domain", "AffineAutomorphism", "ScalarExpression", "KahlerLift", "BinOp"],
)
def test_value_records_are_immutable(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_positive_definite_helpers():
    assert is_positive_definite(np.eye(2))
    assert not is_positive_definite(np.diag([1.0, -1.0]))


def test_residual_is_the_exact_maximum_of_finite_values():
    values = [0.3, 1e-17, 2.5, -4.0, 2.5 - 1e-15]
    entry = measured("c", "claim", 3.0, values)
    assert (entry.residual, entry.samples, entry.passed) == (max(values), 5, True)
    per_map_and_point = np.array([[0.1, -3.0, 2.0], [2.5, 1.0, 0.0]])
    assert measured("c", "claim", 1.0, per_map_and_point).samples == 6
    assert largest(np.array([0.1, 3.0]), np.array([2.0, -1.0]), 0.5).tolist() == [2.0, 3.0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("nan")])
@pytest.mark.parametrize("position", [0, 1, 3])
def test_residual_lets_nan_and_inf_fail_the_check(bad, position):
    values = [1e-12, 3e-13, 2e-12]
    values.insert(position, bad)
    assert not measured("c", "claim", 1e-6, values).passed
    # a non-finite defect survives `largest`, in either argument order
    folded = largest(*values)
    assert not measured("c", "claim", 1e-6, [folded]).passed


def test_largest_keeps_a_nan_that_max_drops():
    nan = float("nan")
    assert max(1.0, nan) == 1.0
    assert np.isnan(largest(1.0, nan)) and np.isnan(largest(nan, 1.0))


def test_an_empty_sample_reads_nan_and_fails():
    entry = measured("c", "claim", 1e-6, np.zeros((0,)))
    assert np.isnan(entry.residual) and entry.samples == 0 and not entry.passed
    assert measured("c", "claim", 1e-6, np.zeros((3, 0))).samples == 0


def test_invariance_defect_names_the_first_image_that_leaves_the_domain():
    # under x -> x - (1, 0) the third sample's image is the first to leave
    # x1 > 0; the message is the one the parent gave for the same samples
    g = preset("orthant2").can
    T = AffineAutomorphism(np.eye(2), np.array([-1.0, 0.0]))
    with pytest.raises(DomainError) as error:
        invariance_defect([T], g.sample_points(10), (g.metric,))
    assert str(error.value) == (
        "image point [-0.35873398  1.96343353] left the domain: "
        "ln of nonpositive argument -1.4197480591103542"
    )


def _nan_at(bad_point):
    """The field Id, with its zero derivative, that is NaN at `bad_point`."""
    def value(p):
        at_bad = np.all(p == bad_point, axis=-1)[..., None, None]
        return np.where(at_bad, np.nan, np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)))

    return TensorField(2, value, lambda p: np.zeros(p.shape[:-1] + (2, 2, 2)))


def test_a_nan_at_one_point_makes_the_batched_residuals_nan():
    points = preset("orthant2").con.sample_points(10)
    field = _nan_at(points[3])
    defects = [
        invariance_defect([AffineAutomorphism.linear(np.eye(2))], points, (field,)),
        invariance_defect([AffineAutomorphism.linear(np.eye(2))], points, endomorphisms=(field,)),
        flow_defect(VectorFieldSpec.from_affine(np.eye(2)), points, (field,)),
        flow_defect(VectorFieldSpec.from_affine(np.eye(2)), points, endomorphisms=(field,)),
    ]
    assert all(np.isnan(np.max(d)) for d in defects)
    assert not any(measured("c", "claim", 1e-6, d).passed for d in defects)
    # without the NaN point the same residuals are finite: Id is invariant
    identity = AffineAutomorphism.linear(np.eye(2))
    assert np.max(invariance_defect([identity], points[:3], (field,))) == 0.0


def _raises_at(bad_point, name):
    """The field Id, with its zero derivative, that raises `DomainError` at `bad_point`."""
    def value(p):
        if np.any(np.all(p == bad_point, axis=-1)):
            raise DomainError(f"{name} fails at {bad_point}")
        return np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2))

    return TensorField(2, value, lambda p: np.zeros(p.shape[:-1] + (2, 2, 2)))


def test_batched_residuals_raise_the_error_of_the_first_failing_point():
    # the first field fails at the sixth point and the second at the second:
    # a loop over the points meets the second field's failure first
    points = preset("orthant2").con.sample_points(10)
    fields = (_raises_at(points[5], "first field"), _raises_at(points[1], "second field"))
    identity, X = AffineAutomorphism.linear(np.eye(2)), VectorFieldSpec.from_affine(np.eye(2))
    for residual in (
        lambda: invariance_defect([identity], points, fields),
        lambda: invariance_defect([identity], points, endomorphisms=fields),
        lambda: flow_defect(X, points, fields),
        lambda: flow_defect(X, points, endomorphisms=fields),
    ):
        with pytest.raises(DomainError, match=r"^second field fails at"):
            residual()
