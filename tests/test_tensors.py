import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from flows import affine_flow

import hessgeo

from hessgeo.cmap import special_kahler_preset
from hessgeo.cones import preset
from hessgeo.expressions import ScalarExpression, parse_expression
from hessgeo.report import CheckResult
from hessgeo.tensors import (
    AffineAutomorphism,
    Residual,
    TensorField,
    VectorFieldSpec,
    blocks,
    exterior_derivative_2form,
    finite_differences,
    invariance_defect,
    is_positive_definite,
    lie_derivative_endomorphism,
    lie_derivative_metric,
    lift_tensor,
    nijenhuis,
    pullback_defect,
    pullback_metric,
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
    potential = parse_expression("1/(x1*x2)+x1^4", VARS)
    g = TensorField.from_potential(potential)
    calls = []
    jet3 = ScalarExpression.jet3

    def counted(expr, p):
        calls.append(np.asarray(p).tobytes())
        return jet3(expr, p)

    monkeypatch.setattr(ScalarExpression, "jet3", counted)
    points = [np.array([0.8, 1.4]), np.array([1.1, 0.7]), np.array([0.8, 1.4])]
    for p in points * 3:
        g(p)
        g.derivative(p)
    assert len(calls) == len(set(calls)) == 2


def test_component_field_makes_one_jet_per_component_per_point(monkeypatch):
    rows = (("1", "x1*x2"), ("x1*x2", "1+x1^2"))
    g = TensorField.from_components([[parse_expression(t, VARS) for t in row] for row in rows])
    calls = []
    jet3 = ScalarExpression.jet3

    def counted(expr, p):
        calls.append(np.asarray(p).tobytes())
        return jet3(expr, p)

    def plain(expr, p):
        raise AssertionError("plain evaluation")

    monkeypatch.setattr(ScalarExpression, "jet3", counted)
    monkeypatch.setattr(ScalarExpression, "__call__", plain)
    p = np.array([0.8, 1.4])
    for _ in range(3):
        assert g(p) == pytest.approx(np.array([[1.0, 1.12], [1.12, 1.64]]))
        assert g.derivative(p)[:, 1, 1] == pytest.approx([1.6, 0.0])
    assert len(calls) == 4 and len(set(calls)) == 1


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
    with finite_differences():
        fd = lifted.derivative(p)
    assert fd == pytest.approx(D, abs=1e-8)


def test_metric_derivative_fd_agrees():
    g = metric_from("1/(x1*x2)")
    p = np.array([0.8, 1.4])
    with finite_differences():
        fd = g.derivative(p)
    assert fd == pytest.approx(g.derivative(p), abs=1e-6)


def test_finite_differences_switch_is_off_after_an_error_in_its_block():
    # the exact derivative of p^2 is marked wrong, -1, to tell the two apart
    marked = TensorField(1, lambda p: p * p, lambda p: np.array([[-1.0]]))
    p = np.array([3.0])
    with pytest.raises(RuntimeError):
        with finite_differences():
            assert marked.derivative(p) == pytest.approx(np.array([[6.0]]))
            raise RuntimeError
    assert marked.derivative(p) == np.array([[-1.0]])


def test_no_function_takes_an_fd_parameter():
    # the derivative method is the `finite_differences()` switch, never an argument
    for info in pkgutil.iter_modules(hessgeo.__path__):
        module = importlib.import_module(f"hessgeo.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for fn in (obj, *members):
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn):
                    assert "fd" not in inspect.signature(fn).parameters, (module, name)


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

    form = TensorField(2, w)
    A = np.array([[0.0, 1.0], [-1.0, 0.4]])
    xi = VectorFieldSpec.from_affine(A)
    p = np.array([0.6, 1.0])
    t = 1e-5
    flow_p = affine_flow(A, np.zeros(2), t)
    flow_m = affine_flow(A, np.zeros(2), -t)
    numeric = (
        flow_p.A.T @ w(flow_p(p)) @ flow_p.A - flow_m.A.T @ w(flow_m(p)) @ flow_m.A
    ) / (2 * t)
    with finite_differences():
        assert lie_derivative_metric(form, xi, p) == pytest.approx(numeric, abs=1e-6)


def test_lie_derivative_constant_endomorphism():
    # for constant J and linear field A x: L J = J A - A J
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    field = TensorField.constant(J)
    xi = VectorFieldSpec.from_affine(A)
    L = lie_derivative_endomorphism(field, xi, np.array([0.3, 0.4]))
    assert L == pytest.approx(J @ A - A @ J)


def test_exterior_derivative_oracle():
    # in 3 variables: d(x1 dx1 ^ dx2) = 0 while d(x3 dx1 ^ dx2) = dx3 ^ dx1 ^ dx2
    def w(s):
        def func(p):
            out = np.zeros((3, 3))
            out[0, 1] = s(p)
            out[1, 0] = -s(p)
            return out

        return TensorField(3, func)

    closed = w(lambda q: q[0])
    with finite_differences():
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
    J = TensorField(2, lambda p: (1.0 + p[0] ** 2) * J0)
    with finite_differences():
        N = nijenhuis(J, [0.7, 0.1])
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
    assert defect == pytest.approx(1.0 - 2.0 ** (-con.dim), abs=1e-12)
    # and with the factor 2^(-n) the dilation preserves it
    scaled = invariance_defect([T], con.sample_points(5), (con.metric,), factor=2.0 ** (-con.dim))
    assert scaled < 1e-12


def test_invariance_defect_of_a_reflection_on_I():
    # diag(1, -1) preserves the flat metric of sk_flat but maps I to -I
    sk = special_kahler_preset("sk_flat", samples=5)
    T = AffineAutomorphism.linear(np.diag([1.0, -1.0]))
    points = sk.sample_points(5)
    assert invariance_defect([T], points, (sk.metric,), floor=1.0) < 1e-12
    assert invariance_defect([T], points, endomorphisms=(sk.complex_structure,)) == pytest.approx(
        2.0, abs=1e-12
    )


def test_singular_automorphism_rejected():
    with pytest.raises(ValueError):
        AffineAutomorphism(np.zeros((2, 2)), np.zeros(2))


def test_positive_definite_helpers():
    assert is_positive_definite(np.eye(2))
    assert not is_positive_definite(np.diag([1.0, -1.0]))


def test_residual_is_the_exact_maximum_of_finite_values():
    values = [0.3, 1e-17, 2.5, -4.0, 2.5 - 1e-15]
    assert Residual().add(*values).value == max(values)
    assert Residual().add(-1.0).value == 0.0
    arrays = [np.array([[0.1, -3.0]]), np.array([2.0])]
    assert Residual().add_max_abs(*arrays).value == 3.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("nan")])
@pytest.mark.parametrize("position", [0, 1, 3])
def test_residual_lets_nan_and_inf_fail_the_check(bad, position):
    values = [1e-12, 3e-13, 2e-12]
    values.insert(position, bad)
    residual = Residual().add(*values)
    assert not CheckResult("c", "claim", residual.value, 1e-6, len(values)).passed
    nan_matrix = np.array([[1e-12, bad], [0.0, 1e-13]])
    residual = Residual().add_max_abs(np.zeros(2), nan_matrix, np.ones(1) * 1e-12)
    assert not CheckResult("c", "claim", residual.value, 1e-6, 3).passed
