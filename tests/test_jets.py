import numpy as np
import pytest

from hessgeo.errors import DomainError, Overflow
from hessgeo.expressions import parse_expression
from hessgeo.jets import Jet


def variables(point, real=True):
    n = len(point)
    return [Jet.variable(point[k], k, n, real=real) for k in range(n)]


def test_polynomial_oracle():
    # f = x1^2 * x2 at (1, 2), derivatives computed by hand
    x1, x2 = variables([1.0, 2.0])
    jet = (x1 * x1 * x2).finite()
    assert jet.value == pytest.approx(2.0)
    assert jet.gradient == pytest.approx([4.0, 1.0])
    assert jet.hessian == pytest.approx(np.array([[4.0, 2.0], [2.0, 0.0]]))
    assert jet.third[0, 0, 1] == pytest.approx(2.0)
    assert jet.third[0, 0, 0] == pytest.approx(0.0)


def test_log_oracle():
    # f = -ln(x) at 2: value -ln 2, f' = -1/2, f'' = 1/4, f''' = -1/4
    (x,) = variables([2.0])
    jet = (-(x.ln())).finite()
    assert jet.value == pytest.approx(-np.log(2.0))
    assert jet.gradient[0] == pytest.approx(-0.5)
    assert jet.hessian[0, 0] == pytest.approx(0.25)
    assert jet.third[0, 0, 0] == pytest.approx(-0.25)


def test_quotient_and_power():
    x1, x2 = variables([2.0, 3.0])
    jet = (x1 / x2).finite()
    assert jet.value == pytest.approx(2.0 / 3.0)
    assert jet.gradient == pytest.approx([1.0 / 3.0, -2.0 / 9.0])
    jet = (x1 ** 3).finite()
    assert jet.gradient[0] == pytest.approx(12.0)
    assert jet.hessian[0, 0] == pytest.approx(12.0)
    assert jet.third[0, 0, 0] == pytest.approx(6.0)


def test_fractional_power_and_sqrt():
    (x,) = variables([4.0])
    jet = (x ** 0.5).finite()
    other = x.sqrt().finite()
    assert jet.value == pytest.approx(2.0)
    assert jet.gradient[0] == pytest.approx(other.gradient[0])
    assert jet.third[0, 0, 0] == pytest.approx(3.0 / 8.0 * 4.0 ** -2.5)


def test_exp_chain():
    (x,) = variables([0.3])
    jet = (x * x).exp().finite()
    e = np.exp(0.09)
    assert jet.gradient[0] == pytest.approx(0.6 * e)
    assert jet.hessian[0, 0] == pytest.approx((2.0 + 0.36) * e)


def test_complex_holomorphic():
    # F = z^3 / 6 at z = i: F'' = z = i
    (z,) = variables([1j], real=False)
    jet = (z * z * z / 6.0).finite()
    assert jet.value == pytest.approx(-1j / 6.0)
    assert jet.hessian[0, 0] == pytest.approx(1j)
    assert jet.third[0, 0, 0] == pytest.approx(1.0)


def test_domain_guards():
    (x,) = variables([-1.0])
    with pytest.raises(DomainError):
        x.ln()
    with pytest.raises(DomainError):
        x.sqrt()
    with pytest.raises(DomainError):
        x ** 0.5


def test_division_by_zero_is_domain_error():
    (x,) = variables([0.0])
    with pytest.raises(DomainError):
        Jet.constant(1.0, 1) / x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_guard():
    (x,) = variables([800.0])
    with pytest.raises(Overflow):
        x.exp().exp().finite()



@pytest.mark.parametrize("exponent, products", [(2, 1), (3, 2), (5, 3), (8, 3)])
def test_integer_power_makes_no_wasted_products(monkeypatch, exponent, products):
    x = 1.3
    calls = []
    mul = Jet.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    jet = parse_expression(f"x1^{exponent}", ["x1"]).jet3([x])
    assert len(calls) == products
    k = exponent
    assert jet.value == pytest.approx(x**k, rel=1e-14)
    assert jet.gradient[0] == pytest.approx(k * x ** (k - 1), rel=1e-14)
    assert jet.hessian[0, 0] == pytest.approx(k * (k - 1) * x ** (k - 2), rel=1e-14)
    assert jet.third[0, 0, 0] == pytest.approx(k * (k - 1) * (k - 2) * x ** (k - 3), rel=1e-14)

def test_zero_and_negative_integer_powers():
    (x,) = variables([2.0])
    one = x.powc(0).finite()
    assert one.value == 1.0 and not np.any(one.gradient) and not np.any(one.third)
    inverse_cube = x.powc(-3).finite()
    assert inverse_cube.value == pytest.approx(0.125)
    assert inverse_cube.gradient[0] == pytest.approx(-3.0 / 16.0)
    assert inverse_cube.third[0, 0, 0] == pytest.approx(-60.0 / 2.0**6)


# -- truncation: a pass of order k computes the first k derivatives alone ----

TRUNCATION_CASES = [
    ("-ln(x3^2-x1^2-x2^2)", "real", [0.3, -0.4, 2.0], 0.2),
    ("exp(x1*x2)/sqrt(x2)+ln(x1+x2)+x1^2.5+2^x3", "real", [0.8, 1.3, 0.5], 0.2),
    ("i*z2^3/z1", "complex", [1.0 + 0.02j, 1.05 - 0.01j], 0.05),
    ("exp(z1*z2)+z1^0.5/z2-pow(z2, 3)", "complex", [0.9 + 0.3j, 1.1 - 0.2j], 0.1),
]


@pytest.mark.parametrize("batch", [None, 100], ids=["one-point", "batch-100"])
@pytest.mark.parametrize(
    "text, mode, center, spread", TRUNCATION_CASES, ids=["lorentz", "real-mixed", "conic", "complex-mixed"]
)
def test_truncated_jets_reproduce_the_order_3_pass(text, mode, center, spread, batch):
    center = np.asarray(center)
    letter = "z" if mode == "complex" else "x"
    e = parse_expression(text, [f"{letter}{k + 1}" for k in range(len(center))], mode)
    points = center
    if batch:
        rng = np.random.default_rng(5)
        points = center + spread * rng.uniform(-1.0, 1.0, (batch, len(center)))
        if mode == "complex":
            points = points + 1j * spread * rng.uniform(-1.0, 1.0, points.shape)
    full = e.jet3(points)
    assert full.third is not None
    for order, read in ((0, ()), (1, ("gradient",)), (2, ("gradient", "hessian"))):
        jet = e.jet3(points, order=order)
        assert np.array_equal(jet.value, full.value)
        for field in ("gradient", "hessian", "third"):
            if field in read:
                assert np.array_equal(getattr(jet, field), getattr(full, field)), (order, field)
            else:
                assert getattr(jet, field) is None, (order, field)
    assert np.array_equal(e(points), full.value)


def test_an_order_2_pass_does_not_fail_on_the_third_derivative_it_skips():
    # x^-100 at 0.0011: value, gradient and Hessian lie below 1e306, the
    # third derivative above the float range
    e = parse_expression("x1^-100", ["x1"])
    jet = e.jet3([0.0011], order=2)
    assert jet.hessian[0, 0] == pytest.approx(10100 * 0.0011**-102, rel=1e-12)
    with pytest.raises(Overflow):
        e.jet3([0.0011])

