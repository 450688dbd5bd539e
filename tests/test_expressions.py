import json
from pathlib import Path

import numpy as np
import pytest

from hessgeo.errors import (
    ArityError,
    DomainError,
    ExprSyntaxError,
    HessgeoError,
    Overflow,
    UnknownIdentifier,
)
from hessgeo.expressions import parse_expression
from hessgeo.jets import Jet
from hessgeo.tensors import fd_tensor_derivative


def test_arithmetic_values():
    e = parse_expression("2*x1+x2/4-1", ["x1", "x2"])
    assert e([3.0, 8.0]) == pytest.approx(7.0)


def test_power_right_associative():
    e = parse_expression("2^3^2", [])
    assert e([]) == pytest.approx(512.0)


def test_precedence_and_parentheses():
    e = parse_expression("1+2*3^2", [])
    assert e([]) == pytest.approx(19.0)
    e = parse_expression("(1+2)*3", [])
    assert e([]) == pytest.approx(9.0)


def test_functions():
    e = parse_expression("ln(exp(x1))+sqrt(x1^2)", ["x1"])
    assert e([2.5]) == pytest.approx(5.0)
    e = parse_expression("pow(x1, 3)", ["x1"])
    assert e([2.0]) == pytest.approx(8.0)


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse_expression("2 x1", ["x1"])


def test_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifier) as err:
        parse_expression("x1+zz", ["x1"])
    assert err.value.offset == 3


def test_arity_error():
    with pytest.raises(ArityError):
        parse_expression("ln(x1, x1)", ["x1"])
    with pytest.raises(ArityError):
        parse_expression("pow(x1)", ["x1"])


def test_syntax_errors():
    for bad in ("", "1+", "(1", "1)", "x1 +* 2", "ln()"):
        with pytest.raises(ExprSyntaxError):
            parse_expression(bad, ["x1"])


def test_domain_errors():
    e = parse_expression("ln(x1)", ["x1"])
    with pytest.raises(DomainError):
        e([-1.0])
    e = parse_expression("1/x1", ["x1"])
    with pytest.raises(DomainError):
        e([0.0])
    e = parse_expression("x1^0.5", ["x1"])
    with pytest.raises(DomainError):
        e([-4.0])


def test_complex_mode_imaginary_unit():
    e = parse_expression("i*z1^2/2", ["z1"], mode="complex")
    jet = e.jet3(np.array([2.0 + 0.0j]))
    assert jet.value == pytest.approx(2j)
    assert jet.hessian[0, 0] == pytest.approx(1j)


def test_i_not_available_in_real_mode():
    with pytest.raises(UnknownIdentifier):
        parse_expression("i*x1", ["x1"])


def test_i_reserved_as_variable_name():
    with pytest.raises(ValueError):
        parse_expression("i", ["i"], mode="complex")


def test_serialize_round_trip():
    texts = [
        "1/(x1*x2)",
        "(x1^2+x2^2)^(-1.5)",
        "ln(x1)+exp(-(x2))",
        "pow(x1, 2.5)-sqrt(x2)",
    ]
    rng = np.random.default_rng([7, 1])
    for text in texts:
        e = parse_expression(text, ["x1", "x2"])
        again = parse_expression(e.serialize(), ["x1", "x2"])
        assert again.serialize() == parse_expression(again.serialize(), ["x1", "x2"]).serialize()
        for _ in range(5):
            p = rng.uniform(0.5, 2.0, 2)
            assert again(p) == pytest.approx(e(p), rel=1e-14)


def test_random_polynomials_against_fd():
    # degree <= 4 polynomials in 3 variables: jets must agree with central
    # finite differences of the plain evaluator
    rng = np.random.default_rng([7, 2])
    variables = ["x1", "x2", "x3"]
    for _ in range(50):
        terms = []
        for _ in range(rng.integers(1, 5)):
            coeff = rng.uniform(-2.0, 2.0)
            powers = rng.integers(0, 3, size=3)
            while powers.sum() > 4:
                powers = rng.integers(0, 3, size=3)
            monomial = "*".join(
                [f"{coeff:.6f}"] + [f"{v}^{k}" for v, k in zip(variables, powers) if k]
            )
            terms.append(f"({monomial})")
        e = parse_expression("+".join(terms), variables)
        p = rng.uniform(0.5, 1.5, 3)
        jet = e.jet3(p)
        assert jet.value == pytest.approx(e(p), rel=1e-12, abs=1e-12)
        assert jet.gradient == pytest.approx(fd_tensor_derivative(e, p), abs=1e-4)
        fd_hess = fd_tensor_derivative(lambda q: fd_tensor_derivative(e, q), p)
        assert jet.hessian == pytest.approx(fd_hess, abs=1e-4)


def test_jet_matches_fd_for_transcendental():
    e = parse_expression("exp(x1*x2)/sqrt(x2)+ln(x1+x2)", ["x1", "x2"])
    p = np.array([0.8, 1.3])
    jet = e.jet3(p)
    assert jet.gradient == pytest.approx(fd_tensor_derivative(e, p), abs=1e-6)


@pytest.mark.parametrize(
    "text, x",
    [
        ("1/x1", 0.0),
        ("ln(x1)", -1.0),
        ("sqrt(x1)", -1.0),
        ("x1^0.5", -4.0),
        ("x1^(-1)", 0.0),
        ("pow(x1, -2)", 0.0),
        ("(0-8)^(1/3)", 1.0),
        ("exp(exp(x1))", 800.0),
    ],
)
def test_plain_evaluation_and_jets_raise_alike(text, x):
    # one set of domain rules: the value-only pass and the order-2 pass raise
    # what the full pass does
    e = parse_expression(text, ["x1"])
    with pytest.raises(HessgeoError) as jet:
        e.jet3([x])
    for evaluate in (e, lambda p: e.jet3(p, order=2)):
        with pytest.raises(HessgeoError) as truncated:
            evaluate([x])
        assert type(truncated.value) is type(jet.value)
        assert str(truncated.value) == str(jet.value)


@pytest.mark.parametrize("text", ["2^x1", "pow(2, x1)"])
def test_number_to_a_variable_power(text):
    e = parse_expression(text, ["x1"])
    x = 1.3
    jet = e.jet3([x])
    derivatives = [jet.value, jet.gradient[0], jet.hessian[0, 0], jet.third[0, 0, 0]]
    assert derivatives == pytest.approx([np.log(2.0) ** k * 2.0**x for k in range(4)], rel=1e-14)
    assert e([x]) == pytest.approx(2.0**x, rel=1e-15)
    # a number to the power of a jet, outside any expression
    outside = 2.0 ** Jet.variable(x, 0, 1)
    assert outside.third[0, 0, 0] == pytest.approx(jet.third[0, 0, 0], rel=1e-15)


def test_plain_evaluation_computes_no_derivative_coefficients():
    # the jets' coefficients 2/x^3 and x^-2 would leave the float range here
    assert parse_expression("1/x1", ["x1"])([1e-200]) == pytest.approx(1e200, rel=1e-15)
    e = parse_expression("ln(x1)^2.5", ["x1"])
    assert e([1e300]) == pytest.approx(np.log(1e300) ** 2.5, rel=1e-15)


# -- variable exponents ------------------------------------------------------


def test_a_variable_exponent_takes_exp_ln_in_both_passes():
    # x1^x2 = exp(x2 ln x1) whether or not the pass carries derivatives, so
    # both raise at x1 < 0, alone and as the second point of a batch
    e = parse_expression("x1^x2", ["x1", "x2"])
    batch = np.array([[1.5, 2.0], [-2.0, 2.0], [2.0, 0.5]])
    for evaluate in (e, e.jet3):
        for points in ([-2.0, 2.0], batch):
            with pytest.raises(DomainError) as error:
                evaluate(points)
            assert str(error.value) == "ln of nonpositive argument -2.0"
    assert e([1.5, 2.0]) == pytest.approx(2.25, rel=1e-15)


def test_a_constant_exponent_keeps_the_power_rules():
    # a number to a variable power, and a variable to a constant power
    x = 1.3
    jet = parse_expression("2^x1", ["x1"]).jet3([x])
    assert jet.third[0, 0, 0] == pytest.approx(np.log(2.0) ** 3 * 2.0**x, rel=1e-14)
    cube_root = parse_expression("x1^(1/3)", ["x1"])
    jet = cube_root.jet3([8.0])
    assert [jet.value, jet.gradient[0], jet.hessian[0, 0]] == pytest.approx(
        [2.0, 1.0 / 12.0, -1.0 / 144.0], rel=1e-14
    )
    with pytest.raises(DomainError, match="nonpositive base -8.0 with non-integer exponent"):
        cube_root([-8.0])


# -- batches: one tree walk over (B, n) points equals B walks at one point ---


def _batch_cases():
    from hessgeo.cli import noncone_structure
    from hessgeo.cones import PRESET_NAMES, preset
    from hessgeo.rmap import build_kahler_lift

    cases = []
    for name in PRESET_NAMES:
        cone = preset(name)
        for structure in (cone.can, cone.con):
            cases.append((structure.name, structure.potential, structure.sample_points(20)))
        # the lifted potential of `check_potential_identity`, over M x R^n
        base = cone.can
        lifted = parse_expression(
            f"4.0*({base.potential.serialize()})",
            list(base.potential.variables) + [f"y{k + 1}" for k in range(base.dim)],
        )
        cases.append((f"{name}_lifted", lifted, build_kahler_lift(base).sample_points(20)))
    noncone = noncone_structure()
    for text in ("1", "0", "1+x1^2"):
        cases.append((f"noncone {text}", parse_expression(text, ["x1", "x2"]), noncone.sample_points(20)))
    with open(Path(__file__).parent / "golden" / "sk_direct.json") as handle:
        config = json.load(handle)
    q = ["q1", "q2"]
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (20, 2))
    cases.append(("sk_direct potential", parse_expression(config["potential"], q), points))
    for i, row in enumerate(config["I"]):
        for j, text in enumerate(row):
            cases.append((f"sk_direct I[{i}][{j}]", parse_expression(text, q), points))
    return cases


BATCH_CASES = _batch_cases()


def _close(batched, stacked):
    return np.max(np.abs(batched - stacked)) <= 1e-14 * max(np.max(np.abs(stacked)), 1e-300)


@pytest.mark.parametrize("name, expression, points", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_a_batch_equals_its_points_one_by_one(name, expression, points):
    jet = expression.jet3(points)
    singles = [expression.jet3(p) for p in points]
    for field in ("value", "gradient", "hessian", "third"):
        stacked = np.array([getattr(s, field) for s in singles])
        assert getattr(jet, field).shape == stacked.shape
        assert _close(getattr(jet, field), stacked), field
    values = expression(points)
    assert values.shape == (len(points),)
    assert _close(values, np.array([expression(p) for p in points]))


@pytest.mark.parametrize(
    "text, bad, error",
    [("ln(x1)+x2", -1.0, DomainError), ("sqrt(x1)*x2", -4.0, DomainError),
     ("exp(exp(x1))+x2", 800.0, Overflow)],
)
def test_a_batch_raises_what_its_first_failing_point_raises(text, bad, error):
    e = parse_expression(text, ["x1", "x2"])
    points = np.full((7, 2), 0.5)
    points[3] = [bad, 0.25]
    points[5] = [2 * bad, 0.75]
    for evaluate in (e, e.jet3):
        with pytest.raises(error) as alone:
            evaluate(points[3])
        with pytest.raises(error) as batched:
            evaluate(points)
        assert str(batched.value) == str(alone.value)
