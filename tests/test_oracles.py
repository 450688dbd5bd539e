"""Property tests against independent oracles.

The parser is checked against itself (parse, serialize, parse again), and
the order-3 jets against sympy's symbolic derivatives on generated
polynomial and rational expression trees.  Examples are derandomized, so a
run draws the same trees every time.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hessgeo.errors import HessgeoError  # noqa: E402
from hessgeo.expressions import parse_expression  # noqa: E402

VARIABLES = ("x1", "x2", "x3")
SYMBOLS = sympy.symbols(VARIABLES)
ORACLE = settings(derandomize=True, max_examples=60, deadline=None)


# -- parse -> serialize -> parse ------------------------------------------

_numbers = st.one_of(
    st.integers(0, 1000).map(str),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False).map(lambda v: repr(abs(v))),
    st.sampled_from([".5", "2.", "1e-3", "2.5E2", "7e+1"]),
)


@st.composite
def _texts(draw, depth=4):
    """Expression text, parenthesized only where a draw says so."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(st.sampled_from(VARIABLES), _numbers))
    a, b = draw(_texts(depth - 1)), draw(_texts(depth - 1))
    form = draw(st.sampled_from(["binary", "binary", "neg", "call", "pow"]))
    if form == "neg":
        return f"-({a})"
    if form == "call":
        return f"{draw(st.sampled_from(['ln', 'exp', 'sqrt']))}({a})"
    if form == "pow":
        return f"pow({a}, {b})"
    op = draw(st.sampled_from("+-*/^"))
    return f"({a}){op}({b})" if draw(st.booleans()) else f"{a}{op}{b}"


_points = st.lists(
    st.integers(-16, 16).map(lambda k: k / 8), min_size=3, max_size=3
)


def _value(expression, point):
    """The value at `point`, or the error class it raises."""
    try:
        return expression(point)
    except (HessgeoError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@ORACLE
@given(text=_texts(), points=st.lists(_points, min_size=1, max_size=3))
def test_parse_serialize_parse_round_trip(text, points):
    expression = parse_expression(text, VARIABLES)
    again = parse_expression(expression.serialize(), VARIABLES)
    assert again.ast == expression.ast
    for point in points:
        assert _value(again, point) == _value(expression, point)


# -- jet3 against sympy ----------------------------------------------------

_leaves = st.one_of(
    st.sampled_from(list(zip(VARIABLES, SYMBOLS))),
    st.sampled_from([1, 2, 3, 5]).map(lambda k: (str(k), sympy.Integer(k))),
    st.sampled_from(["0.5", "0.25", "1.5"]).map(lambda t: (t, sympy.Rational(t))),
)


@st.composite
def _trees(draw, depth=3):
    """A fully parenthesized polynomial or rational tree: (text, sympy expression)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_leaves)
    (ta, sa), (tb, sb) = draw(_trees(depth - 1)), draw(_trees(depth - 1))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg"]))
    if op == "neg":
        return f"-({ta})", -sa
    if op == "^":
        k = draw(st.sampled_from([2, 3, -1, -2]))
        return f"({ta})^({k})", sa**k
    text = f"({ta}){op}({tb})"
    if op == "+":
        return text, sa + sb
    if op == "-":
        return text, sa - sb
    if op == "*":
        return text, sa * sb
    return text, sa / sb


def _exact(expr, point):
    value = expr.subs(dict(zip(SYMBOLS, point)))
    assume(value.is_finite)
    return float(value)


def _sympy_jet(expr, point):
    """Value, gradient, Hessian and third derivatives of `expr`, exact at `point`."""
    n = len(SYMBOLS)
    grad = [sympy.diff(expr, s) for s in SYMBOLS]
    hess = [[sympy.diff(g, s) for s in SYMBOLS] for g in grad]
    third = np.zeros((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        if i <= j <= k:
            entry = _exact(sympy.diff(hess[i][j], SYMBOLS[k]), point)
            for a, b, c in itertools.permutations((i, j, k)):
                third[a, b, c] = entry
    return (
        _exact(expr, point),
        np.array([_exact(g, point) for g in grad]),
        np.array([[_exact(h, point) for h in row] for row in hess]),
        third,
    )


@ORACLE
@given(tree=_trees(), point=_points)
def test_jet3_matches_sympy_derivatives(tree, point):
    text, expr = tree
    point = [sympy.Rational(x) for x in point]
    reference = _sympy_jet(expr, point)
    assume(all(np.max(np.abs(part)) < 1e8 for part in reference))
    try:
        jet = parse_expression(text, VARIABLES).jet3(np.array(point, dtype=float))
    except HessgeoError:
        assume(False)
    for got, want in zip((jet.value, jet.gradient, jet.hessian, jet.third), reference):
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)
