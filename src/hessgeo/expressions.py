"""Scalar expression language for potentials, field components and prepotentials.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-'? atom
    atom   := number | identifier | func '(' expr (',' expr)* ')' | '(' expr ')'
    func   := 'ln' | 'exp' | 'sqrt' | 'pow'

Numbers are decimals with an optional exponent.  Identifiers must come from
the declared variable list; in complex mode the name ``i`` is reserved for the
imaginary unit.  There is no implicit multiplication and ``^`` is
right-associative.
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple, Tuple, Union

import numpy as np

from .errors import ArityError, DomainError, ExprSyntaxError, Overflow, UnknownIdentifier
from .jets import Jet

__all__ = ["ScalarExpression", "parse_expression"]

_FUNCTIONS = {"ln": 1, "exp": 1, "sqrt": 1, "pow": 2}

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


# -- AST -------------------------------------------------------------------


class Num(NamedTuple):
    value: complex  # float for literals, 1j for the reserved constant i


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Node"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


class Call(NamedTuple):
    name: str
    args: Tuple["Node", ...]


Node = Union[Num, Var, Neg, BinOp, Call]


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, mode):
        self.tokens = tokens
        self.k = 0
        self.variables = set(variables)
        self.mode = mode

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value):
        kind, text, off = self.peek()
        if text != value:
            raise ExprSyntaxError(f"expected {value!r}", off)
        return self.next()

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", off)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.peek()[1] == "^":
            self.next()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.atom())
        return self.atom()

    def atom(self):
        kind, text, off = self.next()
        if kind == "number":
            return Num(float(text))
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if text in _FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                want = _FUNCTIONS[text]
                if len(args) != want:
                    raise ArityError(text, want, len(args), off)
                return Call(text, tuple(args))
            if text in self.variables:
                return Var(text)
            if text == "i" and self.mode == "complex":
                return Num(1j)
            raise UnknownIdentifier(text, off)
        raise ExprSyntaxError(f"unexpected token {text!r}", off)


def _serialize(node):
    if isinstance(node, Num):
        if node.value == 1j:
            return "i"
        v = node.value.real if isinstance(node.value, complex) else node.value
        return repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-({_serialize(node.arg)})"
    if isinstance(node, BinOp):
        return f"({_serialize(node.left)}){node.op}({_serialize(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({','.join(_serialize(a) for a in node.args)})"
    raise TypeError(node)


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _holds_variable(node):
    if isinstance(node, (Num, Var)):
        return isinstance(node, Var)
    if isinstance(node, Neg):
        return _holds_variable(node.arg)
    children = node.args if isinstance(node, Call) else (node.left, node.right)
    return any(map(_holds_variable, children))


def _eval(node, env, real):
    """The tree's `Jet`: every number in it is a constant jet, so each
    operation, on variables or on numbers alone, follows `Jet`'s rules."""
    if isinstance(node, Num):
        return Jet(node.value, real=real)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.arg, env, real)
    if isinstance(node, BinOp):
        a, b = _eval(node.left, env, real), _eval(node.right, env, real)
        if node.op != "^":
            return _BINARY[node.op](a, b)
        exponent = node.right
    elif node.name == "pow":
        (a, b), exponent = [_eval(arg, env, real) for arg in node.args], node.args[1]
    else:
        return getattr(_eval(node.args[0], env, real), node.name)()  # ln, exp or sqrt
    # exp(b ln a) when the exponent's subtree holds a variable, in every pass
    # and at every point alike; otherwise a power with the exponent's number
    return a ** (b if _holds_variable(exponent) else b.value)


class ScalarExpression(NamedTuple):
    """A parsed expression over a fixed, ordered variable list."""

    ast: Node
    variables: Tuple[str, ...]
    mode: str  # "real" | "complex"

    @property
    def real(self):
        return self.mode == "real"

    def serialize(self):
        return _serialize(self.ast)

    def __call__(self, point):
        """Plain evaluation, a value-only pass: a number, or an array (...)."""
        value = self._evaluate(point, 0).value
        if isinstance(value, np.ndarray):
            return value
        return float(value) if self.real else complex(value)

    def jet3(self, point, order=3):
        """The `Jet` truncated at `order` (0 to 3): value, gradient, Hessian and
        third derivatives, those past `order` None and never computed."""
        return self._evaluate(point, order)

    def _evaluate(self, point, order):
        """One pass at a point (n,) or at all points (..., n), whose variables
        carry derivative arrays to `order`; a float range error is an
        `Overflow`, an error in a batch the one its first failing point raises."""
        point = np.asarray(point, dtype=float if self.real else complex)
        n, batch = len(self.variables), point.shape[:-1]
        env = {}
        for k, name in enumerate(self.variables):
            x = point[..., k] if batch else float(point[k]) if self.real else complex(point[k])
            env[name] = Jet.variable(x, k, n, self.real, order) if order else Jet(x, real=self.real)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                jet = _eval(self.ast, env, self.real).finite()
        except (ArithmeticError, DomainError, Overflow) as exc:
            for row in point if batch else ():
                self._evaluate(row, order)
            if isinstance(exc, ArithmeticError):  # Python's or numpy's float range error
                raise Overflow(f"non-finite value: {exc}") from None
            raise
        if jet.gradient is None and (order or batch and not np.ndim(jet.value)):
            value = np.full(batch, jet.value) if batch else jet.value
            jet = Jet.constant(value, n, self.real, order) if order else Jet(value, real=self.real)
        return jet


def parse_expression(text, variables, mode="real"):
    """Parse `text` over the declared variables; deterministic, one tree per input."""
    if mode not in ("real", "complex"):
        raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
    if mode == "complex" and "i" in variables:
        raise ValueError("variable name 'i' is reserved in complex mode")
    tokens = _tokenize(text)
    ast = _Parser(tokens, variables, mode).parse()
    return ScalarExpression(ast, tuple(variables), mode)
