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

import re
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import (
    ArityError,
    DomainError,
    ExprSyntaxError,
    Overflow,
    UnknownIdentifier,
)
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


@dataclass(frozen=True)
class Num:
    value: complex  # float for literals, 1j for the reserved constant i


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
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


def _eval(node, env, real):
    if isinstance(node, Num):
        if real and isinstance(node.value, complex):
            raise DomainError("complex constant in real mode")
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.arg, env, real)
    if isinstance(node, BinOp):
        a = _eval(node.left, env, real)
        b = _eval(node.right, env, real)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return _div(a, b)
        if node.op == "^":
            return _pow(a, b, real)
        raise TypeError(node.op)
    if isinstance(node, Call):
        args = [_eval(a, env, real) for a in node.args]
        if node.name == "pow":
            return _pow(args[0], args[1], real)
        return _apply(node.name, args[0], real)
    raise TypeError(node)


def _div(a, b):
    if isinstance(b, Jet):
        return a / b
    if b == 0:
        raise DomainError("division by zero")
    return a / b


def _pow(base, exponent, real):
    # exponent must reduce to a constant for the AD domain guards to apply
    if isinstance(exponent, Jet):
        if np.any(exponent.g != 0) or np.any(exponent.h != 0):
            return base ** exponent
        exponent = exponent.f
    if isinstance(base, Jet):
        return base.powc(exponent)
    e = exponent
    is_int = isinstance(e, (int, np.integer)) or (
        isinstance(e, float) and e.is_integer()
    ) or (isinstance(e, complex) and e.imag == 0 and e.real.is_integer())
    if isinstance(e, complex):
        e = e.real if e.imag == 0 else e
    if is_int:
        if base == 0 and e < 0:
            raise DomainError("zero base with negative exponent")
        return base ** int(e.real if isinstance(e, complex) else e)
    if real:
        if not base > 0:
            raise DomainError(f"nonpositive base {base} with non-integer exponent")
    elif base == 0:
        raise DomainError("zero base with non-integer exponent")
    return base ** e


def _apply(name, x, real):
    if isinstance(x, Jet):
        if name == "ln":
            return x.ln()
        if name == "exp":
            return x.exp()
        return x.sqrt()
    if name == "ln":
        if real:
            if not x > 0:
                raise DomainError(f"ln of nonpositive argument {x}")
        elif x == 0:
            raise DomainError("ln of zero")
        return np.log(x)
    if name == "exp":
        return np.exp(x)
    if name == "sqrt":
        if real:
            if not x > 0:
                raise DomainError(f"sqrt of nonpositive argument {x}")
        elif x == 0:
            raise DomainError("sqrt of zero")
        return np.sqrt(x)
    raise TypeError(name)


@dataclass(frozen=True)
class ScalarExpression:
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
        """Plain (derivative-free) evaluation at a point."""
        point = np.asarray(point)
        env = {name: point[k] for k, name in enumerate(self.variables)}
        value = _eval(self.ast, env, self.real)
        if not np.isfinite(value):
            raise Overflow(f"non-finite value {value}")
        if self.real:
            return float(value)
        return complex(value)

    def jet3(self, point):
        point = np.asarray(point)
        n = len(self.variables)
        env = {
            name: Jet.variable(point[k], k, n, real=self.real)
            for k, name in enumerate(self.variables)
        }
        out = _eval(self.ast, env, self.real)
        if not isinstance(out, Jet):
            out = Jet.constant(out, n, real=self.real)
        return out.as_jet3()


def parse_expression(text, variables, mode="real"):
    """Parse `text` over the declared variables; deterministic, one tree per input."""
    if mode not in ("real", "complex"):
        raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
    if mode == "complex" and "i" in variables:
        raise ValueError("variable name 'i' is reserved in complex mode")
    tokens = _tokenize(text)
    ast = _Parser(tokens, variables, mode).parse()
    return ScalarExpression(ast, tuple(variables), mode)
