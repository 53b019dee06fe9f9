"""Tiny arithmetic expression language with forward-mode differentiation.

Grammar (left-associative binary operators)::

    expr    := unary (("+" | "-") unary)*
    unary   := "-" unary | product
    product := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" exponent)*        # exponent subtree must be constant
    exponent:= ["-"] atom
    atom    := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

A leading minus negates the whole product, so ``-t^2/2`` parses as
``Neg(Div(Pow(t, 2), 2))``.  Exponents are restricted to constant subtrees,
which keeps differentiation closed-form.  ``log`` is the natural logarithm
and trigonometric functions work in radians.  There is no implicit
multiplication.

Evaluation accepts plain floats, numpy arrays, or :class:`Dual` numbers.
Duals propagate one directional derivative exactly; nesting duals yields
second derivatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class ExprError(ValueError):
    """Base class for expression language failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(ExprError):
    def __init__(self, message, node):
        super().__init__(f"{message} in `{to_source(node)}`")
        self.node = node


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


FUNCTIONS = ("sin", "cos", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")


def variables_of(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables_of(node.arg)
    if isinstance(node, BinOp):
        return variables_of(node.lhs) | variables_of(node.rhs)
    if isinstance(node, Call):
        return variables_of(node.arg)
    return set()


# ---------------------------------------------------------------------------
# Dual numbers


def _deep(x):
    """Innermost float of a possibly nested dual."""
    while isinstance(x, Dual):
        x = x.value
    return x


class Dual:
    """Value together with one directional derivative.

    Components may themselves be duals, in which case the arithmetic
    propagates second-order information.
    """

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0.0):
        self.value = value
        self.deriv = deriv

    def __repr__(self):
        return f"Dual({self.value!r}, {self.deriv!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        return Dual(self.value + other, self.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.deriv - other.deriv)
        return Dual(self.value - other, self.deriv)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.deriv)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.deriv * other.value + self.value * other.deriv)
        return Dual(self.value * other, self.deriv * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            return Dual(self.value * inv,
                        (self.deriv - self.value * inv * other.deriv) * inv)
        return Dual(self.value / other, self.deriv / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        val = other * inv
        return Dual(val, -val * inv * self.deriv)

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def pow_const(self, c):
        v = fpow(self.value, c - 1.0)
        return Dual(fpow(self.value, c), c * v * self.deriv)

    def sin(self):
        return Dual(fsin(self.value), fcos(self.value) * self.deriv)

    def cos(self):
        return Dual(fcos(self.value), -fsin(self.value) * self.deriv)

    def sinh(self):
        return Dual(fsinh(self.value), fcosh(self.value) * self.deriv)

    def cosh(self):
        return Dual(fcosh(self.value), fsinh(self.value) * self.deriv)

    def tanh(self):
        t = ftanh(self.value)
        return Dual(t, (1.0 - t * t) * self.deriv)

    def exp(self):
        e = fexp(self.value)
        return Dual(e, e * self.deriv)

    def log(self):
        return Dual(flog(self.value), self.deriv / self.value)

    def sqrt(self):
        s = fsqrt(self.value)
        return Dual(s, self.deriv / (2.0 * s))

    def abs(self):
        return Dual(fabs_(self.value), self.deriv * np.sign(_deep(self.value)))


def fsin(x):
    return x.sin() if isinstance(x, Dual) else np.sin(x)


def fcos(x):
    return x.cos() if isinstance(x, Dual) else np.cos(x)


def fsinh(x):
    return x.sinh() if isinstance(x, Dual) else np.sinh(x)


def fcosh(x):
    return x.cosh() if isinstance(x, Dual) else np.cosh(x)


def ftanh(x):
    return x.tanh() if isinstance(x, Dual) else np.tanh(x)


def fexp(x):
    return x.exp() if isinstance(x, Dual) else np.exp(x)


def flog(x):
    return x.log() if isinstance(x, Dual) else np.log(x)


def fsqrt(x):
    return x.sqrt() if isinstance(x, Dual) else np.sqrt(x)


def fabs_(x):
    return x.abs() if isinstance(x, Dual) else np.abs(x)


def fpow(x, c):
    if isinstance(x, Dual):
        return x.pow_const(c)
    return np.power(x, c)


_FUNC_IMPL = {
    "sin": fsin, "cos": fcos, "sinh": fsinh, "cosh": fcosh, "tanh": ftanh,
    "exp": fexp, "log": flog, "sqrt": fsqrt, "abs": fabs_,
}


# ---------------------------------------------------------------------------
# Parser

_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(source, pos)
        if m:
            tokens.append(("num", float(m.group(0)), pos))
            pos = m.end()
            continue
        m = re.match(r"[A-Za-z_][A-Za-z_0-9]*", source[pos:])
        if m:
            tokens.append(("name", m.group(0), pos))
            pos += m.end()
            continue
        ch = source[pos]
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unknown token {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, source, variables):
        self.source = source
        self.vars = tuple(variables)
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op, opening_pos=None):
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            self.take()
            return
        extra = f" to close '(' at position {opening_pos}" if opening_pos is not None else ""
        raise ExprSyntaxError(f"expected {op!r}{extra}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.unary())
        return self.product()

    def product(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.take()
                _, _, epos = self.peek()
                exponent = self.exponent()
                if variables_of(exponent):
                    raise ExprSyntaxError("non-constant exponent", epos)
                node = BinOp("^", node, exponent)
            else:
                return node

    def exponent(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.atom())
        return self.atom()

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Const(val)
        if kind == "name":
            nk, nv, npos = self.peek()
            if nk == "op" and nv == "(":
                if val not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {val!r}", pos)
                self.take()
                arg = self.expr()
                self.expect_op(")", opening_pos=npos)
                return Call(val, arg)
            if val not in self.vars:
                raise ExprSyntaxError(f"undeclared variable {val!r}", pos)
            return Var(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")", opening_pos=pos)
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse(source, variables):
    """Parse ``source`` into an AST; every variable must be declared."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(source, variables).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _is_bad(x, predicate):
    x = _deep(x)
    if isinstance(x, np.ndarray):
        return bool(np.any(predicate(x)))
    return bool(predicate(x))


def evaluate(node, env):
    """Evaluate on an environment of floats, arrays, or duals."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Call):
        arg = evaluate(node.arg, env)
        if node.fn == "log" and _is_bad(arg, lambda v: v <= 0):
            raise ExprDomainError("log of non-positive value", node)
        if node.fn == "sqrt" and _is_bad(arg, lambda v: v < 0):
            raise ExprDomainError("sqrt of negative value", node)
        return _FUNC_IMPL[node.fn](arg)
    lhs = evaluate(node.lhs, env)
    if node.op == "^":
        c = evaluate(node.rhs, {})
        if _is_bad(lhs, lambda v: (v < 0)) and c != round(c):
            raise ExprDomainError("negative base with non-integer exponent", node)
        if c < 0 and _is_bad(lhs, lambda v: v == 0):
            raise ExprDomainError("zero base with negative exponent", node)
        return fpow(lhs, c)
    rhs = evaluate(node.rhs, env)
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return lhs * rhs
    if node.op == "/":
        if _is_bad(rhs, lambda v: v == 0):
            raise ExprDomainError("division by zero", node)
        return lhs / rhs
    raise AssertionError(node.op)


def eval_dual(node, point, direction):
    """Value and directional derivative at ``point`` along ``direction``."""
    env = {name: Dual(float(v), float(direction.get(name, 0.0)))
           for name, v in point.items()}
    out = evaluate(node, env)
    if isinstance(out, Dual):
        return out
    return Dual(out, 0.0)


def derivatives_1d(node, var, t):
    """(value, first, second) with respect to a single variable via nested duals.

    Elementwise on an array ``t``, returning arrays of its shape.
    """
    array = isinstance(t, np.ndarray)
    env = {var: Dual(Dual(t if array else float(t), 1.0), Dual(1.0, 0.0))}
    out = evaluate(node, env)
    if not isinstance(out, Dual):
        out = Dual(out, 0.0)
    inner = out.value
    douter = out.deriv
    v = inner.value if isinstance(inner, Dual) else inner
    d1 = inner.deriv if isinstance(inner, Dual) else 0.0
    d2 = douter.deriv if isinstance(douter, Dual) else 0.0
    if array:
        return tuple(np.broadcast_to(x, t.shape).astype(float) for x in (v, d1, d2))
    return float(v), float(d1), float(d2)


# ---------------------------------------------------------------------------
# Pretty-printing

_LEVEL_ADD, _LEVEL_UNARY, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node):
    if isinstance(node, (Const, Var, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    if node.op in "+-":
        return _LEVEL_ADD
    if node.op in "*/":
        return _LEVEL_MUL
    return _LEVEL_POW


def _fmt_number(value):
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _p(node, ctx):
    if isinstance(node, Const):
        body = _fmt_number(node.value)
        return f"({body})" if node.value < 0 else body
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_p(node.arg, _LEVEL_ADD)})"
    if isinstance(node, Neg):
        body = "-" + _p(node.arg, _LEVEL_UNARY)
    elif node.op in "+-":
        body = _p(node.lhs, _LEVEL_ADD) + node.op + _p(node.rhs, _LEVEL_UNARY)
    elif node.op in "*/":
        rhs = node.rhs
        if isinstance(rhs, Neg):
            rhs_str = "-" + _p(rhs.arg, _LEVEL_POW)
        else:
            rhs_str = _p(rhs, _LEVEL_POW)
        body = _p(node.lhs, _LEVEL_MUL) + node.op + rhs_str
    else:  # power
        exp = node.rhs
        if isinstance(exp, Neg):
            exp_str = "-" + _p(exp.arg, _LEVEL_ATOM)
        else:
            exp_str = _p(exp, _LEVEL_ATOM)
        body = _p(node.lhs, _LEVEL_POW) + "^" + exp_str
    if _level(node) < ctx:
        return f"({body})"
    return body


def to_source(node):
    """Render an AST back to source; reparsing yields an equal tree."""
    return _p(node, 0)
