"""Tiny arithmetic expression language with forward-mode differentiation.

Grammar (Python's arithmetic, with ``^`` for ``**``)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ["^" factor]     # constant, no unparenthesised "^" in it
    atom    := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Unary minus binds looser than ``^`` and tighter than ``*`` and ``/``, so
``-t^2/2`` parses as ``Div(Neg(Pow(t, 2)), 2)``.  Exponents are constant
subtrees, which keeps differentiation closed-form, and ``t^2^3`` is refused
rather than read from the right.  ``log`` is the natural logarithm and
trigonometric functions work in radians.  There is no implicit
multiplication.

Evaluation accepts plain floats, numpy arrays, or :class:`Dual` numbers.
Duals propagate one directional derivative exactly; nesting duals yields
second derivatives.  Each elementary function is one entry of
``ELEMENTARY`` (numpy function, derivative rule, domain check), applied
to all three kinds of argument by :func:`apply`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import partial

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


def fpow(x, c):
    if isinstance(x, Dual):
        return x.pow_const(c)
    return np.power(x, c)


# ---------------------------------------------------------------------------
# Elementary functions


@dataclass(frozen=True)
class Elementary:
    """One elementary function: its numpy implementation, its derivative
    rule (x, f(x), dx) -> d f(x), and for partial functions the predicate
    marking arguments outside the domain with the error it raises."""

    fn: object
    rule: object
    outside: object = None
    message: str = ""


ELEMENTARY = {
    "sin": Elementary(np.sin, lambda x, f, dx: apply("cos", x) * dx),
    "cos": Elementary(np.cos, lambda x, f, dx: -apply("sin", x) * dx),
    "sinh": Elementary(np.sinh, lambda x, f, dx: apply("cosh", x) * dx),
    "cosh": Elementary(np.cosh, lambda x, f, dx: apply("sinh", x) * dx),
    "tanh": Elementary(np.tanh, lambda x, f, dx: (1.0 - f * f) * dx),
    "exp": Elementary(np.exp, lambda x, f, dx: f * dx),
    "log": Elementary(np.log, lambda x, f, dx: dx / x,
                      lambda v: v <= 0, "log of non-positive value"),
    "sqrt": Elementary(np.sqrt, lambda x, f, dx: dx / (2.0 * f),
                       lambda v: v < 0, "sqrt of negative value"),
    "abs": Elementary(np.abs, lambda x, f, dx: dx * np.sign(_deep(x))),
}

FUNCTIONS = tuple(ELEMENTARY)


def apply(name, x):
    """The elementary function ``name`` of a float, an array or a (nested)
    dual; domains are checked by ``evaluate``, not here."""
    entry = ELEMENTARY[name]
    if isinstance(x, Dual):
        f = apply(name, x.value)
        return Dual(f, entry.rule(x.value, f, x.deriv))
    return entry.fn(x)


# Chart authors write components with these (see docs/scenario-format.md).
fsin, fcos, fsinh, fcosh, ftanh, fexp, flog, fsqrt, fabs_ = (
    partial(apply, name) for name in FUNCTIONS)


# ---------------------------------------------------------------------------
# Parser: Python's own on ``^`` spelled ``**``, walked into the nodes above

_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
# a number with what is glued to it: "0x10", "1_0", "1j", "2t", "1if"
_NUMBER_RUN_RE = re.compile(r"(?<![\w.])\.?\d[\w.]*(?:(?<=[eE])[+-][\w.]*)?")
# a character outside the language, or a literal ``**``
_FOREIGN_RE = re.compile(r"[^\w\s.+\-*/^()]|\*\*", re.ASCII)
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# deepest accepted tree; evaluate and to_source recurse once per level
MAX_DEPTH = 100


def parse(source, variables):
    """Parse ``source`` into an AST; every variable must be declared."""
    if not isinstance(source, str):
        raise ExprSyntaxError(f"expression must be a string, got {source!r}", 0)
    if not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    foreign = _FOREIGN_RE.search(source)
    if foreign:
        raise ExprSyntaxError(f"unknown token {foreign.group()!r}", foreign.start())
    for run in _NUMBER_RUN_RE.finditer(source):
        if not _NUMBER_RE.fullmatch(run.group()):
            raise ExprSyntaxError(f"malformed number {run.group()!r}", run.start())
    lead = len(source) - len(source.lstrip())
    text = re.sub(r"\s", " ", source[lead:]).replace("^", "**")

    def at(col):
        """The position in ``source`` of column ``col`` of ``text``."""
        where = [lead + i for i, ch in enumerate(source[lead:]) for _ in range(1 + (ch == "^"))]
        return where[col] if 0 <= col < len(where) else len(source)

    too_deep = f"expression nests deeper than {MAX_DEPTH} levels"
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError as err:
        col = (err.offset or 0) - 1
        if err.msg == "'(' was never closed":
            raise ExprSyntaxError(f"expected ')' to close '(' at position {at(col)}",
                                  len(source)) from None
        raise ExprSyntaxError(err.msg, at(col)) from None
    except (RecursionError, MemoryError):  # CPython's parser stack overflowed
        raise ExprSyntaxError(too_deep, 0) from None

    def walk(node, depth, exponent_at=None):
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(too_deep, at(node.col_offset))
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            op = _OPS[type(node.op)]
            lhs = walk(node.left, depth + 1, exponent_at)
            if op == "^":
                # Python groups ** from the right: refuse a bare power in an exponent
                e = node.right
                while not text[:e.col_offset].rstrip().endswith("("):
                    if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Pow):
                        raise ExprSyntaxError("chained powers need parentheses",
                                              at(text.index("**", e.left.end_col_offset)))
                    if not isinstance(e, ast.UnaryOp):
                        break
                    e = e.operand
                exponent_at = node.right.col_offset
            return BinOp(op, lhs, walk(node.right, depth + 1, exponent_at))
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            literal = text[node.col_offset:node.end_col_offset]
            if not np.isfinite(float(literal)):
                raise ExprSyntaxError(f"number {literal!r} is not finite", at(node.col_offset))
            return Const(float(literal))
        if isinstance(node, ast.Name):
            if node.id not in variables:
                raise ExprSyntaxError(f"undeclared variable {node.id!r}", at(node.col_offset))
            if exponent_at is not None:
                raise ExprSyntaxError("non-constant exponent", at(exponent_at))
            return Var(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(walk(node.operand, depth + 1, exponent_at))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {node.func.id!r}", at(node.col_offset))
            if len(node.args) != 1:
                raise ExprSyntaxError(f"{node.func.id} takes one argument", at(node.col_offset))
            return Call(node.func.id, walk(node.args[0], depth + 1, exponent_at))
        pos = at(node.col_offset)
        raise ExprSyntaxError(
            f"unsupported syntax {source[pos:at(node.end_col_offset)]!r}", pos)

    return walk(tree, 1)


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
        entry = ELEMENTARY[node.fn]
        if entry.outside is not None and _is_bad(arg, entry.outside):
            raise ExprDomainError(entry.message, node)
        return apply(node.fn, arg)
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


def dual_parts(x):
    """(value, derivative) of a result; a result that is not a dual is a
    constant."""
    if isinstance(x, Dual):
        return x.value, x.deriv
    return x, 0.0


def jet_parts(res):
    """(value, d_j, d_i d_j) of a result seeded as Dual(Dual(x, e_j), Dual(e_i, 0))."""
    inner, outer = dual_parts(res)
    value, first = dual_parts(inner)
    return value, first, dual_parts(outer)[1]


def eval_dual(node, point, direction):
    """Value and directional derivative at ``point`` along ``direction``."""
    env = {name: Dual(float(v), float(direction.get(name, 0.0)))
           for name, v in point.items()}
    return Dual(*dual_parts(evaluate(node, env)))


def derivatives_1d(node, var, t):
    """(value, first, second) with respect to a single variable via nested duals.

    Elementwise on an array ``t``, returning arrays of its shape.
    """
    array = isinstance(t, np.ndarray)
    env = {var: Dual(Dual(t if array else float(t), 1.0), Dual(1.0, 0.0))}
    parts = jet_parts(evaluate(node, env))
    if array:
        return tuple(np.broadcast_to(x, t.shape).astype(float) for x in parts)
    return tuple(float(x) for x in parts)


def affine_form(node, var):
    """(c, a) with node = c + a var, read from the tree: numbers and ``var``
    under +, -, negation, products with a factor free of ``var`` and
    quotients by a nonzero divisor free of it.  None for any other tree (a
    function call, a power, another variable), affine in value or not."""
    if isinstance(node, Const):
        return node.value, 0.0
    if isinstance(node, Var):
        return (0.0, 1.0) if node.name == var else None
    if isinstance(node, Neg):
        form = affine_form(node.arg, var)
        return None if form is None else (-form[0], -form[1])
    if isinstance(node, Call) or node.op == "^":
        return None
    lhs, rhs = affine_form(node.lhs, var), affine_form(node.rhs, var)
    if lhs is None or rhs is None:
        return None
    (c1, a1), (c2, a2) = lhs, rhs
    if node.op == "+":
        return c1 + c2, a1 + a2
    if node.op == "-":
        return c1 - c2, a1 - a2
    if node.op == "*" and (a1 == 0.0 or a2 == 0.0):
        return c1 * c2, c1 * a2 + a1 * c2
    if node.op == "/" and a2 == 0.0 and c2 != 0.0:
        return c1 / c2, a1 / c2
    return None


# ---------------------------------------------------------------------------
# Pretty-printing

# Python's precedence: unary minus binds between ``*`` and ``^``
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


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
        body = "-" + _p(node.arg, _LEVEL_POW)
    elif node.op in "+-":
        body = _p(node.lhs, _LEVEL_ADD) + node.op + _p(node.rhs, _LEVEL_MUL)
    elif node.op in "*/":
        body = _p(node.lhs, _LEVEL_MUL) + node.op + _p(node.rhs, _LEVEL_UNARY)
    else:  # power
        sign, exp = ("-", node.rhs.arg) if isinstance(node.rhs, Neg) else ("", node.rhs)
        body = _p(node.lhs, _LEVEL_ATOM) + "^" + sign + _p(exp, _LEVEL_ATOM)
    return f"({body})" if _level(node) < ctx else body


def to_source(node):
    """Render an AST back to source; reparsing yields an equal tree."""
    return _p(node, 0)
