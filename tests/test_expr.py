import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wparab import expr as ex


def test_parse_negated_power_quotient():
    # unary minus binds tighter than "/", as in Python; negation is exact, so
    # the value matches the old tree -(t^2/2) bit for bit
    ast = ex.parse("-t^2/2", ["t"])
    square = ex.BinOp("^", ex.Var("t"), ex.Const(2.0))
    assert ast == ex.BinOp("/", ex.Neg(square), ex.Const(2.0))
    assert ex.evaluate(ast, {"t": 2.0}) == -2.0
    negated_quotient = ex.Neg(ex.BinOp("/", square, ex.Const(2.0)))
    t = np.array([-3.5, -0.0, 0.0, 1e-170, 0.7, 2.0, 1e150])
    for x in [*t.tolist(), t]:
        new = ex.jet_parts(ex.evaluate(ast, {"t": ex.Dual(ex.Dual(x, 1.0), ex.Dual(1.0, 0.0))}))
        old = ex.jet_parts(ex.evaluate(negated_quotient,
                                       {"t": ex.Dual(ex.Dual(x, 1.0), ex.Dual(1.0, 0.0))}))
        assert [_bits(v) for v in new] == [_bits(v) for v in old]
        assert _bits(ex.evaluate(ast, {"t": x})) == _bits(ex.evaluate(negated_quotient, {"t": x}))


def test_parse_hyperbolic_warping_expression():
    ast = ex.parse("sinh(sqrt(2)*t)/sqrt(2)", ["t"])
    val = ex.evaluate(ast, {"t": 1.3})
    assert val == pytest.approx(math.sinh(math.sqrt(2) * 1.3) / math.sqrt(2),
                                rel=1e-14)


def test_unbalanced_parenthesis_reports_position():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("exp(t", ["t"])
    assert err.value.position == 5
    assert "to close '(' at position 3" in str(err.value)


@pytest.mark.parametrize("source,t,expected", [
    ("t^2*3", 2.0, 12.0),          # power binds tighter than product
    ("2*t^2", 3.0, 18.0),
    ("-t^2", 3.0, -9.0),           # minus applies after the power
    ("1-2-3", 0.0, -4.0),          # left associative
    ("8/4/2", 0.0, 1.0),
    ("2--3", 0.0, 5.0),
    ("(t^2)^3", 2.0, 64.0),        # a power chain is written with parentheses
    ("t^(2^3)", 2.0, 256.0),
    ("2*-3", 0.0, -6.0),
    ("t^-2", 2.0, 0.25),
])
def test_precedence_and_associativity(source, t, expected):
    assert ex.evaluate(ex.parse(source, ["t"]), {"t": t}) == pytest.approx(expected)


@pytest.mark.parametrize("source,message", [
    ("2t", "malformed number"),
    ("t^x", "non-constant exponent"),
    ("foo(t)", "unknown function"),
    ("t + s", "undeclared variable"),
    ("", "empty"),
    ("1 +", "invalid syntax"),
    ("(1", "to close"),
])
def test_syntax_errors(source, message):
    with pytest.raises(ex.ExprSyntaxError, match=message):
        ex.parse(source, ["t", "x"][:1 if "s" in source else 2] or ["t"])


@pytest.mark.parametrize("source,message,position", [
    ("t^2^3", "chained powers need parentheses", 3),   # Python would read t^(2^3)
    ("t ^ -2 ^ 3", "chained powers need parentheses", 7),
    ("t^(2)^3", "chained powers need parentheses", 5),
    ("t^exp(1)^2", "chained powers need parentheses", 8),
    ("t**2", "unknown token '**'", 1),
    ("+t", "unsupported syntax '+t'", 0),
    ("t%2", "unknown token '%'", 1),
    ("1 + t//2", "unsupported syntax 't//2'", 4),
    ("t<2", "unknown token '<'", 1),
    ("t is t", "unsupported syntax 't is t'", 0),
    ("t.real", "unsupported syntax 't.real'", 0),
    ("t if t else 1", "unsupported syntax", 0),
    ("exp(t, t)", "unknown token ','", 5),
    ("exp()", "exp takes one argument", 0),
    ("sin(^t)", "sin takes one argument", 0),
    ("exp(t)(2)", "unsupported syntax 'exp(t)(2)'", 0),
    ("True", "unsupported syntax 'True'", 0),
    ("...", "unsupported syntax '...'", 0),
    ("1j", "malformed number '1j'", 0),
    ("t*0x10", "malformed number '0x10'", 2),
    ("1_000*t", "malformed number '1_000'", 0),
    ("\uff54", "unknown token '\uff54'", 0),       # NFKC would fold it into t
    ("t+\u00b2", "unknown token '\u00b2'", 2),
    ("t\x00", "unknown token '\\x00'", 1),
    ("1e999*t", "number '1e999' is not finite", 0),
    ("t - 2e400", "number '2e400' is not finite", 4),
    ("t^2 + s", "undeclared variable 's'", 6),
    ("  exp(t", "expected ')' to close '(' at position 5", 7),
    ("t)", "unmatched ')'", 1),
    ("t^2 +", "invalid syntax", 5),
    ("1if t else 2", "malformed number '1if'", 0),   # Python only warns
])
def test_python_syntax_outside_the_language_is_refused(source, message, position):
    with pytest.raises(ex.ExprSyntaxError, match=re.escape(message)) as err:
        ex.parse(source, ["t"])
    assert err.value.position == position


@pytest.mark.parametrize("source,tree", [
    ("(t^2)^3", ex.BinOp("^", ex.BinOp("^", ex.Var("t"), ex.Const(2.0)), ex.Const(3.0))),
    ("t^(2^3)", ex.BinOp("^", ex.Var("t"), ex.BinOp("^", ex.Const(2.0), ex.Const(3.0)))),
    ("t^-(2^3)", ex.BinOp("^", ex.Var("t"),
                          ex.Neg(ex.BinOp("^", ex.Const(2.0), ex.Const(3.0))))),
    ("t^(-2^3)", ex.BinOp("^", ex.Var("t"),
                          ex.Neg(ex.BinOp("^", ex.Const(2.0), ex.Const(3.0))))),
    ("-t*2", ex.BinOp("*", ex.Neg(ex.Var("t")), ex.Const(2.0))),
    ("-(t*2)", ex.Neg(ex.BinOp("*", ex.Var("t"), ex.Const(2.0)))),
    ("\tt\n+ 1", ex.BinOp("+", ex.Var("t"), ex.Const(1.0))),
])
def test_parenthesised_powers_and_negations_parse_as_written(source, tree):
    assert ex.parse(source, ["t"]) == tree
    assert ex.parse(ex.to_source(tree), ["t"]) == tree


def test_nesting_beyond_the_depth_limit_is_a_syntax_error():
    # accepted trees evaluate far below the recursion limit; deeper ones,
    # even those CPython's own parser cannot build, are syntax errors
    ast = ex.parse("+".join(["t"] * ex.MAX_DEPTH), ["t"])
    assert ex.evaluate(ast, {"t": 1.0}) == ex.MAX_DEPTH
    for source in ("+".join(["t"] * (ex.MAX_DEPTH + 1)), "+".join(["t"] * 3000),
                   "-" * 3000 + "t", "-" * 100000 + "t", "exp(" * 150 + "t" + ")" * 150,
                   "(" * 300 + "t" + ")" * 300):
        with pytest.raises(ex.ExprSyntaxError, match="nest"):
            ex.parse(source, ["t"])


# text from the grammar's characters, its function names and a few foreign
# ones, joined by operators and calls so that about a quarter of it parses
_PIECES = st.sampled_from([*"0123456789.eE+-*/^() t", "x", "1e5", *ex.FUNCTIONS,
                           "**", "%", "\uff54", "\x00", "_", "\n", ","])
_SOURCES = st.recursive(
    _PIECES,
    lambda inner: (st.builds("{}{}{}".format, inner, st.sampled_from([*"+-*/^", "^-"]), inner)
                   | st.builds("{}({})".format, st.sampled_from(["", "-", *ex.FUNCTIONS]), inner)),
    max_leaves=10)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_SOURCES)
def test_parse_returns_a_tree_or_a_syntax_error(source):
    try:
        ast = ex.parse(source, ["t"])
    except ex.ExprSyntaxError as err:
        assert 0 <= err.position <= len(source)
        return
    again = ex.parse(ex.to_source(ast), ["t"])
    assert again == ast
    for t in (0.7, np.array([-1.5, 0.0, 2.0])):
        with np.errstate(all="ignore"):
            try:
                value = ex.evaluate(ast, {"t": t})
            except ex.ExprDomainError:
                continue
            assert _bits(ex.evaluate(again, {"t": t})) == _bits(value)


# the unhashable ones reach the string check before the parse memo
# hashes its key, which would raise TypeError
@pytest.mark.parametrize("source", [5, 0, None, ["t"], b"t", {"t": 1}, bytearray(b"t"), {"t"}])
def test_a_source_that_is_not_a_string_is_a_syntax_error(source):
    with pytest.raises(ex.ExprSyntaxError, match=re.escape(f"must be a string, got {source!r}")):
        ex.parse(source, ["t"])


def test_a_source_is_parsed_once_per_variables():
    tree = ex.parse("0.5*t^2 + sin(t)", ["t"])
    assert ex.parse("0.5*t^2 + sin(t)", ("t",)) is tree
    assert ex.parse("x1*x2", ["x1", "x2"]) is ex.parse("x1*x2", ("x1", "x2"))
    # the variables are part of the key: t is declared only in the first
    assert ex.parse("t", ["t"]) == ex.Var("t")
    with pytest.raises(ex.ExprSyntaxError, match="undeclared variable 't'"):
        ex.parse("t", ["x1"])


@pytest.mark.parametrize("source", ["t^", "2t", "", "foo(t)"])
def test_a_bad_source_raises_on_every_call(source):
    for _ in range(3):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse(source, ["t"])


@pytest.mark.parametrize("source,a,c", [
    ("-0.3*t^3", -0.3, 3.0), ("0.15*t^3.0", 0.15, 3.0), ("-(0.8)*t^2.5", -0.8, 2.5),
    ("2/3*t^-1.5", 2.0 / 3.0, -1.5), ("0.7*t^0.5", 0.7, 0.5),
])
def test_a_number_times_a_power_differentiates_as_its_closed_form(source, a, c):
    # the number folds into the derivative first, (a c) t^(c-1) and
    # (a c (c-1)) t^(c-2), as a hand-written derivative writes it
    ast = ex.parse(source, ["t"])
    t = np.geomspace(1e-3, 30.0, 301)
    for x in (t, *t[::50].tolist()):
        value, first, second = ex.derivatives_1d(ast, "t", x)
        assert _bits(value) == _bits(a * np.power(x, c))
        assert _bits(first) == _bits(a * c * np.power(x, c - 1))
        assert _bits(second) == _bits(a * c * (c - 1) * np.power(x, c - 2))


def test_eval_dual_polynomial():
    d = ex.eval_dual(ex.parse("t^2", ["t"]), {"t": 3.0}, {"t": 1.0})
    assert (d.value, d.deriv) == (9.0, 6.0)


def test_eval_dual_sinh_origin():
    d = ex.eval_dual(ex.parse("sinh(t)", ["t"]), {"t": 0.0}, {"t": 1.0})
    assert (d.value, d.deriv) == (0.0, 1.0)


def test_eval_dual_gaussian_vs_finite_differences():
    ast = ex.parse("exp(-t^2/2)", ["t"])
    d = ex.eval_dual(ast, {"t": 1.0}, {"t": 1.0})
    assert d.value == pytest.approx(math.exp(-0.5), rel=1e-14)
    h = 1e-5
    fd = (ex.evaluate(ast, {"t": 1.0 + h}) - ex.evaluate(ast, {"t": 1.0 - h})) / (2 * h)
    assert d.deriv == pytest.approx(fd, rel=1e-8)
    assert d.deriv == pytest.approx(-math.exp(-0.5), rel=1e-12)


def test_second_derivatives_by_nesting():
    v, d1, d2 = ex.derivatives_1d(ex.parse("exp(-t^2/2)", ["t"]), "t", 0.7)
    g = math.exp(-0.245)
    assert v == pytest.approx(g, rel=1e-14)
    assert d1 == pytest.approx(-0.7 * g, rel=1e-13)
    assert d2 == pytest.approx((0.49 - 1.0) * g, rel=1e-13)


DOMAIN_ERRORS = [
    ("log(t)", {"t": -1.0}, "log of non-positive"),
    ("1/t", {"t": 0.0}, "division by zero"),
    ("sqrt(t)", {"t": -4.0}, "sqrt of negative"),
    ("t^0.5", {"t": -1.0}, "non-integer exponent"),
    ("t^-1", {"t": 0.0}, "zero base with negative exponent"),
]


@pytest.mark.parametrize("source,env,message", DOMAIN_ERRORS)
def test_domain_errors_carry_subexpression(source, env, message):
    with pytest.raises(ex.ExprDomainError, match=message):
        ex.evaluate(ex.parse(source, ["t"]), env)


# --- one property test per elementary function --------------------------------

def _reals(lo=-5.0, hi=5.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# name: (points inside the domain, closed-form f', closed-form f'',
#        points outside the domain or None)
ENTRIES = {
    "sin": (_reals(), math.cos, lambda x: -math.sin(x), None),
    "cos": (_reals(), lambda x: -math.sin(x), lambda x: -math.cos(x), None),
    "sinh": (_reals(), math.cosh, math.sinh, None),
    "cosh": (_reals(), math.sinh, math.cosh, None),
    "tanh": (_reals(), lambda x: 1.0 / math.cosh(x) ** 2,
             lambda x: -2.0 * math.tanh(x) / math.cosh(x) ** 2, None),
    "exp": (_reals(), math.exp, math.exp, None),
    "log": (_reals(1e-2, 50.0), lambda x: 1.0 / x, lambda x: -1.0 / x ** 2,
            _reals(-50.0, 0.0)),
    "sqrt": (_reals(1e-2, 50.0), lambda x: 0.5 / math.sqrt(x),
             lambda x: -0.25 / x ** 1.5, _reals(-50.0, -1e-300)),
    "abs": (_reals().filter(lambda x: abs(x) >= 1e-3),
            lambda x: math.copysign(1.0, x), lambda x: 0.0, None),
}
ALIASES = {"sin": "fsin", "cos": "fcos", "sinh": "fsinh", "cosh": "fcosh",
           "tanh": "ftanh", "exp": "fexp", "log": "flog", "sqrt": "fsqrt",
           "abs": "fabs_"}
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


def test_every_function_has_one_entry_and_property_cases():
    assert ex.FUNCTIONS == tuple(ex.ELEMENTARY)
    assert sorted(ENTRIES) == sorted(ex.FUNCTIONS) == sorted(ALIASES)
    for name in ex.FUNCTIONS:
        assert getattr(ex, ALIASES[name]).args == (name,)


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("name", ex.FUNCTIONS)
def test_function_agrees_on_floats_arrays_and_duals(name):
    ast = ex.Call(name, ex.Var("t"))

    @_SETTINGS
    @given(st.lists(ENTRIES[name][0], min_size=1, max_size=19))
    def check(xs):
        arr = np.array(xs)
        values = ex.evaluate(ast, {"t": arr})
        duals = ex.evaluate(ast, {"t": ex.Dual(arr, 1.0)})
        for i, x in enumerate(xs):
            scalar = ex.evaluate(ast, {"t": x})
            single = ex.evaluate(ast, {"t": ex.Dual(x, 1.0)})
            assert _bits(scalar) == _bits(values[i]) == _bits(single.value)
            assert _bits(single.deriv) == _bits(duals.deriv[i])
            assert _bits(getattr(ex, ALIASES[name])(x)) == _bits(scalar)

    check()


@pytest.mark.parametrize("name", ex.FUNCTIONS)
def test_function_derivatives_match_closed_forms(name):
    points, first, second, _ = ENTRIES[name]
    ast = ex.Call(name, ex.Var("t"))

    @_SETTINGS
    @given(points)
    def check(x):
        value, d1, d2 = ex.derivatives_1d(ast, "t", x)
        assert _bits(value) == _bits(ex.evaluate(ast, {"t": x}))
        assert math.isclose(d1, first(x), rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(d2, second(x), rel_tol=1e-12, abs_tol=1e-12)

    check()


@pytest.mark.parametrize("name", [n for n in ex.FUNCTIONS if ENTRIES[n][3] is not None])
def test_function_domain_errors(name):
    ast = ex.Call(name, ex.Var("t"))

    @_SETTINGS
    @given(ENTRIES[name][3], ENTRIES[name][0])
    def check(bad, good):
        for env in ({"t": bad}, {"t": ex.Dual(ex.Dual(bad, 1.0), 1.0)},
                    {"t": np.array([good, bad, good])}):
            with pytest.raises(ex.ExprDomainError, match=f"in `{name}\\(t\\)`"):
                ex.evaluate(ast, env)

    check()


def _documented_section(title):
    text = (Path(__file__).parent.parent / "docs" / "scenario-format.md").read_text()
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_documented_functions_and_domain_errors_match_the_engine():
    section = _documented_section("Expression language")
    documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert tuple(documented) == ex.FUNCTIONS
    documented = re.findall(r"^- `([^`]+)`$", section, flags=re.M)
    raised = []
    for source, env, _ in DOMAIN_ERRORS:
        with pytest.raises(ex.ExprDomainError) as err:
            ex.evaluate(ex.parse(source, ["t"]), env)
        raised.append(str(err.value).split(" in `")[0])
    assert sorted(documented) == sorted(raised)


# --- randomized properties --------------------------------------------------

_FUNCS = ["sin", "cos", "sinh", "tanh", "exp", "sqrt", "log"]


def _random_ast(rng, depth, variables):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ex.Const(round(rng.uniform(0.1, 3.0), 3))
        return ex.Var(rng.choice(variables))
    kind = rng.random()
    if kind < 0.15:
        return ex.Neg(_random_ast(rng, depth - 1, variables))
    if kind < 0.40:
        fn = rng.choice(_FUNCS)
        arg = _random_ast(rng, depth - 1, variables)
        if fn in ("sqrt", "log"):
            # keep the argument positive
            arg = ex.BinOp("+", ex.Call("abs", arg), ex.Const(0.5))
        return ex.Call(fn, arg)
    if kind < 0.55:
        base = _random_ast(rng, depth - 1, variables)
        return ex.BinOp("^", base, ex.Const(float(rng.choice([2, 3]))))
    op = rng.choice(["+", "-", "*", "/"])
    lhs = _random_ast(rng, depth - 1, variables)
    rhs = _random_ast(rng, depth - 1, variables)
    if op == "/":
        rhs = ex.BinOp("+", ex.Call("abs", rhs), ex.Const(1.0))
    return ex.BinOp(op, lhs, rhs)


def test_random_asts_derivative_matches_finite_differences():
    rng = random.Random(20240817)
    accepted = 0
    while accepted < 100:
        ast = _random_ast(rng, 4, ["t"])
        t = rng.uniform(0.4, 1.8)
        h = 1e-5
        try:
            d = ex.eval_dual(ast, {"t": t}, {"t": 1.0})
            fp = ex.evaluate(ast, {"t": t + h})
            fm = ex.evaluate(ast, {"t": t - h})
        except ex.ExprDomainError:
            continue
        if not all(map(math.isfinite, (d.value, d.deriv, fp, fm))):
            continue
        if max(abs(d.value), abs(d.deriv)) > 1e4:
            continue
        fd = (fp - fm) / (2 * h)
        assert abs(d.deriv - fd) <= 1e-6 * max(1.0, abs(d.deriv)), \
            f"{ex.to_source(ast)} at t={t}: dual {d.deriv} vs fd {fd}"
        accepted += 1


def test_round_trip_parse_of_pretty_printed_asts():
    rng = random.Random(99)
    for _ in range(300):
        ast = _random_ast(rng, 4, ["t", "x1"])
        src = ex.to_source(ast)
        assert ex.parse(src, ["t", "x1"]) == ast, src


def test_evaluation_is_pure():
    ast = ex.parse("sinh(t)*exp(-t^2/2)+t^3", ["t"])
    point = {"t": 1.2345678901234567}
    a = ex.evaluate(ast, point)
    b = ex.evaluate(ast, point)
    assert a == b  # bit-identical
    da = ex.eval_dual(ast, point, {"t": 1.0})
    db = ex.eval_dual(ast, point, {"t": 1.0})
    assert (da.value, da.deriv) == (db.value, db.deriv)


@pytest.mark.parametrize("source,form", [
    ("t", (0.0, 1.0)), ("3", (3.0, 0.0)), ("2*t+1", (1.0, 2.0)),
    ("-t/4-0.5", (-0.5, -0.25)), ("(t+1)*(2-0.5)", (1.5, 1.5)), ("t-t", (0.0, 0.0)),
    ("t*t", None), ("t^1", None), ("sin(t)", None), ("t/(1-1)", None),
    ("1/t", None), ("t+x1", None),
])
def test_affine_form_reads_c_plus_a_t_from_the_tree(source, form):
    ast = ex.parse(source, ["t", "x1"])
    assert ex.affine_form(ast, "t") == form
    if form is not None:
        t = np.array([-2.0, 0.3, 5.0])
        np.testing.assert_allclose(ex.evaluate(ast, {"t": t}) + 0.0 * t,
                                   form[0] + form[1] * t, rtol=1e-15)
