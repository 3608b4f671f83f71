import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoconvex import exprlang
from geoconvex.errors import (
    ArityMismatchError,
    EvalDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from geoconvex.exprlang import (
    BINARY_OPS,
    BUILTINS,
    COMPARE_OPS,
    Bifunction,
    Binary,
    Call,
    Const,
    EndoMap,
    Expr,
    IfExpr,
    ScalarFn,
    Unary,
    Var,
    compile_batch,
    compose_endomaps,
    compose_scalar,
    differentiate_numeric,
    evaluate,
    expr_to_source,
    parse,
    to_source,
)


def test_parse_and_eval_basic():
    e = parse("x1^2 + exp(x2)", ("x1", "x2"))
    assert evaluate(e, {"x1": 1.0, "x2": 0.0}) == pytest.approx(2.0)


def test_piecewise_function():
    e = parse("if(x1 >= 0, 1, -(x1^2))", ("x1",))
    assert evaluate(e, {"x1": -2.0}) == -4.0
    assert evaluate(e, {"x1": 3.0}) == 1.0
    assert evaluate(e, {"x1": 0.0}) == 1.0


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ", ("x1",))
    assert err.value.position == 5


def test_unknown_identifier_and_arity():
    with pytest.raises(UnknownIdentifierError):
        parse("x1 + y", ("x1",))
    with pytest.raises(UnknownIdentifierError):
        parse("foo(x1)", ("x1",))
    with pytest.raises(ArityMismatchError):
        parse("exp(x1, x1)", ("x1",))
    with pytest.raises(ArityMismatchError):
        parse("min(x1)", ("x1",))


def test_bifunction_values():
    phi = Bifunction.from_source("a - 2*b")
    assert phi(-1.0, -1.0) == 1.0
    diff = Bifunction.from_source("a - b")
    for c in (-3.0, 0.0, 2.5):
        assert diff(c, c) == 0.0


def test_domain_errors():
    e = parse("log(x1)", ("x1",))
    with pytest.raises(EvalDomainError):
        evaluate(e, {"x1": 0.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x1", ("x1",)), {"x1": 0.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("x1^(-1)", ("x1",)), {"x1": 0.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("artanh(x1)", ("x1",)), {"x1": 1.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x1)", ("x1",)), {"x1": -1.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("exp(x1)", ("x1",)), {"x1": 1000.0})


def test_grammar_precedence():
    e = parse("2 + 3 * 4 ^ 2", ())
    assert evaluate(e, {}) == 50.0
    # unary minus binds before the exponent per the grammar
    e2 = parse("-2 ^ 2", ())
    assert evaluate(e2, {}) == 4.0
    e3 = parse("2 ^ 3 ^ 2", ())
    assert evaluate(e3, {}) == 512.0  # right-assoc


def test_print_parse_roundtrip_examples():
    for src in (
        "x1^2 + exp(x2)",
        "if(x1 >= 0, 1, -(x1^2))",
        "min(x1, max(x2, 3.5)) / (x1 - 2)",
        "-x1 * 2e-3 + 1.5E2",
    ):
        e = parse(src, ("x1", "x2"))
        printed = expr_to_source(e)
        again = parse(printed, ("x1", "x2"))
        assert again.root == e.root


_leaf = st.one_of(
    st.floats(0.0, 100.0, allow_nan=False).map(Const),
    st.sampled_from(["x1", "x2"]).map(Var),
)


def _nodes(children):
    return st.one_of(
        st.tuples(children).map(lambda t: Unary("-", t[0])),
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "tanh", "abs"]), children).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
        st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=="]),
                  children, children, children, children).map(
            lambda t: IfExpr(t[0], t[1], t[2], t[3], t[4])
        ),
    )


@settings(max_examples=120, deadline=None)
@given(st.recursive(_leaf, _nodes, max_leaves=12))
def test_print_parse_roundtrip_random_trees(root):
    printed = to_source(root)
    again = parse(printed, ("x1", "x2"))
    assert again.root == root


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_eval_referentially_transparent(x1, x2):
    e = parse("sin(x1)*x2 + x1^2 - tanh(x2)", ("x1", "x2"))
    env = {"x1": x1, "x2": x2}
    assert evaluate(e, env) == evaluate(e, env)


def test_batch_matches_scalar():
    e = parse("if(x1 >= 0, x1^2, -x1) + min(x2, 1)", ("x1", "x2"))
    fn = compile_batch(e.root)
    xs = np.linspace(-2, 2, 41)
    ys = np.linspace(-1, 3, 41)
    out = fn({"x1": xs, "x2": ys})
    for i in range(41):
        assert out[i] == evaluate(e, {"x1": xs[i], "x2": ys[i]})


def test_batch_flags_nonfinite_instead_of_raising():
    e = parse("log(x1)", ("x1",))
    fn = compile_batch(e.root)
    out = fn({"x1": np.array([-1.0, 1.0])})
    assert not np.isfinite(out[0]) and out[1] == 0.0


def test_batch_if_poisons_bad_condition():
    e = parse("if(log(x1) >= 0, 1, 2)", ("x1",))
    fn = compile_batch(e.root)
    out = fn({"x1": np.array([-1.0, math.e])})
    assert np.isnan(out[0]) and out[1] == 1.0


def test_derivatives():
    sq = ScalarFn.from_source("x1^2", 1)
    assert differentiate_numeric(sq, (3.0,), (1.0,)) == pytest.approx(6.0, abs=1e-6)
    lin = ScalarFn.from_source("2.5*x1", 1)
    assert differentiate_numeric(lin, (0.7,), (1.0,)) == pytest.approx(2.5, abs=1e-9)
    ex = ScalarFn.from_source("exp(x1)", 1)
    assert differentiate_numeric(ex, (0.0,), (1.0,)) == pytest.approx(1.0, abs=1e-6)


# the stencil has no truncation error on quadratics; what remains is
# roundoff ~ eps*|f|/(2*step), so the 1e-9 claim lives at unit scale
@settings(max_examples=80, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(-1.5, 1.5))
def test_quadratic_derivative_exact(a2, a1, a0, x):
    f = ScalarFn.from_source(f"{a2!r}*x1^2 + {a1!r}*x1 + {a0!r}", 1)
    got = differentiate_numeric(f, (x,), (1.0,))
    assert got == pytest.approx(2 * a2 * x + a1, abs=1e-9)


def test_endomap_and_composition():
    E = EndoMap.from_source(["x2", "x1"], 2)
    assert E((1.0, 2.0)) == (2.0, 1.0)
    inner = ScalarFn.from_source("x1 + 1", 1)
    outer = ScalarFn.from_source("x1^2", 1)
    comp = compose_scalar(outer, inner)
    assert comp((2.0,)) == 9.0


def test_compose_endomaps_changes_coordinate_count():
    # 3 -> 2 -> 3: stereographic projection and back is the identity on the sphere
    fwd = EndoMap.from_source(["x1/(1 + x3)", "x2/(1 + x3)"], 3)
    inv = EndoMap.from_source(
        ["2*x1/(1 + x1^2 + x2^2)", "2*x2/(1 + x1^2 + x2^2)", "(1 - x1^2 - x2^2)/(1 + x1^2 + x2^2)"],
        2,
    )
    roundtrip = compose_endomaps(inv, fwd)
    assert roundtrip.nvars == 3 and len(roundtrip.exprs) == 3
    assert roundtrip((0.6, 0.0, 0.8)) == pytest.approx((0.6, 0.0, 0.8), abs=1e-15)
    h = compose_scalar(ScalarFn.from_source("x1 + 2*x2 + 3*x3", 3), roundtrip)
    assert h((0.0, 0.6, 0.8)) == pytest.approx(3.6, abs=1e-14)
    with pytest.raises(ValueError):
        compose_endomaps(fwd, fwd)


def test_depth_limit():
    src = "x1" + " + x1" * 70
    with pytest.raises(ValueError):
        parse(src, ("x1",))


def test_source_size_limit():
    with pytest.raises(ExprSyntaxError):
        parse("1 + " * 20000 + "1", ())


def test_batch_overflow_raises_no_warning():
    import warnings

    X = np.array([[1e200], [-1e300], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ScalarFn.from_source("x1*x1 + x1 - 1", 1).eval_batch(X)
        assert out[0] == np.inf and out[2] == -1.0
        out = ScalarFn.from_source("(x1 - 1e308) - 1e308 + 1/x1 + 0/0", 1).eval_batch(X)
        assert not np.any(np.isfinite(out))


# numpy's elementwise exp and tanh are not always the math module's: on
# the same input they were measured up to 1 and 3 ulps apart.  A lane may
# differ from the scalar value by this many ulps per such operation, and by
# what that propagates to through the tree; + - * / abs min max and the
# comparisons are IEEE-exact in both, so on exact operands they agree bitwise.
ULPS_PER_OP = 4
_INEXACT = ("exp", "sin", "cos", "tanh")


class _TooCloseToCall(Exception):
    """An if-condition, divisor or domain edge lies within the propagated bound."""


def _scalar_with_bound(node, env):
    """The scalar value of `node` and a bound on how far its batch lane may
    be from it.  Raises EvalDomainError where the scalar raises on operands
    that the lane shares bitwise, so the lane must not be finite."""
    if isinstance(node, (Const, Var)):
        return evaluate(Expr(node, ("x1", "x2")), env), 0.0
    if isinstance(node, IfExpr):
        (a, ea), (b, eb) = (_scalar_with_bound(n, env) for n in (node.lhs, node.rhs))
        if ea + eb > 0.0 and abs(a - b) <= ea + eb:
            raise _TooCloseToCall
        taken = node.then if COMPARE_OPS[node.cmp].scalar(a, b) else node.orelse
        return _scalar_with_bound(taken, env)
    parts = [_scalar_with_bound(n, env) for n in exprlang._parts(node)[1]]
    try:
        v = evaluate(Expr(node, ("x1", "x2")), env)
    except EvalDomainError:
        if any(e > 0.0 for _, e in parts):
            raise _TooCloseToCall from None  # the lane's operands may lie inside
        raise
    (a, ea), *rest = parts
    if isinstance(node, Unary):
        e = ea
    elif isinstance(node, Call):
        # exp grows by a factor exp(ea); sin, cos, tanh, abs, min, max are 1-Lipschitz
        if node.fn == "exp" and ea > 700.0:
            raise _TooCloseToCall
        e = abs(v) * math.expm1(ea) if node.fn == "exp" else max(e for _, e in parts)
    else:
        (b, eb), = rest
        if node.op in "+-":
            e = ea + eb
        elif node.op == "*":
            e = abs(a) * eb + abs(b) * ea + ea * eb
        else:
            den = abs(b) * (abs(b) - eb)
            if not den > 0.0:
                raise _TooCloseToCall
            e = (abs(a) * eb + abs(b) * ea) / den
    if e > 0.0 or (isinstance(node, Call) and node.fn in _INEXACT):
        e += ULPS_PER_OP * math.ulp(abs(v) + e)
    if not math.isfinite(abs(v) + e):
        raise _TooCloseToCall
    return v, e


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaf, _nodes, max_leaves=12),
       st.floats(-800.0, 800.0), st.floats(-800.0, 800.0))
def test_batch_lanes_agree_with_scalar(root, x1, x2):
    env = {"x1": x1, "x2": x2}
    lane = float(np.asarray(compile_batch(root)({"x1": np.array([x1]),
                                                 "x2": np.array([x2])})).ravel()[0])
    try:
        value, bound = _scalar_with_bound(root, env)
    except EvalDomainError:
        assert not math.isfinite(lane)  # the scalar raises, so the lane is not finite
        return
    except _TooCloseToCall:
        assume(False)
    assert math.isfinite(lane)  # a non-finite lane implies the scalar raises
    assert abs(lane - value) <= bound


@settings(max_examples=150, deadline=None)
@given(st.recursive(_leaf, _nodes, max_leaves=6),
       st.sampled_from(["/", "^", "exp", "tanh", "min", "max"]), st.booleans(),
       st.floats(709.8, 800.0), st.floats(-800.0, 800.0))
def test_operators_that_could_absorb_an_overflow_do_not(u, op, swap, x1, x2):
    # exp(x1) overflows, so the scalar raises wherever the tree reaches it;
    # 1/inf, u^inf, exp(-inf), tanh(inf), min(inf, u) would be finite in IEEE
    big = Call("exp", (Var("x1"),))
    a, b = (u, big) if swap else (big, u)
    if op in BINARY_OPS:
        root = Binary(op, a, b)
    else:
        root = Call(op, (a, b) if BUILTINS[op].arity == 2 else (Binary("-", a, b),))
    with pytest.raises(EvalDomainError):
        evaluate(Expr(root, ("x1", "x2")), {"x1": x1, "x2": x2})
    lane = compile_batch(root)({"x1": np.array([x1]), "x2": np.array([x2])})
    assert not np.isfinite(np.asarray(lane)).any()


def test_batch_finite_where_scalar_raises():
    # past x1 = 709.78 exp overflows and the scalar evaluator raises; IEEE
    # division would make the lane of 1/exp(x1) a finite 0, the kernel of /
    # makes it NaN
    f = ScalarFn.from_source("1/exp(x1)", 1)
    assert np.isnan(f.eval_batch(np.array([[800.0]]))[0])
    with pytest.raises(EvalDomainError, match="exp overflow"):
        f((800.0,))


# per table entry: an in-domain (source, x1), then (source, x1, scalar
# message, lane) for each way its scalar raises; exp(x1) overflows at 800,
# and each operator that could absorb an infinity is fed one there
_TABLE_CASES = {
    "+": (("x1 + 0.25", 0.5), [("x1 + x1", 1e308, "non-finite value from +", math.inf)]),
    "-": (("x1 - 0.25", 0.5), [("-x1 - x1", 1e308, "non-finite value from -", -math.inf)]),
    "*": (("x1 * 3", 0.7), [("x1 * x1", 1e200, "non-finite value from *", math.inf)]),
    "/": (("1 / x1", 3.0), [
        ("x1 / (x1 - x1)", 2.0, "division by zero", math.nan),
        ("x1 / 0", 2.0, "division by zero", math.nan),
        ("x1 / 1e-300", 1e10, "non-finite value from /", math.inf),
        ("1 / exp(x1)", 800.0, "exp overflow", math.nan),
    ]),
    "^": (("x1 ^ 3.5", 1.1), [
        ("x1 ^ (-1)", 0.0, "zero raised to a negative power", math.nan),
        ("x1 ^ 0.5", -8.0, "invalid power -8.0 ^ 0.5", math.nan),
        ("x1 ^ 2", 1e200, "invalid power 1e+200 ^ 2.0", math.inf),
        ("0.5 ^ exp(x1)", 800.0, "exp overflow", math.nan),
        ("exp(x1) ^ 0", 800.0, "exp overflow", math.nan),
    ]),
    "exp": (("exp(x1)", 0.3), [
        ("exp(x1)", 800.0, "exp overflow", math.inf),
        ("exp(-exp(x1))", 800.0, "exp overflow", math.nan),
    ]),
    "log": (("log(x1)", 2.5), [
        ("log(x1)", -1.0, "log of nonpositive value -1.0", math.nan),
        ("log(x1)", 0.0, "log of nonpositive value 0.0", -math.inf),
    ]),
    "sin": (("sin(x1)", 0.3), []),
    "cos": (("cos(x1)", 0.3), []),
    "tanh": (("tanh(x1)", 0.3), [("tanh(exp(x1))", 800.0, "exp overflow", math.nan)]),
    "artanh": (("artanh(x1)", 0.5), [("artanh(x1)", 1.0, "artanh outside (-1, 1): 1.0", math.nan)]),
    "sqrt": (("sqrt(x1)", 2.0), [("sqrt(x1)", -1.0, "sqrt of negative value -1.0", math.nan)]),
    "abs": (("abs(x1)", -0.7), []),
    "min": (("min(x1, 0.25)", 0.5), [("min(exp(x1), 0)", 800.0, "exp overflow", math.nan)]),
    "max": (("max(x1, 0.25)", 0.5), [("max(-exp(x1), 0)", 800.0, "exp overflow", math.nan)]),
    **{cmp: ((f"if(x1 {cmp} 0.5, 1, 2)", 0.3),
             [(f"if(exp(x1) {cmp} 0.5, 1, 2)", 800.0, "exp overflow", math.nan)])
       for cmp in COMPARE_OPS},
}
_BITWISE = ("+", "-", "*", "/", "abs", "min", "max", *COMPARE_OPS)


@pytest.mark.parametrize("name", [*BINARY_OPS, *BUILTINS, *COMPARE_OPS])
def test_operator_table_entry(name):
    (src, x), raising = _TABLE_CASES[name]
    f = ScalarFn.from_source(src, 1)
    value, lane = f((x,)), f.eval_batch(np.array([[x]]))[0]
    if name in _BITWISE:
        assert np.float64(lane).tobytes() == np.float64(value).tobytes()
    else:
        assert abs(lane - value) <= ULPS_PER_OP * math.ulp(value)
    for src, x, message, want in raising:
        f = ScalarFn.from_source(src, 1)
        with pytest.raises(EvalDomainError) as err:
            f((x,))
        assert str(err.value) == message, src
        lane = f.eval_batch(np.array([[x]]))[0]
        assert np.isnan(lane) if math.isnan(want) else lane == want, src


def _plain_batch(root):
    """The compiled closure of `root` without the memo of repeated subtrees."""
    f = exprlang._compile(root, {})

    def run(env):
        with np.errstate(all="ignore"):
            return f(env)

    return run


_X = np.linspace(-3.0, 3.0, 41)
_ENV = {"x1": _X, "x2": _X[::-1].copy()}


@settings(max_examples=60, deadline=None)
@given(st.recursive(_leaf, _nodes, max_leaves=8), st.recursive(_leaf, _nodes, max_leaves=6))
def test_memoized_batch_is_bit_identical(t, u):
    # t occurs three times, once inside a repeat of its own parent
    root = Binary("+", Binary("*", t, u), Binary("-", Binary("*", t, u), t))
    got = compile_batch(root)(_ENV)
    want = _plain_batch(root)(_ENV)
    assert np.asarray(got, dtype=np.float64).tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def test_repeated_subtree_evaluates_once(monkeypatch):
    calls = []

    def counted_exp(x):
        calls.append(1)
        return np.exp(x)

    monkeypatch.setitem(exprlang.BUILTINS, "exp", BUILTINS["exp"]._replace(batch=counted_exp))
    X = np.stack([_X, _ENV["x2"]], axis=1)
    f = ScalarFn.from_source("exp(x1 + 1)*x2 + exp(x1 + 1)/(1 + exp(x1 + 1))", 2)
    out = f.eval_batch(X)
    assert len(calls) == 1
    calls.clear()
    want = _plain_batch(f.expr.root)(_ENV)
    assert len(calls) == 3
    assert out.tobytes() == want.tobytes()
    # across the components of one remap
    calls.clear()
    E = EndoMap.from_source(["exp(x1 + 1)", "2*exp(x1 + 1)", "x2"], 2)
    W = E.eval_batch(X)
    assert len(calls) == 1
    assert W[:, 1].tobytes() == (2 * np.exp(_X + 1)).tobytes()
    # constants of different sign bits are different subtrees
    calls.clear()
    g = ScalarFn(Expr(Binary("+", Call("exp", (Binary("*", Var("x1"), Const(0.0)),)),
                             Call("exp", (Binary("*", Var("x1"), Const(-0.0)),))),
                      ("x1", "x2")))
    g.eval_batch(X)
    assert len(calls) == 2


def test_tree_without_repeats_has_no_memo():
    e = parse("exp(x1) + x1*x2 - sin(x2)", ("x1", "x2"))
    assert exprlang._repeated_subtrees((e.root,)) == {}
