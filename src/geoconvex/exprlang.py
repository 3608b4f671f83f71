"""A small total expression language for scalar functions, point remaps,
and two-argument gap functions.

Grammar (normative):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := number | ident | call | "(" expr ")"
    call   := ident "(" expr ("," expr)* ")"

Builtins: exp, log, sin, cos, tanh, artanh, sqrt, abs, min, max and the
ternary if(cond, then, else) whose condition is `expr CMP expr` with CMP
one of < <= > >= == (tolerance-free).  Numbers are decimal literals with
an optional exponent.  There is no looping or recursion, so every
well-formed expression terminates.

Evaluation follows IEEE double semantics except that any non-finite value
(log of a nonpositive number, division by zero, 0^negative, overflow)
raises EvalDomainError instead of propagating silently.  `compile_batch`
produces a vectorized numpy twin used by the samplers.  A lane is NaN where
the scalar evaluator raises (+-inf where an overflow or log(0) carries), so
it is finite exactly where the scalar value exists; non-finite lanes are
left to the caller's masking.  Each operator is stated once, as its scalar
rule beside its batch kernel in `BINARY_OPS`, `BUILTINS` or `COMPARE_OPS`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import (
    ArityMismatchError,
    EvalDomainError,
    ExprDepthError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from .manifold import row_norm

MAX_SOURCE_BYTES = 64 * 1024
MAX_DEPTH = 64

# ---------------------------------------------------------------------------
# Operators: each one's scalar rule beside its batch kernel.  A binary rule's
# non-finite value raises in `_eval_node`.  A kernel's lane is NaN where its
# rule fails a domain test, +-inf where it overflows, and NaN where it would
# make a non-finite operand, whose scalar has raised, finite (1/inf = 0).


class Operator(NamedTuple):
    scalar: Callable
    batch: Callable


class Builtin(NamedTuple):
    arity: int
    scalar: Callable
    batch: Callable


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise EvalDomainError(f"non-finite value from {what}")
    return value


def _nan_where(bad, out):
    """`out` with NaN where `bad`, copied only when some lane is bad."""
    return np.where(bad, np.nan, out) if bad.any() else out


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalDomainError("division by zero")
    return a / b


def _np_div(a, b):
    out = np.divide(a, b)
    if isinstance(b, float) and b != 0.0 and math.isfinite(b):  # a constant divisor
        return out
    return _nan_where((b == 0.0) | ~np.isfinite(b), out)


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise EvalDomainError("zero raised to a negative power")
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError):
        raise EvalDomainError(f"invalid power {a!r} ^ {b!r}") from None


def _np_pow(a, b):
    out = np.power(a, b)
    if isinstance(b, float) and 0.0 < b < math.inf:  # a^b is non-finite iff a is, or overflows
        return out
    return _nan_where(((a == 0.0) & (b < 0.0)) | ~(np.isfinite(a) & np.isfinite(b)), out)


def _exp(x: float) -> float:
    try:
        return _require_finite(math.exp(x), "exp")
    except OverflowError:
        raise EvalDomainError("exp overflow") from None


def _guarded(fn: Callable, outside: Callable, message: str) -> Callable:
    """The scalar rule fn(x), raising `message` and x where outside(x)."""
    def rule(x: float) -> float:
        if outside(x):
            raise EvalDomainError(f"{message} {x!r}")
        return fn(x)

    return rule


def _absorbing(ufunc) -> Callable:
    """`ufunc` with NaN wherever an operand is not finite, which it could
    map to a finite value: exp(-inf) = 0, tanh(inf) = 1, min(inf, 0) = 0."""
    if ufunc.nin == 1:
        return lambda x: _nan_where(~np.isfinite(x), ufunc(x))
    return lambda x, y: _nan_where(~(np.isfinite(x) & np.isfinite(y)), ufunc(x, y))


BINARY_OPS = {
    "+": Operator(operator.add, np.add),
    "-": Operator(operator.sub, np.subtract),
    "*": Operator(operator.mul, np.multiply),
    "/": Operator(_div, _np_div),
    "^": Operator(_pow, _np_pow),
}

BUILTINS = {
    "exp": Builtin(1, _exp, _absorbing(np.exp)),
    "log": Builtin(1, _guarded(math.log, lambda x: x <= 0.0, "log of nonpositive value"), np.log),
    "sin": Builtin(1, math.sin, np.sin),
    "cos": Builtin(1, math.cos, np.cos),
    "tanh": Builtin(1, math.tanh, _absorbing(np.tanh)),
    "artanh": Builtin(1, _guarded(math.atanh, lambda x: abs(x) >= 1.0, "artanh outside (-1, 1):"),
                      lambda x: _nan_where(np.abs(x) >= 1.0, np.arctanh(x))),
    "sqrt": Builtin(1, _guarded(math.sqrt, lambda x: x < 0.0, "sqrt of negative value"), np.sqrt),
    "abs": Builtin(1, abs, np.abs),
    "min": Builtin(2, min, _absorbing(np.minimum)),
    "max": Builtin(2, max, _absorbing(np.maximum)),
}

# the condition of if(cond, then, else); `geoconvex list` prints this order
COMPARE_OPS = {
    "<": Operator(operator.lt, np.less),
    "<=": Operator(operator.le, np.less_equal),
    ">": Operator(operator.gt, np.greater),
    ">=": Operator(operator.ge, np.greater_equal),
    "==": Operator(operator.eq, np.equal),
}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Node", ...]


@dataclass(frozen=True)
class IfExpr:
    cmp: str
    lhs: "Node"
    rhs: "Node"
    then: "Node"
    orelse: "Node"


Node = Union[Const, Var, Unary, Binary, Call, IfExpr]


def node_depth(node: Node) -> int:
    if isinstance(node, (Const, Var)):
        return 1
    return 1 + max(node_depth(c) for c in _parts(node)[1])


def _parts(node) -> tuple:
    """A non-leaf node's operator and its operand subtrees."""
    if isinstance(node, Unary):
        return node.op, (node.operand,)
    if isinstance(node, Binary):
        return node.op, (node.lhs, node.rhs)
    if isinstance(node, Call):
        return node.fn, node.args
    return node.cmp, (node.lhs, node.rhs, node.then, node.orelse)


@dataclass(frozen=True)
class Expr:
    root: Node
    variables: tuple[str, ...]

    def __post_init__(self):
        if node_depth(self.root) > MAX_DEPTH:
            raise ExprDepthError(f"expression tree deeper than {MAX_DEPTH}")

    @cached_property
    def _batch_fn(self) -> Callable:
        return compile_batch(self.root)

    def eval_rows(self, cols, shape) -> np.ndarray:
        """Batch value on the arrays `cols`, one per variable in order, as
        float64 of `shape` (a constant tree fills it)."""
        return _filled(self._batch_fn(dict(zip(self.variables, cols))), shape)


def _filled(values, shape) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) + np.zeros(shape)


# ---------------------------------------------------------------------------
# Tokenizer

def _alternatives(names) -> str:
    return "|".join(re.escape(n) for n in sorted(names, key=len, reverse=True))


# one named group per token kind, tried in order; BAD takes any other character
_TOKEN_RE = re.compile(
    r"(?P<WS>[ \t\r\n]+)"
    r"|(?P<NUM>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)"
    rf"|(?P<CMP>{_alternatives(COMPARE_OPS)})"
    rf"|(?P<OP>{_alternatives(BINARY_OPS)})"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)"
    r"|(?P<BAD>.)",
    re.DOTALL,
)


class _Token(NamedTuple):
    kind: str  # a group name of _TOKEN_RE but WS and BAD, or EOF
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "BAD":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "WS":
            tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("EOF", "", len(src)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        raise ExprSyntaxError(
            f"expected one of {sorted(expected)}, found {tok.text or 'end of input'}",
            tok.pos,
            expected,
        )

    def expect(self, kind: str) -> _Token:
        if self.peek().kind != kind:
            self.fail({kind})
        return self.advance()

    def accept(self, ops: str) -> str | None:
        """The next token, consumed, when it is one of the operators `ops`."""
        tok = self.peek()
        return self.advance().text if tok.kind == "OP" and tok.text in ops else None

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while op := self.accept("+-"):
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while op := self.accept("*/"):
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        node = self.parse_unary()
        return Binary("^", node, self.parse_factor()) if self.accept("^") else node

    def parse_unary(self) -> Node:
        return Unary("-", self.parse_unary()) if self.accept("-") else self.parse_atom()

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"constant {tok.text} overflows", tok.pos)
            return Const(value)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN")
            return node
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if self.peek().kind == "LPAREN":
                return self.parse_call(name, tok.pos)
            if name in BUILTINS or name == "if":
                self.fail({"("})
            if name not in self.variables:
                raise UnknownIdentifierError(f"unknown variable {name!r} at offset {tok.pos}; "
                                             f"declared: {', '.join(self.variables)}")
            return Var(name)
        self.fail({"number", "identifier", "(", "-"})

    def parse_call(self, name: str, pos: int) -> Node:
        self.expect("LPAREN")
        if name == "if":
            cond_lhs = self.parse_expr()
            cmp_tok = self.peek()
            if cmp_tok.kind != "CMP":
                self.fail(set(COMPARE_OPS))
            self.advance()
            cond_rhs = self.parse_expr()
            self.expect("COMMA")
            then = self.parse_expr()
            self.expect("COMMA")
            orelse = self.parse_expr()
            self.expect("RPAREN")
            return IfExpr(cmp_tok.text, cond_lhs, cond_rhs, then, orelse)
        if name not in BUILTINS:
            raise UnknownIdentifierError(f"unknown function {name!r} at offset {pos}")
        args = [self.parse_expr()]
        while self.peek().kind == "COMMA":
            self.advance()
            args.append(self.parse_expr())
        self.expect("RPAREN")
        arity = BUILTINS[name].arity
        if len(args) != arity:
            raise ArityMismatchError(f"{name} takes {arity} argument(s), got {len(args)}")
        return Call(name, tuple(args))


def parse(src: str, variables) -> Expr:
    """Parse source text into an Expr over the declared variables."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    if len(src.encode()) > MAX_SOURCE_BYTES:
        raise ExprSyntaxError(f"source longer than {MAX_SOURCE_BYTES} bytes", 0)
    variables = tuple(variables)
    parser = _Parser(_tokenize(src), variables)
    root = parser.parse_expr()
    if parser.peek().kind != "EOF":
        parser.fail({*BINARY_OPS, "end of input"})
    return Expr(root, variables)


# ---------------------------------------------------------------------------
# Printer

def to_source(node: Node) -> str:
    """Fully parenthesized source; reparsing yields a structurally equal tree."""
    if isinstance(node, Const):
        if node.value < 0.0 or (node.value == 0.0 and math.copysign(1.0, node.value) < 0):
            return f"(-{repr(-node.value)})"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"(-{to_source(node.operand)})"
    if isinstance(node, Binary):
        return f"({to_source(node.lhs)} {node.op} {to_source(node.rhs)})"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_source(a) for a in node.args)})"
    return (f"if({to_source(node.lhs)} {node.cmp} {to_source(node.rhs)}, "
            f"{to_source(node.then)}, {to_source(node.orelse)})")


def expr_to_source(expr: Expr) -> str:
    return to_source(expr.root)


# ---------------------------------------------------------------------------
# Scalar evaluation

def _eval_node(node: Node, env) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifierError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Unary):
        return -_eval_node(node.operand, env)
    if isinstance(node, Binary):
        a = _eval_node(node.lhs, env)
        b = _eval_node(node.rhs, env)
        return _require_finite(BINARY_OPS[node.op].scalar(a, b), node.op)
    if isinstance(node, Call):
        return BUILTINS[node.fn].scalar(*[_eval_node(a, env) for a in node.args])
    # IfExpr: condition operands are strict, only one branch is evaluated
    lhs = _eval_node(node.lhs, env)
    rhs = _eval_node(node.rhs, env)
    branch = node.then if COMPARE_OPS[node.cmp].scalar(lhs, rhs) else node.orelse
    return _eval_node(branch, env)


def evaluate(expr: Expr, env) -> float:
    """Evaluate under a full variable binding; deterministic IEEE doubles."""
    return _eval_node(expr.root, env)


# ---------------------------------------------------------------------------
# Vectorized evaluation

def compile_batch(node: Node) -> Callable:
    """Compile to a closure mapping {name: array} to an array.

    Non-finite lanes are returned for the caller to mask, without
    floating-point warnings.  A lane is non-finite exactly where the scalar
    evaluator raises on its values: the kernels of `BINARY_OPS` and
    `BUILTINS` see to it, and lanes whose if-condition operands are
    non-finite are poisoned with NaN so a bad condition cannot silently
    select a branch.  A subtree that occurs more than once is evaluated
    once per call.
    """
    # not compile_batch_all((node,)): its list costs calls on every probe
    shared = _repeated_subtrees((node,))
    return _run(_compile(node, shared), shared)


def compile_batch_all(nodes) -> Callable:
    """Compile several trees into one closure returning the list of their
    arrays; a subtree repeated within or across the trees is evaluated once
    per call."""
    shared = _repeated_subtrees(nodes)
    fns = [_compile(n, shared) for n in nodes]
    return _run(lambda env: [f(env) for f in fns], shared)


def _run(f: Callable, shared: dict) -> Callable:
    def run(env):
        if shared:
            env = {**env, _MEMO: {}}
        with np.errstate(all="ignore"):
            return f(env)

    return run


# env key of the per-call memo of repeated subtrees (variable names are str)
_MEMO = 0


def _repeated_subtrees(nodes) -> dict:
    """id(node) -> memo slot for every non-leaf subtree that evaluating
    `nodes` reaches more than once.  Subtrees are equal when their structure
    and the bits of their constants are (0.0 and -0.0 differ), and a repeat
    is not descended into, so its own subtrees count once."""
    numbers = {}  # structural key -> number
    of_id = {}  # id(node) -> (number, node), keeping the node alive
    count = {}

    def number(node) -> int:
        if id(node) in of_id:
            return of_id[id(node)][0]
        if isinstance(node, Const):
            key = ("c", float(node.value).hex())
        elif isinstance(node, Var):
            key = ("v", node.name)
        else:
            label, children = _parts(node)
            key = (type(node).__name__, label, *(number(c) for c in children))
        k = numbers.setdefault(key, len(numbers))
        of_id[id(node)] = (k, node)
        return k

    def visit(node):
        if isinstance(node, (Const, Var)):
            return
        k = number(node)
        count[k] = count.get(k, 0) + 1
        if count[k] == 1:
            for c in _parts(node)[1]:
                visit(c)

    for n in nodes:
        visit(n)
    return {i: k for i, (k, _) in of_id.items() if count.get(k, 0) > 1}


def _memoized(f: Callable, slot: int) -> Callable:
    def g(env):
        memo = env[_MEMO]
        if slot not in memo:
            memo[slot] = f(env)
        return memo[slot]

    return g


def _compile(node: Node, shared: dict) -> Callable:
    """The closure of `node`, memoized per call when `shared` gives it a
    slot."""
    f = _compile_node(node, shared)
    slot = shared.get(id(node))
    return f if slot is None else _memoized(f, slot)


def _compile_node(node: Node, shared: dict) -> Callable:
    if isinstance(node, Const):
        c = node.value
        return lambda env: c
    if isinstance(node, Var):
        name = node.name
        return lambda env: env[name]
    if isinstance(node, Unary):
        f = _compile(node.operand, shared)
        return lambda env: -f(env)
    fns = [_compile(c, shared) for c in _parts(node)[1]]
    if isinstance(node, (Binary, Call)):
        kernel = (BINARY_OPS[node.op] if isinstance(node, Binary) else BUILTINS[node.fn]).batch
        if len(fns) == 1:
            (f,) = fns
            return lambda env: kernel(f(env))
        fl, fr = fns
        return lambda env: kernel(fl(env), fr(env))
    cmp = COMPARE_OPS[node.cmp].batch
    fl, fr, ft, fe = fns

    def _ifexpr(env):
        a = np.asarray(fl(env), dtype=np.float64)
        b = np.asarray(fr(env), dtype=np.float64)
        out = np.where(cmp(a, b), ft(env), fe(env))
        return _nan_where(~(np.isfinite(a) & np.isfinite(b)), out)

    return _ifexpr


# ---------------------------------------------------------------------------
# Substitution (used to build composites like h2(h1(x)) or E(H^-1(x)))

def substitute(node: Node, mapping: dict[str, Node]) -> Node:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    label, children = _parts(node)
    parts = [substitute(c, mapping) for c in children]
    return Call(label, tuple(parts)) if isinstance(node, Call) else type(node)(label, *parts)


# ---------------------------------------------------------------------------
# Semantic wrappers

def point_vars(k: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(k))


def _env_from_coords(names, coords) -> dict:
    return {name: float(c) for name, c in zip(names, coords)}


@dataclass(frozen=True)
class ScalarFn:
    """Real-valued function of point coordinates x1..xk."""

    expr: Expr
    label: str = ""

    @classmethod
    def from_source(cls, src: str, nvars: int, label: str = "") -> "ScalarFn":
        return cls(parse(src, point_vars(nvars)), label or src)

    @property
    def nvars(self) -> int:
        return len(self.expr.variables)

    def __call__(self, coords) -> float:
        return evaluate(self.expr, _env_from_coords(self.expr.variables, coords))

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        return self.expr.eval_rows(X.T, X.shape[0])

    def source(self) -> str:
        return expr_to_source(self.expr)


@dataclass(frozen=True)
class EndoMap:
    """Coordinate remap given by one component expression per coordinate."""

    exprs: tuple[Expr, ...]
    label: str = ""

    @classmethod
    def from_source(cls, srcs, nvars: int, label: str = "") -> "EndoMap":
        if isinstance(srcs, str):
            srcs = [srcs]
        exprs = tuple(parse(s, point_vars(nvars)) for s in srcs)
        return cls(exprs, label or "; ".join(srcs))

    @classmethod
    def identity(cls, nvars: int) -> "EndoMap":
        names = point_vars(nvars)
        return cls(tuple(Expr(Var(n), names) for n in names), "identity")

    @property
    def nvars(self) -> int:
        return len(self.exprs[0].variables)

    @cached_property
    def _batch_fn(self) -> Callable:
        return compile_batch_all(tuple(e.root for e in self.exprs))

    def __call__(self, coords) -> tuple[float, ...]:
        env = _env_from_coords(self.exprs[0].variables, coords)
        return tuple(evaluate(e, env) for e in self.exprs)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        cols = self._batch_fn(dict(zip(self.exprs[0].variables, X.T)))
        return np.stack([_filled(col, X.shape[0]) for col in cols]).T

    def sources(self) -> list[str]:
        return [expr_to_source(e) for e in self.exprs]


@dataclass(frozen=True)
class Bifunction:
    """Two-argument gap function over variables a, b."""

    expr: Expr
    label: str = ""

    @classmethod
    def from_source(cls, src: str, label: str = "") -> "Bifunction":
        return cls(parse(src, ("a", "b")), label or src)

    @classmethod
    def difference(cls) -> "Bifunction":
        return cls.from_source("a - b", "difference")

    def __call__(self, a: float, b: float) -> float:
        return evaluate(self.expr, {"a": float(a), "b": float(b)})

    def eval_batch(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self.expr.eval_rows((A, B), np.shape(A))

    def source(self) -> str:
        return expr_to_source(self.expr)


# ---------------------------------------------------------------------------
# Numeric differentiation

def differentiate_numeric(f: ScalarFn, at, direction) -> float:
    """Central-difference directional derivative.

    Step is max(1e-6, 1e-6 * |at|); exact (to rounding) for polynomials of
    degree <= 2, O(step^2) error for C^3 functions.
    """
    coords = getattr(at, "coords", at)
    x = np.asarray(coords, dtype=np.float64)
    v = np.asarray(direction, dtype=np.float64)
    step = max(1e-6, 1e-6 * float(np.linalg.norm(x)))
    hi = f(tuple(x + step * v))
    lo = f(tuple(x - step * v))
    return (hi - lo) / (2.0 * step)


def directional_derivative_batch(f: ScalarFn, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    steps = np.maximum(1e-6, 1e-6 * row_norm(X))
    hi = f.eval_batch(X + steps[:, None] * V)
    lo = f.eval_batch(X - steps[:, None] * V)
    return (hi - lo) / (2.0 * steps)


# ---------------------------------------------------------------------------
# Builders for combined functions

def scale_fn(c: float, f: ScalarFn) -> ScalarFn:
    root = Binary("*", Const(float(c)), f.expr.root)
    return ScalarFn(Expr(root, f.expr.variables), f"{c!r}*({f.label})")


def add_fns(f: ScalarFn, g: ScalarFn) -> ScalarFn:
    root = Binary("+", f.expr.root, g.expr.root)
    return ScalarFn(Expr(root, f.expr.variables), f"({f.label})+({g.label})")


def max_fns(fns) -> ScalarFn:
    fns = list(fns)
    root = fns[0].expr.root
    for g in fns[1:]:
        root = Call("max", (root, g.expr.root))
    return ScalarFn(Expr(root, fns[0].expr.variables), "max family")


def weighted_sum_fns(fns, weights) -> ScalarFn:
    fns = list(fns)
    root = Binary("*", Const(float(weights[0])), fns[0].expr.root)
    for g, w in zip(fns[1:], weights[1:], strict=True):
        root = Binary("+", root, Binary("*", Const(float(w)), g.expr.root))
    return ScalarFn(Expr(root, fns[0].expr.variables), "weighted sum")


def _compose(outer: Expr, parts) -> Expr:
    """outer with its i-th variable replaced by parts[i], over the variables
    of the parts."""
    if len(parts) != len(outer.variables):
        raise ValueError(f"outer takes {len(outer.variables)} variables, inner gives {len(parts)}")
    mapping = {name: p.root for name, p in zip(outer.variables, parts)}
    return Expr(substitute(outer.root, mapping), parts[0].variables)


def compose_scalar(outer: ScalarFn, inner: ScalarFn | EndoMap) -> ScalarFn:
    """outer(inner(x)); a scalar inner feeds a one-variable outer, a remap
    feeds one component per variable of outer."""
    parts = inner.exprs if isinstance(inner, EndoMap) else (inner.expr,)
    return ScalarFn(_compose(outer.expr, parts), f"({outer.label})o({inner.label})")


def compose_endomaps(outer: EndoMap, inner: EndoMap) -> EndoMap:
    """outer(inner(x)); inner gives one component per variable of outer, so
    the two maps may change the coordinate count (3 -> 2 -> 3, say)."""
    exprs = tuple(_compose(e, inner.exprs) for e in outer.exprs)
    return EndoMap(exprs, f"({outer.label})o({inner.label})")


def add_bifunctions(parts) -> Bifunction:
    parts = list(parts)
    root = parts[0].expr.root
    for p in parts[1:]:
        root = Binary("+", root, p.expr.root)
    return Bifunction(Expr(root, ("a", "b")), "sum of gaps")
