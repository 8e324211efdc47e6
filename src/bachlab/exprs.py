"""Scalar expression DSL for metric entries, potentials and profiles.

Grammar (EBNF, whitespace insignificant):

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" exponent ] ;
    exponent = [ "-" ] INTEGER ;
    atom     = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;

Binary operators are left-associative; "^" binds tighter than unary
minus (so ``-x^2`` is ``-(x^2)``) and takes integer literal exponents
only.  NAME is either a declared coordinate, a declared parameter, or
one of the functions sin, cos, exp, sinh, cosh, sqrt, log.  Unknown
identifiers are rejected at parse time with a byte offset.

`parse` caches its trees (they are frozen), so a text is parsed once per
set of declared names.  The same AST evaluates against several backends:
python floats, NumPy arrays (vectorized over node grids), mpmath (for
the finite-difference oracle), and jets (for derivative propagation).
`eval_jet` also takes a text, or a nested list of expressions and texts
such as a metric matrix, and returns one tensor `Jet` of that shape, at
one point or at each of an array of points; it evaluates each distinct
subtree once per call, and its functions are `jets.ELEMENTARY`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import mpmath as mp
import numpy as np

from ._jettables import tables
from .jets import ELEMENTARY, Jet

FUNCTIONS = ("sin", "cos", "exp", "sinh", "cosh", "sqrt", "log")


class DslError(ValueError):
    """Base error for expression parsing/evaluation."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class DslSyntaxError(DslError):
    pass


class DslNameError(DslError):
    pass


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Num:
    v: float


@dataclass(frozen=True)
class Var:
    name: str
    axis: int


@dataclass(frozen=True)
class Par:
    name: str


@dataclass(frozen=True)
class Neg:
    a: object


@dataclass(frozen=True)
class Add:
    a: object
    b: object


@dataclass(frozen=True)
class Sub:
    a: object
    b: object


@dataclass(frozen=True)
class Mul:
    a: object
    b: object


@dataclass(frozen=True)
class Div:
    a: object
    b: object


@dataclass(frozen=True)
class Pow:
    a: object
    k: int


@dataclass(frozen=True)
class Call:
    fn: str
    a: object


Expr = object  # union of the node classes above


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(src) - len(stripped)
            raise DslSyntaxError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
class _Parser:
    def __init__(self, src: str, coords: Sequence[str], params: Sequence[str]):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.coords = {name: axis for axis, name in enumerate(coords)}
        self.params = set(params)
        clash = set(self.coords) & self.params
        if clash:
            raise DslNameError(f"names declared as both coordinate and "
                               f"parameter: {sorted(clash)}")

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise DslSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                 tok.pos)
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise DslSyntaxError(f"unexpected {tok.text!r} after expression", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            base = Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        tok = self.next()
        if tok.kind == "op" and tok.text == "-":
            sign = -1
            tok = self.next()
        if tok.kind != "num":
            raise DslSyntaxError("exponent must be an integer literal", tok.pos)
        try:
            k = int(tok.text)
        except ValueError:
            raise DslSyntaxError(
                f"exponent must be an integer literal, got {tok.text!r}", tok.pos
            ) from None
        return sign * k

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise DslNameError(
                        f"unknown function {tok.text!r}; "
                        f"available: {', '.join(FUNCTIONS)}", tok.pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in self.coords:
                return Var(tok.text, self.coords[tok.text])
            if tok.text in self.params:
                return Par(tok.text)
            declared = sorted(self.coords) + sorted(self.params)
            raise DslNameError(
                f"unknown identifier {tok.text!r}; declared names: "
                f"{', '.join(declared) if declared else '(none)'}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise DslSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(src: str, coords: Sequence[str], params: Sequence[str] = ()) -> Expr:
    """Parse a scalar expression over declared coordinates and parameters.

    Each (text, names) triple is parsed once; repeated calls return the
    same frozen tree.
    """
    return _parse_cached(src, tuple(coords), tuple(params))


@lru_cache(maxsize=1024)
def _parse_cached(src: str, coords: tuple[str, ...],
                  params: tuple[str, ...]) -> Expr:
    return _Parser(src, coords, params).parse()


# ----------------------------------------------------------------------
# pretty printer (canonical form; parse . pretty . parse is a fixed point)
# ----------------------------------------------------------------------
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4,
         Num: 5, Var: 5, Par: 5, Call: 5}


def pretty(e: Expr) -> str:
    return _emit(e, 0)


def _paren(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


def _emit(e: Expr, parent_prec: int) -> str:
    prec = _PREC[type(e)]
    if isinstance(e, Num):
        # negative literals only arise programmatically; print via Neg form
        if e.v < 0 or (e.v == 0 and math.copysign(1.0, e.v) < 0):
            return _emit(Neg(Num(-e.v)), parent_prec)
        return repr(e.v)
    if isinstance(e, (Var, Par)):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_emit(e.a, 0)})"
    if isinstance(e, Neg):
        return _paren(f"-{_emit(e.a, prec)}", parent_prec > prec)
    if isinstance(e, Pow):
        base = _emit(e.a, prec + 1)  # base must bind tighter than ^
        return _paren(f"{base}^{e.k}", parent_prec > prec)
    if isinstance(e, Add):
        text = f"{_emit(e.a, prec)} + {_emit(e.b, prec + 1)}"
    elif isinstance(e, Sub):
        text = f"{_emit(e.a, prec)} - {_emit(e.b, prec + 1)}"
    elif isinstance(e, Mul):
        text = f"{_emit(e.a, prec)}*{_emit(e.b, prec + 1)}"
    elif isinstance(e, Div):
        text = f"{_emit(e.a, prec)}/{_emit(e.b, prec + 1)}"
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"not an expression node: {e!r}")
    return _paren(text, parent_prec > prec)


# ----------------------------------------------------------------------
# evaluation backends
# ----------------------------------------------------------------------
FLOAT_FUNCS: dict[str, Callable] = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "sinh": math.sinh, "cosh": math.cosh, "sqrt": math.sqrt,
    "log": math.log,
}
NUMPY_FUNCS: dict[str, Callable] = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "sinh": np.sinh, "cosh": np.cosh, "sqrt": np.sqrt,
    "log": np.log,
}
MP_FUNCS: dict[str, Callable] = {
    "sin": mp.sin, "cos": mp.cos, "exp": mp.exp,
    "sinh": mp.sinh, "cosh": mp.cosh, "sqrt": mp.sqrt,
    "log": mp.log,
}
JET_FUNCS = ELEMENTARY


def _eval(e: Expr, env: Mapping[str, object], funcs: Mapping[str, Callable],
          const: Callable):
    t = type(e)
    if t is Num:
        return const(e.v)
    if t is Var or t is Par:
        try:
            return env[e.name]
        except KeyError:
            raise DslNameError(f"unbound name {e.name!r} at evaluation") from None
    if t is Neg:
        return -_eval(e.a, env, funcs, const)
    if t is Add:
        return _eval(e.a, env, funcs, const) + _eval(e.b, env, funcs, const)
    if t is Sub:
        return _eval(e.a, env, funcs, const) - _eval(e.b, env, funcs, const)
    if t is Mul:
        return _eval(e.a, env, funcs, const) * _eval(e.b, env, funcs, const)
    if t is Div:
        return _eval(e.a, env, funcs, const) / _eval(e.b, env, funcs, const)
    if t is Pow:
        return _eval(e.a, env, funcs, const) ** e.k
    if t is Call:
        return funcs[e.fn](_eval(e.a, env, funcs, const))
    raise DslError(f"not an expression node: {e!r}")


def eval_float(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with python floats."""
    return _eval(e, env, FLOAT_FUNCS, float)


def eval_numpy(e: Expr, env: Mapping[str, np.ndarray]):
    """Evaluate vectorized over NumPy arrays (broadcasting applies)."""
    return _eval(e, env, NUMPY_FUNCS, float)


def eval_mp(e: Expr, env: Mapping[str, mp.mpf]) -> mp.mpf:
    """Evaluate in mpmath arbitrary precision (oracle backend)."""
    return _eval(e, env, MP_FUNCS, mp.mpf)


def eval_jet(e, point, coords: Sequence[str],
             params: Mapping[str, float] | None = None, order: int = 4) -> Jet:
    """Evaluate to a jet at a point: all partials up to `order` at once.

    `e` is an expression, its text, or a nested list or tuple of them; the
    result is one `Jet` of that tensor shape (a scalar jet for a single
    expression).  `point` is one point, or an ``(N, dim)`` array of them,
    which adds a point axis after the tensor axes: coefficients of shape
    ``(*tensor_shape, N, size)``.  The coordinate and parameter jets are
    built once per call, and each distinct subtree is evaluated once per
    call, however many entries or subexpressions it occurs in.
    """
    dim = len(coords)
    pts = np.asarray(point, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != dim:
        raise DslError(f"point has shape {pts.shape}, expected ({dim},) "
                       f"or (N, {dim})")
    batch = pts.shape[:-1]
    params = params or {}
    env: dict[str, Jet] = {
        name: Jet.variable(axis, pts[..., axis], dim, order)
        for axis, name in enumerate(coords)
    }
    for name, value in params.items():
        env[name] = Jet.constant(float(value), dim, order)
    out = _JetEvaluation(env, dim, order, batch).coeffs(
        e, coords, tuple(params))
    return Jet(dim, order, out if out.flags.writeable else out.copy())


class _JetEvaluation:
    """The jets of one `eval_jet` call, one per distinct subtree.

    Value numbering: a node's key holds its children's value numbers, so
    equal subtrees share one jet without hashing whole trees.
    """

    def __init__(self, env: Mapping[str, Jet], dim: int, order: int,
                 batch: tuple[int, ...]):
        self.env, self.dim, self.order = env, dim, order
        self.full = batch + (tables(dim, order).size,)
        self.numbers: dict[int, int] = {}  # id(node) -> value number
        self.by_key: dict[tuple, int] = {}  # node key -> value number
        self.vals: list[Jet] = []
        self.trees: list = []  # parsed trees, alive while ids are keys

    def coeffs(self, x, coords, params) -> np.ndarray:
        """Coefficients of an expression, its text or a nested list."""
        if isinstance(x, (list, tuple)):
            return np.stack([self.coeffs(y, coords, params) for y in x])
        if isinstance(x, str):
            x = parse(x, coords, params)
            self.trees.append(x)
        c = self.vals[self.number(x)].coeffs
        # an entry constant in the point broadcasts over the point axis
        return c if c.shape == self.full else np.broadcast_to(c, self.full)

    def number(self, x) -> int:
        got = self.numbers.get(id(x))
        if got is not None:
            return got
        t = type(x)
        if t is Num:
            key = (t, x.v, math.copysign(1.0, x.v))
        elif t is Var or t is Par:
            key = (Var, x.name)
        elif t is Neg:
            key = (t, self.number(x.a))
        elif t is Pow:
            key = (t, self.number(x.a), x.k)
        elif t is Call:
            key = (t, self.number(x.a), x.fn)
        elif t in (Add, Sub, Mul, Div):
            key = (t, self.number(x.a), self.number(x.b))
        else:
            raise DslError(f"not an expression node: {x!r}")
        got = self.by_key.get(key)
        if got is None:
            got = self.by_key[key] = len(self.vals)
            self.vals.append(self.jet(x, key))
        self.numbers[id(x)] = got
        return got

    def jet(self, x, key: tuple) -> Jet:
        """The jet of one node, given its children's by value number."""
        t = type(x)
        if t is Num:
            return Jet.constant(x.v, self.dim, self.order)
        if t is Var or t is Par:
            try:
                return self.env[x.name]
            except KeyError:
                raise DslNameError(
                    f"unbound name {x.name!r} at evaluation") from None
        a = self.vals[key[1]]
        if t is Neg:
            return -a
        if t is Pow:
            return a ** x.k
        if t is Call:
            return JET_FUNCS[x.fn](a)
        b = self.vals[key[2]]
        if t is Add:
            return a + b
        if t is Sub:
            return a - b
        if t is Mul:
            return a * b
        return a / b


def free_names(e: Expr) -> set[str]:
    """All coordinate/parameter names appearing in the expression."""
    t = type(e)
    if t is Num:
        return set()
    if t is Var or t is Par:
        return {e.name}
    if t in (Neg, Call):
        return free_names(e.a)
    if t is Pow:
        return free_names(e.a)
    return free_names(e.a) | free_names(e.b)


def substitute_names(e: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rename coordinates/parameters (used when building product charts)."""
    t = type(e)
    if t is Num:
        return e
    if t is Var:
        return Var(mapping.get(e.name, e.name), e.axis)
    if t is Par:
        return Par(mapping.get(e.name, e.name))
    if t is Neg:
        return Neg(substitute_names(e.a, mapping))
    if t is Call:
        return Call(e.fn, substitute_names(e.a, mapping))
    if t is Pow:
        return Pow(substitute_names(e.a, mapping), e.k)
    if t is Add:
        return Add(substitute_names(e.a, mapping), substitute_names(e.b, mapping))
    if t is Sub:
        return Sub(substitute_names(e.a, mapping), substitute_names(e.b, mapping))
    if t is Mul:
        return Mul(substitute_names(e.a, mapping), substitute_names(e.b, mapping))
    if t is Div:
        return Div(substitute_names(e.a, mapping), substitute_names(e.b, mapping))
    raise TypeError(f"not an expression node: {e!r}")
