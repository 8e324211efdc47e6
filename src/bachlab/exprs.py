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
only.  A NAME followed by "(" calls one of the functions sin, cos, exp,
sinh, cosh, sqrt, log; any other NAME is a declared coordinate or a
declared parameter, so a coordinate may share a function's name
(``exp(exp)``).  Unknown identifiers are rejected at parse time with a
byte offset.  `rename_names` renames coordinates and parameters in a text
by the same rule and keeps the rest as written.

`parse` caches its trees (they are frozen), so a text is parsed once per
set of declared names.  The same AST evaluates against several backends:
python floats, NumPy arrays (vectorized over node grids), mpmath (for
the finite-difference oracle), and jets (for derivative propagation).
`eval_jet` also takes a text, or a nested list of expressions and texts
such as a metric matrix, and returns one tensor `Jet` of that shape, at
one point or at each of an array of points; it evaluates each distinct
subtree once per call, and its functions are `jets.ELEMENTARY`.
`eval_mp` also takes a sequence of expressions, such as a metric's
entries, and returns their values in a list.  It compiles the trees once
into a straight-line program with one instruction per distinct subtree,
cached by the trees' identity, so each call only runs the instructions;
the mpf operations and values are those of the recursive walk.
"""

from __future__ import annotations

import math
import operator
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
        self.coords = set(coords)
        self.params = set(params)
        clash = self.coords & self.params
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
                return Var(tok.text)
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


def rename_names(src: str, mapping: Mapping[str, str]) -> str:
    """`src` with each name in `mapping` replaced; a name followed by ``(``
    is a function call and keeps its name, and all else, spacing and the
    spelling of numbers included, stays as written."""
    tokens = _tokenize(src)
    out, last = [], 0
    for tok, nxt in zip(tokens, tokens[1:]):
        if tok.kind == "name" and tok.text in mapping \
                and not (nxt.kind == "op" and nxt.text == "("):
            out += [src[last:tok.pos], mapping[tok.text]]
            last = tok.pos + len(tok.text)
    return "".join(out) + src[last:]


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


def eval_mp(e, env: Mapping[str, mp.mpf]):
    """Evaluate in mpmath arbitrary precision (oracle backend).

    `e` is an expression, or a list or tuple of them, whose values are then
    returned in a list.  The trees are compiled once into a straight-line
    program (`_MpProgram`) and cached by their identity, so a call runs only
    the program: each distinct subtree once, with the recursive
    evaluation's mpf operations and values at any working precision.
    """
    many = isinstance(e, (list, tuple))
    trees = tuple(e) if many else (e,)
    key = tuple(map(id, trees))
    program = _MP_PROGRAMS.get(key)
    if program is None:
        if len(_MP_PROGRAMS) >= _MP_PROGRAMS_MAX:
            del _MP_PROGRAMS[next(iter(_MP_PROGRAMS))]
        program = _MP_PROGRAMS[key] = _MpProgram(trees)
    vals = program.run(env)
    return vals if many else vals[0]


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


class _Numbering:
    """Value numbering of expression trees: each distinct subtree gets one
    number, in the order first met, so a node's children are numbered
    before it.  A node's key holds its children's value numbers, so equal
    subtrees share a number without hashing whole trees.  A subclass
    evaluates or records each distinct node in `visit`."""

    def __init__(self):
        self.numbers: dict[int, int] = {}  # id(node) -> value number
        self.by_key: dict[tuple, int] = {}  # node key -> value number

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
            got = self.by_key[key] = len(self.by_key)
            self.visit(x, key)
        self.numbers[id(x)] = got
        return got

    def visit(self, x, key: tuple) -> None:
        raise NotImplementedError


class _JetEvaluation(_Numbering):
    """The jets of one `eval_jet` call, one per distinct subtree."""

    def __init__(self, env: Mapping[str, Jet], dim: int, order: int,
                 batch: tuple[int, ...]):
        super().__init__()
        self.env, self.dim, self.order = env, dim, order
        self.full = batch + (tables(dim, order).size,)
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

    def visit(self, x, key: tuple) -> None:
        self.vals.append(self.jet(x, key))

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


_MP_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
              Div: operator.truediv}
_MP_PROGRAMS: dict[tuple[int, ...], _MpProgram] = {}  # by the trees' ids
_MP_PROGRAMS_MAX = 256


class _MpProgram(_Numbering):
    """Expression trees as one straight-line program on mpf values.

    Slot k holds value number k.  Coordinates and parameters are read from
    the environment on each run; constants are converted by `mp.mpf` once
    per working precision; every other distinct node is one instruction
    (slot, op, a, b), op applied to the values in slots a and b (b is
    None for a one-argument op).
    """

    def __init__(self, trees: tuple):
        super().__init__()
        self.trees = trees  # alive while their ids key `_MP_PROGRAMS`
        self.loads: list[tuple[int, str]] = []
        self.nums: list[tuple[int, float]] = []
        self.code: list[tuple] = []
        self.outs = [self.number(x) for x in trees]
        self.prec, self.init = None, None

    def visit(self, x, key: tuple) -> None:
        slot, t = self.by_key[key], type(x)
        if t is Num:
            self.nums.append((slot, x.v))
        elif t is Var or t is Par:
            self.loads.append((slot, x.name))
        elif t is Neg:
            self.code.append((slot, operator.neg, key[1], None))
        elif t is Pow:
            self.code.append((slot, lambda a, k=x.k: a ** k, key[1], None))
        elif t is Call:
            # read from the table on each run, as `_eval` reads it, so a
            # replaced entry takes effect in cached programs too
            self.code.append((slot, lambda a, fn=x.fn: MP_FUNCS[fn](a),
                              key[1], None))
        else:
            self.code.append((slot, _MP_BINARY[t], key[1], key[2]))

    def run(self, env: Mapping[str, mp.mpf]) -> list:
        if self.prec != mp.mp.prec:
            init = [None] * len(self.by_key)
            for slot, v in self.nums:
                init[slot] = mp.mpf(v)
            self.prec, self.init = mp.mp.prec, init
        vals = self.init.copy()
        try:
            for slot, name in self.loads:
                vals[slot] = env[name]
        except KeyError as err:
            raise DslNameError(
                f"unbound name {err.args[0]!r} at evaluation") from None
        for slot, op, a, b in self.code:
            vals[slot] = op(vals[a]) if b is None else op(vals[a], vals[b])
        return [vals[k] for k in self.outs]
