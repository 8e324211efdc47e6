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
only.  Parentheses and calls nest at most `MAX_NESTING` deep, inside the
recursion limit; a sum, a product or a run of signs may be any length.
A NAME followed by "(" calls one of the functions sin, cos, exp, sinh,
cosh, sqrt, log; any other NAME is a declared coordinate or a declared
parameter, so a coordinate may share a function's name (``exp(exp)``).
Unknown identifiers are rejected at parse time with a byte offset.
`rename_names` renames coordinates and parameters in a text by the same
rule and keeps the rest as written.

`parse` caches its trees (they are frozen), so a text is parsed once per
set of declared names.  The same AST evaluates against three backends:
NumPy (vectorized over node grids, and on plain floats), mpmath (for the
finite-difference oracle), and jets (for derivative propagation).
Every backend runs one mechanism: the trees of a call are compiled once
into a straight-line program with one instruction per distinct subtree
(`_Program`), cached by the trees' identity, and each call runs its
instructions with the backend's function table (`NUMPY_FUNCS`,
`MP_FUNCS`, `JET_FUNCS`) and constant conversion.  So each distinct
subtree is evaluated once per call, with the operations of a recursive
walk of the tree and the same values.  `eval_numpy` and `eval_mp` also
take a sequence of expressions, such as a metric's entries, and return
their values in a list.  `eval_mp` also takes a cache that calls at many
points share: a subtree that reads only some of the names is then
evaluated once per distinct value of those names, with the same bits.
`eval_jet` also takes a text, or a nested list of expressions and texts
such as a metric matrix, and returns one tensor `Jet` of that shape, at
one point or at each of an array of points; on an array it runs once per
distinct row, by bits, of the coordinates the trees read, with the same
bits.
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
from .jets import ELEMENTARY, Jet, JetDomainError, distinct_rows

FUNCTIONS = ("sin", "cos", "exp", "sinh", "cosh", "sqrt", "log")
MAX_NESTING = 100  # the parser spends 6 stack frames per level


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
    name: str  # a coordinate or a parameter


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
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0  # open parentheses and calls
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
        signs = []
        while self.peek().kind == "op" and self.peek().text == "-":
            signs.append(self.next())
        e = self.power()
        for _ in signs:
            e = Neg(e)
        return e

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
            value = float(tok.text)
            if not math.isfinite(value):
                raise DslSyntaxError(
                    f"number {tok.text!r} overflows a float", tok.pos)
            return Num(value)
        if tok.kind == "name":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise DslNameError(
                        f"unknown function {tok.text!r}; "
                        f"available: {', '.join(FUNCTIONS)}", tok.pos)
                return Call(tok.text, self.nested(self.next()))
            if tok.text in self.coords or tok.text in self.params:
                return Var(tok.text)
            declared = sorted(self.coords) + sorted(self.params)
            raise DslNameError(
                f"unknown identifier {tok.text!r}; declared names: "
                f"{', '.join(declared) if declared else '(none)'}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            return self.nested(tok)
        raise DslSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.pos)

    def nested(self, paren: _Token) -> Expr:
        """The expression after an opening parenthesis, and its ")"."""
        if self.depth == MAX_NESTING:
            raise DslSyntaxError(f"expression nests deeper than "
                                 f"{MAX_NESTING} levels", paren.pos)
        self.depth += 1
        e, tok = self.expr(), self.next()
        if tok.kind != "op" or tok.text != ")":
            raise DslSyntaxError(f"expected ')', found "
                                 f"{tok.text or 'end of input'!r}", tok.pos)
        self.depth -= 1
        return e


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


def eval_numpy(e, env: Mapping[str, np.ndarray]):
    """Evaluate vectorized over NumPy arrays (broadcasting applies); a list
    or tuple of expressions gives a list of their values."""
    return _run(e, env, NUMPY_FUNCS, float, float)


def eval_mp(e, env: Mapping[str, mp.mpf], cache: dict | None = None):
    """Evaluate in mpmath arbitrary precision (oracle backend); a list or
    tuple of expressions gives a list of their values.  Constants are
    rounded to the working precision once per precision and program.

    `cache` is an optional dict that calls over many points share.  With
    it, a subtree that reads only some of the names the expressions read
    is computed once per working precision and per value of those names:
    its value is kept there under the bits (``_mpf_``) of the names it
    reads, and later calls read it back, so the values are those of a
    call without a cache, bit for bit.  The cache grows with the number
    of distinct values; drop it to free them."""
    return _run(e, env, MP_FUNCS, mp.mpf, mp.mp.prec, cache)


def _run(e, env, funcs, const, memo, cache=None):
    """The value of one tree, or the list of values of a sequence of them,
    from their program run with a backend's table and constants."""
    many = isinstance(e, (list, tuple))
    vals = _program(tuple(e) if many else (e,)).run(env, funcs, const, memo,
                                                     cache)
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

    Over a point set the program runs once per distinct row of the
    coordinates its trees read (which its compiled program knows), and
    each point takes its row's jets.  Rows are keyed by their bits, so
    -0.0 and 0.0 are two rows and a NaN is a row of its own, and a point
    in a set already gets the bits it gets alone: the values are those of
    a run over every point, bit for bit.  A set that repeats no row runs
    as it is, after one key test.
    """
    dim = len(coords)
    pts = np.asarray(point, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != dim:
        raise DslError(f"point has shape {pts.shape}, expected ({dim},) "
                       f"or (N, {dim})")
    params = params or {}
    trees: list = []
    shape = _gather(e, trees, coords, tuple(params))
    program = _program(tuple(trees))
    found = None
    if pts.ndim == 2:
        found = distinct_rows(pts[:, [k for k, name in enumerate(coords)
                                      if name in program.names]])
    if found is None:
        return _jets(program, shape, pts, coords, params, order)
    try:
        t = _jets(program, shape, pts[found[0]], coords, params, order)
    except JetDomainError:
        # raised again over every point, where it names the first bad one
        return _jets(program, shape, pts, coords, params, order)
    return t.take_points(found[1])


def _jets(program, shape, pts, coords, params, order) -> Jet:
    """The program's values at the points, as one tensor jet of `shape`."""
    dim = len(coords)
    env: dict[str, Jet] = {
        name: Jet.variable(axis, pts[..., axis], dim, order)
        for axis, name in enumerate(coords)
    }
    for name, value in params.items():
        env[name] = Jet.constant(float(value), dim, order)
    vals = program.run(env, JET_FUNCS, lambda v: Jet.constant(v, dim, order))
    # an entry constant in the point broadcasts over the point axis
    out = np.empty(shape + pts.shape[:-1] + (tables(dim, order).size,))
    for entry, val in zip(out.reshape(-1, *out.shape[len(shape):]), vals):
        entry[...] = val.coeffs
    return Jet(dim, order, out)


def _gather(x, trees: list, coords, params) -> tuple[int, ...]:
    """Append the trees of an expression, its text or a nested list of
    them to `trees` in row-major order; return the nesting's shape."""
    if isinstance(x, (list, tuple)):
        shapes = {_gather(y, trees, coords, params) for y in x}
        if len(shapes) != 1:
            raise DslError("a nested list of expressions must be a "
                           "non-empty rectangular array")
        return (len(x),) + shapes.pop()
    trees.append(parse(x, coords, params) if isinstance(x, str) else x)
    return ()


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
           Div: operator.truediv}
_PROGRAMS: dict[tuple[int, ...], _Program] = {}  # by the trees' ids
_PROGRAMS_MAX = 256


def _program(trees: tuple) -> _Program:
    key = tuple(map(id, trees))
    program = _PROGRAMS.get(key)
    if program is None:
        if len(_PROGRAMS) >= _PROGRAMS_MAX:
            del _PROGRAMS[next(iter(_PROGRAMS))]
        program = _PROGRAMS[key] = _Program(trees)
    return program


class _Program:
    """Expression trees as one straight-line program for every backend.

    Value numbering gives each distinct subtree one slot, children before
    parents.  A node's key holds its children's slots, so equal subtrees
    share a slot without hashing whole trees, and the key of an operation
    is its instruction (op, a, b): ``op(vals[a], vals[b])``, or when op is
    None, ``-vals[a]`` if b is None and else the backend's function named
    b applied to ``vals[a]``.  An integer exponent has a slot of its own,
    so a power is a binary operation.  A run reads coordinates and
    parameters from the environment, converts constants with the backend's
    `const`, and reads operators and function tables as it goes, so an
    overload or a replaced table entry takes effect in cached programs too.

    Each instruction also names the set of loaded names its subtree reads,
    as an index into `groups` (the load slots of each set that is not all
    of them; all of them is ``len(groups)``), for the cache of `run`.
    """

    def __init__(self, trees: tuple):
        self.trees = trees  # alive while their ids key `_PROGRAMS`
        self.template: list = []  # integer exponents, None elsewhere
        self.nums: list[tuple[int, float]] = []
        self.loads: list[tuple[int, str]] = []
        self.code: list[tuple] = []
        self.inits: dict = {}  # converted constants by memo key
        slots: dict[int, int] = {}  # id(node) -> slot
        by_key: dict[tuple, int] = {}  # node key -> slot
        reads: list[frozenset] = []  # by slot: the load slots it reads

        def intern(key: tuple) -> int:
            slot = by_key.get(key)
            if slot is None:
                slot = by_key[key] = len(self.template)
                kind = key[0]
                self.template.append(key[1] if kind is int else None)
                read = frozenset()
                if kind is Num:
                    self.nums.append((slot, key[1]))
                elif kind is Var:
                    self.loads.append((slot, key[1]))
                    read = frozenset((slot,))
                elif kind is not int:
                    _, a, b = key
                    read = reads[a] | reads[b] if type(b) is int else reads[a]
                    self.code.append((slot, *key))
                reads.append(read)
            return slot

        # children first, without recursion: a reversed preorder, b first
        for root in trees:
            todo, order = [root], []
            while todo:
                x = todo.pop()
                if id(x) not in slots:
                    order.append(x)
                    todo += [getattr(x, f) for f in "ab" if hasattr(x, f)]
            for x in reversed(order):
                if id(x) in slots:
                    continue
                t = type(x)
                if t is Num:
                    key = (Num, x.v, math.copysign(1.0, x.v))
                elif t is Var:
                    key = (Var, x.name)
                elif t is Neg:
                    key = (None, slots[id(x.a)], None)
                elif t is Call:
                    key = (None, slots[id(x.a)], x.fn)
                elif t is Pow:
                    key = (operator.pow, slots[id(x.a)], intern((int, x.k)))
                elif t in _BINARY:
                    key = (_BINARY[t], slots[id(x.a)], slots[id(x.b)])
                else:
                    raise DslError(f"not an expression node: {x!r}")
                slots[id(x)] = intern(key)
        self.outs = [slots[id(x)] for x in trees]
        every = frozenset(slot for slot, _ in self.loads)
        groups = list(dict.fromkeys(reads[ins[0]] for ins in self.code
                                    if reads[ins[0]] != every))
        self.groups = [tuple(sorted(r)) for r in groups]
        index = {r: k for k, r in enumerate(groups)}
        self.code = [(*ins, index.get(reads[ins[0]], len(groups)))
                     for ins in self.code]
        self.uncached = [None] * (len(groups) + 1)
        self.names = frozenset(name for _, name in self.loads)  # all read

    def run(self, env: Mapping[str, object], funcs: Mapping[str, Callable],
            const: Callable, memo=None, cache: dict | None = None) -> list:
        """The trees' values.  Constants converted under a `memo` key are
        kept for the next run with that key; None keeps nothing.

        With a `cache` dict, an instruction that reads only some of the
        loaded names looks its value up by its slot under (this program,
        `memo`, the ``_mpf_`` bits of the names it reads), and stores it
        there when it computes it.  Each slot reads one group of names,
        so two groups may share a dict of values by slot."""
        vals = self.inits.get(memo)
        if vals is None:
            vals = self.template.copy()
            for slot, v in self.nums:
                vals[slot] = const(v)
            if memo is not None:
                self.inits[memo] = vals
        vals = vals.copy()
        try:
            for slot, name in self.loads:
                vals[slot] = env[name]
        except KeyError as err:
            raise DslNameError(
                f"unbound name {err.args[0]!r} at evaluation") from None
        rows = self.uncached
        if cache is not None:
            rows = []
            for group in self.groups:
                key = (self, memo, tuple(vals[s]._mpf_ for s in group))
                rows.append(cache.setdefault(key, {}))
            rows.append(None)
        for slot, op, a, b, k in self.code:
            row = rows[k]
            if row is not None and slot in row:
                vals[slot] = row[slot]
                continue
            if op is not None:
                v = op(vals[a], vals[b])
            elif b is None:
                v = -vals[a]
            else:
                v = funcs[b](vals[a])
            vals[slot] = v
            if row is not None:
                row[slot] = v
        return [vals[k] for k in self.outs]
