"""Independent derivative oracle: nested finite differences in high precision.

This module deliberately shares no differentiation machinery with the jet
pipeline.  The metric is evaluated pointwise by mpmath at DEFAULT_DPS = 50
digits; all the algebra on it (differences, inverse, curvature) runs in
the standard library's C-backed `decimal` at DEFAULT_DPS + 2 = 52 digits,
at least the 169 bits mpmath works with at 50 digits.  Every derivative
is a 4th-order central difference (stencil [1, -8, 0, 8, -1]/12h), nested
for higher and mixed derivatives.  The step and the lattice are exact
decimals, so p + h - h is p and each lattice node is one memo key.
The metric is evaluated once per lattice node, and each subexpression of
its entries once per distinct value of the coordinates and parameters it
reads: a lattice axis takes only a few distinct values, so ``sin(th)`` is
not evaluated again at every node.  This memo changes no bit of a value.

With these digits roundoff is negligible: a pack at 20 more digits agrees
to 1e-25 relative.  The truncation error shrinks as h^4 and grows with
every nesting level and with the size of the metric's higher
derivatives.  At the default h = 1e-3 it is below 1e-9 relative on the
smooth metrics of the cross-checks, but near a sphere chart's pole it
reaches 2.0e-5: the derivative of the Bach tensor of a bumpy S^2 x T^2 at
theta = 0.25 is off by that much, and by 1.6e-7 at h = 3e-4.

Used by the oracle regression tests and by `scripts/regen_goldens.py`,
which freezes the expensive deep-curvature values into data/.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import sys
from decimal import Decimal
from typing import Callable, Iterator, Sequence

import mpmath as mp
import numpy as np

from . import exprs

DEFAULT_H = "1e-3"
DEFAULT_DPS = 50


@contextlib.contextmanager
def _oracle_point(point: Sequence[float]) -> Iterator[tuple]:
    """Open the oracle's precision and yield `point` as exact decimals.

    The algebra runs in a local decimal context of DEFAULT_DPS + 2 digits
    with the default traps on, so an invalid operation, a division by
    zero or an overflow raises; the metric is evaluated by mpmath at
    DEFAULT_DPS.  Each float coordinate becomes the exact decimal of its
    shortest repr."""
    ctx = decimal.Context(prec=DEFAULT_DPS + 2, traps=[
        decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow])
    with decimal.localcontext(ctx), mp.workdps(DEFAULT_DPS):
        yield tuple(Decimal(repr(float(x))) for x in point)


def _decimal(x) -> Decimal:
    """An mpf (or int) (-1)^sign * man * 2^exp, rounded once to the decimal
    context."""
    sign, man, exp, _ = (x if isinstance(x, mp.mpf) else mp.mpf(x))._mpf_
    man = -man if sign else man
    if exp >= 0:
        return Decimal(man << exp).scaleb(0)
    return Decimal(man * 5 ** -exp).scaleb(exp)


def _central(f: Callable, point: tuple, axis: int, h):
    """4th-order central difference of f (a number or an array of them)."""
    def at(s):
        q = list(point)
        q[axis] = q[axis] + s * h
        return f(tuple(q))

    return (-at(2) + 8 * at(1) - 8 * at(-1) + at(-2)) / (12 * h)


# ----------------------------------------------------------------------
# scalar partials (oracle for jet composition)
# ----------------------------------------------------------------------
def partial_mp(f: Callable, point: Sequence, alpha: Sequence[int],
               h=None) -> mp.mpf:
    """Mixed partial d^alpha f at a point by nested central differences."""
    h = mp.mpf(DEFAULT_H) if h is None else mp.mpf(h)
    point = tuple(mp.mpf(x) for x in point)
    alpha = tuple(int(a) for a in alpha)
    for axis, a in enumerate(alpha):
        if a > 0:
            lower = alpha[:axis] + (a - 1,) + alpha[axis + 1:]
            return _central(lambda q: partial_mp(f, q, lower, h),
                            point, axis, h)
    return f(point)


# ----------------------------------------------------------------------
# curvature by nested differences
# ----------------------------------------------------------------------
class OracleError(ValueError):
    """A metric the oracle cannot difference: not finite, not exactly
    symmetric, or singular at a lattice node."""


def _where(p: tuple) -> str:
    return "(" + ", ".join(f"{float(x):.12g}" for x in p) + ")"


def _pivot_weight(row: list, j: int):
    """|row[j]| scaled by the row's absolute sum from column j on."""
    a = abs(row[j])
    return a and 1 / sum(abs(x) for x in row[j:]) * a


def _per_point(build: Callable) -> Callable:
    """Memoise a tensor method per point, so nested stencils share work."""
    @functools.wraps(build)
    def method(self, p):
        key = (build.__name__, p)
        if key not in self._cache:
            self._cache[key] = build(self, p)
        return self._cache[key]
    return method


class FDGeometry:
    """Curvature of a metric by nested finite differences (the oracle).

    gfun maps a point (tuple of mpf) to the n x n metric matrix as nested
    lists of mpf.  Everything after it is `decimal` arithmetic in the
    context `pack` opens: lattice points are tuples of exact decimals,
    and tensors are object arrays of Decimal, each built entry by entry
    from its textbook formula; every covariant derivative comes from the
    one rule in `_cov`.  Each tensor is memoised per lattice node.

    The work at a node: gfun is called once, on coordinates from a table
    that converts each distinct coordinate value to mpf once per precision
    (`geometry_from_chart` evaluates each distinct subtree of the entries
    once per distinct value of the names it reads); the metric must be
    finite and exactly symmetric there (`OracleError` otherwise), and each
    entry with i <= j is rounded once to a Decimal and mirrored.
    The inverse is one LU elimination.  Gamma sums its bracket, built once
    per (l, i, j), for i <= j and mirrors the rest; the metric and Gamma
    are differenced over their i <= j entries only.  Ricci takes the l = i
    entries of the one Riemann entry rule, so only the base point builds
    all n^4 entries of R^l_ijk.

    Index conventions match the engine: Riem storage R[l][i][j][k] is
    g_{lm} R^m_{ijk} with R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    + Gamma Gamma terms; Ric_{jk} = R^i_{ijk}.
    """

    def __init__(self, gfun: Callable, n: int, h=DEFAULT_H):
        self.gfun = gfun
        self.n = n
        self.h = Decimal(str(h))
        self._cache: dict = {}
        self._to_mpf: dict = {}  # {precision: {Decimal: mpf}}

    # -- plumbing ------------------------------------------------------
    def _box(self, rank: int, entry: Callable) -> np.ndarray:
        """The rank-`rank` tensor with entry(i, j, ..) at (i, j, ..)."""
        out = np.empty((self.n,) * rank, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = entry(*idx)
        return out

    def _dtensor(self, fun: Callable, point: tuple, axis: int):
        """Elementwise 4th-order central difference of a tensor function."""
        return _central(fun, point, axis, self.h)

    def _grad(self, fun: Callable, q: tuple) -> np.ndarray:
        """[a, ...] = d_a fun, the partial index first."""
        return np.array([self._dtensor(fun, q, a) for a in range(self.n)],
                        dtype=object)

    def _grad_sym(self, fun: Callable, q: tuple) -> np.ndarray:
        """`_grad` of a tensor symmetric in its last two indices: only the
        entries with i <= j are differenced, and mirrored."""
        tri = np.triu_indices(self.n)
        part = self._grad(lambda x: fun(x)[(..., *tri)], q)
        out = np.empty(part.shape[:-1] + (self.n, self.n), dtype=object)
        out[(..., *tri)] = part
        out[(..., *tri[::-1])] = part
        return out

    def _cov(self, fun: Callable, q: tuple) -> np.ndarray:
        """nabla_m T_{i..} = d_m T_{i..} - sum_s Gamma^a_{m i_s} T_{..a..},
        the derivative index m first, for an all-lower tensor T = fun."""
        dT, T, gam = self._grad(fun, q), fun(q), self.gamma(q)

        def entry(m, *idx):
            acc = dT[(m,) + idx]
            for a in range(self.n):
                for s in range(len(idx)):
                    acc -= gam[a, m, idx[s]] * T[idx[:s] + (a,) + idx[s + 1:]]
            return acc
        return self._box(np.ndim(T) + 1, entry)

    # -- metric level ---------------------------------------------------
    @_per_point
    def g(self, p):
        """g at p; every entry finite and g exactly symmetric.  Each
        distinct coordinate value is converted to mpf once per precision,
        and the entries with i <= j are rounded to Decimal and mirrored."""
        to_mpf = self._to_mpf.setdefault(mp.mp.prec, {})
        for x in p:
            if x not in to_mpf:
                to_mpf[x] = mp.mpf(str(x))
        g = self.gfun(tuple(to_mpf[x] for x in p))
        if not all(mp.isfinite(x) for row in g for x in row):
            raise OracleError(f"metric is not finite at {_where(p)}")
        if any(g[i][j] != g[j][i] for i in range(self.n) for j in range(i)):
            raise OracleError(f"metric is not symmetric at {_where(p)}")
        out = np.empty((self.n, self.n), dtype=object)
        for i in range(self.n):
            for j in range(i, self.n):
                out[i, j] = out[j, i] = _decimal(g[i][j])
        return out

    @_per_point
    def ginv(self, p):
        """g^-1 with 3 guard digits: LU elimination with row-scaled partial
        pivoting, then one forward and back substitution per unit column
        (the arithmetic of mpmath's `inverse`, on plain lists)."""
        n, R = self.n, range(self.n)
        lu, perm = self.g(p).tolist(), []
        with decimal.localcontext() as ctx:
            ctx.prec += 3
            for j in R:
                if j < n - 1:
                    weight = [_pivot_weight(row, j) for row in lu[j:]]
                    k = j + weight.index(max(weight))
                    lu[j], lu[k] = lu[k], lu[j]
                    perm.append(k)
                pivot = lu[j][j]
                if not pivot:
                    raise OracleError(f"metric is singular at {_where(p)}")
                for i in range(j + 1, n):
                    lu[i][j] /= pivot
                    for k in range(j + 1, n):
                        lu[i][k] -= lu[i][j] * lu[j][k]
            cols = []
            for c in R:
                x = [Decimal(int(i == c)) for i in R]
                for j, k in enumerate(perm):
                    x[j], x[k] = x[k], x[j]
                for i in R:
                    for j in range(i):
                        x[i] -= lu[i][j] * x[j]
                for i in reversed(R):
                    for j in range(i + 1, n):
                        x[i] -= lu[i][j] * x[j]
                    x[i] /= lu[i][i]
                cols.append(x)
        return np.array(cols, dtype=object).T

    @_per_point
    def gamma(self, p):
        """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2.

        The bracket is built once per (l, i, j); entries with i <= j are
        summed and mirrored, as the metric is symmetric."""
        R = range(self.n)
        dg, gi = self._grad_sym(self.g, p), self.ginv(p)
        bracket = {(l, i, j): dg[i, j, l] + dg[j, i, l] - dg[l, i, j]
                   for l in R for i in R for j in R if i <= j}
        gam = np.empty((self.n,) * 3, dtype=object)
        for k in R:
            for i in R:
                for j in range(i, self.n):
                    gam[k, i, j] = gam[k, j, i] = sum(
                        gi[k, l] * bracket[l, i, j] for l in R) / 2
        return gam

    # -- curvature level --------------------------------------------------
    def _riemann_rule(self, p) -> Callable:
        """The entry rule (l, i, j, k) -> R^l_ijk at p."""
        R = range(self.n)
        dgam, gam = self._grad_sym(self.gamma, p), self.gamma(p)
        return lambda l, i, j, k: sum(
            (gam[l, i, m] * gam[m, j, k] - gam[l, j, m] * gam[m, i, k]
             for m in R), dgam[i, l, j, k] - dgam[j, l, i, k])

    @_per_point
    def riemann_up(self, p):
        return self._box(4, self._riemann_rule(p))

    @_per_point
    def riemann_lo(self, p):
        R = range(self.n)
        up, g = self.riemann_up(p), self.g(p)
        return self._box(4, lambda l, i, j, k: sum(
            g[l, m] * up[m, i, j, k] for m in R))

    @_per_point
    def ricci(self, p):
        """Ric_jk = R^i_ijk, from the l = i entries of the Riemann rule."""
        R = range(self.n)
        up = self._riemann_rule(p)
        return self._box(2, lambda j, k: sum(up(i, i, j, k) for i in R))

    @_per_point
    def scalar(self, p):
        R = range(self.n)
        ric, gi = self.ricci(p), self.ginv(p)
        return sum(gi[j, k] * ric[j, k] for j in R for k in R)

    @_per_point
    def ricci_sq(self, p):
        """Composition square (Ric^2)_ij = Ric_ik g^kl Ric_lj."""
        R = range(self.n)
        ric, gi = self.ricci(p), self.ginv(p)
        return self._box(2, lambda i, j: sum(
            ric[i, k] * gi[k, l] * ric[l, j] for k in R for l in R))

    @_per_point
    def ricci_norm2(self, p):
        R = range(self.n)
        ric, gi = self.ricci(p), self.ginv(p)
        return sum(gi[i, k] * gi[j, l] * ric[i, j] * ric[k, l]
                   for i in R for j in R for k in R for l in R)

    # -- scalar-curvature derivatives -------------------------------------
    @_per_point
    def grad_scalar_lo(self, p):
        """dS (lower index)."""
        return self._grad(self.scalar, p)

    @_per_point
    def hess_scalar(self, p):
        return self._cov(self.grad_scalar_lo, p)

    @_per_point
    def lap_scalar(self, p):
        R = range(self.n)
        hess, gi = self.hess_scalar(p), self.ginv(p)
        return sum(gi[i, j] * hess[i, j] for i in R for j in R)

    # -- Ricci derivatives -------------------------------------------------
    @_per_point
    def cov_ricci(self, p):
        """(grad Ric)[m][i][j] = nabla_m Ric_ij."""
        return self._cov(self.ricci, p)

    @_per_point
    def lap_ricci(self, p):
        R = range(self.n)
        nn, gi = self._cov(self.cov_ricci, p), self.ginv(p)
        return self._box(2, lambda i, j: sum(
            gi[a, b] * nn[a, b, i, j] for a in R for b in R))

    # -- conformal tensors ---------------------------------------------------
    @_per_point
    def schouten(self, p):
        n = self.n
        if n < 3:
            raise ValueError("Schouten tensor needs dim >= 3")
        ric, S, g = self.ricci(p), self.scalar(p), self.g(p)
        return self._box(2, lambda i, j: (
            ric[i, j] - S * g[i, j] / (2 * (n - 1))) / (n - 2))

    @_per_point
    def cov_schouten(self, p):
        return self._cov(self.schouten, p)

    @_per_point
    def cotton(self, p):
        """C[k][i][j] = nabla_k P_ij - nabla_i P_kj."""
        cp = self.cov_schouten(p)
        return self._box(3, lambda k, i, j: cp[k, i, j] - cp[i, k, j])

    @_per_point
    def weyl_lo(self, p):
        lo, P, g = self.riemann_lo(p), self.schouten(p), self.g(p)
        return self._box(4, lambda l, i, j, k: lo[l, i, j, k] - (
            P[l, i] * g[j, k] - P[l, j] * g[i, k]
            + g[l, i] * P[j, k] - g[l, j] * P[i, k]))

    @_per_point
    def bach(self, p):
        """B_ij = g^{km} nabla_m C_{kij} + P^{ab} W[b][a][i][j] (n = 4)."""
        if self.n != 4:
            raise ValueError("Bach tensor is implemented for dim 4 only")
        R = range(self.n)
        dC, gi = self._cov(self.cotton, p), self.ginv(p)
        P, W = self.schouten(p), self.weyl_lo(p)
        P_up = self._box(2, lambda a, b: sum(
            gi[a, c] * gi[b, d] * P[c, d] for c in R for d in R))
        return self._box(2, lambda i, j: sum(
            (P_up[a, b] * W[b, a, i, j] for a in R for b in R),
            sum(gi[k, m] * dC[m, k, i, j] for k in R for m in R)))

    # -- packaged export ---------------------------------------------------
    def pack(self, point: Sequence[float], deep: bool = True
             ) -> dict[str, np.ndarray]:
        """Full curvature pack at a point, as plain float arrays."""
        with _oracle_point(point) as p:
            return {name: _floats(getattr(self, name)(p))
                    for name, dims, deeper in PACK
                    if self.n in dims and (deep or not deeper)}


# The stages a pack holds, as `curvature.PACK` lists them; a copy, because
# this module imports nothing of the pipeline.
_ANY, _DIM3_UP = range(1, sys.maxsize), range(3, sys.maxsize)
PACK = (("gamma", _ANY, False), ("riemann_lo", _ANY, False),
        ("ricci", _ANY, False), ("scalar", _ANY, False),
        ("ricci_sq", _ANY, False), ("ricci_norm2", _ANY, False),
        ("schouten", _DIM3_UP, False), ("cotton", _DIM3_UP, False),
        ("weyl_lo", _DIM3_UP, False), ("grad_scalar_lo", _ANY, True),
        ("hess_scalar", _ANY, True), ("lap_scalar", _ANY, True),
        ("cov_ricci", _ANY, True), ("lap_ricci", _ANY, True),
        ("bach", (4,), True))


def _floats(t):
    """A Decimal tensor or scalar as float64."""
    if isinstance(t, np.ndarray):
        return t.astype(np.float64)
    return np.float64(float(t))


def geometry_from_chart(chart, h=DEFAULT_H) -> FDGeometry:
    """FDGeometry for a catalog chart (independent of the jet pipeline).

    Its gfun makes one `exprs.eval_mp` call per lattice node on all the
    metric's entry trees, which evaluates each distinct subtree once there:
    equal entries (g_ij and g_ji) and subexpressions shared between entries
    share one value.  The calls share one cache, owned by the geometry and
    alive as long as its per-node memo, so a subtree that reads only some
    of the coordinates and parameters (``sin(th)``, ``cos(x + 2*y)``) is
    evaluated once per distinct value of those, not once per node; the
    values are bitwise those of uncached calls.
    """
    params = {k: mp.mpf(repr(float(v))) for k, v in chart.params.items()}
    n, entries = chart.dim, tuple(e for row in chart.metric for e in row)
    cache: dict = {}

    def gfun(q):
        env = {**dict(zip(chart.coords, q)), **params}
        vals = exprs.eval_mp(entries, env, cache)
        return [vals[i * n:(i + 1) * n] for i in range(n)]

    return FDGeometry(gfun, n, h=h)
