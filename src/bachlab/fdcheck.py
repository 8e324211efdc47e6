"""Independent derivative oracle: nested finite differences in mpmath.

This module deliberately shares no differentiation machinery with the jet
pipeline.  Scalar quantities are evaluated pointwise in arbitrary
precision and every derivative is a 4th-order central difference
(stencil [1, -8, 0, 8, -1]/12h), nested for higher and mixed
derivatives.  With h ~ 1e-3 and 50 working digits the truncation error
is ~1e-12 relative and roundoff is negligible, comfortably below the
1e-6/1e-7 comparison tolerances.

Used by the oracle regression tests and by `scripts/regen_goldens.py`,
which freezes the expensive deep-curvature values into data/.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from . import exprs

DEFAULT_H = "1e-3"
DEFAULT_DPS = 50


def _central(f: Callable, point: tuple, axis: int, h):
    """4th-order central difference of f (an mpf or an array of them)."""
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


def expr_partials(ex, coords: Sequence[str], point: Sequence[float],
                  alphas: Sequence[Sequence[int]],
                  params: dict | None = None) -> list[float]:
    """All requested mixed partials of a DSL expression, via mpmath FD."""
    with mp.workdps(DEFAULT_DPS):
        consts = {k: mp.mpf(v) for k, v in (params or {}).items()}

        def f(q):
            return exprs.eval_mp(ex, {**dict(zip(coords, q)), **consts})

        return [float(partial_mp(f, point, alpha)) for alpha in alphas]


# ----------------------------------------------------------------------
# curvature by nested differences
# ----------------------------------------------------------------------
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
    lists of mpf.  Tensors are object arrays of mpf, each built entry by
    entry from its textbook formula; every covariant derivative comes from
    the one rule in `_cov`.

    Index conventions match the engine: Riem storage R[l][i][j][k] is
    g_{lm} R^m_{ijk} with R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    + Gamma Gamma terms; Ric_{jk} = R^i_{ijk}.
    """

    def __init__(self, gfun: Callable, n: int, h=DEFAULT_H):
        self.gfun = gfun
        self.n = n
        self.h = mp.mpf(h)
        self._cache: dict = {}

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

    def _cov(self, fun: Callable, q: tuple) -> np.ndarray:
        """nabla_m T_{i..} = d_m T_{i..} - sum_s Gamma^a_{m i_s} T_{..a..},
        the derivative index m first, for an all-lower tensor T = fun."""
        dT, T, gam = self._grad(fun, q), fun(q), self.christoffel(q)

        def entry(m, *idx):
            acc = dT[(m,) + idx]
            for a in range(self.n):
                for s in range(len(idx)):
                    acc -= gam[a, m, idx[s]] * T[idx[:s] + (a,) + idx[s + 1:]]
            return acc
        return self._box(np.ndim(T) + 1, entry)

    # -- metric level ---------------------------------------------------
    @_per_point
    def metric(self, p):
        return np.array(self.gfun(p), dtype=object)

    @_per_point
    def metric_inv(self, p):
        gi = mp.matrix(self.metric(p).tolist()) ** -1
        return np.array(gi.tolist(), dtype=object)

    @_per_point
    def christoffel(self, p):
        """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
        R = range(self.n)
        dg, gi = self._grad(self.metric, p), self.metric_inv(p)
        return self._box(3, lambda k, i, j: sum(
            gi[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
            for l in R) / 2)

    # -- curvature level --------------------------------------------------
    @_per_point
    def riemann_up(self, p):
        R = range(self.n)
        dgam, gam = self._grad(self.christoffel, p), self.christoffel(p)
        return self._box(4, lambda l, i, j, k: sum(
            (gam[l, i, m] * gam[m, j, k] - gam[l, j, m] * gam[m, i, k]
             for m in R), dgam[i, l, j, k] - dgam[j, l, i, k]))

    @_per_point
    def riemann_lo(self, p):
        R = range(self.n)
        up, g = self.riemann_up(p), self.metric(p)
        return self._box(4, lambda l, i, j, k: sum(
            g[l, m] * up[m, i, j, k] for m in R))

    @_per_point
    def ricci(self, p):
        R = range(self.n)
        up = self.riemann_up(p)
        return self._box(2, lambda j, k: sum(up[i, i, j, k] for i in R))

    @_per_point
    def scalar(self, p):
        R = range(self.n)
        ric, gi = self.ricci(p), self.metric_inv(p)
        return sum(gi[j, k] * ric[j, k] for j in R for k in R)

    @_per_point
    def ric2(self, p):
        """Composition square (Ric^2)_ij = Ric_ik g^kl Ric_lj."""
        R = range(self.n)
        ric, gi = self.ricci(p), self.metric_inv(p)
        return self._box(2, lambda i, j: sum(
            ric[i, k] * gi[k, l] * ric[l, j] for k in R for l in R))

    @_per_point
    def ric_norm2(self, p):
        R = range(self.n)
        ric, gi = self.ricci(p), self.metric_inv(p)
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
        hess, gi = self.hess_scalar(p), self.metric_inv(p)
        return sum(gi[i, j] * hess[i, j] for i in R for j in R)

    # -- Ricci derivatives -------------------------------------------------
    @_per_point
    def cov_ricci(self, p):
        """(grad Ric)[m][i][j] = nabla_m Ric_ij."""
        return self._cov(self.ricci, p)

    @_per_point
    def lap_ricci(self, p):
        R = range(self.n)
        nn, gi = self._cov(self.cov_ricci, p), self.metric_inv(p)
        return self._box(2, lambda i, j: sum(
            gi[a, b] * nn[a, b, i, j] for a in R for b in R))

    # -- conformal tensors ---------------------------------------------------
    @_per_point
    def schouten(self, p):
        n = self.n
        if n < 3:
            raise ValueError("Schouten tensor needs dim >= 3")
        ric, S, g = self.ricci(p), self.scalar(p), self.metric(p)
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
        lo, P, g = self.riemann_lo(p), self.schouten(p), self.metric(p)
        return self._box(4, lambda l, i, j, k: lo[l, i, j, k] - (
            P[l, i] * g[j, k] - P[l, j] * g[i, k]
            + g[l, i] * P[j, k] - g[l, j] * P[i, k]))

    @_per_point
    def bach(self, p):
        """B_ij = g^{km} nabla_m C_{kij} + P^{ab} W[b][a][i][j] (n = 4)."""
        if self.n != 4:
            raise ValueError("Bach tensor is implemented for dim 4 only")
        R = range(self.n)
        dC, gi = self._cov(self.cotton, p), self.metric_inv(p)
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
        parts = {"gamma": self.christoffel, "riemann_lo": self.riemann_lo,
                 "ricci": self.ricci, "scalar": self.scalar,
                 "ric2": self.ric2, "ric_norm2": self.ric_norm2}
        if self.n >= 3:
            parts.update(schouten=self.schouten, cotton=self.cotton,
                         weyl=self.weyl_lo)
        if deep:
            parts.update(grad_scalar_lo=self.grad_scalar_lo,
                         hess_scalar=self.hess_scalar,
                         lap_scalar=self.lap_scalar,
                         cov_ricci=self.cov_ricci, lap_ricci=self.lap_ricci)
            if self.n == 4:
                parts["bach"] = self.bach
        with mp.workdps(DEFAULT_DPS):
            p = tuple(mp.mpf(repr(float(x))) for x in point)
            return {key: _floats(fun(p)) for key, fun in parts.items()}


def _floats(t):
    """An mpf tensor or scalar as float64."""
    if isinstance(t, np.ndarray):
        return t.astype(np.float64)
    return np.float64(float(t))


def geometry_from_chart(chart, h=DEFAULT_H) -> FDGeometry:
    """FDGeometry for a catalog chart (independent of the jet pipeline)."""
    params = {k: mp.mpf(repr(float(v))) for k, v in chart.params.items()}

    def gfun(q):
        env = {**dict(zip(chart.coords, q)), **params}
        return [[exprs.eval_mp(e, env) for e in row] for row in chart.metric]

    return FDGeometry(gfun, chart.dim, h=h)
