"""Pointwise curvature pipeline on truncated jets.

A `CurvatureFrame` holds every curvature quantity of a chart metric at
one point, or at each point of a point set, computed by exact jet
arithmetic with explicit order bookkeeping.  Starting from metric jets of
order m (4 by default, 5 at most) the pipeline loses one order per
derivative:

    g (m) -> g^-1, Gamma (m-1) -> R^up, Ricci, scalar, Schouten (m-2)
          -> grad S, cov Ricci, Cotton (m-3)
          -> Hess S, Lap S, Lap Ricci, cov Cotton, Bach (m-4),

and each stage is computed only to the order its readers take: g^-1 at
m - 1, where Gamma reads it, and R_lo and Weyl at max(m - 4, 0), where
Bach reads them (the pack reads only their values).  A truncated
product's coefficients of degree <= k sum the same pairs in the same
order at any order >= k, so every coefficient a reader takes has the bits
it would have at a higher order.

Every tensor is one `Jet` whose coefficients form a float64 array of
shape ``(*tensor_shape, size)``: the tensor indices first, in the order
of the formulas below, then the Taylor coefficients of each entry in the
graded layout of `_jettables`.  A frame over N points adds one point
axis between the two, ``(*tensor_shape, N, size)``: a scalar is then a
jet of shape (N,), `Jet.value` gives one value per point, and ``t.value
[..., k]`` is what a frame at the k-th point alone gives, bit for bit.
The einsum subscripts below name tensor indices only, and the point axis
rides along with the coefficients in their ``...``, so the same code
serves one point and a point set; `on_points` takes a point set in frames
over chunks of it, each bounded by the coefficients its largest stage
holds.  The trailing size fixes the order (15 coefficients are order 2
in four variables), and grading makes lowering the order a prefix slice.
Index gymnastics (transposes, traces) are `np.einsum` calls on the
coefficient array; every product of tensors is one `jets.contract` call,
which runs at the lower of its operands' orders.  There are no per-entry
loops.  The metric arrives as one (n, n) jet from `Chart.metric_jets`,
and user fields as one jet from `CurvatureFrame.scalar_jet`, which
evaluates an expression, its text or a nested list of them; the
operators take and return `Jet`s only.

Points that repeat a metric jet share its work.  A frame over a set runs
its metric stages, g^-1 through B, once per distinct metric jet among its
points, on a frame of one point per jet (`CurvatureFrame._distinct`), and
each point reads its jet's entries by one index; the operators on user
fields run at every point.  Jets are told apart by their bits, not their
values, and a point's jets in a set are bitwise those of the point alone,
so no value moves by a bit.  On a product grid of `s2_x_t2`, whose metric
reads th alone, the stages run at about a tenth of the nodes.

Conventions (fixed throughout the package):

    R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
              + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    Ric_jk  = R^i_ijk          (round unit 2-sphere has Ric = +g)
    R_lijk  = g_lm R^m_ijk     (antisymmetric in (i,j) and in (l,k))
    P       = (Ric - S g / (2(n-1))) / (n-2)
    W_lijk  = R_lijk - (P_li g_jk - P_lj g_ik + g_li P_jk - g_lj P_ik)
    C_kij   = cov_k P_ij - cov_i P_kj
    B_ij    = g^{km} cov_m C_kij + P^{ab} W_baij      (n = 4)

Quantities one derivative further (div B, grad Lap S) come exactly from
one frame at order BASE_ORDER + 1 = 5; see `bach_divergence` and
`grad_lap_scalar`.
"""

from __future__ import annotations

import sys
from functools import cached_property, wraps

import numpy as np

from . import exprs
from .charts import Chart
from ._jettables import tables
from .jets import Jet, contract, distinct_rows

BASE_ORDER = 4


class CurvatureError(ValueError):
    """Requested quantity is undefined for this dimension or order."""


def values(t: Jet):  # for perfbench/workloads.py; the package reads t.value
    return t.value


def _index(spec: str, t: Jet) -> Jet:
    """Rearrange tensor indices by einsum subscripts (transpose, trace)."""
    src, dst = spec.split("->")
    return Jet(t.dim, t.order, np.einsum(f"{src}...->{dst}...", t.coeffs),
               _tab=t.tab)


def _upper_mirrored(t: Jet) -> Jet:
    """A 2-tensor with its strict lower triangle copied from the upper one,
    so that it is exactly symmetric."""
    coeffs = t.coeffs.copy()
    lower = np.tril_indices(t.shape[0], -1)
    coeffs[lower] = t.coeffs.swapaxes(0, 1)[lower]
    return Jet(t.dim, t.order, coeffs, _tab=t.tab)


def _first_singular(mats: np.ndarray) -> int:
    """Index of the first matrix of a stack that `np.linalg.inv` rejects."""
    for k, m in enumerate(mats.reshape((-1,) + mats.shape[-2:])):
        try:
            np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return k
    raise AssertionError("no singular matrix in the stack")


def _metric_stage(fn):
    """A cached stage that reads the metric's jets and nothing else.  A
    frame whose points repeat a metric jet takes it from its distinct-point
    frame (`CurvatureFrame._distinct`), spread back to every point."""
    name = fn.__name__

    @wraps(fn)
    def stage(self):
        found = self._distinct
        if found is not None:
            try:
                t = getattr(found[0], name)
            except CurvatureError:
                pass  # raised again below, naming the node by its number
            else:
                return t.take_points(found[1])
        return fn(self)

    return cached_property(stage)


class CurvatureFrame:
    """Curvature of a chart metric at one interior point, or at each point
    of an ``(N, dim)`` array of them."""

    def __init__(self, chart: Chart, point, order: int = BASE_ORDER):
        self.chart = chart
        pts = np.asarray(point, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != chart.dim:
            raise CurvatureError(
                f"point has shape {pts.shape}, chart {chart.name!r} has "
                f"{chart.dim} coordinates")
        self.point = tuple(pts.tolist()) if pts.ndim == 1 else pts
        self.batch = pts.shape[:-1]  # () for one point, (N,) for a set
        self.n = chart.dim
        self.order = order

    # -- level 4: metric ----------------------------------------------
    @cached_property
    def g(self) -> Jet:
        return self.chart.metric_jets(self.point, order=self.order)

    @cached_property
    def _distinct(self):
        """None, or (a frame over one point per distinct metric jet, the
        index of each point's jet in it) where two points share every bit
        of their metric jets: every metric stage is then computed there,
        once per distinct jet, and a point reads its jet's entries, which
        are bitwise what it would compute itself.  Values are compared
        first, so a set that repeats none costs one cheap test."""
        if not self.batch:
            return None
        coeffs = np.moveaxis(self.g.coeffs, -2, 0)  # (N, n, n, size)
        if distinct_rows(coeffs[..., 0].reshape(self.batch[0], -1)) is None:
            return None
        found = distinct_rows(coeffs.reshape(self.batch[0], -1))
        if found is None:
            return None
        first, index = found
        frame = CurvatureFrame(self.chart, self.point[first], self.order)
        frame.g = self.g.take_points(first)
        frame._distinct = None
        return frame, index

    @_metric_stage
    def ginv(self) -> Jet:
        """Inverse metric jets via Newton iteration X <- X(2I - GX), order
        max(m - 1, 0)."""
        n = self.n
        g0 = np.moveaxis(self.g.value, (0, 1), (-2, -1))  # (*batch, n, n)
        try:
            x0 = np.linalg.inv(g0)
        except np.linalg.LinAlgError:
            k = _first_singular(g0)
            at = (f"node {k}, point {tuple(self.point[k].tolist())}"
                  if self.batch else f"{self.point}")
            raise CurvatureError(f"metric of {self.chart.name!r} is "
                                 f"singular at {at}") from None
        # Gamma, its deepest reader, takes g^-1 one order below g
        order = max(self.order - 1, 0)
        X = Jet.constant(np.moveaxis(x0, (-2, -1), (0, 1)), n, order)
        eye = np.eye(n).reshape((n, n) + (1,) * len(self.batch))
        two_i = Jet.constant(2.0 * eye, n, order)
        for _ in range(3):  # order of accuracy: 0 -> 1 -> 3 -> 7 >= 4
            X = contract("ik,kj->ij", X,
                         two_i - contract("ik,kj->ij", self.g, X))
        return X

    # -- level 3: connection --------------------------------------------
    @_metric_stage
    def gamma(self) -> Jet:
        """Christoffel symbols, gamma[k, i, j] = Gamma^k_ij, order m - 1."""
        dg = self.g.grad()  # dg[l, i, j] = d_l g_ij
        first = _index("ilj->lij", dg) + _index("jli->lij", dg) - dg
        return 0.5 * contract("kl,lij->kij", self.ginv, first)

    # -- level 2: curvature ---------------------------------------------
    @_metric_stage
    def riemann_up(self) -> Jet:
        """riemann_up[l, i, j, k] = R^l_ijk, order m - 2."""
        gam = self.gamma.truncated(self.order - 2)
        dgam = self.gamma.grad()  # dgam[a, l, j, k] = d_a Gamma^l_jk
        half = (_index("iljk->lijk", dgam)
                + contract("lim,mjk->lijk", gam, gam))
        return half - _index("lijk->ljik", half)

    @_metric_stage
    def riemann_lo(self) -> Jet:
        """riemann_lo[l, i, j, k] = g_lm R^m_ijk, at the order Bach reads,
        max(m - 4, 0)."""
        return contract("lm,mijk->lijk", self.g.truncated(
            max(self.order - 4, 0)), self.riemann_up)

    @_metric_stage
    def ricci(self) -> Jet:
        """ricci[j, k] = R^i_ijk, order m - 2."""
        return _index("iijk->jk", self.riemann_up)

    @_metric_stage
    def scalar(self) -> Jet:
        """Scalar curvature, order m - 2."""
        return contract("jk,jk->", self.ginv, self.ricci)

    @_metric_stage
    def ricci_mixed(self) -> Jet:
        """ricci_mixed[i, j] = g^{ia} Ric_aj, order m - 2."""
        return contract("ia,aj->ij", self.ginv, self.ricci)

    @_metric_stage
    def ricci_sq(self) -> Jet:
        """(Ric^2)_ij = Ric_ia g^{ab} Ric_bj, order m - 2."""
        return contract("ia,aj->ij", self.ricci, self.ricci_mixed)

    @_metric_stage
    def ricci_norm2(self) -> Jet:
        """|Ric|^2 = Ric_ij Ric^{ij}, order m - 2."""
        return contract("ij,ji->", self.ricci_mixed, self.ricci_mixed)

    @_metric_stage
    def schouten(self) -> Jet:
        """P = (Ric - S g / (2(n-1))) / (n-2), order m - 2; needs n >= 3."""
        n = self.n
        if n < 3:
            raise CurvatureError(
                "the Schouten tensor is undefined for n < 3")
        s_term = self.scalar * (1.0 / (2 * (n - 1)))
        return (self.ricci - s_term * self.g.truncated(self.order - 2)) \
            * (1.0 / (n - 2))

    @_metric_stage
    def weyl_lo(self) -> Jet:
        """W_lijk = R_lijk - (P ? g)_lijk (Kulkarni-Nomizu), at the order
        of riemann_lo."""
        # g_li P_jk is P_jk g_li rearranged: an outer product sums nothing
        # and jet products commute exactly, so one product serves both
        riem = self.riemann_lo
        pg = contract("li,jk->lijk", self.schouten,
                      self.g.truncated(riem.order))
        half = pg + _index("jkli->lijk", pg)
        return riem - (half - _index("lijk->ljik", half))

    # -- covariant derivatives -------------------------------------------
    def cov_deriv(self, T: Jet) -> Jet:
        """Covariant derivative of an all-lower tensor of jets.

        Input: a tensor of rank r at order m >= 1.  Output: rank r + 1 at
        order m - 1, out[a, i1..ir] = (cov_a T)_i...
        """
        out = T.grad()
        Tm = T.truncated(T.order - 1)
        idx = "bcdefgh"[:T.ndim - len(self.batch)]
        for s, i_s in enumerate(idx):
            slot = idx[:s] + "m" + idx[s + 1:]
            out = out - contract(f"ma{i_s},{slot}->a{idx}", self.gamma, Tm)
        return out

    @_metric_stage
    def cov_ricci(self) -> Jet:
        """cov_ricci[a, i, j] = (cov_a Ric)_ij, order m - 3."""
        return self.cov_deriv(self.ricci)

    @_metric_stage
    def cov_schouten(self) -> Jet:
        """cov_schouten[a, i, j] = (cov_a P)_ij, order m - 3."""
        return self.cov_deriv(self.schouten)

    @_metric_stage
    def cotton(self) -> Jet:
        """cotton[k, i, j] = cov_k P_ij - cov_i P_kj, order m - 3."""
        cp = self.cov_schouten
        return cp - _index("kij->ikj", cp)

    @_metric_stage
    def lap_ricci(self) -> Jet:
        """Rough Laplacian g^{ab} cov_a cov_b Ric, order m - 4."""
        cc = self.cov_deriv(self.cov_ricci)  # cc[b, a, i, j], order m - 4
        return contract("ab,abij->ij", self.ginv, cc)

    # -- scalar-curvature derivatives -------------------------------------
    @_metric_stage
    def grad_scalar_lo(self) -> Jet:
        """d S (lower index), order m - 3."""
        return self.scalar.grad()

    @_metric_stage
    def hess_scalar(self) -> Jet:
        """Hessian of S, order m - 4."""
        return self.hessian(self.scalar)

    @_metric_stage
    def lap_scalar(self) -> Jet:
        """Laplacian of S, order m - 4."""
        return contract("ij,ij->", self.ginv, self.hess_scalar)

    # -- Bach -----------------------------------------------------------
    @_metric_stage
    def bach(self) -> Jet:
        """B_ij = g^{km} cov_m C_kij + P^{ab} W_baij, order m - 4; n = 4."""
        n = self.n
        if n != 4:
            raise CurvatureError(
                f"the Bach tensor is implemented for n = 4, got n = {n}")
        cov_c = self.cov_deriv(self.cotton)  # cov_c[m, k, i, j]
        gi = self.ginv.truncated(self.order - 4)
        p_up = contract("ia,aj->ij",
                        contract("ia,aj->ij", gi, self.schouten), gi)
        return (contract("km,mkij->ij", gi, cov_c)
                + contract("ab,baij->ij", p_up, self.weyl_lo))

    # -- generic operators ------------------------------------------------
    def scalar_jet(self, text_or_expr, order: int | None = None) -> Jet:
        """A chart expression or its text, or a nested list of them, as
        one jet at the frame's points (see `exprs.eval_jet`)."""
        return exprs.eval_jet(text_or_expr, self.point, self.chart.coords,
                              self.chart.params,
                              order if order is not None else self.order)

    def vector_jets(self, components, order: int | None = None) -> Jet:
        """Upper-index vector field from per-coordinate expressions."""
        if len(components) != self.n:
            raise CurvatureError(
                f"vector field needs {self.n} components")
        return self.scalar_jet(list(components), order)

    def gradient_vector(self, h: Jet) -> Jet:
        """grad h (upper index), order of h minus 1."""
        return contract("ij,j->i", self.ginv, h.grad())

    def hessian(self, h: Jet) -> Jet:
        """(Hess h)_ij = d_i d_j h - Gamma^k_ij d_k h."""
        if h.order < 2:
            raise CurvatureError("hessian needs a jet of order >= 2")
        dh = h.grad()
        hess = (_index("ji->ij", dh.grad())
                - contract("kij,k->ij", self.gamma,
                           dh.truncated(h.order - 2)))
        return _upper_mirrored(hess)

    def laplacian(self, h: Jet) -> Jet:
        return contract("ij,ij->", self.ginv, self.hessian(h))

    def lie_metric(self, X: Jet) -> Jet:
        """(L_X g)_ij for an upper vector field X, one order below X."""
        m = X.order - 1
        if self.g.order <= m:
            raise CurvatureError("metric order exhausted")
        dX = X.grad()  # dX[i, k] = d_i X^k
        lie = (contract("k,kij->ij", X.truncated(m), self.g.grad())
               + contract("kj,ik->ij", self.g, dX)
               + contract("ik,jk->ij", self.g, dX))
        return _upper_mirrored(lie)

    def divergence_vector(self, X: Jet) -> Jet:
        """div X = d_i X^i + Gamma^i_im X^m, one order below X."""
        return (_index("ii->", X.grad())
                + contract("iim,m->", self.gamma, X.truncated(X.order - 1)))

    def divergence_sym2(self, T: Jet) -> Jet:
        """(div T)_j = g^{ik} cov_i T_kj, one order below T."""
        return contract("ik,ikj->j", self.ginv, self.cov_deriv(T))

    def trace(self, T: Jet) -> Jet:
        """g^{ij} T_ij at the order of T, and at most that of g^-1."""
        return contract("ij,ij->", self.ginv, T)

    def trace_free(self, T: Jet) -> Jet:
        """T - (tr T / n) g at the order of tr T."""
        tr_over_n = self.trace(T) * (1.0 / self.n)
        k = tr_over_n.order
        return T.truncated(k) - tr_over_n * self.g.truncated(k)

    def mixed(self, T: Jet) -> Jet:
        """Raise the first index: T^i_j = g^{ia} T_aj, at the order of T
        and at most that of g^-1."""
        return contract("ia,aj->ij", self.ginv, T)

    def inner_sym2(self, T: Jet, U: Jet) -> Jet:
        """<T, U>_g = g^{ia} g^{jb} T_ij U_ab at the common order, and at
        most that of g^-1."""
        return contract("ij,ji->", self.mixed(T), self.mixed(U))

    def norm2_sym2(self, T: Jet) -> Jet:
        return self.inner_sym2(T, T)


# A frame keeps every stage it reads for each of its points; its largest,
# the Riemann tensor, holds n**4 jets per point.  So a frame holds at most
# _FRAME_COEFFS of their coefficients: 8 points at dim 4, order 4, where
# the soliton residuals ran as fast as at 16 at half the memory.  A chunk
# that repeats a metric jet computes its stages on its distinct jets alone,
# and the spread values are those of its points, bit for bit.
_FRAME_COEFFS = 8 * 4**4 * 70


def on_points(chart: Chart, points, fn, order: int = BASE_ORDER):
    """``fn(frame)`` on frames over consecutive chunks of an (N, dim) point
    set, each holding at most ``_FRAME_COEFFS`` coefficients per stage.

    ``fn`` returns an array, or a tuple of arrays, with the point axis
    last; the chunks' results are joined along it, so entry k belongs to
    ``points[k]`` and is bitwise what a frame at that point alone gives.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise CurvatureError(f"a point set is an (N, dim) array with N >= 1, "
                             f"got shape {pts.shape}")
    n = chart.dim
    step = max(1, _FRAME_COEFFS // (n**4 * tables(n, order).size))
    parts = [fn(CurvatureFrame(chart, pts[k:k + step], order))
             for k in range(0, len(pts), step)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col, axis=-1) for col in zip(*parts))
    return np.concatenate(parts, axis=-1)


# The stages a pack holds, in order: (stage name, dims it is defined in,
# deep: a third or fourth derivative of g).  `fdcheck.PACK` lists the same.
_ANY, _DIM3_UP = range(1, sys.maxsize), range(3, sys.maxsize)
PACK = (("gamma", _ANY, False), ("riemann_lo", _ANY, False),
        ("ricci", _ANY, False), ("scalar", _ANY, False),
        ("ricci_sq", _ANY, False), ("ricci_norm2", _ANY, False),
        ("schouten", _DIM3_UP, False), ("cotton", _DIM3_UP, False),
        ("weyl_lo", _DIM3_UP, False), ("grad_scalar_lo", _ANY, True),
        ("hess_scalar", _ANY, True), ("lap_scalar", _ANY, True),
        ("cov_ricci", _ANY, True), ("lap_ricci", _ANY, True),
        ("bach", (4,), True))


def pipeline_pack(frame: CurvatureFrame, deep: bool = True
                  ) -> dict[str, np.ndarray | float]:
    """The frame's stage values by stage name, as `fdcheck.FDGeometry.pack`
    gives the oracle's, for comparison."""
    return {name: getattr(frame, name).value for name, dims, deeper in PACK
            if frame.n in dims and (deep or not deeper)}


def bach_divergence(chart: Chart, point) -> np.ndarray:
    """(div B)_j = g^{ik} cov_i B_kj, exactly, from one order-5 frame."""
    fr = CurvatureFrame(chart, point, order=BASE_ORDER + 1)
    return fr.divergence_sym2(fr.bach).value


def grad_lap_scalar(chart: Chart, point) -> np.ndarray:
    """d(Lap S) (lower index), exactly, from one order-5 frame."""
    fr = CurvatureFrame(chart, point, order=BASE_ORDER + 1)
    return fr.lap_scalar.grad().value
