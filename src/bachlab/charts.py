"""Charts, the manifold catalog, products, quadrature and sample sets.

A `Chart` is a coordinate box with periodicity flags and metric entries
as DSL expressions; a `Manifold` is an ordered product of factor charts
together with the combined product chart.  Compact charts carry a
tensor-product quadrature rule: Gauss–Legendre nodes on open (polar)
directions — which never touch the endpoints, so coordinate
singularities like sphere poles are excluded — and midpoint-uniform
nodes on periodic directions (spectrally accurate for smooth periodic
integrands).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.stats import qmc

from . import exprs
from .jets import Jet

TWO_PI = 2.0 * math.pi


class ChartError(ValueError):
    """Invalid chart/manifold description."""


@dataclass
class Chart:
    """A coordinate box with metric entries given as DSL expressions."""

    name: str
    kind: str
    coords: tuple[str, ...]
    metric_strs: tuple[tuple[str, ...], ...]
    params: dict[str, float]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    periodic: tuple[bool, ...]
    compact: bool
    resolution: tuple[int, ...]
    volume: float | None = None  # closed-form volume where known
    metric: tuple[tuple[object, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.coords)
        if not (1 <= n <= 4):
            raise ChartError(f"chart dimension must be 1..4, got {n}")
        for seq in (self.lo, self.hi, self.periodic, self.resolution):
            if len(seq) != n:
                raise ChartError("per-axis field lengths must equal dim")
        if len(self.metric_strs) != n or any(len(r) != n
                                             for r in self.metric_strs):
            raise ChartError("metric must be an n x n matrix of expressions")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ChartError("coordinate box is empty")
        self.metric = tuple(
            tuple(exprs.parse(self.metric_strs[i][j], self.coords,
                              tuple(self.params)) for j in range(n))
            for i in range(n)
        )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def center(self) -> np.ndarray:
        """A safe interior point (box midpoint)."""
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    # -- evaluation ---------------------------------------------------
    def metric_jets(self, point: Sequence[float], order: int = 4) -> Jet:
        """The metric as one (n, n) tensor of jets at a point."""
        return exprs.eval_jet(self.metric, point, self.coords, self.params,
                              order)

    def metric_values(self, points: np.ndarray) -> np.ndarray:
        """Metric matrices at many points: (N, dim) -> (N, n, n)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = self.dim
        env = {name: points[:, a] for a, name in enumerate(self.coords)}
        env.update(self.params)
        out = np.empty((points.shape[0], n, n))
        for i in range(n):
            for j in range(n):
                out[:, i, j] = exprs.eval_numpy(self.metric[i][j], env)
        return out

    def scalar_values(self, expr_text_or_ast, points: np.ndarray) -> np.ndarray:
        """Evaluate a scalar DSL field at many points."""
        e = (exprs.parse(expr_text_or_ast, self.coords, tuple(self.params))
             if isinstance(expr_text_or_ast, str) else expr_text_or_ast)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = {name: points[:, a] for a, name in enumerate(self.coords)}
        env.update(self.params)
        vals = exprs.eval_numpy(e, env)
        return np.broadcast_to(np.asarray(vals, dtype=float),
                               (points.shape[0],)).copy()


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------
@dataclass
class Quadrature:
    nodes: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,) coordinate-measure weights (no density)
    shape: tuple[int, ...]


def _axis_rule(lo: float, hi: float, periodic: bool, n: int):
    if periodic:
        h = (hi - lo) / n
        nodes = lo + h * (np.arange(n) + 0.5)
        weights = np.full(n, h)
    else:
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        weights = 0.5 * (hi - lo) * w
    return nodes, weights


def _axis_counts(chart: Chart, resolution: int | Sequence[int]
                 ) -> tuple[int, ...]:
    """Per-axis node counts from one count for every axis or a list."""
    if isinstance(resolution, (int, np.integer)):
        resolution = (resolution,) * chart.dim
    try:
        res = tuple(operator.index(r) for r in resolution)
    except TypeError:
        raise ChartError(f"resolution needs whole numbers, got "
                         f"{resolution!r}") from None
    if len(res) != chart.dim:
        raise ChartError(f"resolution needs {chart.dim} axis counts")
    if min(res) < 1:
        raise ChartError(f"resolution needs at least one node per axis, "
                         f"got {list(res)}")
    return res


def quadrature(chart: Chart, resolution: int | Sequence[int] | None = None
               ) -> Quadrature:
    """Tensor-product rule; `resolution` defaults to the chart's own."""
    res = _axis_counts(chart, chart.resolution if resolution is None
                       else resolution)
    axes = [_axis_rule(chart.lo[a], chart.hi[a], chart.periodic[a], res[a])
            for a in range(chart.dim)]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    weights = np.ones(nodes.shape[0])
    for w in wgrids:
        weights = weights * w.reshape(-1)
    return Quadrature(nodes=nodes, weights=weights, shape=res)


def volume_density(chart: Chart, points: np.ndarray) -> np.ndarray:
    """sqrt(det g) at the given points."""
    g = chart.metric_values(points)
    det = np.linalg.det(g)
    if np.any(det <= 0):
        raise ChartError(
            f"metric of {chart.name!r} is not positive definite at "
            f"{int(np.sum(det <= 0))} node(s)")
    return np.sqrt(det)


def positive_definite_check(chart: Chart, points: np.ndarray) -> None:
    g = chart.metric_values(points)
    if not np.allclose(g, np.swapaxes(g, 1, 2), atol=1e-12):
        raise ChartError(f"metric of {chart.name!r} is not symmetric")
    eig = np.linalg.eigvalsh(g)
    if np.any(eig <= 0):
        raise ChartError(
            f"metric of {chart.name!r} is not positive definite at "
            f"{int(np.sum(eig.min(axis=1) <= 0))} node(s)")


def integrate(chart: Chart, values: np.ndarray | Callable,
              quad: Quadrature | None = None,
              resolution: int | Sequence[int] | None = None) -> float:
    """Integral of a scalar field against the metric volume measure.

    `values` is either an array of field values at the quadrature nodes
    or a callable mapping the (N, dim) node array to an (N,) array.
    Summation is NumPy pairwise — deterministic for a fixed resolution.
    """
    if not chart.compact:
        raise ChartError(
            f"{chart.name!r} is not compact; integration is undefined")
    if quad is None:
        quad = quadrature(chart, resolution)
    f = values(quad.nodes) if callable(values) else np.asarray(values)
    if f.shape != quad.weights.shape:
        f = np.broadcast_to(f, quad.weights.shape)
    dens = volume_density(chart, quad.nodes)
    return float(np.sum(quad.weights * dens * f))


def volume(chart: Chart, resolution: int | Sequence[int] | None = None
           ) -> float:
    return integrate(chart, lambda pts: np.ones(pts.shape[0]),
                     resolution=resolution)


def sample_points(chart: Chart, count: int, margin: float = 0.08
                  ) -> np.ndarray:
    """Deterministic low-discrepancy interior sample points.

    Periodic axes use no margin; open axes keep `margin` of the box away
    from each end (poles/edges are coordinate artifacts).  The Halton
    sequence is unscrambled, so the result depends only on the chart box,
    `count` and `margin`.  An empty set would let every sup over it pass,
    so `count` must be at least 1.
    """
    if count < 1:
        raise ChartError(f"a sample set needs at least one point, got "
                         f"count {count}")
    sampler = qmc.Halton(d=chart.dim, scramble=False)
    unit = sampler.random(count)
    lo = np.asarray(chart.lo)
    hi = np.asarray(chart.hi)
    span = hi - lo
    m = np.where(chart.periodic, 0.0, margin) * span
    return lo + m + unit * (span - 2 * m)


def residual_sample_points(man: Manifold, count: int = 200,
                           grid_cap: int = 81) -> np.ndarray:
    """Halton interior points, plus a coarse quadrature grid when compact.

    The grid has about `grid_cap` nodes, the same count on every axis.
    """
    pts = sample_points(man.chart, count)
    if man.chart.compact:
        per_axis = max(2, int(round(grid_cap ** (1.0 / man.dim))))
        pts = np.vstack([pts, quadrature(man.chart, per_axis).nodes])
    return pts


# ----------------------------------------------------------------------
# catalog factories
# ----------------------------------------------------------------------
_COORD_SETS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z"),
               4: ("x", "y", "z", "w")}


def _diag(entries: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else "0" for j in range(n))
                 for i in range(n))


def euclidean(n: int = 2, box: float = 2.0) -> Chart:
    """Flat R^n on the box [-box/2, box/2]^n (non-compact: a patch)."""
    if not (1 <= n <= 4):
        raise ChartError("euclidean factor needs n in 1..4")
    coords = _COORD_SETS[n]
    return Chart(
        name=f"euclidean_{n}", kind="euclidean", coords=coords,
        metric_strs=_diag(["1"] * n), params={},
        lo=(-box / 2,) * n, hi=(box / 2,) * n,
        periodic=(False,) * n, compact=False,
        resolution=(8,) * n, volume=None)


def line(length: float = 2.0) -> Chart:
    return Chart(name="line", kind="line", coords=("t",),
                 metric_strs=(("1",),), params={},
                 lo=(-length / 2,), hi=(length / 2,),
                 periodic=(False,), compact=False,
                 resolution=(8,), volume=None)


def circle(length: float = TWO_PI) -> Chart:
    return Chart(name="circle", kind="circle", coords=("t",),
                 metric_strs=(("1",),), params={},
                 lo=(0.0,), hi=(length,), periodic=(True,), compact=True,
                 resolution=(16,), volume=length)


def flat_torus(lengths: Sequence[float] = (TWO_PI, TWO_PI)) -> Chart:
    n = len(lengths)
    if not (1 <= n <= 4):
        raise ChartError("flat torus needs 1..4 lengths")
    coords = tuple(f"t{i}" for i in range(n)) if n > 1 else ("t0",)
    return Chart(
        name=f"flat_torus_{n}", kind="flat_torus", coords=coords,
        metric_strs=_diag(["1"] * n), params={},
        lo=(0.0,) * n, hi=tuple(float(L) for L in lengths),
        periodic=(True,) * n, compact=True,
        resolution=(16,) * n,
        volume=float(math.prod(lengths)))


def round_sphere(n: int = 2, r: float = 1.0) -> Chart:
    """Round S^n (n = 2, 3, 4) in hyperspherical coordinates."""
    if n == 2:
        coords = ("th", "ph")
        entries = ["r^2", "r^2*sin(th)^2"]
        lo, hi = (0.0, 0.0), (math.pi, TWO_PI)
        periodic = (False, True)
        res = (24, 32)
        vol = 4 * math.pi * r ** 2
    elif n == 3:
        coords = ("ch", "th", "ph")
        entries = ["r^2", "r^2*sin(ch)^2", "r^2*sin(ch)^2*sin(th)^2"]
        lo, hi = (0.0, 0.0, 0.0), (math.pi, math.pi, TWO_PI)
        periodic = (False, False, True)
        res = (20, 20, 24)
        vol = 2 * math.pi ** 2 * r ** 3
    elif n == 4:
        coords = ("ch1", "ch2", "th", "ph")
        entries = ["r^2", "r^2*sin(ch1)^2", "r^2*sin(ch1)^2*sin(ch2)^2",
                   "r^2*sin(ch1)^2*sin(ch2)^2*sin(th)^2"]
        lo, hi = (0.0,) * 4, (math.pi, math.pi, math.pi, TWO_PI)
        periodic = (False, False, False, True)
        res = (14, 14, 14, 16)
        vol = (8.0 / 3.0) * math.pi ** 2 * r ** 4
    else:
        raise ChartError("round_sphere supports n in {2, 3, 4}")
    return Chart(name=f"round_sphere_{n}", kind="round_sphere",
                 coords=coords, metric_strs=_diag(entries),
                 params={"r": float(r)}, lo=lo, hi=hi, periodic=periodic,
                 compact=True, resolution=res, volume=vol)


def hyperbolic_2(r: float = 1.0) -> Chart:
    """Hyperbolic plane (curvature -1/r^2), half-plane patch, no quadrature."""
    return Chart(
        name="hyperbolic_2", kind="hyperbolic_2", coords=("x", "y"),
        metric_strs=(("r^2/y^2", "0"), ("0", "r^2/y^2")),
        params={"r": float(r)},
        lo=(-1.0, 0.5), hi=(1.0, 2.5),
        periodic=(False, False), compact=False,
        resolution=(8, 8), volume=None)


def berger_sphere(a: float = 1.5) -> Chart:
    """Left-invariant SU(2) metric diag(a^2, 1, 1) in a Milnor frame.

    Euler-angle chart (al, be, ga) in [0,2pi) x (0,pi) x [0,4pi); the
    frame satisfies [e_i, e_j] = 2 eps_ijk e_k, the invariant one-forms
    sigma_i obey d sigma_1 = -sigma_2 ^ sigma_3 (cyclic), and the metric
    is (a^2 sigma_1^2 + sigma_2^2 + sigma_3^2)/4, so a = 1 is the round
    unit 3-sphere.  The Haar volume density is (a/8) sin(be).
    """
    s = {
        (0, 0): "(a^2*sin(ga)^2*sin(be)^2 + cos(ga)^2*sin(be)^2 + cos(be)^2)/4",
        (0, 1): "(a^2 - 1)*sin(be)*sin(ga)*cos(ga)/4",
        (0, 2): "cos(be)/4",
        (1, 1): "(a^2*cos(ga)^2 + sin(ga)^2)/4",
        (1, 2): "0",
        (2, 2): "1/4",
    }
    entries = tuple(tuple(s[tuple(sorted((i, j)))] for j in range(3))
                    for i in range(3))
    return Chart(
        name="berger_sphere", kind="berger_sphere",
        coords=("al", "be", "ga"), metric_strs=entries,
        params={"a": float(a)},
        lo=(0.0, 0.0, 0.0), hi=(TWO_PI, math.pi, 2 * TWO_PI),
        periodic=(True, False, True), compact=True,
        resolution=(12, 20, 12),
        volume=2 * math.pi ** 2 * float(a))


def surface_of_revolution(rho: str = "sin(t)", t_min: float = 0.0,
                          t_max: float = math.pi) -> Chart:
    """Profile surface dt^2 + rho(t)^2 dth^2 (closed iff rho -> 0 at ends)."""
    e = exprs.parse(rho, ("t",))
    rho_lo = exprs.eval_float(e, {"t": t_min})
    rho_hi = exprs.eval_float(e, {"t": t_max})
    closed = abs(rho_lo) <= 1e-9 and abs(rho_hi) <= 1e-9
    return Chart(
        name="surface_of_revolution", kind="surface_of_revolution",
        coords=("t", "th"),
        metric_strs=(("1", "0"), ("0", f"({rho})^2")),
        params={},
        lo=(t_min, 0.0), hi=(t_max, TWO_PI),
        periodic=(False, True), compact=closed,
        resolution=(24, 24), volume=None)


def conformal_round_sphere(u: str = "0", r: float = 1.0) -> Chart:
    """Round 2-sphere metric scaled by exp(2u(th, ph))."""
    chart = conformal(round_sphere(2, r), u, name="conformal_round_sphere")
    chart.kind = "conformal_round_sphere"
    return chart


def conformal(chart: Chart, u: str, name: str | None = None) -> Chart:
    """Generic conformal rescaling e^{2u} g of any chart."""
    ue = exprs.parse(u, chart.coords, tuple(chart.params))
    factor = exprs.Call("exp", exprs.Mul(exprs.Num(2.0), ue))
    n = chart.dim
    entries = tuple(
        tuple(exprs.pretty(exprs.Mul(factor, chart.metric[i][j]))
              if chart.metric_strs[i][j] != "0" else "0"
              for j in range(n))
        for i in range(n)
    )
    return Chart(
        name=name or f"conformal({chart.name})", kind="conformal",
        coords=chart.coords, metric_strs=entries,
        params=dict(chart.params), lo=chart.lo, hi=chart.hi,
        periodic=chart.periodic, compact=chart.compact,
        resolution=chart.resolution, volume=None)


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------
@dataclass
class Manifold:
    """An ordered product of factor charts plus the combined chart."""

    name: str
    chart: Chart
    factors: tuple[Chart, ...]
    offsets: tuple[int, ...]  # first coordinate index of each factor

    @property
    def dim(self) -> int:
        return self.chart.dim

    def factor_slice(self, k: int) -> slice:
        off = self.offsets[k]
        return slice(off, off + self.factors[k].dim)

    def factor_point(self, point: Sequence[float], k: int) -> np.ndarray:
        return np.asarray(point, dtype=float)[self.factor_slice(k)]


def product_chart(charts: Sequence[Chart], name: str | None = None) -> Chart:
    """Block-diagonal product; coordinate/parameter clashes get suffixes."""
    total = sum(c.dim for c in charts)
    if total > 4:
        raise ChartError(f"product dimension {total} exceeds the jet cap 4")
    used_coords: set[str] = set()
    used_params: dict[str, float] = {}
    new_coords: list[str] = []
    rows: list[list[str]] = [["0"] * total for _ in range(total)]
    lo: list[float] = []
    hi: list[float] = []
    periodic: list[bool] = []
    resolution: list[int] = []
    params: dict[str, float] = {}
    offset = 0
    for idx, c in enumerate(charts):
        cmap: dict[str, str] = {}
        for cname in c.coords:
            newname = cname
            while newname in used_coords:
                newname = f"{cname}_{idx + 1}"
                if newname in used_coords:
                    newname = f"{cname}_{idx + 1}b"
            used_coords.add(newname)
            cmap[cname] = newname
            new_coords.append(newname)
        for pname, pval in c.params.items():
            if pname in used_params and used_params[pname] != pval:
                newp = f"{pname}_{idx + 1}"
                cmap[pname] = newp
                params[newp] = pval
                used_params[newp] = pval
            else:
                params[pname] = pval
                used_params[pname] = pval
        for i in range(c.dim):
            for j in range(c.dim):
                text = c.metric_strs[i][j]
                if text != "0" and cmap:
                    e = exprs.parse(text, c.coords, tuple(c.params))
                    text = exprs.pretty(exprs.substitute_names(e, cmap))
                rows[offset + i][offset + j] = text
        lo.extend(c.lo)
        hi.extend(c.hi)
        periodic.extend(c.periodic)
        resolution.extend(c.resolution)
        offset += c.dim
    compact = all(c.compact for c in charts)
    vols = [c.volume for c in charts]
    vol = math.prod(vols) if compact and all(v is not None for v in vols) \
        else None
    return Chart(
        name=name or " x ".join(c.name for c in charts), kind="product",
        coords=tuple(new_coords),
        metric_strs=tuple(tuple(r) for r in rows),
        params=params, lo=tuple(lo), hi=tuple(hi),
        periodic=tuple(periodic), compact=compact,
        resolution=tuple(resolution), volume=vol)


def product(charts: Sequence[Chart], name: str | None = None) -> Manifold:
    chart = product_chart(charts, name=name)
    offsets = []
    off = 0
    for c in charts:
        offsets.append(off)
        off += c.dim
    return Manifold(name=chart.name, chart=chart, factors=tuple(charts),
                    offsets=tuple(offsets))


def single(chart: Chart) -> Manifold:
    return Manifold(name=chart.name, chart=chart, factors=(chart,),
                    offsets=(0,))


# ----------------------------------------------------------------------
# spec documents and the named catalog
# ----------------------------------------------------------------------
_KIND_BUILDERS: dict[str, Callable[..., Chart]] = {
    "euclidean": euclidean,
    "line": line,
    "circle": circle,
    "flat_torus": flat_torus,
    "round_sphere": round_sphere,
    "hyperbolic_2": hyperbolic_2,
    "berger_sphere": berger_sphere,
    "surface_of_revolution": surface_of_revolution,
    "conformal_round_sphere": conformal_round_sphere,
}

_KIND_PARAMS: dict[str, set[str]] = {
    "euclidean": {"n", "box"},
    "line": {"length"},
    "circle": {"length"},
    "flat_torus": {"lengths"},
    "round_sphere": {"n", "r"},
    "hyperbolic_2": {"r"},
    "berger_sphere": {"a"},
    "surface_of_revolution": {"rho", "t_min", "t_max"},
    "conformal_round_sphere": {"u", "r"},
}


def build_factor(doc: Mapping) -> Chart:
    """Build one factor chart from a spec document entry."""
    unknown = set(doc) - {"kind", "params", "resolution"}
    if unknown:
        raise ChartError(f"unknown factor fields: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind not in _KIND_BUILDERS:
        raise ChartError(
            f"unknown factor kind {kind!r}; known: "
            f"{', '.join(sorted(_KIND_BUILDERS))}")
    params = dict(doc.get("params") or {})
    bad = set(params) - _KIND_PARAMS[kind]
    if bad:
        raise ChartError(
            f"unknown params for kind {kind!r}: {sorted(bad)}; "
            f"allowed: {sorted(_KIND_PARAMS[kind])}")
    chart = _KIND_BUILDERS[kind](**params)
    if doc.get("resolution") is not None:
        chart.resolution = _axis_counts(chart, doc["resolution"])
    return chart


def manifold_from_spec(doc: Mapping) -> Manifold:
    """Build a manifold from a {"name", "factors": [...]} document."""
    unknown = set(doc) - {"name", "factors"}
    if unknown:
        raise ChartError(f"unknown manifold fields: {sorted(unknown)}")
    factors = doc.get("factors")
    if not factors:
        raise ChartError("manifold spec needs a non-empty 'factors' list")
    charts = [build_factor(f) for f in factors]
    name = doc.get("name")
    if len(charts) == 1:
        m = single(charts[0])
        if name:
            m.name = name
        return m
    return product(charts, name=name)


NAMED_EXAMPLES: dict[str, dict] = {
    "round_sphere_2": {"name": "round_sphere_2", "factors": [
        {"kind": "round_sphere", "params": {"n": 2, "r": 1.0}}]},
    "round_sphere_3": {"name": "round_sphere_3", "factors": [
        {"kind": "round_sphere", "params": {"n": 3, "r": 1.0}}]},
    "round_sphere_4": {"name": "round_sphere_4", "factors": [
        {"kind": "round_sphere", "params": {"n": 4, "r": 1.0}}]},
    "flat_torus_2": {"name": "flat_torus_2", "factors": [
        {"kind": "flat_torus", "params": {"lengths": [TWO_PI, TWO_PI]}}]},
    "flat_torus_3": {"name": "flat_torus_3", "factors": [
        {"kind": "flat_torus",
         "params": {"lengths": [TWO_PI, TWO_PI, TWO_PI]}}]},
    "hyperbolic_2": {"name": "hyperbolic_2", "factors": [
        {"kind": "hyperbolic_2", "params": {"r": 1.0}}]},
    "berger_sphere": {"name": "berger_sphere", "factors": [
        {"kind": "berger_sphere", "params": {"a": 1.5}}]},
    "round_profile": {"name": "round_profile", "factors": [
        {"kind": "surface_of_revolution", "params": {"rho": "sin(t)"}}]},
    "conformal_sphere_bump": {"name": "conformal_sphere_bump", "factors": [
        {"kind": "conformal_round_sphere", "params": {"u": "0.2*cos(th)"}}]},
    "r2_x_s2": {"name": "r2_x_s2", "factors": [
        {"kind": "euclidean", "params": {"n": 2}},
        {"kind": "round_sphere", "params": {"n": 2, "r": 1.0}}]},
    "r2_x_h2": {"name": "r2_x_h2", "factors": [
        {"kind": "euclidean", "params": {"n": 2}},
        {"kind": "hyperbolic_2", "params": {"r": 1.0}}]},
    "line_x_berger": {"name": "line_x_berger", "factors": [
        {"kind": "line", "params": {}},
        {"kind": "berger_sphere", "params": {"a": 1.5}}]},
    "circle_x_berger": {"name": "circle_x_berger", "factors": [
        {"kind": "circle", "params": {}},
        {"kind": "berger_sphere", "params": {"a": 1.5}}]},
    "s1_x_s3": {"name": "s1_x_s3", "factors": [
        {"kind": "circle", "params": {}},
        {"kind": "round_sphere", "params": {"n": 3, "r": 1.0}}]},
    "s2_x_s2": {"name": "s2_x_s2", "factors": [
        {"kind": "round_sphere", "params": {"n": 2, "r": 1.0}},
        {"kind": "round_sphere", "params": {"n": 2, "r": 1.0}}]},
    "s2_x_t2": {"name": "s2_x_t2", "factors": [
        {"kind": "round_sphere", "params": {"n": 2, "r": 1.0}},
        {"kind": "flat_torus", "params": {"lengths": [TWO_PI, TWO_PI]}}]},
}


def catalog_names() -> list[str]:
    return sorted(NAMED_EXAMPLES)


def get_example(name: str) -> Manifold:
    try:
        doc = NAMED_EXAMPLES[name]
    except KeyError:
        raise ChartError(
            f"unknown catalog manifold {name!r}; known: "
            f"{', '.join(catalog_names())}") from None
    return manifold_from_spec(doc)


def describe(m: Manifold) -> dict:
    """Serializable summary (used by `catalog show`)."""
    return {
        "name": m.name,
        "dim": m.dim,
        "compact": m.chart.compact,
        "volume_closed_form": m.chart.volume,
        "coords": list(m.chart.coords),
        "params": dict(m.chart.params),
        "periodic": list(m.chart.periodic),
        "box": [[l, h] for l, h in zip(m.chart.lo, m.chart.hi)],
        "resolution": list(m.chart.resolution),
        "factors": [{"kind": f.kind, "dim": f.dim,
                     "params": dict(f.params)} for f in m.factors],
        "metric": [list(row) for row in m.chart.metric_strs],
    }
