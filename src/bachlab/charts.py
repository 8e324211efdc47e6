"""Charts, the manifold catalog, products, quadrature and sample sets.

A `Chart` is a coordinate box with periodicity flags and metric entries
as DSL expressions, and every manifold, from the catalog or a document,
is one.  A product chart (`product`) also keeps its ordered factor
charts, whose coordinates it lists in factor order.  Compact charts
carry a tensor-product quadrature rule: Gauss–Legendre nodes on open
(polar) directions — which never touch the endpoints, so coordinate
singularities like sphere poles are excluded — and midpoint-uniform
nodes on periodic directions (spectrally accurate for smooth periodic
integrands).  Derived charts compose their metric texts (`conformal`,
`product`), so `catalog show` prints the texts as written, renamed.
Every input document is read by the rules here: `read_document`,
`is_number`, `is_count` and `read_expressions`, whose errors name the
field's path (``factors[0].params.u``, ``X[1]``).
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import exprs, tolerances
from .jets import Jet

TWO_PI = 2.0 * math.pi
_RESIDUAL_GRID_NODES = 81  # about, on a compact chart: 9^2, 4^3 or 3^4


class ChartError(ValueError):
    """Invalid chart/manifold description."""


@dataclass
class Chart:
    """A coordinate box with metric entries given as DSL expressions; a
    product's `factors` are its factor charts, and empty otherwise."""

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
    factors: tuple["Chart", ...] = ()
    metric: tuple[tuple[object, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.coords)
        if not (1 <= n <= 4):
            raise ChartError(f"chart dimension must be 1..4, got {n}")
        dups = [c for k, c in enumerate(self.coords) if c in self.coords[:k]]
        if dups:  # every evaluator would read the name from its last axis
            raise ChartError(f"repeated coordinate name {dups[0]!r}")
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

    @property
    def chart(self) -> "Chart":  # for perfbench/; src/ reads the chart itself
        return self

    def factor_slice(self, k: int) -> slice:
        """The coordinates of factor k; a chart that is no product is its
        own factor 0."""
        factors = self.factors or (self,)
        off = sum(f.dim for f in factors[:k])
        return slice(off, off + factors[k].dim)

    def center(self) -> np.ndarray:
        """A safe interior point (box midpoint)."""
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    # -- evaluation ---------------------------------------------------
    def metric_jets(self, point: Sequence[float], order: int = 4) -> Jet:
        """The metric as one (n, n) tensor of jets at a point."""
        return exprs.eval_jet(self.metric, point, self.coords, self.params,
                              order)

    def metric_values(self, points: np.ndarray) -> np.ndarray:
        """Metric matrices at many points: (N, dim) -> (N, n, n), from one
        evaluation of all the entries, which shares their subtrees."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = self.dim
        env = {name: points[:, a] for a, name in enumerate(self.coords)}
        env.update(self.params)
        entries = exprs.eval_numpy([e for row in self.metric for e in row],
                                   env)
        out = np.empty((points.shape[0], n, n))
        for k, value in enumerate(entries):
            out[:, k // n, k % n] = value
        return out


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------
@dataclass
class Quadrature:
    nodes: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,) coordinate-measure weights (no density)


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


def is_count(value) -> bool:
    """The one rule for a count read from a document: an int that is not
    a bool, and at least 1."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= 1)


def is_number(value) -> bool:
    """The one rule for a number read from a document: an int or a float,
    not a bool, within the float range (so not NaN nor an infinity)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def read_document(doc, fields: Sequence[str], what: str, error,
                  path: str = "") -> Mapping:
    """The one rule for an object read from a document at `path`: a
    mapping whose keys are among `fields`, else `error`.  `what` names it,
    as in "a factor must be an object" and "unknown factor fields"."""
    where = f"{path}: " if path else ""
    if not isinstance(doc, Mapping):
        raise error(f"{where}{what} must be an object, got {doc!r}")
    unknown = set(doc) - set(fields)
    if unknown:
        noun = what.removeprefix("an ").removeprefix("a ")
        raise error(f"{where}unknown {noun} fields {sorted(unknown)}; its "
                    f"fields: {', '.join(fields)}")
    return doc


# the fields that hold expressions, by nesting depth (a vector 1, a tensor 2)
EXPR_FIELDS = {"X": 1, "T": 2, "custom_q": 2, "f": 0, "phi": 0, "h": 0}
_EXPR_SHAPES = ("one expression", "a list of expressions",
                "a list of rows of expressions")


def read_expressions(doc: Mapping, chart: Chart, error) -> dict:
    """The `EXPR_FIELDS` of a document as text, a number as its repr;
    once every field has its shape, one row and one entry per coordinate,
    each entry is parsed on the chart."""
    entries = []  # (path, text) of every entry

    def read(value, depth: int, name: str, path: str):
        if depth:
            if isinstance(value, (list, tuple)):
                if len(value) != chart.dim:
                    noun = "rows" if depth == 2 else "entries"
                    raise error(f"{path} needs {chart.dim} {noun}, one per "
                                f"coordinate; got {len(value)}")
                return tuple(read(v, depth - 1, name, f"{path}[{k}]")
                             for k, v in enumerate(value))
        elif isinstance(value, str) or is_number(value):
            entries.append((path, value if isinstance(value, str)
                            else repr(value)))
            return entries[-1][1]
        raise error(f"{name} must be {_EXPR_SHAPES[EXPR_FIELDS[name]]}; "
                    f"{path} is {value!r}")

    out = {name: read(doc[name], depth, name, name)
           for name, depth in EXPR_FIELDS.items()
           if doc.get(name) is not None}
    for path, text in entries:
        try:
            exprs.parse(text, chart.coords, tuple(chart.params))
        except exprs.DslError as err:
            raise error(f"{path}: {err}") from None
    return out


def _axis_counts(chart: Chart, resolution: int | Sequence[int],
                 path: str = "resolution") -> tuple[int, ...]:
    """Per-axis node counts from one count for every axis or a list."""
    res = (resolution if isinstance(resolution, (list, tuple))
           else (resolution,) * chart.dim)
    if len(res) != chart.dim:
        raise ChartError(f"{path} needs {chart.dim} axis counts")
    if not all(map(is_count, res)):
        raise ChartError(f"{path} needs whole numbers, at least one "
                         f"node per axis; got {resolution!r}")
    return tuple(int(r) for r in res)


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
    return Quadrature(nodes=nodes, weights=weights)


def _checked_metric(chart: Chart, points: np.ndarray) -> np.ndarray:
    """The metric at the points, each exactly symmetric with every
    eigenvalue positive; else `ChartError` with the count of bad nodes."""
    g = chart.metric_values(points)
    # only a finite, exactly symmetric matrix gets eigenvalues
    bad = ~np.all(np.isfinite(g) & (g == np.swapaxes(g, 1, 2)), axis=(1, 2))
    bad[~bad] = ~(np.linalg.eigvalsh(g[~bad]).min(axis=1) > 0)
    if np.any(bad):
        raise ChartError(
            f"metric of {chart.name!r} is not symmetric positive definite "
            f"at {int(np.sum(bad))} node(s)")
    return g


def volume_density(chart: Chart, points: np.ndarray) -> np.ndarray:
    """sqrt(det g) at the given points."""
    return np.sqrt(np.linalg.det(_checked_metric(chart, points)))


def integrate(chart: Chart, values: np.ndarray | Callable,
              quad: Quadrature | None = None,
              resolution: int | Sequence[int] | None = None) -> float:
    """Integral of a scalar field against the metric volume measure.

    `values` is either an array of field values at the quadrature nodes
    or a callable mapping the (N, dim) node array to an (N,) array.
    Summation is NumPy pairwise — deterministic for a fixed resolution.
    """
    return integrate_columns(chart, [values], quad, resolution)[0]


def integrate_columns(chart: Chart, columns: Sequence[np.ndarray | Callable],
                      quad: Quadrature | None = None,
                      resolution: int | Sequence[int] | None = None
                      ) -> list[float]:
    """`integrate` of several fields on one rule, in order.

    The measure (weights times volume density) is formed once for all of
    them, and each integral is bitwise what `integrate` gives on its own.
    """
    if not chart.compact:
        raise ChartError(
            f"{chart.name!r} is not compact; integration is undefined")
    if quad is None:
        quad = quadrature(chart, resolution)
    measure = quad.weights * volume_density(chart, quad.nodes)
    out = []
    for values in columns:
        f = values(quad.nodes) if callable(values) else np.asarray(values)
        if f.shape != measure.shape:
            f = np.broadcast_to(f, measure.shape)
        out.append(float(np.sum(measure * f)))
    return out


def volume(chart: Chart, resolution: int | Sequence[int] | None = None
           ) -> float:
    return integrate(chart, lambda pts: np.ones(pts.shape[0]),
                     resolution=resolution)


def _halton(dim: int, count: int) -> np.ndarray:
    """The first ``count`` unscrambled Halton points in [0, 1)^dim, from 0
    on (Halton 1960): the radical inverse of each index in bases 2, 3, 5
    and 7, one digit at a time over the whole index array."""
    out = np.zeros((count, dim))
    for axis, base in enumerate((2, 3, 5, 7)[:dim]):
        index = np.arange(count)
        scale = 1.0 / base
        while index.any():
            index, digit = np.divmod(index, base)
            out[:, axis] += digit * scale
            scale /= base
    return out


def sample_points(chart: Chart, count: int, margin: float = 0.08
                  ) -> np.ndarray:
    """Deterministic low-discrepancy interior sample points.

    Periodic axes use no margin; open axes keep `margin` of the box away
    from each end (poles/edges are coordinate artifacts).  The Halton
    sequence is unscrambled, so the result depends only on the chart box,
    `count` and `margin`.  An empty set would let every sup over it pass,
    so `count` must be a whole number (`is_count`), at least 1.
    """
    if not is_count(count):
        raise ChartError(f"a sample set needs at least one point, a whole "
                         f"number; got count {count!r}")
    unit = _halton(chart.dim, count)
    lo = np.asarray(chart.lo)
    hi = np.asarray(chart.hi)
    span = hi - lo
    m = np.where(chart.periodic, 0.0, margin) * span
    return lo + m + unit * (span - 2 * m)


def residual_sample_points(man: Chart, count: int = 200) -> np.ndarray:
    """Halton interior points, plus a coarse quadrature grid when compact.

    The grid has about 81 nodes, the same count on every axis.
    """
    pts = sample_points(man, count)
    if man.compact:
        per_axis = max(2, int(round(_RESIDUAL_GRID_NODES ** (1.0 / man.dim))))
        pts = np.vstack([pts, quadrature(man, per_axis).nodes])
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
    invariant one-forms sigma_i obey d sigma_1 = -sigma_2 ^ sigma_3
    (cyclic), and the metric is (a^2 sigma_1^2 + sigma_2^2 + sigma_3^2)/4,
    so a = 1 is the round unit 3-sphere.  Twice the frame dual to the
    sigma_i satisfies [e_i, e_j] = 2 eps_ijk e_k; rescaling e_1 by 1/a
    makes it orthonormal, with brackets [e_2, e_3] = 2a e_1 and
    [e_3, e_1] = (2/a) e_2, [e_1, e_2] = (2/a) e_3.  The Haar volume
    density is (a/8) sin(be).
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
    with np.errstate(all="ignore"):  # a non-finite end fails below
        ends = np.abs(exprs.eval_numpy(exprs.parse(rho, ("t",)),
                                       {"t": np.array([t_min, t_max])}))
    if not np.all(np.isfinite(ends)):
        raise ChartError(f"rho = {rho!r} is not finite at both ends")
    closed = bool(np.all(ends <= tolerances.FIXED["surface_closure"]))
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
    """Generic conformal rescaling e^{2u} g of any chart: each entry other
    than "0" becomes the text ``exp(2*(u))*(entry)``."""
    exprs.parse(u, chart.coords, tuple(chart.params))  # a bad u, at its offset
    entries = tuple(tuple(e if e == "0" else f"exp(2*({u}))*({e})"
                          for e in row) for row in chart.metric_strs)
    return Chart(
        name=name or f"conformal({chart.name})", kind="conformal",
        coords=chart.coords, metric_strs=entries,
        params=dict(chart.params), lo=chart.lo, hi=chart.hi,
        periodic=chart.periodic, compact=chart.compact,
        resolution=chart.resolution, volume=None)


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------
def _fresh_name(name: str, k: int, taken: Callable[[str], bool]) -> str:
    """The first of ``name``, ``{name}_{k}``, ``{name}_{k}b``,
    ``{name}_{k}c``, ... that is not ``taken``."""
    candidates = (name, *(f"{name}_{k}{suffix}"
                          for suffix in ("", *"bcdefghijklmnopqrstuvwxyz")))
    for candidate in candidates:
        if not taken(candidate):
            return candidate
    raise ChartError(f"no free name for {name!r} in factor {k}")


def product(charts: Sequence[Chart], name: str | None = None) -> Chart:
    """Block-diagonal product of the factor charts, which it keeps as its
    `factors`; clashing names get suffixes.

    Coordinates and parameters share one namespace.  A coordinate clashes
    with any earlier coordinate or parameter, a parameter with an earlier
    coordinate or an earlier parameter of another value; a clashing name
    in factor k takes the first of ``{name}_{k}``, ``{name}_{k}b``,
    ``{name}_{k}c``, ... that does not clash.  So a parameter shares the
    first of these names that already holds its value, and never replaces
    one that holds another.  Each factor's entries are its texts with the
    names renamed (`exprs.rename_names`)."""
    total = sum(c.dim for c in charts)
    if total > 4:
        raise ChartError(f"product dimension {total} exceeds the jet cap 4")
    new_coords: list[str] = []
    rows: list[list[str]] = [["0"] * total for _ in range(total)]
    lo: list[float] = []
    hi: list[float] = []
    periodic: list[bool] = []
    resolution: list[int] = []
    params: dict[str, float] = {}
    offset = 0
    for k, c in enumerate(charts, start=1):
        cmap: dict[str, str] = {}
        for cname in c.coords:
            newc = _fresh_name(
                cname, k, lambda n: n in new_coords or n in params)
            if newc != cname:
                cmap[cname] = newc
            new_coords.append(newc)
        for pname, pval in c.params.items():
            newp = _fresh_name(
                pname, k,
                lambda p: p in new_coords or params.get(p, pval) != pval)
            if newp != pname:
                cmap[pname] = newp
            params[newp] = pval
        for i, row in enumerate(c.metric_strs):
            rows[offset + i][offset:offset + c.dim] = (
                [exprs.rename_names(text, cmap) for text in row] if cmap
                else row)
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
        resolution=tuple(resolution), volume=vol, factors=tuple(charts))


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

def _fits(default, value) -> bool:
    """Whether a document value fits a builder parameter with this default:
    a list of numbers (`is_number`) for a sequence, a number for a float,
    else a value of the default's type.  A boolean fits none of them."""
    if isinstance(default, (list, tuple)):
        return isinstance(value, (list, tuple)) and all(map(is_number, value))
    if isinstance(default, float):
        return is_number(value)
    return isinstance(value, type(default)) and not isinstance(value, bool)


def build_factor(doc: Mapping, path: str) -> Chart:
    """Build one factor chart from the spec document entry at `path`."""
    read_document(doc, ("kind", "params", "resolution"), "a factor",
                  ChartError, path)
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_BUILDERS:
        raise ChartError(
            f"{path}: unknown factor kind {kind!r}; known: "
            f"{', '.join(sorted(_KIND_BUILDERS))}")
    # the params a document may give a kind: its builder's, by default
    allowed = {name: p.default for name, p in
               inspect.signature(_KIND_BUILDERS[kind]).parameters.items()}
    params = read_document({} if doc.get("params") is None
                           else doc["params"], tuple(allowed), "params",
                           ChartError, f"{path}.params")
    for name, value in params.items():
        if not _fits(allowed[name], value):
            raise ChartError(f"{path}.params: param {name!r} of kind "
                             f"{kind!r} must be like {allowed[name]!r}, got "
                             f"{value!r}")
    try:
        chart = _KIND_BUILDERS[kind](**params)
    except exprs.DslError as err:  # from the kind's one text param
        text = next(k for k, v in params.items() if isinstance(v, str))
        raise ChartError(f"{path}.params.{text}: {err}") from None
    except ChartError as err:  # the kind's own checks of its params
        raise ChartError(f"{path}.params: {err}") from None
    if doc.get("resolution") is not None:
        chart.resolution = _axis_counts(chart, doc["resolution"],
                                        f"{path}.resolution")
    return chart


def manifold_from_spec(doc: Mapping, path: str = "") -> Chart:
    """Build a manifold's chart from a {"name", "factors": [...]} document
    at `path` (a field of an enclosing document, or ""): one factor's own
    chart, under the document's name if it gives one, or their product."""
    read_document(doc, ("name", "factors"), "a manifold", ChartError, path)
    factors = doc.get("factors")
    if not isinstance(factors, (list, tuple)) or not factors:
        raise ChartError(f"{path or 'manifold'} needs a non-empty 'factors' "
                         f"list")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ChartError(f"{path or 'manifold'} name must be text, got "
                         f"{name!r}")
    where = f"{path}.factors" if path else "factors"
    charts = [build_factor(f, f"{where}[{k}]") for k, f in enumerate(factors)]
    if len(charts) == 1:
        if name:
            charts[0].name = name
        return charts[0]
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


def resolve_manifold(ref, path: str = "") -> Chart:
    """A manifold from a catalog name or a manifold document at `path`."""
    if isinstance(ref, str):
        return get_example(ref)
    if isinstance(ref, Mapping):
        return manifold_from_spec(ref, path)
    raise ChartError(f"{path or 'manifold'} must be a catalog name or a "
                     f"manifold document, got {ref!r}")


def get_example(name: str) -> Chart:
    try:
        doc = NAMED_EXAMPLES[name]
    except KeyError:
        raise ChartError(
            f"unknown catalog manifold {name!r}; known: "
            f"{', '.join(catalog_names())}") from None
    return manifold_from_spec(doc)


def describe(m: Chart) -> dict:
    """Serializable summary (used by `catalog show`); a chart that is no
    product lists itself as its one factor."""
    return {
        "name": m.name,
        "dim": m.dim,
        "compact": m.compact,
        "volume_closed_form": m.volume,
        "coords": list(m.coords),
        "params": dict(m.params),
        "periodic": list(m.periodic),
        "box": [[l, h] for l, h in zip(m.lo, m.hi)],
        "resolution": list(m.resolution),
        "factors": [{"kind": f.kind, "dim": f.dim,
                     "params": dict(f.params)} for f in m.factors or (m,)],
        "metric": [list(row) for row in m.metric_strs],
    }
