"""Residual evaluation for generalized metric-flow solitons.

The central object is the pointwise tensor residual of the soliton relation

    (1/2) L_X g = (1/2) q + phi g,

where ``q`` selects the flow tensor (the four-dimensional obstruction flow
``B + (1/12) Lap(S) g``, the plain obstruction tensor ``B``, a user-supplied
symmetric tensor, the constructed ``L_X g - 2 phi g``, or zero) and ``phi``
is either a function or a constant ``lambda``.  Residuals are evaluated on
deterministic low-discrepancy point sets, plus a coarse quadrature grid when
the chart is compact, and reported in the metric sup norm.

Also here: the quadratic-profile check for line x N^3 gradient solitons, the
squashed-sphere parameter solve (Brent's method on each sign-change bracket
of the signed scalar of the product-soliton obstruction), the conformal
correction field on surface x surface products, and the mixed-Hessian
splitting spot-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import linalg, optimize

from . import charts, products, tolerances
from .charts import Chart, Manifold
from .curvature import CurvatureFrame, frame_at, values
from .jets import contract
from .report import sup

__all__ = [
    "SolitonError", "SolitonSpec", "ResidualReport", "Q_SELECTORS",
    "extended_q_residual", "bach_soliton_residual",
    "quadratic_profile_check", "berger_condition_scalar",
    "solve_berger_soliton", "surface_conformal_field", "splitting_spotcheck",
    "EXAMPLES", "named_example",
]

Q_SELECTORS = ("bach_flow", "bach", "constructed", "zero", "custom")

_SOLITON_DOC_FIELDS = {"manifold", "X", "f", "phi", "lambda", "q", "custom_q"}


class SolitonError(ValueError):
    """Malformed soliton data or violated structural precondition."""


@dataclass(frozen=True)
class SolitonSpec:
    """Vector-field / conformal-factor / flow-tensor data for one residual.

    Exactly one of ``x_exprs`` (component expressions) and ``potential``
    (a scalar ``f`` with ``X = grad f``) must be given, and exactly one of
    ``phi`` (expression string, or a callable receiving the curvature frame)
    and ``lam`` (constant).
    """

    manifold: Manifold
    x_exprs: tuple[str, ...] | None = None
    potential: str | None = None
    phi: str | Callable[[CurvatureFrame], float] | None = None
    lam: float | None = None
    q: str = "bach_flow"
    custom_q: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        if (self.x_exprs is None) == (self.potential is None):
            raise SolitonError("give exactly one of X components or f")
        if (self.phi is None) == (self.lam is None):
            raise SolitonError("give exactly one of phi and lambda")
        if self.q not in Q_SELECTORS:
            raise SolitonError(
                f"unknown q selector {self.q!r}; known: {Q_SELECTORS}")
        if (self.q == "custom") != (self.custom_q is not None):
            raise SolitonError("custom_q goes with q = 'custom' only")
        n = self.manifold.dim
        if self.x_exprs is not None and len(self.x_exprs) != n:
            raise SolitonError(f"X needs {n} components")
        if self.custom_q is not None and (
                len(self.custom_q) != n
                or any(len(row) != n for row in self.custom_q)):
            raise SolitonError(f"custom_q must be {n} x {n}")

    @property
    def gradient(self) -> bool:
        return self.potential is not None

    @property
    def extended(self) -> bool:
        return self.phi is not None

    @classmethod
    def from_doc(cls, doc: Mapping) -> "SolitonSpec":
        """Build from a JSON document.

        Schema: ``{"manifold": name-or-document, "X": [expr, ...] | "f":
        expr, "phi": expr | "lambda": number, "q": selector, "custom_q":
        [[expr, ...], ...]}``; unknown fields are rejected.
        """
        if not isinstance(doc, Mapping):
            raise SolitonError("soliton document must be an object")
        bad = set(doc) - _SOLITON_DOC_FIELDS
        if bad:
            raise SolitonError(
                f"unknown soliton fields {sorted(bad)}; "
                f"allowed: {sorted(_SOLITON_DOC_FIELDS)}")
        ref = doc.get("manifold")
        if isinstance(ref, str):
            manifold = charts.get_example(ref)
        elif isinstance(ref, Mapping):
            manifold = charts.manifold_from_spec(ref)
        else:
            raise SolitonError("manifold must be a name or a document")
        x = doc.get("X")
        lam = doc.get("lambda")
        if lam is not None and not isinstance(lam, (int, float)):
            raise SolitonError("lambda must be a number")
        return cls(
            manifold=manifold,
            x_exprs=None if x is None else tuple(str(e) for e in x),
            potential=doc.get("f"),
            phi=doc.get("phi"),
            lam=None if lam is None else float(lam),
            q=doc.get("q", "bach_flow"),
            custom_q=None if doc.get("custom_q") is None else tuple(
                tuple(str(e) for e in row) for row in doc["custom_q"]))


@dataclass
class ResidualReport:
    """Pointwise residuals R = (1/2) L_X g - (1/2) q - phi g and their sup.

    ``norms[i]`` is the metric norm sqrt(R^j_k R^k_j) at ``points[i]``;
    ``sup`` is the max over the sample set and ``passed`` compares it with
    ``tol``.
    """

    label: str
    points: np.ndarray
    residuals: np.ndarray
    norms: np.ndarray
    tol: float
    sup: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.sup = sup(self.norms)
        self.passed = bool(self.sup <= self.tol)

    def summary(self) -> dict:
        return {"label": self.label, "points": int(len(self.norms)),
                "sup": self.sup, "tol": self.tol, "passed": self.passed}


# ----------------------------------------------------------------------
# pointwise residual machinery
# ----------------------------------------------------------------------
def _field_jets(frame: CurvatureFrame, spec: SolitonSpec):
    if spec.potential is not None:
        return frame.gradient_vector(frame.scalar_jet(spec.potential))
    return frame.vector_jets(spec.x_exprs)


def _phi_value(frame: CurvatureFrame, spec: SolitonSpec) -> float:
    if spec.phi is None:
        return float(spec.lam)
    if callable(spec.phi):
        return float(spec.phi(frame))
    return float(values(frame.scalar_jet(spec.phi, order=0)))


def _q_value(frame: CurvatureFrame, spec: SolitonSpec, lie: np.ndarray,
             phi: float, g: np.ndarray) -> np.ndarray:
    if spec.q == "bach_flow":
        return values(frame.bach) + values(frame.lap_scalar) / 12.0 * g
    if spec.q == "bach":
        return values(frame.bach)
    if spec.q == "constructed":
        return lie - 2.0 * phi * g
    if spec.q == "zero":
        return np.zeros_like(g)
    return frame.scalar_jet(spec.custom_q, order=0).value


def metric_norm(g: np.ndarray, tensor: np.ndarray) -> float:
    """sqrt(T^i_j T^j_i) for a symmetric 2-tensor in coordinate components."""
    mixed = np.linalg.solve(g, tensor)
    return float(np.sqrt(abs(np.trace(mixed @ mixed))))


def extended_q_residual(man: Manifold, spec: SolitonSpec,
                        points: np.ndarray | None = None, count: int = 200,
                        tol: float = 1e-7,
                        label: str = "extended-q") -> ResidualReport:
    """Evaluate R = (1/2) L_X g - (1/2) q - phi g over a sample set."""
    if points is None:
        points = charts.residual_sample_points(man, count)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    residuals = np.empty((len(points), man.dim, man.dim))
    norms = np.empty(len(points))
    for i, p in enumerate(points):
        frame = frame_at(man, p)
        g = values(frame.g)
        lie = values(frame.lie_metric(_field_jets(frame, spec)))
        phi = _phi_value(frame, spec)
        q = _q_value(frame, spec, lie, phi, g)
        r = 0.5 * lie - 0.5 * q - phi * g
        residuals[i] = r
        norms[i] = metric_norm(g, r)
    return ResidualReport(label=label, points=points, residuals=residuals,
                          norms=norms, tol=tol)


def bach_soliton_residual(man: Manifold, lam: float,
                          potential: str | None = None,
                          x_exprs: Sequence[str] | None = None,
                          points: np.ndarray | None = None, count: int = 200,
                          tol: float = 1e-7,
                          label: str = "bach-soliton") -> ResidualReport:
    """Residual of (1/2) L_X g = (1/2)(B + (1/12) Lap(S) g) + lambda g."""
    if man.dim != 4:
        raise SolitonError("the obstruction-flow soliton needs n = 4")
    spec = SolitonSpec(
        manifold=man, potential=potential,
        x_exprs=None if x_exprs is None else tuple(x_exprs),
        lam=float(lam), q="bach_flow")
    return extended_q_residual(man, spec, points=points, count=count,
                               tol=tol, label=label)


# ----------------------------------------------------------------------
# line x N^3 quadratic profiles
# ----------------------------------------------------------------------
def _line_cross_structure(man: Manifold) -> tuple[Chart, Chart]:
    if len(man.factors) != 2 or man.factors[0].dim != 1 \
            or man.factors[1].dim != 3:
        raise SolitonError("need a line x N^3 product manifold")
    if man.factors[0].compact:
        raise SolitonError("the 1-dimensional factor must be a line, "
                           "not a circle")
    return man.factors[0], man.factors[1]


def quadratic_profile_check(man: Manifold, lam: float, a: float = 0.0,
                            b: float = 0.0, count: int = 24,
                            tol: float = 1e-7,
                            constancy_tol: float = 1e-8) -> dict:
    """Check the quadratic gradient profile f = 2*lam*t^2 + a*t + b.

    On line x N^3 with N of constant scalar curvature and constant Ricci
    norm, a gradient product soliton forces f1'' = 4 lambda with
    lambda = -(1/24)(|Ric|^2 - S^2/3), and tracing the soliton equation
    gives div X = (1/6) Lap(S) + 4 lambda.  All three are verified, plus
    the full residual of the flow equation.
    """
    line_chart, n_chart = _line_cross_structure(man)
    spread = products.constancy_spread(n_chart, count=max(8, count // 2))
    if sup(*spread.values()) > constancy_tol:
        raise SolitonError(
            f"N^3 invariants are non-constant: {spread} "
            f"(tolerance {constancy_tol})")
    fc = products.FactorCurvature.at(n_chart, n_chart.center())
    lam_formula = products.line_product_lambda(fc)

    t = man.chart.coords[0]
    f_text = f"2*({lam!r})*{t}^2 + ({a!r})*{t} + ({b!r})"
    pts = charts.residual_sample_points(man, count)
    profile_dev = 0.0
    traced_dev = 0.0
    for p in pts[:max(4, count // 4)]:
        frame = frame_at(man, p)
        f_jet = frame.scalar_jet(f_text)
        x_jets = frame.gradient_vector(f_jet)
        div_x = values(frame.divergence_vector(x_jets))
        lap_s = values(frame.lap_scalar)
        traced_dev = sup(traced_dev, abs(div_x - lap_s / 6.0 - 4.0 * lam))
        # d^2 f / dt^2 from the jet itself
        f2 = f_jet.partial((2,) + (0,) * (man.dim - 1))
        profile_dev = sup(profile_dev, abs(f2 - 4.0 * lam))
    report = bach_soliton_residual(man, lam, potential=f_text, points=pts,
                                   tol=tol, label=f"profile[{man.name}]")
    lam_dev = abs(lam - lam_formula)
    return {
        "manifold": man.name,
        "lambda": float(lam),
        "lambda_formula": float(lam_formula),
        "lambda_deviation": float(lam_dev),
        "profile_second_derivative_deviation": float(profile_dev),
        "traced_identity_deviation": float(traced_dev),
        "constancy_spread": spread,
        "residual": report,
        "passed": bool(report.passed and lam_dev <= tol
                       and profile_dev <= tol and traced_dev <= tol),
    }


# ----------------------------------------------------------------------
# squashed-sphere parameter solve
# ----------------------------------------------------------------------
_BERGER_PROBE = (0.7, 1.1, 0.4)


def berger_condition_scalar(a: float) -> float:
    """Signed scalar of the product-soliton obstruction on a squashed S^3.

    The obstruction tensor on the homogeneous family diag(a^2, 1, 1) is
    diagonal in the invariant frame and trace-free, with eigenvalue pattern
    (r, -r/2, -r/2); the signed largest-magnitude generalized eigenvalue
    against g is therefore a faithful scalar reduction whose roots are the
    roots of the full tensor equation.
    """
    fc = products.FactorCurvature.at(charts.berger_sphere(a),
                                     list(_BERGER_PROBE))
    obstruction = products.line_soliton_obstruction(fc)
    eigs = linalg.eigh(obstruction, fc.g, eigvals_only=True)
    return float(eigs[int(np.argmax(np.abs(eigs)))])


def solve_berger_soliton(interval: tuple[float, float] = (0.1, 3.0),
                         scan: int = 120, round_exclusion: float = 1e-3,
                         residual_tol: float = 1e-7) -> dict:
    """Root-find the squashed-sphere parameter of the line-product soliton.

    Scans ``berger_condition_scalar`` over the interval for sign changes
    and refines each bracket with Brent's method.  A bracket needs finite
    values of opposite sign, so a NaN never brackets.  The round value
    a = 1 is always a root and is excluded from the reported ``a_star``;
    an interval with no non-round bracket yields outcome ``"no bracket"``
    (reported, not raised).  At a root, the full four-dimensional flow
    residual is evaluated through ``quadratic_profile_check``.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 < lo < hi):
        raise SolitonError("need 0 < lo < hi for the parameter interval")
    grid = np.linspace(lo, hi, int(scan) + 1)
    vals = np.array([berger_condition_scalar(x) for x in grid])
    roots = [float(x) for x, v in zip(grid, vals) if v == 0.0]
    tol = 4.0 * np.finfo(float).eps
    for k in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        # looked up in the module on every call, like the scan above, so a
        # wrapped condition sees every evaluation
        roots.append(optimize.brentq(berger_condition_scalar, grid[k],
                                     grid[k + 1], xtol=tol, rtol=tol))
    uniq: list[float] = []
    for r in sorted(roots):
        if not uniq or abs(r - uniq[-1]) > 1e-8:
            uniq.append(r)
    non_round = [r for r in uniq if abs(r - 1.0) > round_exclusion]
    out: dict = {
        "interval": [lo, hi],
        "roots": uniq,
        "round_root_included": any(abs(r - 1.0) <= round_exclusion
                                   for r in uniq),
        "outcome": "no bracket",
        "a_star": None,
        "lambda_star": None,
    }
    if not non_round:
        return out
    a_star = non_round[0]
    fc = products.FactorCurvature.at(charts.berger_sphere(a_star),
                                     list(_BERGER_PROBE))
    lam_star = products.line_product_lambda(fc)
    man = charts.product([charts.line(4.0), charts.berger_sphere(a_star)],
                         name=f"line_x_berger[{a_star:.12g}]")
    profile = quadratic_profile_check(man, lam_star, count=8,
                                      tol=residual_tol)
    out.update({
        "outcome": "root",
        "a_star": a_star,
        "lambda_star": float(lam_star),
        "scalar_at_root": berger_condition_scalar(a_star),
        "factor_scalar_curvature": float(fc.scalar),
        "profile_check": profile,
        "residual_sup": profile["residual"].sup,
        "passed": bool(profile["passed"]),
    })
    return out


# ----------------------------------------------------------------------
# surface x surface conformal correction field
# ----------------------------------------------------------------------
def _two_surface_slices(man: Manifold) -> tuple[slice, slice]:
    if len(man.factors) != 2 or any(f.dim != 2 for f in man.factors):
        raise SolitonError("need a product of two surfaces")
    return man.factor_slice(0), man.factor_slice(1)


def _block_scalar_jet(frame: CurvatureFrame, sl: slice):
    """Factor scalar curvature as a jet, from the ambient block trace."""
    return contract("ij,ij->", frame.ginv2[sl, sl], frame.ricci[sl, sl])


def surface_conformal_field(man: Manifold, spec: SolitonSpec,
                            points: np.ndarray | None = None,
                            count: int = 40,
                            coefficient: float = 1.0 / 12.0) -> dict:
    """Extract C = X + coefficient * (grad S_K + grad S_L) and its blocks.

    For extended flow data (X, phi) on K^2 x L^2 the field C satisfies

        (1/2) L_C g = rho_K g_K + rho_L g_L + E,
        rho_K = phi + (1/8) Lap_K S_K + (1/48)(S_K^2 - S_L^2),

    (rho_L mirrored) where E is the extended flow residual of (X, phi);
    in particular C is conformal on each factor exactly when the data is a
    soliton.  E is the residual of the obstruction flow, so ``spec.q``
    must be ``"bach_flow"``.  Returns per-point C values, fitted and
    closed-form rho's, the off-block / trace-free-block residuals of
    (1/2) L_C g, the sup of the displayed identity, and the phi formulas
    forced when C has no K (resp. no L) component.
    """
    sl_k, sl_l = _two_surface_slices(man)
    if spec.q != "bach_flow":
        raise SolitonError(
            f"the conformal field needs the obstruction flow (q = "
            f"'bach_flow'), got q = {spec.q!r}")
    if points is None:
        points = charts.residual_sample_points(man, count)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = man.dim
    m = len(points)
    c_vals = np.empty((m, n))
    rho_fit = np.empty((m, 2))
    rho_formula = np.empty((m, 2))
    phi_perp = np.empty((m, 2))
    off_sup = 0.0
    tracefree_sup = 0.0
    identity_sup = 0.0
    e_sup = 0.0
    for idx, p in enumerate(points):
        frame = frame_at(man, p)
        g = values(frame.g)
        x_jets = _field_jets(frame, spec)
        phi = _phi_value(frame, spec)
        s_blocks = [_block_scalar_jet(frame, sl) for sl in (sl_k, sl_l)]
        grad_sum = (frame.gradient_vector(s_blocks[0])
                    + frame.gradient_vector(s_blocks[1]))
        c_jets = x_jets.truncated(grad_sum.order) + coefficient * grad_sum
        c_vals[idx] = values(c_jets)
        half_lie = 0.5 * values(frame.lie_metric(c_jets))
        lie_x = values(frame.lie_metric(x_jets))
        e_tensor = (0.5 * lie_x - 0.5 * (values(frame.bach)
                                         + values(frame.lap_scalar) / 12.0
                                         * g) - phi * g)
        e_sup = sup(e_sup, np.abs(e_tensor))
        s_vals = [values(s) for s in s_blocks]
        lap_s = [values(frame.laplacian(s)) for s in s_blocks]
        model = np.array(e_tensor)
        for which, (sl, other) in enumerate(((sl_k, 1), (sl_l, 0))):
            gb = g[sl, sl]
            block = half_lie[sl, sl]
            rho_fit[idx, which] = (np.einsum(
                "ij,ij->", np.linalg.inv(gb), block) / 2.0)
            rho_formula[idx, which] = (
                phi + lap_s[which] / 8.0
                + (s_vals[which] ** 2 - s_vals[other] ** 2) / 48.0)
            phi_perp[idx, which] = (
                -lap_s[which] / 8.0
                - (s_vals[which] ** 2 - s_vals[other] ** 2) / 48.0)
            tracefree_sup = sup(tracefree_sup,
                                np.abs(block - rho_fit[idx, which] * gb))
            model[sl, sl] += rho_formula[idx, which] * gb
        off_sup = sup(off_sup, np.abs(half_lie[sl_k, sl_l]))
        identity_sup = sup(identity_sup, np.abs(half_lie - model))
    return {
        "points": points,
        "c_field": c_vals,
        "coefficient": float(coefficient),
        "rho_fit": rho_fit,
        "rho_formula": rho_formula,
        "phi_if_c_perp": phi_perp,
        "extended_residual_sup": e_sup,
        "offblock_sup": off_sup,
        "tracefree_sup": tracefree_sup,
        "identity_sup": identity_sup,
    }


# ----------------------------------------------------------------------
# mixed-Hessian splitting spot-check
# ----------------------------------------------------------------------
def splitting_spotcheck(man: Manifold, split_f: str,
                        control_f: str | None = None, count: int = 24
                        ) -> dict:
    """Sup of the mixed factor blocks of Hess f over a sample set.

    A function that is a sum of per-factor pieces has vanishing mixed
    Hessian blocks on a product metric; a genuinely coupled control
    function does not.
    """
    if len(man.factors) < 2:
        raise SolitonError("need a product with at least two factors")
    points = charts.residual_sample_points(man, count)
    slices = [man.factor_slice(k) for k in range(len(man.factors))]

    def mixed_sup(text: str) -> float:
        worst = 0.0
        for p in points:
            frame = frame_at(man, p)
            hess = values(frame.hessian(frame.scalar_jet(text)))
            for a in range(len(slices)):
                for b in range(a + 1, len(slices)):
                    worst = sup(worst, np.abs(hess[slices[a], slices[b]]))
        return worst

    out = {"split_mixed_sup": mixed_sup(split_f), "control_mixed_sup": None}
    if control_f is not None:
        out["control_mixed_sup"] = mixed_sup(control_f)
    return out


# ----------------------------------------------------------------------
# named examples
# ----------------------------------------------------------------------
def _flat_product_example(other: str, lam: float, scale: float) -> tuple:
    man = charts.get_example(other)
    f = f"({scale!r})*(x^2 + y^2)"
    return man, f, lam


def _example_ho(kind: str, literal: bool) -> dict:
    # flat-factor gradient solitons on R^2 x S^2(1) and R^2 x H^2(-1);
    # the "literal" variants carry the opposite-normalization constants
    # and are kept to document that they fail under this engine's
    # conventions.
    lam, scale = (1.0 / 6.0, 1.0 / 6.0) if literal else (-1.0 / 12.0,
                                                         -1.0 / 12.0)
    man, f, lam = _flat_product_example(kind, lam, scale)
    return {"manifold": man, "potential": f, "lam": lam,
            "tol": tolerances.DEFAULTS["soliton_gradient_product"],
            "note": ("opposite-normalization constants; expected to fail"
                     if literal else "flat-factor gradient soliton")}


def _example_s4() -> dict:
    # tolerance 1e-7: the compact-chart grid includes near-pole nodes
    # where the degenerating angular metric amplifies rounding in the
    # metric sup norm
    return {"manifold": charts.get_example("round_sphere_4"),
            "x_exprs": ("0", "0", "0", "0"), "lam": 0.0,
            "tol": tolerances.DEFAULTS["soliton"],
            "note": "Einstein, obstruction-flat, X = 0"}


BERGER_SOLITON_A = 0.5          # frozen output of solve_berger_soliton
BERGER_SOLITON_LAMBDA = -0.25   # = -(1/24)(|Ric|^2 - S^2/3) at a = 1/2


def _example_berger_line() -> dict:
    man = charts.product(
        [charts.line(4.0), charts.berger_sphere(BERGER_SOLITON_A)],
        name="line_x_berger_soliton")
    t = man.chart.coords[0]
    return {"manifold": man,
            "potential": f"2*({BERGER_SOLITON_LAMBDA!r})*{t}^2",
            "lam": BERGER_SOLITON_LAMBDA,
            "tol": tolerances.DEFAULTS["soliton"],
            "note": "squashed-sphere line product at the solved parameter"}


EXAMPLES: dict[str, Callable[[], dict]] = {
    "ho-r2s2": lambda: _example_ho("r2_x_s2", literal=False),
    "ho-r2h2": lambda: _example_ho("r2_x_h2", literal=False),
    "ho-r2s2-literal": lambda: _example_ho("r2_x_s2", literal=True),
    "ho-r2h2-literal": lambda: _example_ho("r2_x_h2", literal=True),
    "s4-trivial": _example_s4,
    "berger-line": _example_berger_line,
}


def named_example(name: str, count: int = 200,
                  tol: float | None = None) -> ResidualReport:
    """Run one of the named soliton checks by its CLI identifier."""
    if name not in EXAMPLES:
        raise SolitonError(
            f"unknown soliton example {name!r}; known: "
            f"{', '.join(sorted(EXAMPLES))}")
    ex = EXAMPLES[name]()
    return bach_soliton_residual(
        ex["manifold"], ex["lam"], potential=ex.get("potential"),
        x_exprs=ex.get("x_exprs"), count=count,
        tol=ex["tol"] if tol is None else tol, label=name)
