"""Residual evaluation for generalized metric-flow solitons.

The central object is the pointwise tensor residual of the soliton relation

    (1/2) L_X g = (1/2) q + phi g,

where ``q`` selects the flow tensor (the four-dimensional obstruction flow
``B + (1/12) Lap(S) g``, the plain obstruction tensor ``B``, a user-supplied
symmetric tensor, the constructed ``L_X g - 2 phi g``, or zero) and ``phi``
is either a function or a constant ``lambda``.  Residuals are evaluated on
deterministic low-discrepancy point sets, plus a coarse quadrature grid when
the chart is compact, and reported in the metric sup norm.  Every check
takes its points in bounded frames through `curvature.on_points`, not one
frame per point, and takes the metric norm and the 2 x 2 block fits of
the conformal field on each frame's arrays; each value is bitwise what a
frame at its point alone gives.

Also here: the quadratic-profile check for line x N^3 gradient solitons
(the flow residual, the traced identity and f'' at every sample point,
from the same frames), the squashed-sphere parameter solve (Brent's
method on each sign-change bracket of the signed scalar of the
product-soliton obstruction, evaluated once per distinct parameter from
the frame's structure constants, and the root verified by the jet
residual), the conformal correction field on surface x surface products,
and the mixed-Hessian splitting spot-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import charts, homogeneous, products, roots, tolerances
from .charts import Chart
from .curvature import CurvatureFrame, on_points
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

_TOLS = tolerances.DEFAULTS


class SolitonError(ValueError):
    """Malformed soliton data or violated structural precondition."""


@dataclass(frozen=True)
class SolitonSpec:
    """Vector-field / conformal-factor / flow-tensor data for one residual.

    Exactly one of ``x_exprs`` (component expressions) and ``potential``
    (a scalar ``f`` with ``X = grad f``) must be given, and exactly one of
    ``phi`` and ``lam`` (constant).  ``phi`` is an expression string or a
    callable that takes a curvature frame over a chunk of points and
    returns a float or one value per point (``frame.batch`` long).
    """

    manifold: Chart
    x_exprs: tuple[str, ...] | None = None
    potential: str | None = None
    phi: str | Callable[[CurvatureFrame], float | np.ndarray] | None = None
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

    @classmethod
    def from_doc(cls, doc: Mapping) -> "SolitonSpec":
        """Build from a JSON document.

        Schema: ``{"manifold": name-or-document, "X": [expr, ...] | "f":
        expr, "phi": expr | "lambda": number, "q": selector, "custom_q":
        [[expr, ...], ...]}``, read by the `charts` document rules: an
        expression may be a number, and an error names its field.
        """
        charts.read_document(doc, ("manifold", "X", "f", "phi", "lambda",
                                   "q", "custom_q"), "a soliton", SolitonError)
        man = charts.resolve_manifold(doc.get("manifold"), "manifold")
        texts = charts.read_expressions(doc, man, SolitonError)
        lam = doc.get("lambda")
        if lam is not None and not charts.is_number(lam):
            raise SolitonError(f"lambda must be a number, and finite; got "
                               f"{lam!r}")
        return cls(
            manifold=man, x_exprs=texts.get("X"), potential=texts.get("f"),
            phi=texts.get("phi"), lam=None if lam is None else float(lam),
            q=doc.get("q", "bach_flow"), custom_q=texts.get("custom_q"))


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


def _phi_value(frame: CurvatureFrame, spec: SolitonSpec):
    """phi at the frame's points: a float, or one value per point."""
    if spec.phi is None:
        return float(spec.lam)
    if callable(spec.phi):
        return np.asarray(spec.phi(frame), dtype=float)
    return frame.scalar_jet(spec.phi, order=0).value


def _q_value(frame: CurvatureFrame, spec: SolitonSpec, lie: np.ndarray,
             phi, g: np.ndarray) -> np.ndarray:
    if spec.q == "bach_flow":
        return frame.bach.value + frame.lap_scalar.value / 12.0 * g
    if spec.q == "bach":
        return frame.bach.value
    if spec.q == "constructed":
        return lie - 2.0 * phi * g
    if spec.q == "zero":
        return np.zeros_like(g)
    return frame.scalar_jet(spec.custom_q, order=0).value


def _residual(frame: CurvatureFrame, spec: SolitonSpec, x_jets):
    """g, phi and R = (1/2) L_X g - (1/2) q - phi g at the frame's points
    (the point axis last)."""
    g = frame.g.value
    lie = frame.lie_metric(x_jets).value
    phi = _phi_value(frame, spec)
    q = _q_value(frame, spec, lie, phi, g)
    return g, phi, 0.5 * lie - 0.5 * q - phi * g


def _point_set(man: Chart, points, count: int) -> np.ndarray:
    if points is None:
        return charts.residual_sample_points(man, count)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:  # a sup over no points is 0.0, a pass
        raise SolitonError("a residual needs at least one point")
    return points


def metric_norm(g: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """sqrt(T^i_j T^j_i) for symmetric 2-tensors in coordinate components,
    one (n, n) pair or stacks (..., n, n) of them."""
    mixed = np.linalg.solve(g, tensor)
    return np.sqrt(np.abs(np.trace(mixed @ mixed, axis1=-2, axis2=-1)))


def _per_point(t: np.ndarray) -> np.ndarray:
    """Values with the point axis first, one contiguous entry each."""
    return np.ascontiguousarray(np.moveaxis(t, -1, 0))


def _residual_norms(frame: CurvatureFrame, spec: SolitonSpec, x_jets
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The residuals and their metric norms at the frame's points, the
    point axis last."""
    g, _, r = _residual(frame, spec, x_jets)
    return r, metric_norm(_per_point(g), _per_point(r))


def extended_q_residual(spec: SolitonSpec,
                        points: np.ndarray | None = None, count: int = 200,
                        tol: float = _TOLS["soliton"],
                        label: str = "extended-q") -> ResidualReport:
    """Evaluate R = (1/2) L_X g - (1/2) q - phi g over a sample set of
    ``spec.manifold``."""
    man = spec.manifold
    points = _point_set(man, points, count)
    residuals, norms = on_points(man, points, lambda frame: _residual_norms(
        frame, spec, _field_jets(frame, spec)))
    return ResidualReport(label=label, points=points,
                          residuals=_per_point(residuals), norms=norms,
                          tol=tol)


def bach_soliton_residual(man: Chart, lam: float,
                          potential: str | None = None,
                          x_exprs: Sequence[str] | None = None,
                          points: np.ndarray | None = None, count: int = 200,
                          tol: float = _TOLS["soliton"],
                          label: str = "bach-soliton") -> ResidualReport:
    """Residual of (1/2) L_X g = (1/2)(B + (1/12) Lap(S) g) + lambda g."""
    if man.dim != 4:
        raise SolitonError("the obstruction-flow soliton needs n = 4")
    spec = SolitonSpec(
        manifold=man, potential=potential,
        x_exprs=None if x_exprs is None else tuple(x_exprs),
        lam=float(lam), q="bach_flow")
    return extended_q_residual(spec, points=points, count=count, tol=tol,
                               label=label)


# ----------------------------------------------------------------------
# line x N^3 quadratic profiles
# ----------------------------------------------------------------------
def _line_cross_structure(man: Chart) -> tuple[Chart, Chart]:
    if len(man.factors) != 2 or man.factors[0].dim != 1 \
            or man.factors[1].dim != 3:
        raise SolitonError("need a line x N^3 product manifold")
    if man.factors[0].compact:
        raise SolitonError("the 1-dimensional factor must be a line, "
                           "not a circle")
    return man.factors[0], man.factors[1]


def quadratic_profile_check(man: Chart, lam: float, a: float = 0.0,
                            b: float = 0.0, count: int = 24,
                            tol: float = _TOLS["soliton"],
                            constancy_tol: float = _TOLS["factor_constancy"]
                            ) -> dict:
    """Check the quadratic gradient profile f = 2*lam*t^2 + a*t + b.

    On line x N^3 with N of constant scalar curvature and constant Ricci
    norm, a gradient product soliton forces f1'' = 4 lambda with
    lambda = -(1/24)(|Ric|^2 - S^2/3), and tracing the soliton equation
    gives div X = (1/6) Lap(S) + 4 lambda.  All three are verified, plus
    the full residual of the flow equation, at every sample point and
    from the same frames; the lambda formula at each point of N's
    constancy spread, whose pass gives it.  ``lambda_formula`` is its
    mean there.
    """
    line_chart, n_chart = _line_cross_structure(man)
    spread, fc = products.constancy_spread(n_chart, count=max(8, count // 2))
    if sup(*spread.values()) > constancy_tol:
        raise SolitonError(
            f"N^3 invariants are non-constant: {spread} "
            f"(tolerance {constancy_tol})")
    # lambda at each of the spread's points: the formula is checked at all
    lam_formulas = products.line_product_lambda(fc)

    # float(): the repr of a NumPy scalar is no number in the potential
    lam, a, b = float(lam), float(a), float(b)
    t = man.coords[0]
    f_text = f"2*({lam!r})*{t}^2 + ({a!r})*{t} + ({b!r})"
    spec = SolitonSpec(manifold=man, potential=f_text, lam=lam)
    pts = charts.residual_sample_points(man, count)

    def deviations(frame):
        f_jet = frame.scalar_jet(f_text)
        x_jets = frame.gradient_vector(f_jet)
        div_x = frame.divergence_vector(x_jets).value
        lap_s = frame.lap_scalar.value
        # d^2 f / dt^2 from the jet itself
        f2 = f_jet.partial((2,) + (0,) * (man.dim - 1))
        return (*_residual_norms(frame, spec, x_jets),
                np.abs(div_x - lap_s / 6.0 - 4.0 * lam),
                np.abs(f2 - 4.0 * lam))

    residuals, norms, traced, profile = on_points(man, pts, deviations)
    traced_dev, profile_dev = sup(traced), sup(profile)
    report = ResidualReport(label=f"profile[{man.name}]", points=pts,
                            residuals=_per_point(residuals), norms=norms,
                            tol=tol)
    lam_dev = sup(np.abs(lam - lam_formulas))
    return {
        "manifold": man.name,
        "lambda": lam,
        "lambda_formula": float(np.mean(lam_formulas)),
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
# Roots closer than this are one root found twice (Brent's method refines
# each bracket to a few ulp).  It only merges duplicates; no verdict
# depends on it, so it is not a gate.
_ROOT_MERGE = 1e-8


def _berger_curvature(a: float) -> products.FactorCurvature:
    """The squashed sphere's curvature in the orthonormal Milnor frame of
    `charts.berger_sphere`, whose brackets are [e_2, e_3] = 2a e_1 and
    [e_3, e_1] = (2/a) e_2, [e_1, e_2] = (2/a) e_3."""
    return homogeneous.factor_curvature(
        homogeneous.structure_constants((2.0 * a, 2.0 / a, 2.0 / a)))


def berger_condition_scalar(a: float) -> float:
    """Signed scalar of the product-soliton obstruction on a squashed S^3.

    The obstruction tensor on the homogeneous family diag(a^2, 1, 1) is
    constant in the orthonormal Milnor frame, where it is diagonal and
    trace-free with eigenvalue pattern (r, -r/2, -r/2); its signed
    largest-magnitude eigenvalue is therefore a faithful scalar reduction
    whose roots are the roots of the full tensor equation.  It comes from
    the frame's structure constants alone (`homogeneous`), with no chart
    point and no jets.
    """
    eigs = np.linalg.eigvalsh(
        products.line_soliton_obstruction(_berger_curvature(a)))
    return float(eigs[int(np.argmax(np.abs(eigs)))])


def solve_berger_soliton(interval: tuple[float, float] = (0.1, 3.0),
                         scan: int = 120,
                         round_exclusion: float = _TOLS[
                             "berger_round_exclusion"],
                         residual_tol: float = _TOLS["berger_residual"],
                         constancy_tol: float = _TOLS["factor_constancy"]
                         ) -> dict:
    """Root-find the squashed-sphere parameter of the line-product soliton.

    Scans ``berger_condition_scalar`` over the interval for sign changes
    and refines each bracket with Brent's method (`roots.brent`).  A
    bracket needs finite values of opposite sign, so a NaN never brackets;
    a NaN met inside a bracket raises `roots.RootError`.  The round value
    a = 1 is always a root and is excluded from the reported ``a_star``;
    an interval with no non-round bracket yields outcome ``"no bracket"``
    (reported, not raised).  At a root, the full four-dimensional flow
    residual is evaluated through ``quadratic_profile_check``.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 < lo < hi):
        raise SolitonError("need 0 < lo < hi for the parameter interval")
    known: dict[float, float] = {}

    def condition(x: float) -> float:
        # one evaluation per distinct a: Brent's method starts from the
        # scan's bracket ends and returns a point it has evaluated.  The
        # condition is looked up in the module on every call, so a wrapped
        # one sees every evaluation.
        x = float(x)
        if x not in known:
            known[x] = berger_condition_scalar(x)
        return known[x]

    grid = np.linspace(lo, hi, int(scan) + 1)
    vals = np.array([condition(x) for x in grid])
    found = [float(x) for x, v in zip(grid, vals) if v == 0.0]
    for k in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        found.append(roots.brent(condition, grid[k], grid[k + 1]))
    uniq: list[float] = []
    for r in sorted(found):
        if not uniq or abs(r - uniq[-1]) > _ROOT_MERGE:
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
    fc = _berger_curvature(a_star)
    lam_star = products.line_product_lambda(fc)
    man = charts.product([charts.line(4.0), charts.berger_sphere(a_star)],
                         name=f"line_x_berger[{a_star:.12g}]")
    profile = quadratic_profile_check(man, lam_star, count=8,
                                      tol=residual_tol,
                                      constancy_tol=constancy_tol)
    out.update({
        "outcome": "root",
        "a_star": a_star,
        "lambda_star": float(lam_star),
        "scalar_at_root": condition(a_star),
        "factor_scalar_curvature": float(fc.scalar),
        "profile_check": profile,
        "residual_sup": profile["residual"].sup,
        "passed": bool(profile["passed"]),
    })
    return out


# ----------------------------------------------------------------------
# surface x surface conformal correction field
# ----------------------------------------------------------------------
def _two_surface_slices(man: Chart) -> tuple[slice, slice]:
    if len(man.factors) != 2 or any(f.dim != 2 for f in man.factors):
        raise SolitonError("need a product of two surfaces")
    return man.factor_slice(0), man.factor_slice(1)


def _block_scalar_jet(frame: CurvatureFrame, sl: slice):
    """Factor scalar curvature as a jet, from the ambient block trace."""
    return contract("ij,ij->", frame.ginv[sl, sl], frame.ricci[sl, sl])


def surface_conformal_field(man: Chart, spec: SolitonSpec,
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
    if spec.manifold != man:
        raise SolitonError(f"the spec is on {spec.manifold.name!r}, not on "
                           f"{man.name!r}")
    sl_k, sl_l = _two_surface_slices(man)
    if spec.q != "bach_flow":
        raise SolitonError(
            f"the conformal field needs the obstruction flow (q = "
            f"'bach_flow'), got q = {spec.q!r}")
    points = _point_set(man, points, count)

    def field(frame):
        x_jets = _field_jets(frame, spec)
        g, phi, e_tensor = _residual(frame, spec, x_jets)
        s_blocks = [_block_scalar_jet(frame, sl) for sl in (sl_k, sl_l)]
        grad_sum = (frame.gradient_vector(s_blocks[0])
                    + frame.gradient_vector(s_blocks[1]))
        c_jets = x_jets.truncated(grad_sum.order) + coefficient * grad_sum
        half_lie = 0.5 * frame.lie_metric(c_jets).value
        s_vals = np.array([s.value for s in s_blocks])
        s2 = s_vals * s_vals
        lap_s = np.array([frame.laplacian(s).value for s in s_blocks])
        # the largest entry of each sup's array at each point (a NaN stays);
        # E first, as the model below may be a view of it
        worst = [np.abs(e_tensor).max(axis=(0, 1))]
        gs, lies, model = (_per_point(t) for t in (g, half_lie, e_tensor))
        ds = (s2 - s2[::-1]) / 48.0  # (S_K^2 - S_L^2) / 48, then mirrored
        formula = phi + lap_s / 8.0 + ds
        fit, tracefree = [], []
        for which, sl in enumerate((sl_k, sl_l)):
            gb, block = gs[:, sl, sl], lies[:, sl, sl]
            fit.append(np.einsum("kij,kij->k", np.linalg.inv(gb), block)
                       / 2.0)
            tracefree.append(np.abs(block - fit[-1][:, None, None] * gb))
            model[:, sl, sl] += formula[which][:, None, None] * gb
        worst += [np.abs(lies[:, sl_k, sl_l]).max(axis=(1, 2)),
                  np.maximum(*tracefree).max(axis=(1, 2)),
                  np.abs(lies - model).max(axis=(1, 2))]
        return (c_jets.value, np.array(fit), formula, -lap_s / 8.0 - ds,
                np.array(worst))

    c_vals, rho_fit, rho_formula, phi_perp, worst = on_points(man, points,
                                                               field)
    e_sup, off_sup, tracefree_sup, identity_sup = map(sup, worst)
    return {
        "points": points,
        "c_field": _per_point(c_vals),
        "coefficient": float(coefficient),
        "rho_fit": _per_point(rho_fit),
        "rho_formula": _per_point(rho_formula),
        "phi_if_c_perp": _per_point(phi_perp),
        "extended_residual_sup": e_sup,
        "offblock_sup": off_sup,
        "tracefree_sup": tracefree_sup,
        "identity_sup": identity_sup,
    }


# ----------------------------------------------------------------------
# mixed-Hessian splitting spot-check
# ----------------------------------------------------------------------
def splitting_spotcheck(man: Chart, split_f: str,
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
    # mixed[i, j]: coordinate i lies in an earlier factor than coordinate j
    factor = np.repeat(np.arange(len(man.factors)),
                       [f.dim for f in man.factors])
    mixed = factor[:, None] < factor[None, :]
    texts = [split_f] + ([] if control_f is None else [control_f])
    blocks = on_points(man, points, lambda frame: np.array(
        [np.abs(frame.hessian(frame.scalar_jet(text)).value[mixed])
         for text in texts]))
    worst = [sup(b) for b in blocks]
    return {"split_mixed_sup": worst[0],
            "control_mixed_sup": None if control_f is None else worst[1]}


# ----------------------------------------------------------------------
# named examples
# ----------------------------------------------------------------------
def _gated(gate: str, **example) -> dict:
    """The example with its tolerance key ``gate`` and that key's ``tol``."""
    return {**example, "gate": gate, "tol": tolerances.DEFAULTS[gate]}


def _example_ho(kind: str, literal: bool) -> dict:
    # flat-factor gradient solitons on R^2 x S^2(1) and R^2 x H^2(-1);
    # the "literal" variants carry the opposite-normalization constants
    # and are kept to document that they fail under this engine's
    # conventions.  lambda is also the scale of the potential.
    lam = 1.0 / 6.0 if literal else -1.0 / 12.0
    return _gated("soliton_gradient_product",
                  manifold=charts.get_example(kind),
                  potential=f"({lam!r})*(x^2 + y^2)", lam=lam,
                  note=("opposite-normalization constants; expected to fail"
                        if literal else "flat-factor gradient soliton"))


def _example_s4() -> dict:
    # tolerance 1e-7: the compact-chart grid includes near-pole nodes
    # where the degenerating angular metric amplifies rounding in the
    # metric sup norm
    return _gated("soliton", manifold=charts.get_example("round_sphere_4"),
                  x_exprs=("0", "0", "0", "0"), lam=0.0,
                  note="Einstein, obstruction-flat, X = 0")


BERGER_SOLITON_A = 0.5          # frozen output of solve_berger_soliton
BERGER_SOLITON_LAMBDA = -0.25   # = -(1/24)(|Ric|^2 - S^2/3) at a = 1/2


def _example_berger_line() -> dict:
    man = charts.product(
        [charts.line(4.0), charts.berger_sphere(BERGER_SOLITON_A)],
        name="line_x_berger_soliton")
    t = man.coords[0]
    return _gated("soliton", manifold=man,
                  potential=f"2*({BERGER_SOLITON_LAMBDA!r})*{t}^2",
                  lam=BERGER_SOLITON_LAMBDA,
                  note="squashed-sphere line product at the solved parameter")


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
