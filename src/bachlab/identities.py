"""Pointwise and integral identities for vector fields and flow tensors.

Each function evaluates both sides of one identity with the jet pipeline
over its sample points or quadrature nodes, in bounded frames through
`curvature.on_points` (values carry a trailing point axis), and reports
residuals; the integral identities integrate over the chart's quadrature
rule and report per-term magnitudes so imbalances can be judged against
the largest term.  Integral identities are exercised on constructed flow
data q := L_X g - 2 phi g, for which the generalized soliton relation
holds by definition; this gives a sound test family without solving any
flow equation.  Conformality of a field is operationalized as the sup norm
of the trace-free part of L_X g staying below a gate tolerance.

Every identity reads each of its gates from ``tols``, a resolved
tolerance table (``tolerances.DEFAULTS`` unless given), and decides its
own verdict: the report carries ``passed``.  A violated hypothesis (a
field that is not conformal, a flow tensor off the divergence condition,
a non-constant rigidity invariant) raises `IdentityError` instead.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import charts, tolerances
from .charts import Chart
from .curvature import BASE_ORDER, CurvatureFrame, on_points
from .jets import contract
from .report import sup

__all__ = [
    "IdentityError",
    "lie_pairing_identity", "soliton_integral_identities",
    "lie_divergence_identity", "yano_identity",
    "bourguignon_ezin_integral", "soliton_conformality_integral",
    "bochner_identity", "surface_scalar_rigidity",
    "IDENTITY_IDS", "case_value", "run_identity_case",
]

class IdentityError(ValueError):
    """Violated hypothesis or malformed identity case."""


def conformality_gap(frame: CurvatureFrame, x_jets) -> np.ndarray:
    """|trace-free part of L_X g| at the frame's points; its sup is the
    field's conformality gap."""
    return np.abs(frame.trace_free(frame.lie_metric(x_jets)).value)


def _check_conformal(gap: float, tols: Mapping) -> None:
    gate = tols["conformal_gate"]
    if gap > gate:
        raise IdentityError(
            f"field is not conformal: trace-free Lie sup {gap:.3e} "
            f"exceeds the gate {gate:.1e}")


def _constructed_flow(frame: CurvatureFrame, x_exprs: Sequence[str],
                      phi_expr: str):
    """X, L_X g, phi and q = L_X g - 2 phi g on an order-3 frame."""
    x = frame.vector_jets(x_exprs, order=3)
    lie = frame.lie_metric(x)
    phi = frame.scalar_jet(phi_expr, order=lie.order)
    q = lie - 2.0 * phi * frame.g.truncated(lie.order)
    return x, lie, phi, q


# ----------------------------------------------------------------------
# pointwise identities
# ----------------------------------------------------------------------
def _pointwise(man: Chart, count: int, residual, tols: Mapping,
               order: int = BASE_ORDER) -> dict:
    """``residual(frame)`` over ``count`` sample points, its sup, and
    whether the sup is within the identity gate."""
    points = charts.residual_sample_points(man, count)
    res = on_points(man, points, residual, order)
    worst = sup(res)
    return {"points": points, "residuals": res, "sup": worst,
            "passed": worst <= tols["identity"]}


def lie_pairing_identity(man: Chart, x_exprs: Sequence[str],
                         t_exprs: Sequence[Sequence[str]], count: int = 50,
                         tols: Mapping = tolerances.DEFAULTS) -> dict:
    """<L_X g, T> = 2 div(i_X T) - 2 (div T)(X) for any X and symmetric T."""
    n = man.dim
    if len(t_exprs) != n or any(len(row) != n for row in t_exprs):
        raise IdentityError(f"T must be {n} x {n}")

    def residual(frame):
        x = frame.vector_jets(x_exprs)
        t = frame.scalar_jet(t_exprs)
        lhs = frame.inner_sym2(frame.lie_metric(x), t).value
        alpha = contract("ij,j->i", t, x)
        div_t = frame.divergence_sym2(t)
        rhs = 2.0 * frame.trace(frame.cov_deriv(alpha)).value \
            - 2.0 * contract("j,j->", div_t, x).value
        return np.abs(lhs - rhs)

    return _pointwise(man, count, residual, tols)


def lie_divergence_identity(man: Chart, x_exprs: Sequence[str],
                            phi_expr: str = "0", count: int = 50,
                            tols: Mapping = tolerances.DEFAULTS) -> dict:
    """div(L_X g) = div of the trace-free constructed q plus (2/n) d(div X)."""
    n = man.dim

    def residual(frame):
        x, lie, _, q = _constructed_flow(frame, x_exprs, phi_expr)
        lhs = frame.divergence_sym2(lie).value
        d_div = frame.divergence_vector(x).grad().value
        rhs = frame.divergence_sym2(frame.trace_free(q)).value \
            + (2.0 / n) * d_div
        return np.abs(lhs - rhs).max(axis=0)

    return _pointwise(man, count, residual, tols, order=3)


def yano_identity(man: Chart, x_exprs: Sequence[str], count: int = 50,
                  tols: Mapping = tolerances.DEFAULTS) -> dict:
    """L_X S = -2 sigma S - 2(n-1) Lap(sigma), sigma = div(X)/n, X conformal."""
    points = charts.residual_sample_points(man, count)
    n = man.dim

    def residual(frame):
        x = frame.vector_jets(x_exprs)
        sigma = frame.divergence_vector(x) * (1.0 / n)
        lhs = contract("j,j->", frame.grad_scalar_lo, x).value
        rhs = -2.0 * sigma.value * frame.scalar.value \
            - 2.0 * (n - 1) * frame.laplacian(sigma).value
        return np.abs(lhs - rhs), conformality_gap(frame, x)

    res, tf_lie = on_points(man, points, residual)
    gap, worst = sup(tf_lie), sup(res)
    _check_conformal(gap, tols)
    return {"points": points, "residuals": res, "sup": worst,
            "conformality_gap": gap, "passed": worst <= tols["identity"]}


def bochner_identity(man: Chart, h_expr: str, count: int = 50,
                     tols: Mapping = tolerances.DEFAULTS) -> dict:
    """div(Hess h) = Ric(grad h) + d(Lap h) as 1-forms."""

    def residual(frame):
        h = frame.scalar_jet(h_expr)
        lhs = frame.divergence_sym2(frame.hessian(h)).value
        ric_grad = contract("i,ij->j", frame.gradient_vector(h),
                            frame.ricci).value
        d_lap = frame.laplacian(h).grad().value
        return np.abs(lhs - ric_grad - d_lap).max(axis=0)

    return _pointwise(man, count, residual, tols)


# ----------------------------------------------------------------------
# integral identities
# ----------------------------------------------------------------------
def _compact_quadrature(man: Chart, resolution):
    if not man.compact:
        raise IdentityError(
            f"integral identities need a compact chart; {man.name!r} "
            "is an open patch")
    return charts.quadrature(man, resolution)


def soliton_integral_identities(man: Chart, x_exprs: Sequence[str],
                                phi_expr: str = "0", resolution=None,
                                tols: Mapping = tolerances.DEFAULTS) -> dict:
    """Both integral identities for constructed flow data q = L_X g - 2 phi g.

    First:  integral of (phi tr q + (tr q)^2/(2n) + (div q)(X))
            equals -(1/2) integral of ||tracefree q||^2.
    Second: integral of (div tracefree q)(X)
            equals -(1/2) integral of ||tracefree L_X g||^2.
    """
    quad = _compact_quadrature(man, resolution)
    n = man.dim

    def columns(frame):
        x, lie, phi, q = _constructed_flow(frame, x_exprs, phi_expr)
        tr_q = frame.trace(q).value
        q_bar = frame.trace_free(q)
        return (
            phi.value * tr_q,
            tr_q ** 2 / (2.0 * n),
            contract("j,j->", frame.divergence_sym2(q), x).value,
            -0.5 * frame.norm2_sym2(q_bar).value,
            contract("j,j->", frame.divergence_sym2(q_bar), x).value,
            -0.5 * frame.norm2_sym2(frame.trace_free(lie)).value,
        )

    t_phi, t_tr, t_div, rhs1, lhs2, rhs2 = charts.integrate_columns(
        man, on_points(man, quad.nodes, columns, order=3), quad=quad)
    lhs1 = t_phi + t_tr + t_div
    scale1 = max(abs(t_phi), abs(t_tr), abs(t_div), abs(rhs1))
    scale2 = max(abs(lhs2), abs(rhs2))
    imb1, imb2, tol = abs(lhs1 - rhs1), abs(lhs2 - rhs2), tols["identity"]
    return {
        "terms": {"phi_trace": t_phi, "trace_sq": t_tr, "div_pair": t_div},
        "lhs1": lhs1, "rhs1": rhs1, "imbalance1": imb1, "scale1": scale1,
        "lhs2": lhs2, "rhs2": rhs2, "imbalance2": imb2, "scale2": scale2,
        "nodes": len(quad.nodes),
        "passed": imb1 <= tol * max(scale1, 1.0)
        and imb2 <= tol * max(scale2, 1.0),
    }


def bourguignon_ezin_integral(man: Chart, x_exprs: Sequence[str],
                              q_mode: str = "ricci", resolution=None,
                              tols: Mapping = tolerances.DEFAULTS) -> dict:
    """Integral of L_X tr(q) vanishes for conformal X when div q = (1/2) d tr q.

    ``q_mode`` selects the flow tensor: ``"ricci"`` (the divergence
    condition is the contracted second Bianchi identity) or
    ``"scalar_metric"`` (q = S g, which satisfies it in dimension 2 only).
    """
    if q_mode not in ("ricci", "scalar_metric"):
        raise IdentityError(f"unknown q_mode {q_mode!r}")
    if q_mode == "scalar_metric" and man.dim != 2:
        raise IdentityError("q = S g satisfies the divergence condition "
                            "in dimension 2 only")
    quad = _compact_quadrature(man, resolution)

    def columns(frame):
        x = frame.vector_jets(x_exprs)
        q = (frame.ricci if q_mode == "ricci"
             else frame.scalar * frame.g.truncated(frame.scalar.order))
        tr_q = frame.trace(q)
        d_tr = tr_q.grad()
        return (conformality_gap(frame, x),
                np.abs(frame.divergence_sym2(q).value - 0.5 * d_tr.value),
                contract("j,j->", d_tr, x).value,
                np.abs(tr_q.value))

    tf_lie, div_res, vals, abs_tr = on_points(man, quad.nodes, columns)
    gap, bianchi = sup(tf_lie), sup(div_res)
    _check_conformal(gap, tols)
    if bianchi > tols["bianchi"]:
        raise IdentityError(
            f"q does not satisfy div q = (1/2) d tr q: residual {bianchi:.3e}")
    integral, scale = charts.integrate_columns(man, (vals, abs_tr),
                                               quad=quad)
    return {"integral": integral, "scale": scale,
            "conformality_gap": gap, "bianchi_residual": bianchi,
            "nodes": len(quad.nodes),
            "passed": abs(integral) <= tols["identity"] * max(scale, 1.0)}


def soliton_conformality_integral(man: Chart, x_exprs: Sequence[str],
                                  phi_expr: str = "0", resolution=None,
                                  tols: Mapping = tolerances.DEFAULTS) -> dict:
    """Integral of ||tracefree q||^2 + ((n-2)/n) L_X tr q for constructed q.

    When the integral vanishes the field must be conformal; the report
    carries the conformality sup so the conclusion can be asserted.  The
    divergence-condition residual of the constructed q is reported (it is
    a hypothesis of the vanishing statement, not automatic).
    """
    quad = _compact_quadrature(man, resolution)
    n = man.dim

    def columns(frame):
        x, lie, _, q = _constructed_flow(frame, x_exprs, phi_expr)
        d_tr = frame.trace(q).grad()
        return (frame.norm2_sym2(frame.trace_free(q)).value,
                contract("j,j->", d_tr, x).value,
                np.abs(frame.divergence_sym2(q).value - 0.5 * d_tr.value),
                np.abs(frame.trace_free(lie).value))

    qbar, lie_tr, div_res, tf_lie = on_points(man, quad.nodes, columns,
                                              order=3)
    qbar_int, lie_tr_int = charts.integrate_columns(
        man, (qbar, lie_tr), quad=quad)
    bianchi, conf = sup(div_res), sup(tf_lie)
    total = qbar_int + (n - 2.0) / n * lie_tr_int
    scale = max(qbar_int, abs((n - 2.0) / n * lie_tr_int), 1.0)
    vanishes = abs(total) <= tols["identity"] * scale
    if vanishes and conf > tols["conformal_gate"]:
        raise IdentityError(
            f"integral vanishes but the field is not conformal "
            f"(trace-free Lie sup {conf:.3e}); inconsistent data")
    verdict = "conformal" if vanishes else "nonzero"
    return {"integral": total, "qbar_integral": qbar_int,
            "lie_trace_integral": lie_tr_int, "scale": scale,
            "bianchi_residual": bianchi, "conformality_sup": conf,
            "verdict": verdict, "nodes": len(quad.nodes),
            "passed": vanishes}


# ----------------------------------------------------------------------
# compact-surface scalar rigidity
# ----------------------------------------------------------------------
def surface_scalar_rigidity(man: Chart, resolution=None,
                            tols: Mapping = tolerances.DEFAULTS) -> dict:
    """Rigidity machinery on a compact surface with Lap(S) + S^2/3 constant.

    Checks, in order: the hypothesis (the invariant c = Lap(S) + S^2/3 is
    constant over the chart within ``rigidity_c_spread``; violated
    hypothesis raises); the pointwise consequence grad(S^2) = -3 grad(Lap S)
    (the latter exact, from order-5 frames over the interior points)
    within ``rigidity_grad``; the integral identity  int ||Hess S||^2 =
    (1/4) int (Lap S)^2  within ``identity``; the pointwise bound
    ||Hess S||^2 >= (Lap S)^2 / 2, to ``rigidity_slack`` below zero; and
    the conclusion that S is constant within ``identity``.
    """
    if man.dim != 2:
        raise IdentityError("scalar rigidity applies to surfaces")
    quad = _compact_quadrature(man, resolution)

    def pointwise(frame):
        s = frame.scalar.value
        grad_s2 = 2.0 * s * frame.grad_scalar_lo.value
        return (s, frame.lap_scalar.value,
                frame.norm2_sym2(frame.hess_scalar).value,
                np.abs(grad_s2 + 3.0 * frame.lap_scalar.grad().value))

    # pointwise checks run on interior sample points: quadrature nodes next
    # to chart degeneracies (sphere poles) amplify harmless rounding in
    # Lap(S) through the inverse metric and would mask the real question
    s, lap, hess2, grad_abs = on_points(
        man, charts.sample_points(man, 24), pointwise, BASE_ORDER + 1)
    grad_res = sup(grad_abs)
    cs_slack = float(np.min(hess2 - lap * lap / 2.0))  # NaN fails below
    c_spread = float(np.ptp(lap + s * s / 3.0))
    c_tol, tol = tols["rigidity_c_spread"], tols["identity"]
    if not c_spread <= c_tol:  # a NaN spread violates it too
        raise IdentityError(
            f"hypothesis violated: c = Lap(S) + S^2/3 has spread "
            f"{c_spread:.3e} over the chart (tolerance {c_tol:.1e})")
    hess2_int, lap2_int = charts.integrate_columns(man, on_points(
        man, quad.nodes, lambda fr: (fr.norm2_sym2(fr.hess_scalar).value,
                                       fr.lap_scalar.value ** 2)), quad=quad)
    int_scale = max(hess2_int, lap2_int / 4.0, 1.0)
    s_spread = float(np.ptp(s))
    lap_sup = float(np.abs(lap).max())
    passed = bool(grad_res <= tols["rigidity_grad"]
                  and abs(hess2_int - lap2_int / 4.0) <= tol * int_scale
                  and cs_slack >= -tols["rigidity_slack"]
                  and s_spread <= tol and lap_sup <= tol)
    return {
        "c_spread": c_spread,
        "grad_identity_sup": grad_res,
        "hess_sq_integral": hess2_int,
        "quarter_lap_sq_integral": lap2_int / 4.0,
        "cauchy_schwarz_slack": cs_slack,
        "scalar_spread": s_spread,
        "lap_scalar_sup": lap_sup,
        "scalar_constant": bool(s_spread <= tol),
        "passed": passed,
    }


# ----------------------------------------------------------------------
# CLI case plumbing
# ----------------------------------------------------------------------
class _Identity(NamedTuple):
    run: Callable[..., dict]  # reads its gates from ``tols``
    default: dict  # the default case
    fields: tuple  # the case fields ``run`` reads besides "manifold"


# case field -> keyword; count and resolution keep their names
_KEYWORDS = {"X": "x_exprs", "T": "t_exprs", "phi": "phi_expr",
             "h": "h_expr", "q": "q_mode"}

# conformal gradient field and a generic tensor on the round 2-sphere
_ROUND_CONFORMAL_X = ("-sin(th)", "0")
_GENERIC_T = (("1 + 0.3*cos(th)", "0.2*sin(th)*sin(ph)"),
              ("0.2*sin(th)*sin(ph)", "2 - 0.4*cos(ph)*sin(th)"))

_IDENTITIES = {
    "lemma35": _Identity(lie_pairing_identity, {
        "manifold": "round_sphere_2", "X": ("0.4*sin(ph)*sin(th)", "0.7"),
        "T": _GENERIC_T}, ("X", "T", "count")),
    "thm32": _Identity(soliton_integral_identities, {
        "manifold": "round_sphere_2", "X": _ROUND_CONFORMAL_X,
        "phi": "0.3*cos(th)"}, ("X", "phi", "resolution")),
    "yano": _Identity(yano_identity, {
        "manifold": "conformal_sphere_bump", "X": _ROUND_CONFORMAL_X},
        ("X", "count")),
    "be": _Identity(bourguignon_ezin_integral, {
        "manifold": "conformal_sphere_bump", "X": _ROUND_CONFORMAL_X,
        "q": "ricci"}, ("X", "q", "resolution")),
    "thm38": _Identity(soliton_conformality_integral, {
        "manifold": "round_sphere_2", "X": _ROUND_CONFORMAL_X,
        "phi": "0.1*cos(th)"}, ("X", "phi", "resolution")),
    "bochner": _Identity(bochner_identity, {
        "manifold": "conformal_sphere_bump",
        "h": "0.5*cos(th) + 0.2*sin(th)*cos(ph)"}, ("h", "count")),
    "lemma48": _Identity(surface_scalar_rigidity, {
        "manifold": "round_sphere_2"}, ("resolution",)),
}

IDENTITY_IDS = tuple(_IDENTITIES)


def case_value(rep: Mapping) -> dict:
    """The entries of a case report that a check record shows as value."""
    return {k: rep[k] for k in ("sup", "imbalance1", "imbalance2",
                                "integral", "scalar_spread") if k in rep}


def run_identity_case(identity_id: str, doc: Mapping | None = None,
                      tol: float | None = None,
                      gates: Mapping[str, float] = tolerances.DEFAULTS
                      ) -> dict:
    """Run one identity check from a JSON-style case document.

    The document overrides fields of the identity's default case.  Each
    identity reads ``manifold`` (a name or a document) and its own fields
    and rejects any other: lemma35 ``X``, ``T``, ``count``; thm32 and thm38
    ``X``, ``phi``, ``resolution``; yano ``X``, ``count``; be ``X``, ``q``,
    ``resolution``; bochner ``h``, ``count``; lemma48 ``resolution``.
    The identity runs on ``gates``, a resolved tolerance table (``tol``,
    if given, replaces its ``identity`` gate), and decides ``"passed"``.
    Returns the identity's report with ``"identity"`` added.
    """
    if identity_id not in _IDENTITIES:
        raise IdentityError(
            f"unknown identity id {identity_id!r}; known: "
            f"{', '.join(sorted(IDENTITY_IDS))}")
    case = _IDENTITIES[identity_id]
    fields = ("manifold",) + case.fields
    charts.read_document({} if doc is None else doc, fields, "a case",
                         IdentityError, identity_id)
    merged = {**case.default, **(doc or {})}
    if not charts.is_count(merged.get("count", 1)):
        raise IdentityError(f"count needs a whole number, at least one "
                            f"point; got {merged['count']!r}")
    man = charts.resolve_manifold(merged["manifold"], "manifold")
    merged.update(charts.read_expressions(merged, man, IdentityError))
    kwargs = {_KEYWORDS.get(f, f): merged[f]
              for f in case.fields if f in merged}
    if tol is not None:
        gates = {**gates, "identity": tol}
    out = case.run(man, tols=gates, **kwargs)
    out["identity"] = identity_id
    out.pop("points", None)
    out.pop("residuals", None)
    return out
