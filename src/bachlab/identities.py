"""Pointwise and integral identities for vector fields and flow tensors.

Each function evaluates both sides of one identity with the jet pipeline,
on one `CurvatureFrame` over its whole set of sample points or quadrature
nodes (values carry a trailing point axis), and reports residuals; the
integral identities integrate over the chart's quadrature rule and report
per-term magnitudes so imbalances can be judged against the largest term.  Integral identities are exercised on constructed
flow data q := L_X g - 2 phi g, for which the generalized soliton relation
holds by definition; this gives a sound test family without solving any
flow equation.  Conformality of a field is operationalized as the sup norm
of the trace-free part of L_X g staying below a gate tolerance.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import charts, tolerances
from .charts import Manifold
from .curvature import BASE_ORDER, CurvatureFrame, frame_at, values
from .jets import contract
from .report import sup

__all__ = [
    "IdentityError", "CONFORMAL_GATE",
    "lie_pairing_identity", "soliton_integral_identities",
    "lie_divergence_identity", "yano_identity",
    "bourguignon_ezin_integral", "soliton_conformality_integral",
    "bochner_identity", "surface_scalar_rigidity",
    "IDENTITY_IDS", "case_value", "run_identity_case",
]

_TOLS = tolerances.DEFAULTS
CONFORMAL_GATE = _TOLS["conformal_gate"]


class IdentityError(ValueError):
    """Violated hypothesis or malformed identity case."""


def conformality_gap(frame: CurvatureFrame, x_jets) -> float:
    """Sup norm of the trace-free part of L_X g over the frame's points."""
    lie = frame.lie_metric(x_jets)
    return sup(np.abs(values(frame.trace_free(lie))))


def _check_conformal(gap: float, gate: float) -> None:
    if gap > gate:
        raise IdentityError(
            f"field is not conformal: trace-free Lie sup {gap:.3e} "
            f"exceeds the gate {gate:.1e}")


def _constructed_flow(man: Manifold, points, x_exprs: Sequence[str],
                      phi_expr: str):
    """The order-3 frame at the points, X, L_X g, phi, q = L_X g - 2 phi g."""
    frame = CurvatureFrame(man.chart, points, order=3)
    x = frame.vector_jets(x_exprs, order=3)
    lie = frame.lie_metric(x)
    phi = frame.scalar_jet(phi_expr, order=lie.order)
    q = lie - 2.0 * phi * frame.g_at(lie.order)
    return frame, x, lie, phi, q


# ----------------------------------------------------------------------
# pointwise identities
# ----------------------------------------------------------------------
def lie_pairing_identity(man: Manifold, x_exprs: Sequence[str],
                         t_exprs: Sequence[Sequence[str]],
                         count: int = 50) -> dict:
    """<L_X g, T> = 2 div(i_X T) - 2 (div T)(X) for any X and symmetric T."""
    points = charts.residual_sample_points(man, count)
    n = man.dim
    if len(t_exprs) != n or any(len(row) != n for row in t_exprs):
        raise IdentityError(f"T must be {n} x {n}")
    frame = frame_at(man, points)
    x = frame.vector_jets(x_exprs)
    t = frame.scalar_jet(t_exprs)
    lhs = values(frame.inner_sym2(frame.lie_metric(x), t))
    alpha = contract("ij,j->i", t, x)
    div_t = frame.divergence_sym2(t)
    rhs = 2.0 * values(frame.divergence_oneform(alpha)) \
        - 2.0 * values(frame.pair_oneform_vector(div_t, x))
    res = np.abs(lhs - rhs)
    return {"points": points, "residuals": res, "sup": sup(res)}


def lie_divergence_identity(man: Manifold, x_exprs: Sequence[str],
                            phi_expr: str = "0", count: int = 50) -> dict:
    """div(L_X g) = div of the trace-free constructed q plus (2/n) d(div X)."""
    points = charts.residual_sample_points(man, count)
    n = man.dim
    frame, x, lie, _, q = _constructed_flow(man, points, x_exprs, phi_expr)
    lhs = values(frame.divergence_sym2(lie))
    d_div = values(frame.divergence_vector(x).grad())
    rhs = values(frame.divergence_sym2(frame.trace_free(q))) \
        + (2.0 / n) * d_div
    res = np.abs(lhs - rhs).max(axis=0)
    return {"points": points, "residuals": res, "sup": sup(res)}


def yano_identity(man: Manifold, x_exprs: Sequence[str], count: int = 50,
                  gate: float = CONFORMAL_GATE) -> dict:
    """L_X S = -2 sigma S - 2(n-1) Lap(sigma), sigma = div(X)/n, X conformal."""
    points = charts.residual_sample_points(man, count)
    n = man.dim
    frame = frame_at(man, points)
    x = frame.vector_jets(x_exprs)
    gap = conformality_gap(frame, x)
    sigma = frame.divergence_vector(x) * (1.0 / n)
    lhs = values(frame.pair_oneform_vector(frame.grad_scalar_lo, x))
    rhs = -2.0 * values(sigma) * values(frame.scalar) \
        - 2.0 * (n - 1) * values(frame.laplacian(sigma))
    res = np.abs(lhs - rhs)
    _check_conformal(gap, gate)
    return {"points": points, "residuals": res, "sup": sup(res),
            "conformality_gap": gap}


def bochner_identity(man: Manifold, h_expr: str, count: int = 50) -> dict:
    """div(Hess h) = Ric(grad h) + d(Lap h) as 1-forms."""
    points = charts.residual_sample_points(man, count)
    frame = frame_at(man, points)
    h = frame.scalar_jet(h_expr)
    lhs = values(frame.divergence_sym2(frame.hessian(h)))
    ric_grad = values(frame.contract_vector_sym2(
        frame.gradient_vector(h), frame.ricci))
    d_lap = values(frame.laplacian(h).grad())
    res = np.abs(lhs - ric_grad - d_lap).max(axis=0)
    return {"points": points, "residuals": res, "sup": sup(res)}


# ----------------------------------------------------------------------
# integral identities
# ----------------------------------------------------------------------
def _compact_quadrature(man: Manifold, resolution):
    chart = man.chart
    if not chart.compact:
        raise IdentityError(
            f"integral identities need a compact chart; {chart.name!r} "
            "is an open patch")
    return charts.quadrature(chart, resolution)


def soliton_integral_identities(man: Manifold, x_exprs: Sequence[str],
                                phi_expr: str = "0",
                                resolution=None) -> dict:
    """Both integral identities for constructed flow data q = L_X g - 2 phi g.

    First:  integral of (phi tr q + (tr q)^2/(2n) + (div q)(X))
            equals -(1/2) integral of ||tracefree q||^2.
    Second: integral of (div tracefree q)(X)
            equals -(1/2) integral of ||tracefree L_X g||^2.
    """
    quad = _compact_quadrature(man, resolution)
    n = man.dim
    frame, x, lie, phi, q = _constructed_flow(man, quad.nodes, x_exprs,
                                              phi_expr)
    tr_q = values(frame.trace(q))
    q_bar = frame.trace_free(q)
    cols = (
        values(phi) * tr_q,
        tr_q ** 2 / (2.0 * n),
        values(frame.pair_oneform_vector(frame.divergence_sym2(q), x)),
        -0.5 * values(frame.norm2_sym2(q_bar)),
        values(frame.pair_oneform_vector(frame.divergence_sym2(q_bar), x)),
        -0.5 * values(frame.norm2_sym2(frame.trace_free(lie))),
    )
    t_phi, t_tr, t_div, rhs1, lhs2, rhs2 = (
        charts.integrate(man.chart, col, quad=quad) for col in cols)
    lhs1 = t_phi + t_tr + t_div
    scale1 = max(abs(t_phi), abs(t_tr), abs(t_div), abs(rhs1))
    scale2 = max(abs(lhs2), abs(rhs2))
    return {
        "terms": {"phi_trace": t_phi, "trace_sq": t_tr, "div_pair": t_div},
        "lhs1": lhs1, "rhs1": rhs1,
        "imbalance1": abs(lhs1 - rhs1), "scale1": scale1,
        "lhs2": lhs2, "rhs2": rhs2,
        "imbalance2": abs(lhs2 - rhs2), "scale2": scale2,
        "nodes": len(quad.nodes),
    }


def bourguignon_ezin_integral(man: Manifold, x_exprs: Sequence[str],
                              q_mode: str = "ricci", resolution=None,
                              gate: float = CONFORMAL_GATE,
                              bianchi_tol: float = _TOLS["bianchi"]
                              ) -> dict:
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
    frame = frame_at(man, quad.nodes)
    x = frame.vector_jets(x_exprs)
    gap = conformality_gap(frame, x)
    if q_mode == "ricci":
        q = frame.ricci
    else:
        q = frame.scalar * frame.g_at(frame.scalar.order)
    tr_q = frame.trace(q)
    d_tr = tr_q.grad()
    bianchi = sup(np.abs(values(frame.divergence_sym2(q))
                          - 0.5 * values(d_tr)))
    _check_conformal(gap, gate)
    if bianchi > bianchi_tol:
        raise IdentityError(
            f"q does not satisfy div q = (1/2) d tr q: residual {bianchi:.3e}")
    vals = values(frame.pair_oneform_vector(d_tr, x))
    integral = charts.integrate(man.chart, vals, quad=quad)
    scale = charts.integrate(man.chart, np.abs(values(tr_q)), quad=quad)
    return {"integral": integral, "scale": scale,
            "conformality_gap": gap, "bianchi_residual": bianchi,
            "nodes": len(quad.nodes)}


def soliton_conformality_integral(man: Manifold, x_exprs: Sequence[str],
                                  phi_expr: str = "0", resolution=None,
                                  tol: float = _TOLS["identity"],
                                  gate: float = CONFORMAL_GATE) -> dict:
    """Integral of ||tracefree q||^2 + ((n-2)/n) L_X tr q for constructed q.

    When the integral vanishes the field must be conformal; the report
    carries the conformality sup so the conclusion can be asserted.  The
    divergence-condition residual of the constructed q is reported (it is
    a hypothesis of the vanishing statement, not automatic).
    """
    quad = _compact_quadrature(man, resolution)
    n = man.dim
    frame, x, lie, _, q = _constructed_flow(man, quad.nodes, x_exprs,
                                            phi_expr)
    d_tr = frame.trace(q).grad()
    qbar_int = charts.integrate(
        man.chart, values(frame.norm2_sym2(frame.trace_free(q))), quad=quad)
    lie_tr_int = charts.integrate(
        man.chart, values(frame.pair_oneform_vector(d_tr, x)), quad=quad)
    bianchi = sup(np.abs(values(frame.divergence_sym2(q))
                          - 0.5 * values(d_tr)))
    conf = sup(np.abs(values(frame.trace_free(lie))))
    total = qbar_int + (n - 2.0) / n * lie_tr_int
    scale = max(qbar_int, abs((n - 2.0) / n * lie_tr_int), 1.0)
    vanishes = abs(total) <= tol * scale
    if vanishes and conf > gate:
        raise IdentityError(
            f"integral vanishes but the field is not conformal "
            f"(trace-free Lie sup {conf:.3e}); inconsistent data")
    verdict = "conformal" if vanishes else "nonzero"
    return {"integral": total, "qbar_integral": qbar_int,
            "lie_trace_integral": lie_tr_int, "scale": scale,
            "bianchi_residual": bianchi, "conformality_sup": conf,
            "verdict": verdict, "nodes": len(quad.nodes)}


# ----------------------------------------------------------------------
# compact-surface scalar rigidity
# ----------------------------------------------------------------------
def surface_scalar_rigidity(man: Manifold, resolution=None,
                            c_tol: float = _TOLS["rigidity_c_spread"],
                            tol: float = _TOLS["identity"],
                            grad_tol: float = _TOLS["rigidity_grad"],
                            slack_tol: float = _TOLS["rigidity_slack"]
                            ) -> dict:
    """Rigidity machinery on a compact surface with Lap(S) + S^2/3 constant.

    Checks, in order: the hypothesis (the invariant c = Lap(S) + S^2/3 is
    constant over the chart within ``c_tol``; violated hypothesis raises);
    the pointwise consequence grad(S^2) = -3 grad(Lap S) (the latter exact,
    from one order-5 frame over the interior points) within ``grad_tol``;
    the integral identity  int ||Hess S||^2 = (1/4) int (Lap S)^2;  the
    pointwise bound ||Hess S||^2 >= (Lap S)^2 / 2, to ``slack_tol`` below
    zero;  and the conclusion that S is constant.
    """
    chart = man.chart
    if chart.dim != 2:
        raise IdentityError("scalar rigidity applies to surfaces")
    quad = _compact_quadrature(man, resolution)
    # pointwise checks run on interior sample points: quadrature nodes next
    # to chart degeneracies (sphere poles) amplify harmless rounding in
    # Lap(S) through the inverse metric and would mask the real question
    frame = CurvatureFrame(chart, charts.sample_points(chart, 24),
                           order=BASE_ORDER + 1)
    s = values(frame.scalar)
    lap = values(frame.lap_scalar)
    hess2 = values(frame.norm2_sym2(frame.hess_scalar))
    grad_s2 = 2.0 * s * values(frame.grad_scalar_lo)
    grad_res = sup(np.abs(grad_s2 + 3.0 * values(frame.lap_scalar.grad())))
    cs_slack = float(np.min(hess2 - lap * lap / 2.0))  # NaN fails below
    c_spread = float(np.ptp(lap + s * s / 3.0))
    if not c_spread <= c_tol:  # a NaN spread violates it too
        raise IdentityError(
            f"hypothesis violated: c = Lap(S) + S^2/3 has spread "
            f"{c_spread:.3e} over the chart (tolerance {c_tol:.1e})")
    nodes = frame_at(man, quad.nodes)
    hess2_int = charts.integrate(
        chart, values(nodes.norm2_sym2(nodes.hess_scalar)), quad=quad)
    lap2_int = charts.integrate(chart, values(nodes.lap_scalar) ** 2,
                                quad=quad)
    int_scale = max(hess2_int, lap2_int / 4.0, 1.0)
    s_spread = float(np.ptp(s))
    lap_sup = float(np.abs(lap).max())
    passed = bool(grad_res <= grad_tol
                  and abs(hess2_int - lap2_int / 4.0) <= tol * int_scale
                  and cs_slack >= -slack_tol
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
    run: Callable[..., dict]
    default: dict  # the default case
    fields: tuple  # the case fields ``run`` reads besides "manifold"
    verdict: Callable[[dict, float], bool]  # (report, tol) -> passed
    takes_tol: bool = False  # ``run`` reads tol and reports its answer
    gates: tuple = ()  # (keyword, tolerance key) of ``run``'s other gates


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
        "T": _GENERIC_T}, ("X", "T", "count"),
        lambda r, tol: r["sup"] <= tol),
    "thm32": _Identity(soliton_integral_identities, {
        "manifold": "round_sphere_2", "X": _ROUND_CONFORMAL_X,
        "phi": "0.3*cos(th)"}, ("X", "phi", "resolution"),
        lambda r, tol: r["imbalance1"] <= tol * max(r["scale1"], 1.0)
        and r["imbalance2"] <= tol * max(r["scale2"], 1.0)),
    "yano": _Identity(yano_identity, {
        "manifold": "conformal_sphere_bump", "X": _ROUND_CONFORMAL_X},
        ("X", "count"), lambda r, tol: r["sup"] <= tol,
        gates=(("gate", "conformal_gate"),)),
    "be": _Identity(bourguignon_ezin_integral, {
        "manifold": "conformal_sphere_bump", "X": _ROUND_CONFORMAL_X,
        "q": "ricci"}, ("X", "q", "resolution"),
        lambda r, tol: abs(r["integral"]) <= tol * max(r["scale"], 1.0),
        gates=(("gate", "conformal_gate"), ("bianchi_tol", "bianchi"))),
    "thm38": _Identity(soliton_conformality_integral, {
        "manifold": "round_sphere_2", "X": _ROUND_CONFORMAL_X,
        "phi": "0.1*cos(th)"}, ("X", "phi", "resolution"),
        lambda r, tol: r["verdict"] == "conformal", takes_tol=True,
        gates=(("gate", "conformal_gate"),)),
    "bochner": _Identity(bochner_identity, {
        "manifold": "conformal_sphere_bump",
        "h": "0.5*cos(th) + 0.2*sin(th)*cos(ph)"}, ("h", "count"),
        lambda r, tol: r["sup"] <= tol),
    "lemma48": _Identity(surface_scalar_rigidity, {
        "manifold": "round_sphere_2"}, ("resolution",),
        lambda r, tol: r["passed"], takes_tol=True,
        gates=(("c_tol", "rigidity_c_spread"), ("grad_tol", "rigidity_grad"),
               ("slack_tol", "rigidity_slack"))),
}

IDENTITY_IDS = tuple(_IDENTITIES)


def case_value(rep: Mapping) -> dict:
    """The entries of a case report that a check record shows as value."""
    return {k: rep[k] for k in ("sup", "imbalance1", "imbalance2",
                                "integral", "scalar_spread") if k in rep}


def run_identity_case(identity_id: str, doc: Mapping | None = None,
                      tol: float = _TOLS["identity"],
                      gates: Mapping[str, float] = _TOLS) -> dict:
    """Run one identity check from a JSON-style case document.

    The document overrides fields of the identity's default case.  Each
    identity reads ``manifold`` (a name or a document) and its own fields
    and rejects any other: lemma35 ``X``, ``T``, ``count``; thm32 and thm38
    ``X``, ``phi``, ``resolution``; yano ``X``, ``count``; be ``X``, ``q``,
    ``resolution``; bochner ``h``, ``count``; lemma48 ``resolution``.
    ``tol`` is the case's own gate; its other gates (the conformality
    gate, the divergence condition, the rigidity hypothesis and bounds)
    are read from ``gates``, a resolved tolerance table.  Returns the
    identity's report with ``"identity"`` and ``"passed"``.
    """
    if identity_id not in _IDENTITIES:
        raise IdentityError(
            f"unknown identity id {identity_id!r}; known: "
            f"{', '.join(sorted(IDENTITY_IDS))}")
    case = _IDENTITIES[identity_id]
    if doc is not None and not isinstance(doc, Mapping):
        raise IdentityError("identity case must be an object")
    merged = {**case.default, **(doc or {})}
    fields = ("manifold",) + case.fields
    bad = set(merged) - set(fields)
    if bad:
        raise IdentityError(
            f"unknown case fields {sorted(bad)} for {identity_id}; its "
            f"fields: {', '.join(fields)}")
    if not charts.is_count(merged.get("count", 1)):
        raise IdentityError(f"count needs a whole number, at least one "
                            f"point; got {merged['count']!r}")
    kwargs = {_KEYWORDS.get(f, f): merged[f]
              for f in case.fields if f in merged}
    if case.takes_tol:
        kwargs["tol"] = tol
    kwargs.update((kw, gates[key]) for kw, key in case.gates)
    out = case.run(charts.resolve_manifold(merged["manifold"]), **kwargs)
    out["passed"] = case.verdict(out, tol)
    out["identity"] = identity_id
    out.pop("points", None)
    out.pop("residuals", None)
    return out
