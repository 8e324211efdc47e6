"""The four benchmark workloads, each a pass of fail-closed checks.

A pass runs every check of one workload once, through bachlab's public
functions, on inputs generated from the seed (see ``inputs``).  Each check
returns the residual it measured; the verdict is computed here from that
residual and its gate, never taken from a ``passed`` flag: a residual that
is NaN or infinite fails, and a check that raises fails.  The check
records are assembled with ``report.build_report`` so that two passes of
one seed can be compared by their canonical digest.

Gates come from ``tolerances.DEFAULTS``, or from the check's own declared
tolerance where the library declares one outside that table (the named
soliton examples, and the constants below).

Module-level functions are called through their module (for example
``curvature.bach_divergence``), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter
from typing import Callable

import numpy as np

import inputs
import speed
from bachlab import (_jettables, charts, curvature, fdcheck, identities,
                     products, profiles, report, solitons, tolerances)
from bachlab.curvature import CurvatureFrame, pipeline_pack, values

TOLS = dict(tolerances.DEFAULTS)

# gates the library declares outside tolerances.DEFAULTS
GOLDEN_GATE = 1e-9           # frozen-golden replay (tests/test_goldens.py)
BERGER_ROOT_GATE = 1e-9      # solved (a, lambda) against the frozen root
FIELD_GATE = 1e-10           # conformal-factor field identities (suite.py)
LEMMA48_GRAD_GATE = 1e-6     # grad(S^2) = -3 grad(Lap S) by stencil
LEMMA48_SLACK_GATE = 1e-10   # ||Hess S||^2 >= (Lap S)^2 / 2

# the expected-to-fail "*-literal" examples are left out on purpose
NAMED_SOLITONS = ("ho-r2s2", "ho-r2h2", "berger-line", "s4-trivial")

SIZES = {
    "bench": {
        "soliton-group": {"points": 2, "berger_scan": 5, "profile_count": 4,
                          "field_points": 2},
        "curvature-checks": {"bach_points": 1, "product_count": 2,
                             "identity_count": 2},
        "ode-scan": {"cells": 8},
        "oracle-crosscheck": {"dims": (2, 3, 3, 3, 4)},
    },
    "smoke": {
        "soliton-group": {"points": 1, "berger_scan": 2, "profile_count": 1,
                          "field_points": 1},
        "curvature-checks": {"bach_points": 1, "product_count": 1,
                             "identity_count": 1},
        "ode-scan": {"cells": 2},
        "oracle-crosscheck": {"dims": (2,)},
    },
}


# ----------------------------------------------------------------------
# fail-closed verdicts
# ----------------------------------------------------------------------
def sup(vals) -> float:
    """Largest magnitude; inf when any entry is NaN or infinite, or none."""
    a = np.abs(np.asarray(vals, dtype=float)).ravel()
    if a.size == 0 or not np.all(np.isfinite(a)):
        return math.inf
    return float(a.max())


def within(value, gate) -> bool:
    """A residual passes only when it is finite and at most its gate."""
    value = float(value)
    return math.isfinite(value) and value <= gate


def ratio(num, den) -> float:
    """|num| / max(den, 1); inf unless both are finite."""
    num, den = float(num), float(den)
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.inf
    return abs(num) / max(den, 1.0)


def rel_dev(mine, ref) -> float:
    """Max deviation relative to max(1, max |ref|), NaN-safe."""
    r = np.asarray(ref, dtype=float)
    return ratio(sup(np.asarray(mine, dtype=float) - r), sup(r))


@dataclass
class Outcome:
    """What one check measured: its residual, gate, verdict and items."""

    value: object
    tol: float | None
    ok: bool
    items: int = 1


@dataclass
class Pass:
    """Check records, per-check wall times and counts of one pass.

    The time the sampler's bursts take is left out of ``check_s``, and
    ``check_scale`` holds each check's rescaling factor.
    """

    sampler: speed.Sampler | None = None
    records: list = field(default_factory=list)
    check_s: list = field(default_factory=list)
    check_scale: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    items: int = 0
    failed: int = 0
    digest: str = ""
    report_bytes: int = 0
    canonical_json_s: float = 0.0

    def check(self, check_id: str, fn: Callable[[], Outcome]) -> None:
        """Time one check call and record its verdict."""
        stolen = self.sampler.stolen
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a check that raises is a failed check
            traceback.print_exc()
            out = Outcome(f"{type(exc).__name__}: {exc}", None, False, 0)
        t1 = perf_counter()
        self.spans.append((t0, t1))
        self.check_s.append(t1 - t0 - (self.sampler.stolen - stolen))
        ok = bool(out.ok)
        self.records.append(report.check_record(check_id, out.value,
                                                out.tol, ok))
        if ok:
            self.items += out.items
        else:
            self.failed += 1


def _box_points(chart, unit, margin: float = 0.08) -> np.ndarray:
    """Map unit-cube points into a chart's box, away from open edges."""
    lo, hi = np.asarray(chart.lo), np.asarray(chart.hi)
    m = np.where(chart.periodic, 0.0, margin) * (hi - lo)
    return lo + m + unit * (hi - lo - 2 * m)


# ----------------------------------------------------------------------
# soliton-group
# ----------------------------------------------------------------------
def _named_residual(name: str, seed: int, count: int) -> Outcome:
    ex = solitons.EXAMPLES[name]()
    man = ex["manifold"]
    pts = _box_points(man.chart, inputs.halton_unit(
        man.dim, count, seed, f"soliton-{name}"))
    rep = solitons.bach_soliton_residual(
        man, ex["lam"], potential=ex.get("potential"),
        x_exprs=ex.get("x_exprs"), points=pts, tol=ex["tol"], label=name)
    value = sup(rep.norms)
    return Outcome(value, ex["tol"], within(value, ex["tol"]),
                   len(rep.norms))


def _profile_devs(pc: dict) -> dict:
    return {"residual_sup": sup(pc["residual"].norms),
            "lambda_deviation": sup([pc["lambda_deviation"]]),
            "profile_deviation":
                sup([pc["profile_second_derivative_deviation"]]),
            "traced_deviation": sup([pc["traced_identity_deviation"]])}


def _berger_root(interval, scan: int) -> Outcome:
    gate = TOLS["berger_residual"]
    root = solitons.solve_berger_soliton(interval, scan=scan,
                                         residual_tol=gate)
    if root["outcome"] != "root":
        return Outcome({"outcome": root["outcome"]}, gate, False, 0)
    pc = root["profile_check"]
    devs = _profile_devs(pc)
    roots = {"a_star": sup([root["a_star"] - solitons.BERGER_SOLITON_A]),
             "lambda_star": sup([root["lambda_star"]
                                 - solitons.BERGER_SOLITON_LAMBDA])}
    ok = (all(within(v, BERGER_ROOT_GATE) for v in roots.values())
          and all(within(v, gate) for v in devs.values()))
    return Outcome({**roots, **devs}, gate, ok, len(pc["residual"].norms))


def _round_profile(ab, count: int) -> Outcome:
    gate = TOLS["soliton"]
    man = charts.product([charts.line(4.0), charts.berger_sphere(1.0)],
                         name="line_x_round_berger")
    pc = solitons.quadratic_profile_check(man, 0.0, a=ab[0], b=ab[1],
                                          count=count, tol=gate)
    devs = _profile_devs(pc)
    return Outcome(devs, gate, all(within(v, gate) for v in devs.values()),
                   len(pc["residual"].norms))


def _conformal_field(seed: int, count: int) -> Outcome:
    man = charts.get_example("r2_x_s2")
    spec = solitons.SolitonSpec(manifold=man, potential="-(x^2 + y^2)/12",
                                lam=-1.0 / 12.0)
    pts = _box_points(man.chart, inputs.halton_unit(
        man.dim, count, seed, "conformal-field"))
    cf = solitons.surface_conformal_field(man, spec, points=pts)
    value = sup([cf[k] for k in ("identity_sup", "extended_residual_sup",
                                 "offblock_sup", "tracefree_sup")])
    # the sups above are accumulated with max() from 0.0, which drops a
    # NaN; the per-point arrays show one
    arrays_finite = all(np.all(np.isfinite(cf[k])) for k in
                        ("c_field", "rho_fit", "rho_formula"))
    return Outcome(value, FIELD_GATE,
                   arrays_finite and within(value, FIELD_GATE), len(pts))


def soliton_group(p: Pass, seed: int, size: dict, ctx: dict) -> None:
    inp = inputs.soliton_inputs(seed)
    for name in NAMED_SOLITONS:
        p.check(f"soliton/{name}",
                lambda name=name: _named_residual(name, seed, size["points"]))
    p.check("soliton/berger-root",
            lambda: _berger_root(inp["berger_interval"], size["berger_scan"]))
    p.check("soliton/round-berger-lambda-zero",
            lambda: _round_profile(inp["profile_ab"], size["profile_count"]))
    p.check("soliton/conformal-factor-field",
            lambda: _conformal_field(seed, size["field_points"]))


# ----------------------------------------------------------------------
# curvature-checks
# ----------------------------------------------------------------------
def _bumpy_base(inp: dict):
    return charts.conformal(charts.get_example("s2_x_t2").chart,
                            f"{inp['bump']!r}*cos(th)*cos(t0)",
                            name="bumpy_s2_x_t2")


def _bach_trace(inp: dict, unit) -> Outcome:
    chart = _bumpy_base(inp)
    vals = []
    for q in _box_points(chart, unit):
        frame = CurvatureFrame(chart, q)
        vals.append(values(frame.trace(frame.bach)))
    value = sup(vals)
    return Outcome(value, TOLS["bach_trace"],
                   within(value, TOLS["bach_trace"]))


def _bach_div(inp: dict, unit) -> Outcome:
    chart = _bumpy_base(inp)
    value = sup([sup(curvature.bach_divergence(chart, q))
                 for q in _box_points(chart, unit)])
    return Outcome(value, TOLS["bach_divergence"],
                   within(value, TOLS["bach_divergence"]))


def _bach_conformal(inp: dict, unit) -> Outcome:
    chart = _bumpy_base(inp)
    u = f"{inp['rescale']!r}*sin(th)*cos(t1)"
    conf = charts.conformal(chart, u, name="bumpy_s2_x_t2_rescaled")
    devs = []
    for q in _box_points(chart, unit):
        frame = CurvatureFrame(chart, q)
        b = np.asarray(values(frame.bach))
        b_conf = np.asarray(values(CurvatureFrame(conf, q).bach))
        scale = float(np.exp(-2.0 * values(frame.scalar_jet(u))))
        devs.append(sup(b_conf - scale * b))
    value = sup(devs)
    return Outcome(value, TOLS["bach_conformal"],
                   within(value, TOLS["bach_conformal"]))


def _cross(fn) -> Outcome:
    value = sup([fn()])
    return Outcome(value, TOLS["product_cross"],
                   within(value, TOLS["product_cross"]))


def _golden_replay(goldens: dict) -> Outcome:
    devs = []
    for entry in goldens["entries"]:
        man = charts.get_example(entry["manifold"])
        pack = pipeline_pack(CurvatureFrame(man.chart, entry["point"]),
                             deep=True)
        gold = entry["oracle"]
        if set(pack) != set(gold):
            devs.append(math.inf)
            continue
        devs.extend(rel_dev(val, gold[key]) for key, val in pack.items())
    value = sup(devs)
    return Outcome(value, GOLDEN_GATE, within(value, GOLDEN_GATE))


def _identity(iid: str, doc: dict) -> Outcome:
    tol = TOLS["identity"]
    rep = identities.run_identity_case(iid, doc, tol=tol)
    if iid in ("lemma35", "yano", "bochner"):
        value = sup([rep["sup"]])
        return Outcome(value, tol, within(value, tol))
    if iid == "thm32":
        value = sup([ratio(rep["imbalance1"], rep["scale1"]),
                     ratio(rep["imbalance2"], rep["scale2"])])
        return Outcome(value, tol, within(value, tol))
    if iid == "be":
        value = ratio(rep["integral"], rep["scale"])
        return Outcome(value, tol, within(value, tol))
    if iid == "thm38":
        value = ratio(rep["integral"], rep["scale"])
        return Outcome(value, tol, within(value, tol)
                       and rep["verdict"] == "conformal")
    # lemma48: every consequence of the rigidity hypothesis
    hess2, lap2 = rep["hess_sq_integral"], rep["quarter_lap_sq_integral"]
    value = {
        "grad_identity_sup": sup([rep["grad_identity_sup"]]),
        "integral_imbalance": ratio(hess2 - lap2, sup([hess2, lap2])),
        "scalar_spread": sup([rep["scalar_spread"]]),
        "lap_scalar_sup": sup([rep["lap_scalar_sup"]]),
    }
    slack = float(rep["cauchy_schwarz_slack"])
    ok = (within(value["grad_identity_sup"], LEMMA48_GRAD_GATE)
          and all(within(value[k], tol) for k in
                  ("integral_imbalance", "scalar_spread", "lap_scalar_sup"))
          and math.isfinite(slack) and slack >= -LEMMA48_SLACK_GATE)
    return Outcome(value, tol, ok)


def curvature_checks(p: Pass, seed: int, size: dict, ctx: dict) -> None:
    inp = inputs.curvature_inputs(seed)
    unit = inputs.halton_unit(4, size["bach_points"], seed, "bach")
    p.check("curvature/bach-trace", lambda: _bach_trace(inp, unit))
    p.check("curvature/bach-divergence", lambda: _bach_div(inp, unit))
    p.check("curvature/bach-conformal", lambda: _bach_conformal(inp, unit))

    count = size["product_count"]
    s2 = inp["s2_radius"]
    p.check("products/line-cross/round-s3", lambda: _cross(
        lambda: products.line_cross_check(
            charts.round_sphere(3, inp["s3_radius"]), count=count)))
    p.check("products/line-cross/berger", lambda: _cross(
        lambda: products.line_cross_check(
            charts.berger_sphere(inp["berger_a"]), count=count)))
    p.check("products/surface-cross/s2-x-t2", lambda: _cross(
        lambda: products.surface_cross_check(
            charts.round_sphere(2, s2), charts.flat_torus(
                inp["torus_lengths"]), count=count)))
    p.check("products/surface-cross/s2-x-h2", lambda: _cross(
        lambda: products.surface_cross_check(
            charts.round_sphere(2, s2), charts.hyperbolic_2(
                inp["h2_radius"]), count=count)))

    p.check("curvature/golden-replay", lambda: _golden_replay(ctx["goldens"]))

    cases = inputs.identity_cases(seed, size["identity_count"])
    for iid in identities.IDENTITY_IDS:
        p.check(f"identity/{iid}", lambda iid=iid: _identity(iid, cases[iid]))


# ----------------------------------------------------------------------
# ode-scan
# ----------------------------------------------------------------------
def _round_cap(r: float) -> tuple[float, float, float]:
    """(S0, c, closing time) of the round cap of radius r."""
    s0 = 2.0 / (r * r)
    return s0, s0 * s0 / 3.0, math.pi * r


def _closure(r: float) -> Outcome:
    s0, c, t_ref = _round_cap(r)
    out = profiles.integrate_profile(s0, c).outcome
    err = (abs(out.t_close - t_ref) if out.t_close is not None
           else math.inf)
    gate = TOLS["round_closure"]
    return Outcome(sup([err]), gate,
                   out.classification == profiles.CLOSED
                   and within(err, gate), 0)


def _halving(r: float) -> Outcome:
    s0, c, _ = _round_cap(r)
    t1 = profiles.integrate_profile(s0, c, rtol=1e-10).outcome.t_close
    t2 = profiles.integrate_profile(s0, c, rtol=5e-11).outcome.t_close
    value = math.inf if t1 is None or t2 is None else sup([t1 - t2])
    return Outcome(value, TOLS["ode_halving"],
                   within(value, TOLS["ode_halving"]), 0)


def _scan_row(s0: float, c_values) -> Outcome:
    """One S0 row of the grid: every Closed cell must be a round cap."""
    gate = TOLS["scan_s_range"]
    res = profiles.scan([s0], c_values, s_range_tol=gate)
    classes: dict[str, int] = {}
    closed_ranges = []
    for row in res["rows"]:
        classes[row["class"]] = classes.get(row["class"], 0) + 1
        if row["class"] == profiles.CLOSED:
            closed_ranges.append(row["S_max"] - row["S_min"])
    worst = sup(closed_ranges) if closed_ranges else 0.0
    ok = (set(classes) <= set(profiles.CLASSIFICATIONS)
          and within(worst, gate) and len(res["rows"]) == len(c_values))
    return Outcome({"classes": classes, "closed_s_range": worst}, gate, ok,
                   len(res["rows"]))


def ode_scan(p: Pass, seed: int, size: dict, ctx: dict) -> None:
    small, large = inputs.closure_radii(seed)
    p.check("ode/closure-small-cap", lambda: _closure(small))
    p.check("ode/closure-large-cap", lambda: _closure(large))
    p.check("ode/tolerance-halving", lambda: _halving(small))
    # one scan call per S0 row, so that the check-time median is a scan
    s0_values, c_values = inputs.scan_grid(seed, size["cells"])
    for k, s0 in enumerate(s0_values):
        p.check(f"ode/scan-row-{k}", lambda s0=s0: _scan_row(s0, c_values))


# ----------------------------------------------------------------------
# oracle-crosscheck
# ----------------------------------------------------------------------
def _oracle(spec: dict) -> Outcome:
    n = spec["dim"]
    chart = charts.Chart(
        name=f"random_metric_{n}", kind="custom", coords=spec["coords"],
        metric_strs=tuple(tuple(r) for r in spec["entries"]), params={},
        lo=(-1.0,) * n, hi=(1.0,) * n, periodic=(False,) * n,
        compact=False, resolution=(8,) * n)
    mine = pipeline_pack(CurvatureFrame(chart, spec["point"]), deep=True)
    ref = fdcheck.geometry_from_chart(chart).pack(spec["point"], deep=True)
    gate = TOLS["curvature_oracle"]
    if set(mine) != set(ref):
        return Outcome("pack keys differ", gate, False, 0)
    value = sup([rel_dev(val, ref[key]) for key, val in mine.items()])
    return Outcome(value, gate, within(value, gate))


def oracle_crosscheck(p: Pass, seed: int, size: dict, ctx: dict) -> None:
    for k, spec in enumerate(inputs.oracle_metrics(seed, size["dims"])):
        p.check(f"oracle/{k}-dim{spec['dim']}",
                lambda spec=spec: _oracle(spec))


WORKLOADS: dict[str, Callable[[Pass, int, dict, dict], None]] = {
    "soliton-group": soliton_group,
    "curvature-checks": curvature_checks,
    "ode-scan": ode_scan,
    "oracle-crosscheck": oracle_crosscheck,
}


# ----------------------------------------------------------------------
# set-up and one pass
# ----------------------------------------------------------------------
def _warm_up(name: str, seed: int, ctx: dict) -> None:
    """One cheap item of the workload, so lazy set-up is done untimed."""
    if name == "soliton-group":
        _named_residual("ho-r2s2", seed, 1)
    elif name == "curvature-checks":
        _golden_replay(ctx["goldens"])
    elif name == "ode-scan":
        _closure(1.0)
    else:
        _oracle(inputs.oracle_metrics(seed, (2,))[0])


def setup(name: str, seed: int) -> dict:
    """Catalog, jet tables, goldens and one warm-up item; returns context."""
    for example in charts.catalog_names():
        charts.get_example(example)
    for dim in range(1, _jettables.MAX_DIM + 1):
        for order in range(_jettables.MAX_ORDER + 1):
            _jettables.tables(dim, order)
    text = resources.files("bachlab").joinpath(
        "data/curvature_goldens.json").read_text(encoding="ascii")
    ctx = {"goldens": json.loads(text)}
    _warm_up(name, seed, ctx)
    return ctx


def run_pass(name: str, seed: int, size: str, ctx: dict,
             sampler: speed.Sampler | None = None) -> Pass:
    """One pass of a workload, with its report digest.

    Reference bursts run alongside (see ``speed``), and every check gets
    its rescaling factor.
    """
    p = Pass()
    with (sampler or speed.Sampler()) as p.sampler:
        WORKLOADS[name](p, seed, SIZES[size][name], ctx)
    p.check_scale = [p.sampler.scale(a, b) for a, b in p.spans]
    rep = report.build_report({"workload": name, "seed": seed,
                               "size": size}, p.records)
    t0 = perf_counter()
    text = report.canonical_json(rep)
    p.canonical_json_s = perf_counter() - t0
    p.report_bytes = len(text.encode())
    p.digest = report.digest(rep)
    return p
