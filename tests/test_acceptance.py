"""End-to-end acceptance checks for the verification engine.

Each test prints one PASS/FAIL line naming the measured quantity and its
gate (run with ``pytest -s`` to see them); the assertions enforce the same
gates.  Sample sizes, seeds, and quadrature resolutions are frozen so every
run measures the same configuration.
"""

import math

import numpy as np
import pytest

from bachlab import charts, fdcheck, products, profiles, solitons
from bachlab.cli import main as cli_main
from bachlab.curvature import (CurvatureFrame, bach_divergence, pipeline_pack,
                               values)
from bachlab.identities import (bochner_identity, bourguignon_ezin_integral,
                                soliton_integral_identities,
                                surface_scalar_rigidity, yano_identity)
from bachlab.report import sup

TWO_PI = 2.0 * math.pi
COORDS = ("x", "y", "z", "w")


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def _floor(lowest: float, value: float) -> float:
    """Running minimum that a NaN or infinity drives to -inf, a failure
    (``min(x, nan)`` is x, so a plain minimum would drop it)."""
    return min(lowest, value) if math.isfinite(value) else -math.inf


# ----------------------------------------------------------------------
# random analytic metrics (positive definite on the box by Gershgorin:
# diagonal entries stay above 0.9 while each off-diagonal is below 0.1)
# ----------------------------------------------------------------------
def _generic_chart(entries, coords):
    n = len(coords)
    return charts.Chart(
        name="random_metric", kind="custom", coords=tuple(coords),
        metric_strs=tuple(tuple(r) for r in entries), params={},
        lo=(-1.0,) * n, hi=(1.0,) * n, periodic=(False,) * n,
        compact=False, resolution=(8,) * n)


def _random_metric(dim, rng):
    coords = COORDS[:dim]
    entries = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                c0 = 1.2 + 0.6 * rng.random()
                a, b = 0.25 * (2.0 * rng.random(2) - 1.0)
                c1, c2 = rng.choice(dim, size=2, replace=(dim == 1))
                term = (f"{c0:.6f} + {a:.6f}*sin({coords[c1]}) "
                        f"+ {b:.6f}*cos({coords[c2]})")
            else:
                s, t = 0.05 * (2.0 * rng.random(2) - 1.0)
                c1, c2 = rng.choice(dim, size=2, replace=(dim == 1))
                term = (f"{s:.6f}*sin({coords[c1]} + 2*{coords[c2]}) "
                        f"+ {t:.6f}*cos({coords[i]})*cos({coords[j]})")
            entries[i][j] = term
            entries[j][i] = term
    return _generic_chart(entries, coords)


def _random_u(rng):
    a, b = 0.15 * (2.0 * rng.random(2) - 1.0)
    c1, c2, c3 = rng.choice(4, size=3, replace=False)
    return (f"{a:.6f}*sin({COORDS[c1]})*cos({COORDS[c3]}) "
            f"+ {b:.6f}*cos({COORDS[c2]})")


@pytest.mark.slow
def test_curvature_pipeline_matches_finite_difference_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (2, 3, 3, 4, 4):
        chart = _random_metric(dim, rng)
        pt = 0.4 * (2.0 * rng.random(dim) - 1.0)
        mine = pipeline_pack(CurvatureFrame(chart, pt), deep=True)
        ref = fdcheck.geometry_from_chart(chart).pack(pt, deep=True)
        for key, val in mine.items():
            r = np.asarray(ref[key], dtype=float)
            scale = max(1.0, np.abs(r).max())
            dev = float(np.abs(np.asarray(val, dtype=float) - r).max()
                        / scale)
            worst = sup(worst, dev)
    ok = worst <= 1e-6
    _verdict(ok, "curvature vs finite-difference oracle",
             f"worst relative deviation {worst:.3e} over 5 random metrics "
             "in dimensions 2-4 (gate 1e-06)")
    assert ok


def test_bach_trace_divergence_and_conformal_weight():
    rng = np.random.default_rng(202)
    u_exprs = [_random_u(rng) for _ in range(3)]
    worst_tr = worst_div = worst_conf = 0.0
    for k in range(5):
        chart = _random_metric(4, rng)
        pt = 0.4 * (2.0 * rng.random(4) - 1.0)
        frame = CurvatureFrame(chart, pt)
        b = np.asarray(values(frame.bach))
        ginv = np.linalg.inv(np.asarray(values(frame.g)))
        worst_tr = sup(worst_tr, abs(float((ginv * b).sum())))
        worst_div = sup(worst_div, np.abs(bach_divergence(chart, pt)))
        u = u_exprs[k % 3]
        rescaled = charts.conformal(chart, u, name="rescaled_random_metric")
        cframe = CurvatureFrame(rescaled, pt)
        b_conf = np.asarray(values(cframe.bach))
        u_val = float(values(cframe.scalar_jet(u)))
        scale = max(1.0, np.abs(b).max())
        worst_conf = sup(worst_conf,
                         np.abs(b_conf - math.exp(-2.0 * u_val) * b) / scale)
    ok = worst_tr <= 1e-8 and worst_div <= 1e-6 and worst_conf <= 1e-6
    _verdict(ok, "trace-free, divergence-free, conformal weight -2",
             f"|tr B| {worst_tr:.3e} (gate 1e-08), |div B| {worst_div:.3e} "
             f"(gate 1e-06), conformal deviation {worst_conf:.3e} "
             "(gate 1e-06) over 5 random 4-metrics and 3 rescalings")
    assert ok


def test_product_bach_formulas_match_general_pipeline():
    line_factors = [
        charts.round_sphere(3),
        charts.round_sphere(3, 1.4),
        charts.berger_sphere(1.5),
        charts.berger_sphere(0.8),
        charts.conformal(charts.flat_torus((6.0, 7.0, 5.0)),
                         "0.3*sin(t0) + 0.2*cos(t1 + t2)"),
    ]
    worst_line = sup(*(products.line_cross_check(n, count=5)
                       for n in line_factors))
    surface_pairs = [
        (charts.conformal_round_sphere("0.3*cos(th)"),
         charts.conformal(charts.flat_torus((6.0, 7.0)),
                          "0.25*sin(t0)*cos(t1)")),
        (charts.conformal(charts.hyperbolic_2(), "0.1*x*y"),
         charts.round_sphere(2, 1.3)),
        (charts.round_sphere(2), charts.round_sphere(2, 0.7)),
        (charts.hyperbolic_2(1.2), charts.flat_torus((5.0, 6.0))),
        (charts.conformal_round_sphere("0.2*sin(th)*sin(ph)"),
         charts.hyperbolic_2()),
    ]
    worst_surface = sup(*(products.surface_cross_check(k, l, count=5)
                          for k, l in surface_pairs))
    ok = worst_line <= 1e-8 and worst_surface <= 1e-8
    _verdict(ok, "closed-form product components vs pipeline",
             f"line-cross sup {worst_line:.3e} over 5 factors, "
             f"surface-product sup {worst_surface:.3e} over 5 pairs "
             "(gate 1e-08)")
    assert ok


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "the candidate data (f, lambda) = (|x|^2/6, 1/6) leave a flow residual "
    "of 0.5 on both model products; the sign-flipped pair "
    "(-|x|^2/12, -1/12) satisfies the equation to machine precision "
    "(companion test below)"))
def test_flat_cross_curved_solitons_with_positive_constants():
    worst = sup(
        solitons.named_example("ho-r2s2-literal", count=200).sup,
        solitons.named_example("ho-r2h2-literal", count=200).sup)
    ok = worst <= 1e-9
    _verdict(ok, "plane-product solitons, (|x|^2/6, 1/6) data",
             f"flow residual sup {worst:.3e} over 200 points (gate 1e-09)")
    assert ok


@pytest.mark.slow
def test_flat_cross_curved_gradient_solitons_verify():
    worst = sup(solitons.named_example("ho-r2s2", count=200).sup,
                solitons.named_example("ho-r2h2", count=200).sup)
    ok = worst <= 1e-9
    _verdict(ok, "plane-product solitons, (-|x|^2/12, -1/12) data",
             f"flow residual sup {worst:.3e} over 200 points on both "
             "curved factors (gate 1e-09)")
    assert ok


def test_squashed_sphere_soliton_root_and_round_cross_check():
    out = solitons.solve_berger_soliton()
    non_round = (out["a_star"] is not None
                 and abs(out["a_star"] - 1.0) > 0.1)
    ok_root = (out["outcome"] == "root" and non_round and out["passed"]
               and out["residual_sup"] <= 1e-7)
    round_man = charts.product(
        [charts.line(4.0), charts.berger_sphere(1.0)],
        name="line_x_round_berger")
    round_rep = solitons.quadratic_profile_check(round_man, 0.0, count=8)
    ok = ok_root and round_rep["passed"]
    _verdict(ok, "squashed-sphere soliton root",
             f"non-round root a*={out['a_star']}, "
             f"lambda*={out['lambda_star']}, residual sup "
             f"{out['residual_sup']:.3e} (gate 1e-07); round factor "
             f"verifies with lambda=0: {round_rep['passed']}")
    assert ok


# ----------------------------------------------------------------------
# smooth random fields for the compact integral identities: on the sphere
# every component vanishes appropriately at the poles (X^th carries a
# sin(th) factor, X^ph is a function of cos(th)), so the fields extend
# smoothly to the closed surface and no boundary terms appear
# ----------------------------------------------------------------------
def _sphere_fields(rng):
    a = rng.uniform(0.3, 0.7) * rng.choice([-1, 1])
    b = rng.uniform(0.6, 1.2)
    c = rng.uniform(0.3, 0.7) * rng.choice([-1, 1])
    k = int(rng.integers(1, 3))
    d = rng.uniform(0.3, 0.6) * rng.choice([-1, 1])
    e = rng.uniform(0.5, 1.0)
    x = (f"{-a * b:.6f}*sin(th)*exp({b:.6f}*cos(th))",
         f"{c:.6f}*cos(th)^{k}")
    return x, f"{d:.6f}*exp({e:.6f}*cos(th))"


def _torus_fields(rng):
    a1, a2 = rng.uniform(0.3, 0.6, 2) * rng.choice([-1, 1], 2)
    b1, b2 = rng.uniform(0.5, 0.9, 2)
    d = rng.uniform(0.3, 0.5) * rng.choice([-1, 1])
    e = rng.uniform(0.5, 0.8)
    m = int(rng.integers(1, 3))
    x = (f"{a1:.6f}*exp({b1:.6f}*sin(t0 + {m}*t1))",
         f"{a2:.6f}*exp({b2:.6f}*cos(t1)) + 0.2*cos(t0)")
    return x, f"{d:.6f}*exp({e:.6f}*cos(t0 + t1))"


def test_compact_integral_identities_balance_and_converge():
    cases = (
        (charts.get_example("round_sphere_2"), _sphere_fields,
         (8, 10), (16, 20)),
        (charts.get_example("flat_torus_2"), _torus_fields,
         (8, 8), (16, 16)),
    )
    worst_rel = worst_ratio = 0.0
    min_coarse = math.inf
    for man, gen, res_coarse, res_fine in cases:
        rng = np.random.default_rng(42)
        for _ in range(10):
            x, phi = gen(rng)
            coarse = soliton_integral_identities(man, x, phi,
                                                 resolution=res_coarse)
            fine = soliton_integral_identities(man, x, phi,
                                               resolution=res_fine)
            for i in ("1", "2"):
                c_imb = coarse[f"imbalance{i}"]
                f_imb = fine[f"imbalance{i}"]
                worst_rel = sup(worst_rel, f_imb / fine[f"scale{i}"])
                worst_ratio = sup(worst_ratio, f_imb / c_imb)
                min_coarse = _floor(min_coarse, c_imb)
    ok = worst_rel <= 1e-7 and worst_ratio <= 0.1 and min_coarse > 1e-9
    _verdict(ok, "compact integral identities",
             f"fine-resolution imbalance {worst_rel:.3e} of the largest "
             f"term (gate 1e-07); worst fine/coarse ratio {worst_ratio:.3e} "
             "(gate 0.1) over 10 random (X, phi) on the sphere and torus")
    assert ok


def test_conformal_flux_identities_on_rescaled_spheres():
    family = [
        ("0", ("-sin(th)", "0")),
        ("0.2*cos(th)", ("-sin(th)", "0")),
        ("0.15*sin(th)*cos(ph)", ("-sin(th)", "0")),
        ("0.1*exp(0.2*cos(th))", ("-0.3*sin(th)", "0.8")),
        ("0.2*cos(th)", ("-0.4*sin(th)", "0.7")),
    ]
    worst_point = worst_flux = 0.0
    for u, x in family:
        man = charts.conformal(
            charts.round_sphere(2), u, name="rescaled_sphere")
        worst_point = sup(worst_point,
                          yano_identity(man, x, count=40)["sup"])
        flux = bourguignon_ezin_integral(man, x, resolution=(16, 20))
        worst_flux = sup(worst_flux,
                         abs(flux["integral"]) / flux["scale"])
    ok = worst_point <= 1e-7 and worst_flux <= 1e-7
    _verdict(ok, "conformal-field flux identities on rescaled spheres",
             f"pointwise residual sup {worst_point:.3e}, scalar flux "
             f"integral {worst_flux:.3e} of its scale over 5 cases "
             "(gate 1e-07)")
    assert ok


def test_surface_scalar_rigidity_machinery():
    pointwise_corpus = [
        (charts.conformal_round_sphere("0.2*cos(th)"),
         "0.4*cos(th) + 0.2*sin(th)*cos(ph)"),
        (charts.hyperbolic_2(1.3), "0.3*x + 0.2*x*y"),
        (charts.berger_sphere(1.4),
         "0.3*cos(be) + 0.2*sin(al)"),
    ]
    worst_bochner = sup(*(bochner_identity(man, h, count=30)["sup"]
                          for man, h in pointwise_corpus))
    rigidity_family = (
        charts.get_example("round_sphere_2"),
        charts.round_sphere(2, 1.7),
        charts.flat_torus((5.0, 7.0)),
    )
    all_passed = True
    worst_gap = 0.0
    min_slack = math.inf
    for man in rigidity_family:
        rep = surface_scalar_rigidity(man)
        all_passed = all_passed and rep["passed"]
        scale = max(1.0, rep["hess_sq_integral"])
        worst_gap = sup(worst_gap, abs(rep["hess_sq_integral"]
                                       - rep["quarter_lap_sq_integral"])
                        / scale)
        min_slack = _floor(min_slack, rep["cauchy_schwarz_slack"])
    ok = worst_bochner <= 1e-7 and all_passed and min_slack >= -1e-10
    _verdict(ok, "surface scalar rigidity machinery",
             f"pointwise Hessian-divergence residual {worst_bochner:.3e} "
             f"(gate 1e-07); Hessian-energy integral gap {worst_gap:.3e}; "
             f"pointwise lower-bound slack {min_slack:+.3e} over 3 "
             "constant-invariant surfaces")
    assert ok


@pytest.mark.slow
def test_profile_scan_corroborates_round_closure():
    res = profiles.scan()
    closed = [row for row in res["rows"]
              if row["class"] == profiles.CLOSED]
    s_ranges = [row["S_max"] - row["S_min"] for row in closed]
    ok_scan = bool(res["corroborates"]) and all(r <= 1e-5
                                                for r in s_ranges)
    # the exact closed datum sits off the default lattice, so drive the
    # integrator through it directly and through a focused scan cell
    run = profiles.integrate_profile(2.0, 4.0 / 3.0)
    closure_err = abs(run.outcome.t_close - math.pi)
    track = float(np.abs(run.rho - np.sin(run.t)).max())
    focused = profiles.scan([2.0], [4.0 / 3.0])
    focused_closed = [row for row in focused["rows"]
                      if row["class"] == profiles.CLOSED]
    ok_round = (run.outcome.classification == profiles.CLOSED
                and closure_err <= 1e-6 and track <= 1e-6
                and len(focused_closed) == 1
                and focused_closed[0]["S_max"]
                - focused_closed[0]["S_min"] <= 1e-5)
    ok = ok_scan and ok_round
    _verdict(ok, "profile scan corroboration",
             f"default {len(res['rows'])}-cell scan: {len(closed)} closed "
             f"rows, all with S-range <= 1e-05: {ok_scan}; round profile "
             f"closes at t = pi + {closure_err:.3e} (gate 1e-06) tracking "
             f"sin(t) to {track:.3e}")
    assert ok


def test_product_soliton_coefficient_sign_laws():
    factor_corpus = [
        charts.berger_sphere(0.7),
        charts.berger_sphere(1.0),
        charts.berger_sphere(1.2),
        charts.berger_sphere(1.5),
        charts.berger_sphere(2.0),
        charts.round_sphere(3),
        charts.flat_torus((TWO_PI,) * 3),
    ]
    ok = True
    details = []
    for chart in factor_corpus:
        circle = products.product_lambda_report(chart, "circle")
        line = products.product_lambda_report(chart, "line")
        einstein_residual = circle["einstein_residual_norm2"]
        is_einstein = einstein_residual <= 1e-10
        signs = circle["lambda"] >= -1e-14 and line["lambda"] <= 1e-14
        vanishing = ((abs(circle["lambda"]) <= 1e-12) == is_einstein
                     and (abs(line["lambda"]) <= 1e-12) == is_einstein)
        ok = ok and signs and vanishing
        details.append(f"{chart.name}[E={einstein_residual:.1e}, "
                       f"lc={circle['lambda']:+.2e}, "
                       f"ll={line['lambda']:+.2e}]")
    _verdict(ok, "product coefficient sign laws",
             "circle-product lambda >= 0 >= line-product lambda, each "
             "vanishing exactly on the Einstein factors: "
             + " ".join(details))
    assert ok


@pytest.mark.slow
def test_suite_report_is_reproducible(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    base = ["suite", "all", "--count", "8", "--cells", "3"]
    assert cli_main(base + ["--out", str(first)]) == 0
    assert cli_main(base + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    ok = identical and b'"failed":0' in first.read_bytes()
    _verdict(ok, "suite report reproducibility",
             f"two runs with the same arguments emit byte-identical reports "
             f"({len(first.read_bytes())} bytes): {identical}")
    assert ok
