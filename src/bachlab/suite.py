"""Aggregated verification battery behind the ``suite all`` command.

Runs every module's example checks — curvature tensor properties, product
closed forms against the pipeline, named soliton examples, the squashed
three-sphere root solve, the identity bank, and the profile ODE — and
assembles one deterministic report.  Each check's gate is read from the
resolved tolerance table (the defaults merged with the run's overrides);
the configuration (sample counts, resolved tolerances) is echoed into
the report, and the same configuration gives the same report byte for
byte.
"""

from __future__ import annotations

import numpy as np

from . import charts, identities, products, profiles, report, solitons
from . import tolerances
from .curvature import CurvatureFrame, bach_divergence, values

__all__ = ["run_suite"]


def _bach_property_checks(tols, count: int = 2) -> list[dict]:
    base = charts.conformal(charts.get_example("s2_x_t2").chart,
                            "0.1*cos(th)*cos(t0)", name="bumpy_s2_x_t2")
    u = "0.15*sin(th)*cos(t1)"
    conf = charts.conformal(base, u, name="bumpy_s2_x_t2_rescaled")
    pts = charts.sample_points(base, count)
    tr_sup = div_sup = cf_sup = 0.0
    for p in pts:
        frame = CurvatureFrame(base, p)
        b = values(frame.bach)
        tr_sup = report.sup(tr_sup, abs(values(frame.trace(frame.bach))))
        div_sup = report.sup(div_sup, np.abs(bach_divergence(base, p)))
        b_conf = values(CurvatureFrame(conf, p).bach)
        scale = float(np.exp(-2.0 * values(frame.scalar_jet(u))))
        cf_sup = report.sup(cf_sup, np.abs(b_conf - scale * b))
    inputs = {"chart": base.name, "points": count, "u": u}
    return [
        report.check_record("curvature/bach-trace", tr_sup,
                            tols["bach_trace"], tr_sup <= tols["bach_trace"],
                            inputs=inputs),
        report.check_record("curvature/bach-divergence", div_sup,
                            tols["bach_divergence"],
                            div_sup <= tols["bach_divergence"],
                            inputs=inputs),
        report.check_record("curvature/bach-conformal", cf_sup,
                            tols["bach_conformal"],
                            cf_sup <= tols["bach_conformal"], inputs=inputs),
    ]


def _product_checks(tols) -> list[dict]:
    tol = tols["product_cross"]
    gate = tols["lambda_einstein_gate"]
    checks = []
    for cid, sup in (
        ("products/line-cross/round-s3",
         products.line_cross_check(charts.round_sphere(3))),
        ("products/line-cross/berger-1.5",
         products.line_cross_check(charts.berger_sphere(1.5))),
        ("products/surface-cross/s2-x-t2",
         products.surface_cross_check(charts.round_sphere(2),
                                      charts.flat_torus())),
        ("products/surface-cross/s2-x-h2",
         products.surface_cross_check(charts.round_sphere(2),
                                      charts.hyperbolic_2())),
    ):
        sup = float(sup)
        checks.append(report.check_record(cid, sup, tol, sup <= tol))
    circle = products.product_lambda_report(charts.berger_sphere(1.2),
                                            "circle")
    line = products.product_lambda_report(charts.berger_sphere(1.2), "line")
    non_einstein = circle["einstein_residual_norm2"] > gate
    checks.append(report.check_record(
        "products/lambda-sign/circle", circle["lambda"], gate,
        circle["lambda"] > 0 and non_einstein,
        detail={"einstein_residual_norm2": circle["einstein_residual_norm2"]}))
    checks.append(report.check_record(
        "products/lambda-sign/line", line["lambda"], gate,
        line["lambda"] < 0 and non_einstein,
        detail={"trace_identity_residual": line["trace_identity_residual"]}))
    c_round = products.surface_c_report(charts.round_sphere(2))
    dev = report.sup(abs(c_round["mean"] - 4.0 / 3.0), c_round["spread"])
    checks.append(report.check_record(
        "products/surface-c/round-sphere", dev, tol, dev <= tol,
        expected=4.0 / 3.0))
    return checks


def _soliton_checks(tols, count: int) -> list[dict]:
    checks = []
    for name, gate in (("ho-r2s2", "soliton_gradient_product"),
                       ("ho-r2h2", "soliton_gradient_product"),
                       ("s4-trivial", "soliton"),
                       ("berger-line", "soliton")):
        rep = solitons.named_example(name, count=count, tol=tols[gate])
        checks.append(report.check_record(
            f"soliton/{name}", rep.sup, rep.tol, rep.passed,
            inputs={"example": name, "count": count}))

    root = solitons.solve_berger_soliton(
        residual_tol=tols["berger_residual"])
    root_tol = tols["berger_root"]
    root_ok = (root["outcome"] == "root" and bool(root["passed"])
               and abs(root["a_star"] - solitons.BERGER_SOLITON_A)
               <= root_tol
               and abs(root["lambda_star"]
                       - solitons.BERGER_SOLITON_LAMBDA) <= root_tol
               and root["residual_sup"] <= tols["berger_residual"])
    checks.append(report.check_record(
        "soliton/berger-root",
        {"a_star": root["a_star"], "lambda_star": root["lambda_star"],
         "residual_sup": root["residual_sup"]},
        tols["berger_residual"], root_ok,
        expected={"a_star": solitons.BERGER_SOLITON_A,
                  "lambda_star": solitons.BERGER_SOLITON_LAMBDA}))

    round_man = charts.product([charts.line(4.0), charts.berger_sphere(1.0)],
                               name="line_x_round_berger")
    pc = solitons.quadratic_profile_check(round_man, 0.0, count=8,
                                          tol=tols["soliton"])
    checks.append(report.check_record(
        "soliton/round-berger-lambda-zero", pc["residual"].sup,
        pc["residual"].tol, bool(pc["passed"]), expected=0.0))

    man = charts.get_example("r2_x_s2")
    spec = solitons.SolitonSpec(manifold=man, potential="-(x^2 + y^2)/12",
                                lam=-1.0 / 12.0)
    cf = solitons.surface_conformal_field(man, spec, count=6)
    cf_sup = report.sup(cf["identity_sup"], cf["extended_residual_sup"],
                        cf["offblock_sup"], cf["tracefree_sup"])
    checks.append(report.check_record(
        "soliton/conformal-factor-field", cf_sup, tols["conformal_field"],
        cf_sup <= tols["conformal_field"],
        detail={"coefficient": cf["coefficient"]}))
    return checks


def _identity_checks(tols) -> list[dict]:
    checks = []
    for iid in identities.IDENTITY_IDS:
        rep = identities.run_identity_case(iid, tol=tols["identity"],
                                           gates=tols)
        checks.append(report.check_record(
            f"identity/{iid}", identities.case_value(rep), tols["identity"],
            bool(rep["passed"])))
    return checks


def _ode_checks(tols, scan_cells: int) -> list[dict]:
    checks = []
    closure_tol = tols["round_closure"]
    for cid, s0, c, t_ref in (
        ("ode/round-closure", 2.0, 4.0 / 3.0, np.pi),
        ("ode/radius-two-closure", 0.5, 1.0 / 12.0, 2.0 * np.pi),
    ):
        out = profiles.integrate_profile(s0, c).outcome
        err = (abs(out.t_close - t_ref) if out.t_close is not None
               else float("inf"))
        checks.append(report.check_record(
            cid, err, closure_tol,
            out.classification == "Closed" and err <= closure_tol,
            expected=float(t_ref)))

    t1 = profiles.integrate_profile(2.0, 4.0 / 3.0, rtol=1e-10).outcome
    t2 = profiles.integrate_profile(2.0, 4.0 / 3.0, rtol=5e-11).outcome
    halving = abs(t1.t_close - t2.t_close)
    checks.append(report.check_record(
        "ode/tolerance-halving", halving, tols["ode_halving"],
        halving <= tols["ode_halving"]))

    res = profiles.scan(np.linspace(-4.0, 4.0, scan_cells),
                        np.linspace(-2.0, 2.0, scan_cells),
                        s_range_tol=tols["scan_s_range"])
    classes: dict[str, int] = {}
    for row in res["rows"]:
        classes[row["class"]] = classes.get(row["class"], 0) + 1
    checks.append(report.check_record(
        "ode/scan-corroborates",
        {"closed_count": res["closed_count"], "classes": classes},
        tols["scan_s_range"], bool(res["corroborates"]),
        inputs={"cells": scan_cells}))
    return checks


def run_suite(soliton_count: int = 80, scan_cells: int = 9,
              tol_overrides=None) -> dict:
    """Run the whole battery and return the assembled report."""
    tols = tolerances.resolve(tol_overrides)
    config = {"soliton_count": soliton_count, "scan_cells": scan_cells,
              "tolerances": tols}
    checks = []
    checks.extend(_bach_property_checks(tols))
    checks.extend(_product_checks(tols))
    checks.extend(_soliton_checks(tols, soliton_count))
    checks.extend(_identity_checks(tols))
    checks.extend(_ode_checks(tols, scan_cells))
    return report.build_report(config, checks)
