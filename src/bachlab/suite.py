"""Aggregated verification battery behind the ``suite all`` command.

Runs every module's example checks — curvature tensor properties, product
closed forms against the pipeline, named soliton examples, the squashed
three-sphere root solve, the identity bank, and the profile ODE — and
assembles one deterministic report.  Each check's gate is read from the
resolved tolerance table (the defaults merged with the run's overrides)
under a key stated once, where the check lives: a named soliton example
carries its ``gate`` key, and an identity case reads its own gates from
the table.  The configuration (sample counts, resolved tolerances) is
echoed into the report, and the same configuration gives the same report
byte for byte.  Every record goes through one path, `_check`, whose
verdict is ``value <= gate`` unless the check states its own.  A check
whose hypothesis does not hold (an identity's field is not conformal, a
product factor's curvature is not constant) fails on its own, with its
error in the record's detail, and the others still run.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import charts, identities, products, profiles, report, solitons
from . import tolerances
from .curvature import BASE_ORDER, on_points

__all__ = ["run_suite"]

# a violated hypothesis: a typed error of the check's own module
_HYPOTHESIS_ERRORS = (identities.IdentityError, products.ProductFormulaError,
                      solitons.SolitonError)


@contextlib.contextmanager
def _check(checks: list, check_id: str, tolerance):
    """Yields ``record(value, passed=None, **fields)``, which appends the
    check's record to ``checks``; ``passed`` defaults to ``value <=
    tolerance`` (a NaN compares false, and `report.check_record` fails any
    value that is not finite).  A violated hypothesis appends a failed
    record instead (value null, the error in the detail)."""
    def record(value, passed=None, **fields):
        if passed is None:
            passed = value <= tolerance
        checks.append(report.check_record(check_id, value, tolerance, passed,
                                          **fields))
    try:
        yield record
    except _HYPOTHESIS_ERRORS as err:
        checks.append(report.check_record(check_id, None, tolerance, False,
                                          detail={"error": str(err)}))


def _bach_property_checks(tols, count: int = 2) -> list[dict]:
    base = charts.conformal(charts.get_example("s2_x_t2"),
                            "0.1*cos(th)*cos(t0)", name="bumpy_s2_x_t2")
    u = "0.15*sin(th)*cos(t1)"
    conf = charts.conformal(base, u, name="bumpy_s2_x_t2_rescaled")
    pts = charts.sample_points(base, count)
    # order 5, so that div B comes from the same frame as B and tr B
    tr_b, div_b, b, scale = on_points(base, pts, lambda frame: (
        frame.trace(frame.bach).value,
        frame.divergence_sym2(frame.bach).value, frame.bach.value,
        np.exp(-2.0 * frame.scalar_jet(u).value)), BASE_ORDER + 1)
    b_conf = on_points(conf, pts, lambda frame: frame.bach.value)
    inputs = {"chart": base.name, "points": count, "u": u}
    checks = []
    for name, deviation in (("trace", tr_b), ("divergence", div_b),
                            ("conformal", b_conf - scale * b)):
        with _check(checks, f"curvature/bach-{name}",
                    tols[f"bach_{name}"]) as record:
            record(report.sup(np.abs(deviation)), inputs=inputs)
    return checks


def _product_checks(tols) -> list[dict]:
    tol = tols["product_cross"]
    gate = tols["lambda_einstein_gate"]
    checks = []
    for cid, cross in (
        ("products/line-cross/round-s3", lambda: products.line_cross_check(
            charts.round_sphere(3))),
        ("products/line-cross/berger-1.5", lambda: products.line_cross_check(
            charts.berger_sphere(1.5))),
        ("products/surface-cross/s2-x-t2",
         lambda: products.surface_cross_check(charts.round_sphere(2),
                                              charts.flat_torus())),
        ("products/surface-cross/s2-x-h2",
         lambda: products.surface_cross_check(charts.round_sphere(2),
                                              charts.hyperbolic_2())),
    ):
        with _check(checks, cid, tol) as record:
            record(float(cross()))
    for family, sign in (("circle", 1.0), ("line", -1.0)):
        with _check(checks, f"products/lambda-sign/{family}", gate) as record:
            rep = products.product_lambda_report(
                charts.berger_sphere(1.2), family,
                tol=tols["factor_constancy"])
            einstein = rep["einstein_residual_norm2"]
            record(rep["lambda"], sign * rep["lambda"] > 0 and einstein > gate,
                   detail={"einstein_residual_norm2": einstein})
    with _check(checks, "products/surface-c/round-sphere", tol) as record:
        c_round = products.surface_c_report(charts.round_sphere(2))
        dev = report.sup(abs(c_round["mean"] - 4.0 / 3.0), c_round["spread"])
        record(dev, expected=4.0 / 3.0)
    return checks


def _soliton_checks(tols, count: int) -> list[dict]:
    checks = []
    for name in ("ho-r2s2", "ho-r2h2", "s4-trivial", "berger-line"):
        tol = tols[solitons.EXAMPLES[name]()["gate"]]
        with _check(checks, f"soliton/{name}", tol) as record:
            rep = solitons.named_example(name, count=count, tol=tol)
            record(rep.sup, rep.passed,
                   inputs={"example": name, "count": count})

    with _check(checks, "soliton/berger-root",
                tols["berger_residual"]) as record:
        root = solitons.solve_berger_soliton(
            round_exclusion=tols["berger_round_exclusion"],
            residual_tol=tols["berger_residual"],
            constancy_tol=tols["factor_constancy"])
        root_tol = tols["berger_root"]
        root_ok = (root["outcome"] == "root" and bool(root["passed"])
                   and abs(root["a_star"] - solitons.BERGER_SOLITON_A)
                   <= root_tol
                   and abs(root["lambda_star"]
                           - solitons.BERGER_SOLITON_LAMBDA) <= root_tol)
        record({"a_star": root["a_star"], "lambda_star": root["lambda_star"],
                "residual_sup": root["residual_sup"]}, root_ok,
               expected={"a_star": solitons.BERGER_SOLITON_A,
                         "lambda_star": solitons.BERGER_SOLITON_LAMBDA})

    with _check(checks, "soliton/round-berger-lambda-zero",
                tols["soliton"]) as record:
        round_man = charts.product(
            [charts.line(4.0), charts.berger_sphere(1.0)],
            name="line_x_round_berger")
        pc = solitons.quadratic_profile_check(
            round_man, 0.0, count=8, tol=tols["soliton"],
            constancy_tol=tols["factor_constancy"])
        record(pc["residual"].sup, bool(pc["passed"]), expected=0.0)

    with _check(checks, "soliton/conformal-factor-field",
                tols["conformal_field"]) as record:
        man = charts.get_example("r2_x_s2")
        spec = solitons.SolitonSpec(manifold=man,
                                    potential="-(x^2 + y^2)/12",
                                    lam=-1.0 / 12.0)
        cf = solitons.surface_conformal_field(man, spec, count=6)
        cf_sup = report.sup(cf["identity_sup"], cf["extended_residual_sup"],
                            cf["offblock_sup"], cf["tracefree_sup"])
        record(cf_sup, detail={"coefficient": cf["coefficient"]})
    return checks


def _identity_checks(tols) -> list[dict]:
    checks = []
    for iid in identities.IDENTITY_IDS:
        with _check(checks, f"identity/{iid}", tols["identity"]) as record:
            rep = identities.run_identity_case(iid, gates=tols)
            record(identities.case_value(rep), bool(rep["passed"]))
    return checks


def _ode_checks(tols, scan_cells: int) -> list[dict]:
    checks = []
    closure_tol = tols["round_closure"]
    for cid, s0, c, t_ref in (
        ("ode/round-closure", 2.0, 4.0 / 3.0, np.pi),
        ("ode/radius-two-closure", 0.5, 1.0 / 12.0, 2.0 * np.pi),
    ):
        with _check(checks, cid, closure_tol) as record:
            out = profiles.integrate_profile(s0, c).outcome
            err = (abs(out.t_close - t_ref) if out.t_close is not None
                   else float("inf"))
            record(err, out.classification == "Closed" and err <= closure_tol,
                   expected=float(t_ref))

    with _check(checks, "ode/tolerance-halving",
                tols["ode_halving"]) as record:
        t1 = profiles.integrate_profile(2.0, 4.0 / 3.0,
                                        rtol=profiles.RTOL).outcome
        t2 = profiles.integrate_profile(2.0, 4.0 / 3.0,
                                        rtol=profiles.RTOL / 2).outcome
        record(abs(t1.t_close - t2.t_close))

    with _check(checks, "ode/scan-corroborates",
                tols["scan_s_range"]) as record:
        res = profiles.scan(np.linspace(-4.0, 4.0, scan_cells),
                            np.linspace(-2.0, 2.0, scan_cells),
                            s_range_tol=tols["scan_s_range"])
        record({"closed_count": res["closed_count"],
                "classes": res["classes"]}, bool(res["corroborates"]),
               inputs={"cells": scan_cells})
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
