"""Gates fail closed: a NaN in a computed quantity can never pass a check."""

import math

import numpy as np
import pytest

from bachlab import (charts, identities, products, profiles, report, solitons,
                     suite, tolerances)
from bachlab.curvature import CurvatureFrame
from bachlab.jets import Jet


def _nan_jet(dim, shape=(), order=0):
    return Jet(dim, order, np.full(shape + (math.comb(dim + order, order),),
                                   np.nan))


# a NaN Bach tensor at the order of the frame's own (order m - 4), so that
# the exact divergence of an order-5 frame can still differentiate it
_NAN_BACH = property(lambda self: _nan_jet(4, (4, 4), self.order - 4))


def test_sup_maps_non_finite_values_to_inf():
    assert max(0.0, math.nan) == 0.0  # the accumulator this replaces
    assert report.sup(0.0, math.nan) == math.inf
    assert report.sup(0.0, np.array([1.0, -math.inf])) == math.inf
    assert report.sup(0.5, np.array([[0.25, 2.0]])) == 2.0
    assert report.sup() == 0.0


def test_check_record_never_passes_a_non_finite_value():
    assert report.check_record("x", 1e-12, 1e-9, True)["pass"]
    assert not report.check_record("x", math.nan, 1e-9, True)["pass"]
    assert not report.check_record(
        "x", {"a": 0.0, "b": [0.0, math.inf]}, 1e-9, True)["pass"]


def test_nan_bach_fails_the_product_cross_check(monkeypatch):
    monkeypatch.setattr(CurvatureFrame, "bach", _NAN_BACH)
    worst = products.line_cross_check(charts.round_sphere(3), count=1)
    assert worst == math.inf
    worst = products.surface_cross_check(charts.round_sphere(2),
                                         charts.flat_torus(), count=1)
    assert worst == math.inf


def test_nan_divergence_fails_the_soliton_profile_check(monkeypatch):
    monkeypatch.setattr(CurvatureFrame, "divergence_vector",
                        lambda self, X: _nan_jet(self.n, self.batch))
    man = charts.product([charts.line(4.0), charts.berger_sphere(1.0)])
    pc = solitons.quadratic_profile_check(man, 0.0, count=4)
    assert pc["residual"].passed  # the NaN sits only in the traced identity
    assert pc["traced_identity_deviation"] == math.inf
    assert not pc["passed"]


def test_nan_bach_fails_the_suite_bach_group(monkeypatch):
    monkeypatch.setattr(CurvatureFrame, "bach", _NAN_BACH)
    records = suite._bach_property_checks(tolerances.resolve(), count=1)
    assert [r["check_id"] for r in records] == [
        "curvature/bach-trace", "curvature/bach-divergence",
        "curvature/bach-conformal"]
    assert not any(r["pass"] for r in records)


def test_nan_lie_derivative_fails_the_conformality_gate(monkeypatch):
    monkeypatch.setattr(CurvatureFrame, "lie_metric",
                        lambda self, X: _nan_jet(self.n,
                                                 (self.n,) * 2 + self.batch))
    with pytest.raises(identities.IdentityError, match="not conformal"):
        identities.yano_identity(charts.get_example("round_sphere_2"),
                                 ("-sin(th)", "0"), count=2)


def _closed_run_with_nan_curvature(s0, c, **controls):
    nan = np.full(2, math.nan)
    return profiles.ProfileRun(
        t=nan, rho=nan, rho_p=nan, s=nan, s_p=nan,
        outcome=profiles.ScanOutcome(profiles.CLOSED, math.pi, math.nan,
                                     math.nan))


def test_nan_s_range_fails_the_scan_corroboration(monkeypatch):
    monkeypatch.setattr(profiles, "integrate_profile",
                        _closed_run_with_nan_curvature)
    res = profiles.scan([2.0], [4.0 / 3.0])
    assert res["closed_count"] == 1
    assert not res["corroborates"]
    records = suite._ode_checks(tolerances.resolve(), scan_cells=2)
    assert records[-1]["check_id"] == "ode/scan-corroborates"
    assert not records[-1]["pass"]


def test_nan_at_one_node_fails_a_point_set_identity(monkeypatch):
    # the fault enters once, in node 3's metric jets, so that node is its
    # own point among the distinct metric jets of the grid
    metric_jets = charts.Chart.metric_jets

    def nan_at_node_3(self, point, order=4):
        g = metric_jets(self, point, order)
        if np.ndim(point) == 2 and len(point) > 3:
            g.coeffs[..., 3, :] = math.nan
        return g

    monkeypatch.setattr(charts.Chart, "metric_jets", nan_at_node_3)
    man = charts.get_example("round_sphere_2")
    out = identities.bochner_identity(man, "0.5*cos(th)", count=6)
    assert np.isnan(out["residuals"][3])
    assert np.all(np.isfinite(np.delete(out["residuals"], 3)))
    assert out["sup"] == math.inf
    rep = identities.run_identity_case("bochner", {"count": 6})
    assert rep["sup"] == math.inf and not rep["passed"]


def test_nan_at_one_node_fails_a_soliton_residual(monkeypatch):
    bach = CurvatureFrame.bach.func

    def nan_at_node_3(self):
        b = bach(self)
        b.coeffs[..., 3, :] = math.nan
        return b

    monkeypatch.setattr(CurvatureFrame, "bach", property(nan_at_node_3))
    rep = solitons.named_example("ho-r2s2", count=6)
    assert np.isnan(rep.norms[3])
    assert np.all(np.isfinite(np.delete(rep.norms, 3)))
    assert rep.sup == math.inf and not rep.passed
