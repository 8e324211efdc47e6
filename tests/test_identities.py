"""Pointwise and integral identity checks across the metric corpus."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from bachlab import (charts, curvature, homogeneous, identities, products,
                     solitons, suite, tolerances)
from bachlab.cli import main
from bachlab.curvature import BASE_ORDER, CurvatureFrame, values
from conftest import chunk_orders, count_frames
from bachlab.identities import (IdentityError, bochner_identity,
                                bourguignon_ezin_integral,
                                lie_divergence_identity,
                                lie_pairing_identity, run_identity_case,
                                soliton_conformality_integral,
                                soliton_integral_identities,
                                surface_scalar_rigidity, yano_identity)

CORPUS = (
    lambda: charts.conformal_round_sphere("0.2*cos(th)"),
    lambda: charts.hyperbolic_2(1.3),
    lambda: charts.berger_sphere(1.4),
)

def generic_fields(man):
    """A generic vector field and symmetric 2-tensor for a chart."""
    coords = man.coords
    x = tuple(f"0.3*cos({coords[(i + 1) % len(coords)]}) + 0.1*{coords[i]}"
              if not man.periodic[i] else
              f"0.3*cos({coords[(i + 1) % len(coords)]})"
              for i in range(len(coords)))
    t = tuple(tuple(
        f"{2.0 + (i == j):g} + "
        f"0.2*sin({coords[min(i, j)]})*cos({coords[max(i, j)]})"
        for j in range(len(coords))) for i in range(len(coords)))
    return x, t


# ----------------------------------------------------------------------
# Lie pairing identity
# ----------------------------------------------------------------------
def test_lie_pairing_on_corpus():
    for build in CORPUS:
        man = build()
        x, t = generic_fields(man)
        out = lie_pairing_identity(man, x, t, count=50)
        assert out["sup"] <= 1e-7, man.name
        assert len(out["residuals"]) >= 50


def test_lie_pairing_with_metric_tensor_gives_twice_divergence():
    man = charts.round_sphere(2)
    x = ("0.4*sin(ph)*sin(th)", "0.7")
    out = lie_pairing_identity(man, x, man.metric_strs, count=10)
    assert out["sup"] <= 1e-12
    p = out["points"][3]
    frame = CurvatureFrame(man, p)
    xj = frame.vector_jets(x)
    lie = frame.lie_metric(xj)
    lhs = values(frame.inner_sym2(lie, frame.g.truncated(lie[0, 0].order)))
    assert abs(lhs - 2.0 * values(frame.divergence_vector(xj))) <= 1e-13


def test_lie_pairing_killing_both_sides_vanish():
    man = charts.round_sphere(2)
    _, t = generic_fields(man)
    out = lie_pairing_identity(man, ("0", "1"), t, count=10)
    assert out["sup"] <= 1e-13


@pytest.mark.parametrize("t", [[["1", "0"]], [["1", "0"], ["0"]],
                               [["1", "0", "0"], ["0", "1", "0"]]])
def test_lie_pairing_rejects_a_tensor_of_the_wrong_shape(t):
    man = charts.round_sphere(2)
    with pytest.raises(IdentityError, match="2 x 2"):
        lie_pairing_identity(man, ("0", "1"), t, count=2)


# ----------------------------------------------------------------------
# integral identities on constructed data
# ----------------------------------------------------------------------
def test_integral_identities_sphere_exact_fixture():
    man = charts.round_sphere(2)
    out = soliton_integral_identities(man, ("-sin(th)", "0"), "0.3*cos(th)")
    # q = -2.6 cos(th) g: the trace-free part vanishes identically
    assert abs(out["rhs1"]) <= 1e-14
    assert abs(out["rhs2"]) <= 1e-14
    assert out["imbalance1"] <= 1e-12
    pi = np.pi
    assert abs(out["terms"]["phi_trace"] + 1.56 * 4 * pi / 3) <= 1e-10
    assert abs(out["terms"]["trace_sq"] - 6.76 * 4 * pi / 3) <= 1e-10
    assert abs(out["terms"]["div_pair"] + 2.6 * 8 * pi / 3) <= 1e-10


def test_integral_identities_zero_data():
    man = charts.flat_torus((5.0, 6.0))
    out = soliton_integral_identities(man, ("0", "0"), "0")
    for key in ("lhs1", "rhs1", "lhs2", "rhs2"):
        assert out[key] == 0.0


def test_integral_identities_random_fields_balance():
    man = charts.flat_torus()
    out = soliton_integral_identities(
        man, ("exp(0.3*sin(t0))", "0.4*cos(t0 + 2*t1)"),
        "0.2*exp(0.2*cos(t1))")
    assert out["imbalance1"] <= 1e-8 * max(out["scale1"], 1.0)
    assert out["imbalance2"] <= 1e-8 * max(out["scale2"], 1.0)


def test_integral_imbalance_shrinks_under_doubling():
    # globally smooth sphere data: grad(exp(0.2 z)) plus z times the
    # rotation field (a theta component must vanish at the poles)
    man = charts.round_sphere(2)
    x = ("-0.2*sin(th)*exp(0.2*cos(th))", "0.4 + 0.1*cos(th)")
    phi = "0.1*exp(0.3*cos(th))"
    coarse = soliton_integral_identities(man, x, phi, resolution=(8, 10))
    fine = soliton_integral_identities(man, x, phi, resolution=(16, 20))
    assert coarse["imbalance1"] > 1e-9  # genuinely unresolved
    assert fine["imbalance1"] <= coarse["imbalance1"] / 10.0
    assert fine["imbalance2"] <= max(coarse["imbalance2"] / 10.0, 1e-14)

    torus = charts.flat_torus()
    x = ("exp(0.8*sin(t0)) - 1", "0.5*cos(t0 + t1)")
    phi = "0.3*exp(0.5*cos(t1))"
    coarse = soliton_integral_identities(torus, x, phi, resolution=(6, 6))
    fine = soliton_integral_identities(torus, x, phi, resolution=(12, 12))
    assert coarse["imbalance1"] > 1e-9
    assert fine["imbalance1"] <= coarse["imbalance1"] / 10.0
    assert fine["imbalance2"] <= coarse["imbalance2"] / 10.0


def test_integral_identities_need_compact_chart():
    with pytest.raises(IdentityError, match="compact"):
        soliton_integral_identities(charts.get_example("r2_x_s2"),
                                    ("0", "0", "0", "0"))


def test_constructed_data_consistency_loop():
    # the constructed q closes the generalized soliton relation exactly,
    # and the integral identities then balance on the same data
    man = charts.round_sphere(2)
    x = ("-0.3*sin(th)*exp(0.2*cos(th))", "0.5 + 0.2*cos(th)")
    phi = "0.4*cos(th)"
    spec = solitons.SolitonSpec(manifold=man, x_exprs=x, phi=phi,
                                q="constructed")
    rep = solitons.extended_q_residual(spec, count=12)
    assert rep.sup <= 1e-14
    out = soliton_integral_identities(man, x, phi)
    assert out["imbalance1"] <= 1e-9 * max(out["scale1"], 1.0)
    assert out["imbalance2"] <= 1e-9 * max(out["scale2"], 1.0)


# ----------------------------------------------------------------------
# divergence of the Lie derivative
# ----------------------------------------------------------------------
def test_lie_divergence_identity_on_corpus():
    for build in CORPUS:
        man = build()
        x, _ = generic_fields(man)
        out = lie_divergence_identity(man, x, "0.2*cos(" +
                                      man.coords[0] + ")", count=50)
        assert out["sup"] <= 1e-7, man.name


def test_lie_divergence_killing_all_terms_vanish():
    man = charts.round_sphere(2)
    out = lie_divergence_identity(man, ("0", "1"), "0", count=8)
    assert out["sup"] <= 1e-13


# ----------------------------------------------------------------------
# conformal-field scalar identity
# ----------------------------------------------------------------------
def test_yano_round_sphere_gradient_field():
    man = charts.round_sphere(2)
    out = yano_identity(man, ("-sin(th)", "0"), count=30)
    assert out["sup"] <= 1e-11
    assert out["conformality_gap"] <= 1e-12


def test_yano_killing_field():
    man = charts.round_sphere(2)
    out = yano_identity(man, ("0", "1"), count=10)
    assert out["sup"] <= 1e-12


def test_yano_survives_conformal_rescaling():
    # the same coordinate field stays conformal for every metric in the
    # conformal class; the identity must hold with the rescaled geometry
    for u in ("0.2*cos(th)", "0.15*sin(th)*cos(ph)"):
        man = charts.conformal_round_sphere(u)
        out = yano_identity(man, ("-sin(th)", "0"), count=40)
        assert out["sup"] <= 1e-7, u
        out2 = yano_identity(man, ("0", "1"), count=20)
        assert out2["sup"] <= 1e-7, u


def test_yano_builds_one_frame_per_point_set(monkeypatch):
    orders = count_frames(monkeypatch)
    man = charts.get_example("conformal_sphere_bump")
    out = yano_identity(man, ("-sin(th)", "0"), count=7)
    assert orders == [(BASE_ORDER, len(out["points"]))]


def test_yano_rejects_non_conformal_field():
    man = charts.round_sphere(2)
    with pytest.raises(IdentityError, match="not conformal"):
        yano_identity(man, ("0.3*sin(ph)*sin(th)", "0"), count=6)


# ----------------------------------------------------------------------
# conformal-field integral of the flow trace
# ----------------------------------------------------------------------
def test_bourguignon_ezin_on_bumpy_sphere():
    man = charts.get_example("conformal_sphere_bump")
    out = bourguignon_ezin_integral(man, ("-sin(th)", "0"), "ricci")
    assert abs(out["integral"]) <= 1e-7 * out["scale"]
    assert out["bianchi_residual"] <= 1e-8
    out2 = bourguignon_ezin_integral(man, ("-sin(th)", "0"),
                                     "scalar_metric")
    assert abs(out2["integral"]) <= 1e-7 * out2["scale"]


def test_bourguignon_ezin_constant_curvature_trivial():
    man = charts.round_sphere(2)
    out = bourguignon_ezin_integral(man, ("-sin(th)", "0"), "ricci")
    assert abs(out["integral"]) <= 1e-13


def test_bourguignon_ezin_builds_one_frame_per_node_set(monkeypatch):
    orders = count_frames(monkeypatch)
    man = charts.get_example("conformal_sphere_bump")
    out = bourguignon_ezin_integral(man, ("-sin(th)", "0"), "ricci",
                                    resolution=(6, 5))
    assert out["nodes"] == 30
    assert orders == [(BASE_ORDER, 30)]


def test_bourguignon_ezin_guards():
    man = charts.get_example("conformal_sphere_bump")
    with pytest.raises(IdentityError, match="unknown q_mode"):
        bourguignon_ezin_integral(man, ("-sin(th)", "0"), "weyl")
    with pytest.raises(IdentityError, match="dimension 2"):
        bourguignon_ezin_integral(charts.round_sphere(3),
                                  ("0", "0", "1"), "scalar_metric")
    with pytest.raises(IdentityError, match="not conformal"):
        bourguignon_ezin_integral(man, ("0.3*sin(ph)*sin(th)", "0"),
                                  "ricci")


# ----------------------------------------------------------------------
# conformality from the vanishing integral
# ----------------------------------------------------------------------
def test_conformality_integral_conformal_data():
    man = charts.round_sphere(2)
    out = soliton_conformality_integral(man, ("-sin(th)", "0"),
                                        "0.1*cos(th)")
    assert out["verdict"] == "conformal"
    assert abs(out["integral"]) <= 1e-12
    assert out["conformality_sup"] <= 1e-12


def test_conformality_integral_dim2_needs_no_trace_term():
    # in dimension 2 the L_X term carries weight (n-2)/n = 0
    man = charts.round_sphere(2)
    out = soliton_conformality_integral(man, ("-sin(th)", "0"), "0")
    assert out["integral"] == pytest.approx(out["qbar_integral"], abs=1e-15)
    assert out["verdict"] == "conformal"


def test_conformality_integral_killing_dim4():
    man = charts.get_example("s2_x_t2")
    out = soliton_conformality_integral(man, ("0", "1", "0", "0"), "0.25",
                                        resolution=3)
    assert out["verdict"] == "conformal"
    assert out["bianchi_residual"] <= 1e-12


def test_conformality_integral_nonconformal_control():
    man = charts.round_sphere(2)
    out = soliton_conformality_integral(man, ("0.3*sin(ph)*sin(th)", "0"),
                                        "0")
    assert out["verdict"] == "nonzero"
    assert out["integral"] > 0.1


# ----------------------------------------------------------------------
# Bochner identity
# ----------------------------------------------------------------------
def test_bochner_on_corpus():
    for build in CORPUS:
        man = build()
        h = f"0.5*cos({man.coords[0]}) + 0.2*{man.coords[1]}" \
            if not man.periodic[1] else \
            f"0.5*cos({man.coords[0]}) + 0.2*sin({man.coords[1]})"
        out = bochner_identity(man, h, count=50)
        assert out["sup"] <= 1e-7, man.name


def test_bochner_constant_and_closed_form():
    man = charts.round_sphere(2)
    assert bochner_identity(man, "4.2", count=6)["sup"] == 0.0
    # h = cos(th): Hess h = -cos(th) g, div(Hess h) = -d cos(th),
    # Ric(grad h) = d h shifted by the curvature; identity at 1e-13
    assert bochner_identity(man, "cos(th)", count=12)["sup"] <= 1e-13


# ----------------------------------------------------------------------
# compact-surface scalar rigidity
# ----------------------------------------------------------------------
def test_rigidity_round_sphere_and_torus():
    out = surface_scalar_rigidity(charts.round_sphere(2))
    assert out["passed"] and out["scalar_constant"]
    assert out["grad_identity_sup"] <= 1e-6
    assert out["cauchy_schwarz_slack"] >= -1e-10
    out2 = surface_scalar_rigidity(
        charts.flat_torus((5.0, 7.0)))
    assert out2["passed"]
    assert out2["hess_sq_integral"] == 0.0


def test_rigidity_builds_one_frame_per_point_set(monkeypatch):
    orders = count_frames(monkeypatch)
    out = surface_scalar_rigidity(charts.round_sphere(2),
                                  resolution=(6, 5))
    assert out["passed"]
    assert orders == [(BASE_ORDER + 1, 24), (BASE_ORDER, 30)]


def test_quadrature_on_a_4_manifold_builds_bounded_frames(monkeypatch):
    # 6^4 nodes at order 3: 81 frames of 16 points, not one of 1,296
    orders = count_frames(monkeypatch)
    rep = run_identity_case("thm32", {
        "manifold": "s2_x_t2", "X": ["0"] * 4, "phi": "0.1*cos(th)",
        "resolution": 6})
    assert rep["nodes"] == 1296 and rep["passed"]
    assert orders == chunk_orders(1296, order=3)


S2_X_T2_CASES = {
    "thm32": {"manifold": "s2_x_t2", "resolution": 4, "phi": "0.1*cos(th)",
              "X": ["0.1*sin(th)*cos(t0)", "0.2", "0.3*cos(th)",
                    "0.1*sin(t1)"]},
    "lemma35": {"manifold": "s2_x_t2", "count": 20,
                "X": ["0.3*sin(th)*cos(t0)", "0.2*cos(ph)", "0.1*sin(t1)",
                      "0.4"],
                "T": [[f"{2 + i} + 0.1*cos(th)" if i == j else
                       f"0.05*sin(t{(i + j) % 2})" for j in range(4)]
                      for i in range(4)]},
}


@pytest.mark.parametrize("iid", sorted(S2_X_T2_CASES))
def test_dim4_reports_do_not_depend_on_the_frame_bound(monkeypatch, iid):
    chunked = run_identity_case(iid, S2_X_T2_CASES[iid])
    with monkeypatch.context() as m:
        m.setattr(curvature, "_FRAME_COEFFS", 10 ** 9)
        whole = run_identity_case(iid, S2_X_T2_CASES[iid])
    assert repr(whole) == repr(chunked)


@pytest.mark.parametrize("iid", ["thm32", "thm38", "be", "lemma48"])
def test_integral_identities_form_the_volume_density_once(monkeypatch, iid):
    density = charts.volume_density
    calls = []
    monkeypatch.setattr(charts, "volume_density",
                        lambda *a: calls.append(a) or density(*a))
    run_identity_case(iid, {"resolution": [6, 5]})
    assert len(calls) == 1


def test_rigidity_honours_the_case_tolerance():
    # the round sphere's scalar spread is a few ulp, not zero
    assert run_identity_case("lemma48")["passed"]
    rep = run_identity_case("lemma48", tol=1e-30)
    assert rep["scalar_spread"] > 1e-30
    assert not rep["passed"]


def test_identity_gate_comes_from_the_table_unless_tol_is_given(capsys):
    tight = tolerances.resolve({"identity": 1e-300})
    assert run_identity_case("bochner")["passed"]
    assert not run_identity_case("bochner", gates=tight)["passed"]
    assert not run_identity_case("bochner", tol=1e-300)["passed"]
    # an explicit tol replaces the table's identity gate either way
    assert run_identity_case("bochner", tol=1e-7, gates=tight)["passed"]
    assert main(["check", "identity", "--id", "bochner",
                 "--tol", "1e-300"]) == 1
    assert "FAIL identity/bochner" in capsys.readouterr().out


def test_rigidity_slack_gate_fails_a_planted_defect(monkeypatch):
    # the default case's slack is exactly 0.0; lowering ||Hess S||^2 by
    # 1e-6 (well inside the integral identity at tol 1.0) breaks the bound
    norm2 = CurvatureFrame.norm2_sym2
    monkeypatch.setattr(CurvatureFrame, "norm2_sym2",
                        lambda self, T: norm2(self, T) - 1e-6)
    rep = run_identity_case("lemma48", tol=1.0)
    assert rep["cauchy_schwarz_slack"] == pytest.approx(-1e-6, rel=1e-9)
    assert not rep["passed"]
    loose = tolerances.resolve({"rigidity_slack": 1e-3})
    assert run_identity_case("lemma48", tol=1.0, gates=loose)["passed"]


def test_rigidity_rejects_nonconstant_invariant():
    with pytest.raises(IdentityError, match="hypothesis violated"):
        surface_scalar_rigidity(charts.get_example("conformal_sphere_bump"))


def test_rigidity_needs_surface():
    with pytest.raises(IdentityError, match="surfaces"):
        surface_scalar_rigidity(charts.round_sphere(3))


# ----------------------------------------------------------------------
# case plumbing
# ----------------------------------------------------------------------
def test_default_cases_all_pass():
    for iid in identities.IDENTITY_IDS:
        rep = run_identity_case(iid)
        assert rep["passed"], iid
        assert rep["identity"] == iid


def test_case_overrides_and_validation():
    rep = run_identity_case("lemma35", {
        "manifold": "flat_torus_2",
        "X": ("0.3*cos(t1)", "0.2*sin(t0)"),
        "T": (("1", "0.1*cos(t0)"), ("0.1*cos(t0)", "2")),
        "count": 12})
    assert rep["passed"]
    with pytest.raises(IdentityError, match="unknown identity id"):
        run_identity_case("lemma99")
    with pytest.raises(IdentityError, match="unknown case fields"):
        run_identity_case("lemma35", {"tensor": []})
    with pytest.raises(IdentityError, match="not conformal"):
        run_identity_case("yano", {"manifold": "round_sphere_2",
                                   "X": ("0.3*sin(ph)*sin(th)", "0")})


class _ReadTable(dict):
    """A tolerance table that records the keys read from it."""

    def __init__(self, table):
        super().__init__(table)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _default_run(iid, tols):
    case = identities._IDENTITIES[iid]
    kwargs = {identities._KEYWORDS.get(f, f): case.default[f]
              for f in case.fields if f in case.default}
    return case.run(charts.resolve_manifold(case.default["manifold"]),
                    tols=tols, **kwargs)


# the gates each identity's default case reads from its tolerance table
GATES_READ = {
    "lemma35": {"identity"},
    "thm32": {"identity"},
    "yano": {"identity", "conformal_gate"},
    "be": {"identity", "conformal_gate", "bianchi"},
    "thm38": {"identity", "conformal_gate"},
    "bochner": {"identity"},
    "lemma48": {"identity", "rigidity_c_spread", "rigidity_grad",
                "rigidity_slack"},
}


def test_identity_registry_has_no_verdicts_of_its_own():
    assert identities._Identity._fields == ("run", "default", "fields")


@pytest.mark.parametrize("iid", identities.IDENTITY_IDS)
def test_identity_registry_entry_decides_from_the_table(iid):
    case = identities._IDENTITIES[iid]
    params = inspect.signature(case.run).parameters
    assert "tols" in params
    for field in case.fields:
        assert identities._KEYWORDS.get(field, field) in params, field
    tols = _ReadTable(tolerances.DEFAULTS)
    assert type(_default_run(iid, tols)["passed"]) is bool
    assert tols.read == GATES_READ[iid]


@pytest.mark.parametrize("key", ["identity", "conformal_gate", "bianchi",
                                 "rigidity_c_spread", "rigidity_grad"])
def test_a_tightened_gate_fails_every_identity_that_reads_it(key):
    # rigidity_slack is left out: lemma48's default slack is exactly 0.0
    readers = [iid for iid in identities.IDENTITY_IDS
               if key in GATES_READ[iid]]
    assert readers
    tight = ({"tol": 1e-300} if key == "identity"
             else {"gates": tolerances.resolve({key: 1e-300})})
    for iid in readers:
        try:
            passed = run_identity_case(iid, **tight)["passed"]
        except IdentityError:
            passed = False
        assert passed is False, iid


@pytest.mark.parametrize("iid, doc", [
    ("yano", {"resolution": [3, 3]}),
    ("thm32", {"count": 10}),
    ("thm38", {"count": 10}),
    ("be", {"count": 10}),
    ("lemma35", {"h": "0"}),
    ("bochner", {"X": ("0", "0")}),
    ("lemma48", {"X": ("0", "0")}),
    ("lemma48", {"count": 5}),
])
def test_case_rejects_fields_its_identity_does_not_read(iid, doc):
    # each of these fields would change nothing in the identity's report
    with pytest.raises(IdentityError, match="unknown case fields") as err:
        run_identity_case(iid, doc)
    assert iid in str(err.value) and "its fields: manifold" in str(err.value)


@pytest.mark.parametrize("count", ["7", 7.9, 7.0, None, True])
def test_case_count_needs_a_whole_number(count):
    with pytest.raises(IdentityError, match="count needs a whole number"):
        run_identity_case("yano", {"count": count})


@pytest.mark.parametrize("iid, doc, message", [
    ("yano", {"manifold": "flat_torus_2", "X": "00"}, "X must be a list"),
    ("thm32", {"X": "xy"}, "X must be a list"),
    ("lemma35", {"T": "ab"}, "T must be a list of rows"),
    ("lemma35", {"T": ["10", "01"]}, "T must be a list of rows"),
    ("lemma35", {"T": [["1", "0"], "01"]}, "T must be a list of rows"),
])
def test_case_expression_lists_are_lists(iid, doc, message):
    # a string would be taken as the list of its one-letter expressions
    with pytest.raises(IdentityError, match=message):
        run_identity_case(iid, doc)


def test_case_document_must_be_an_object():
    with pytest.raises(IdentityError, match="must be an object"):
        run_identity_case("yano", [])


def small_float_literals(module, allowed=()):
    """(line, value) of each float literal up to 1e-3 in a module's source,
    except those assigned to a name in `allowed`.  Every gate is a small
    number; formula constants (0.5, 2.0, ...) are not."""
    tree = ast.parse(Path(module.__file__).read_text())
    exempt = {id(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in allowed}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) not in exempt
            and type(node.value) is float and 0.0 < abs(node.value) <= 1e-3]


def test_identity_gates_live_in_the_tolerance_table():
    tree = ast.parse(Path(identities.__file__).read_text())
    assert small_float_literals(identities) == []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for default in fn.args.defaults + fn.args.kw_defaults:
                assert not (isinstance(default, ast.Constant)
                            and type(default.value) is float), fn.name
    assert {key: tolerances.DEFAULTS[key] for key in (
        "conformal_gate", "bianchi", "rigidity_c_spread", "rigidity_grad",
        "rigidity_slack")} == {
        "conformal_gate": 1e-9, "bianchi": 1e-8, "rigidity_c_spread": 1e-8,
        "rigidity_grad": 1e-6, "rigidity_slack": 1e-10}


@pytest.mark.parametrize("module, allowed", [
    (solitons, ()),
    (products, ()),
    (homogeneous, ()),
])
def test_soliton_and_product_gates_live_in_the_tolerance_table(module,
                                                               allowed):
    assert small_float_literals(module, allowed) == []
    tree = ast.parse(Path(module.__file__).read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            args = fn.args.args + fn.args.kwonlyargs
            defaults = ([None] * (len(fn.args.args) - len(fn.args.defaults))
                        + fn.args.defaults + fn.args.kw_defaults)
            for arg, default in zip(args, defaults):
                if arg.arg == "tol" or arg.arg.endswith("_tol"):
                    assert not (isinstance(default, ast.Constant)
                                and type(default.value) is float), fn.name


def test_soliton_and_product_gate_defaults_read_the_table():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    table = tolerances.DEFAULTS
    for fn in (solitons.extended_q_residual, solitons.bach_soliton_residual,
               solitons.quadratic_profile_check):
        assert default(fn, "tol") == table["soliton"] == 1e-7
    assert default(solitons.solve_berger_soliton, "residual_tol") \
        == table["berger_residual"] == 1e-7
    assert default(solitons.solve_berger_soliton, "round_exclusion") \
        == table["berger_round_exclusion"] == 1e-3
    for fn, name in ((solitons.quadratic_profile_check, "constancy_tol"),
                     (solitons.solve_berger_soliton, "constancy_tol"),
                     (products.constancy_spread, "tol"),
                     (products.product_lambda_report, "tol")):
        assert default(fn, name) == table["factor_constancy"] == 1e-8


def test_constancy_gate_comes_from_the_resolved_table():
    # the Berger spheres' S and |Ric|^2 spread by a few ulp, not zero
    # the violated hypothesis fails its own checks, with the error's text
    tight = tolerances.resolve({"factor_constancy": 1e-30})
    recs = suite._product_checks(tight) + suite._soliton_checks(tight,
                                                                count=4)
    failed = {rec["check_id"]: rec for rec in recs if not rec["pass"]}
    assert set(failed) == {"products/lambda-sign/circle",
                           "products/lambda-sign/line", "soliton/berger-root",
                           "soliton/round-berger-lambda-zero"}
    for cid, rec in failed.items():
        assert rec["value"] is None, cid
        assert "must be constant on N" in rec["detail"]["error"], cid


def test_case_gates_come_from_the_resolved_table():
    with pytest.raises(IdentityError, match="div q = .1/2. d tr q"):
        run_identity_case("be", gates=tolerances.resolve({"bianchi": 1e-30}))
    with pytest.raises(IdentityError, match="hypothesis violated"):
        run_identity_case("lemma48", gates=tolerances.resolve(
            {"rigidity_c_spread": 1e-30}))
    assert not run_identity_case("lemma48", gates=tolerances.resolve(
        {"rigidity_grad": 1e-30}))["passed"]
    # a field far from conformal passes a gate loosened past its gap
    bent = {"manifold": "round_sphere_2", "X": ("0.3*sin(ph)*sin(th)", "0")}
    rep = run_identity_case("yano", bent, gates=tolerances.resolve(
        {"conformal_gate": 10.0}))
    assert rep["conformality_gap"] > 1e-3
