"""Input documents, read by one set of rules in `charts`: one object rule
(`read_document`), one number rule (`is_number`) and one table of
expression fields (`EXPR_FIELDS`).

Each bad document runs through the command line, exits 2 and names the
field that holds the fault; each number given as an expression gives the
same value and verdict as its text."""

import json
import math

import pytest

from bachlab.cli import main

NAN, INF = math.nan, math.inf
SPHERE = {"kind": "round_sphere", "params": {"n": 2}}


def _sphere(**params):
    return {"factors": [{"kind": "round_sphere",
                         "params": {"n": 2, **params}}]}


def _run(tmp_path, kind, doc):
    """Exit code and report path of the command that reads a document of
    this kind ("identity:ID" for an identity case, yano by default)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as JSON reads them
    out = str(tmp_path / "report.json")
    kind, _, iid = kind.partition(":")
    args = {
        "manifold": ["curvature", "--manifold", str(path),
                     "--point", "th=1,ph=1"],
        "soliton": ["check", "soliton", "--count", "2", "--case", str(path),
                    "--out", out],
        "identity": ["check", "identity", "--id", iid or "yano",
                     "--case", str(path), "--out", out],
        "scan": ["ode", "scan", "--config", str(path)],
    }[kind]
    return main(args), out


SOLITON = {"manifold": "r2_x_s2", "f": "0"}

BAD_DOCUMENTS = [
    # manifold
    ("manifold", [1], "manifold must be a catalog name or a manifold "
                      "document, got [1]"),
    ("manifold", {"factors": [SPHERE], "extra": 1},
     "unknown manifold fields ['extra']"),
    ("manifold", {"factors": [SPHERE], "name": True},
     "manifold name must be text, got True"),
    # factor
    ("manifold", {"factors": [SPHERE, 5]},
     "factors[1]: a factor must be an object, got 5"),
    ("manifold", {"factors": [{**SPHERE, "weird": 1}]},
     "factors[0]: unknown factor fields ['weird']"),
    ("manifold", {"factors": [{"kind": "donut"}]},
     "factors[0]: unknown factor kind 'donut'"),
    ("manifold", {"factors": [{**SPHERE, "resolution": [3, True]}]},
     "factors[0].resolution needs whole numbers"),
    # params
    ("manifold", {"factors": [{"kind": "round_sphere", "params": [2]}]},
     "factors[0].params: params must be an object, got [2]"),
    ("manifold", _sphere(radius=1.0),
     "factors[0].params: unknown params fields ['radius']"),
    ("manifold", _sphere(r=True), "factors[0].params: param 'r'"),
    ("manifold", _sphere(r="0.5"), "factors[0].params: param 'r'"),
    ("manifold", _sphere(r=NAN), "factors[0].params: param 'r'"),
    ("manifold", _sphere(r=INF), "factors[0].params: param 'r'"),
    ("manifold", {"factors": [{"kind": "flat_torus",
                               "params": {"lengths": [6.0, INF]}}]},
     "factors[0].params: param 'lengths'"),
    ("manifold", {"factors": [{"kind": "conformal_round_sphere", "params": {
        "u": "1e999*0 + 0.1*cos(th)"}}]},
     "factors[0].params.u: number '1e999' overflows a float (at offset 0)"),
    # soliton
    ("soliton", [1], "a soliton must be an object, got [1]"),
    ("soliton", {**SOLITON, "lambda": 0, "extra": 1},
     "unknown soliton fields ['extra']"),
    ("soliton", {**SOLITON, "lambda": True}, "lambda must be a number"),
    ("soliton", {**SOLITON, "lambda": "0.5"}, "lambda must be a number"),
    ("soliton", {**SOLITON, "lambda": NAN}, "lambda must be a number"),
    ("soliton", {**SOLITON, "lambda": INF}, "lambda must be a number"),
    ("soliton", {**SOLITON, "phi": True},
     "phi must be one expression; phi is True"),
    ("soliton", {**SOLITON, "phi": NAN},
     "phi must be one expression; phi is nan"),
    ("soliton", {"manifold": "r2_x_s2", "X": ["0", INF, "0", "0"],
                 "lambda": 0}, "X must be a list of expressions; X[1] is inf"),
    ("soliton", {"manifold": "r2_x_s2", "X": ["0", "0", "sin(", "0"],
                 "phi": "0"}, "X[2]: unexpected 'end of input' (at offset 4)"),
    ("soliton", {**SOLITON, "lambda": 0, "q": "custom",
                 "custom_q": [["0"] * 4] * 3 + [["0", "0", "0", "y*q"]]},
     "custom_q[3][3]: unknown identifier 'q'"),
    ("soliton", {**SOLITON, "lambda": 0, "manifold": _sphere(r=True)},
     "manifold.factors[0].params: param 'r'"),
    ("soliton", {**SOLITON, "lambda": 0, "manifold": "nope"},
     "unknown catalog manifold 'nope'"),
    # identity case
    ("identity", [1], "yano: a case must be an object, got [1]"),
    ("identity", {"resolution": [3, 3]},
     "yano: unknown case fields ['resolution']"),
    ("identity", {"count": True}, "count needs a whole number"),
    ("identity", {"X": ["-sin(th)", True]},
     "X must be a list of expressions; X[1] is True"),
    ("identity", {"X": ["-sin(th)", NAN]},
     "X must be a list of expressions; X[1] is nan"),
    ("identity", {"X": ["-sin(th)", "0.3*q"]},
     "X[1]: unknown identifier 'q'; declared names: ph, th, r (at offset 4)"),
    ("identity", {"manifold": {"factors": [{"kind": "conformal_round_sphere",
                                            "params": {"u": "sin("}}]}},
     "manifold.factors[0].params.u: unexpected 'end of input'"),
    # scan configuration
    ("scan", [1], "a scan must be an object, got [1]"),
    ("scan", {"grid": 3}, "unknown scan fields ['grid']"),
    ("scan", {"s0": [2.0], "rtol": True}, "scan field 'rtol' must be"),
    ("scan", {"s0": [2.0], "rtol": "1e-8"}, "scan field 'rtol' must be"),
    ("scan", {"s0": [2.0], "atol": NAN}, "scan field 'atol' must be"),
    ("scan", {"s0": [2.0], "s_cap": INF}, "scan field 's_cap' must be"),
    ("scan", {"s0": [2.0], "s_range_tol": "1e-5"},
     "scan field 's_range_tol' must be"),
    # scan axis
    ("scan", {"s0": 5}, "s0 grid must be an object, got 5"),
    ("scan", {"s0": {"lo": 0, "hi": 1, "n": 2}},
     "unknown s0 grid fields ['n']"),
    ("scan", {"s0": {"lo": True, "hi": 1, "count": 2}},
     "s0.lo must be a finite number, got True"),
    ("scan", {"c": {"lo": 0, "hi": "1", "count": 2}},
     "c.hi must be a finite number, got '1'"),
    ("scan", {"s0": {"lo": 0, "hi": INF, "count": 2}},
     "s0.hi must be a finite number, got inf"),
    ("scan", {"s0": [NAN]}, "s0[0] must be a finite number, got nan"),
    ("scan", {"s0": [True], "c": ["0.5"]},
     "s0[0] must be a finite number, got True"),
    ("scan", {"s0": [0.0], "c": [0.0, "0.5"]},
     "c[1] must be a finite number, got '0.5'"),
    # params a kind's builder rejects: the line names the factor's params
    ("manifold", {"factors": [{"kind": "surface_of_revolution",
                               "params": {"rho": "log(t)"}}]},
     "factors[0].params: rho = 'log(t)' is not finite at both ends"),
    ("manifold", {"factors": [{"kind": "euclidean", "params": {"n": 7}}]},
     "factors[0].params: euclidean factor needs n in 1..4"),
    ("manifold", _sphere(n=5),
     "factors[0].params: round_sphere supports n in {2, 3, 4}"),
    ("manifold", {"factors": [{"kind": "flat_torus",
                               "params": {"lengths": [6.0] * 5}}]},
     "factors[0].params: flat torus needs 1..4 lengths"),
    ("manifold", {"factors": [{"kind": "surface_of_revolution",
                               "params": {"t_min": 2.0, "t_max": 1.0}}]},
     "factors[0].params: coordinate box is empty"),
]


@pytest.mark.parametrize("kind, doc, message", BAD_DOCUMENTS)
def test_a_bad_document_exits_2_naming_its_field(tmp_path, capsys, kind,
                                                  doc, message):
    code, _ = _run(tmp_path, kind, doc)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


X_ROUND = ["-sin(th)", "0"]

# (command kind, the document with numbers, the same with their texts)
NUMERIC_EXPRESSIONS = [
    ("identity:lemma35", {"X": [0, 0.7]}, {"X": ["0", "0.7"]}),
    ("identity:bochner", {"h": 1}, {"h": "1"}),
    ("identity:yano", {"X": [0, 0]}, {"X": ["0", "0"]}),
    ("identity:thm32", {"X": X_ROUND, "phi": 0.5},
     {"X": X_ROUND, "phi": "0.5"}),
    ("identity:lemma35", {"T": [[1, 0], [0, 2.5]]},
     {"T": [["1", "0"], ["0", "2.5"]]}),
    ("soliton", {"manifold": "r2_x_s2", "f": "-(x^2 + y^2)/12",
                 "phi": -0.0833333333333333},
     {"manifold": "r2_x_s2", "f": "-(x^2 + y^2)/12",
      "phi": "-0.0833333333333333"}),
    ("soliton", {"manifold": "r2_x_s2", "f": 0, "lambda": 0.0},
     {"manifold": "r2_x_s2", "f": "0", "lambda": 0.0}),
    ("soliton", {"manifold": "r2_x_s2", "X": ["0"] * 4, "phi": 0.5},
     {"manifold": "r2_x_s2", "X": ["0"] * 4, "phi": "0.5"}),
    ("soliton", {"manifold": "r2_x_s2", "X": [0, 0, 0, 0], "lambda": 0},
     {"manifold": "r2_x_s2", "X": ["0"] * 4, "lambda": 0}),
]


@pytest.mark.parametrize("kind, numbers, texts", NUMERIC_EXPRESSIONS)
def test_a_number_is_the_expression_of_its_text(tmp_path, capsys, kind,
                                                numbers, texts):
    results = []
    for doc in (numbers, texts):
        code, out = _run(tmp_path, kind, doc)
        with open(out) as fh:
            rec = json.load(fh)["checks"][0]
        results.append((code, rec["value"], rec["pass"]))
    capsys.readouterr()
    assert results[0] == results[1]
    assert results[0][0] == (0 if results[0][2] else 1)
