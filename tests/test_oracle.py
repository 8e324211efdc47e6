"""The oracle's assumptions, work and values, checked on its packs.

`fdcheck` fails closed on a metric it cannot difference (not finite, not
exactly symmetric, or singular at a lattice node), evaluates each lattice
node once and each distinct subtree of the metric entries there once,
keeps its round-off below 1e-25 relative, and reproduces the frozen
goldens bit for bit.
"""

import decimal
import json
from importlib import resources

import mpmath as mp
import numpy as np
import pytest

from bachlab import charts, exprs, fdcheck


# ----------------------------------------------------------------------
# what the oracle assumes, checked at every lattice node
# ----------------------------------------------------------------------
def _chart(entries, coords=("x", "y")):
    n = len(coords)
    return charts.Chart(
        name="oracle_case", kind="custom", coords=coords,
        metric_strs=tuple(tuple(r) for r in entries), params={},
        lo=(-1.0,) * n, hi=(1.0,) * n, periodic=(False,) * n,
        compact=False, resolution=(8,) * n)


def test_oracle_rejects_a_metric_that_is_not_exactly_symmetric():
    # g_xy and g_yx differ by 1e-20, far below any positive-definiteness
    # check, but Gamma is mirrored on the assumption g_xy == g_yx
    chart = _chart([["2 + 0.1*sin(x)", "0.1*cos(x*y)"],
                    ["0.1*cos(x*y) + 1e-20", "2 + 0.1*cos(y)"]])
    with pytest.raises(fdcheck.OracleError, match="not symmetric"):
        fdcheck.geometry_from_chart(chart).pack([0.2, 0.3])


@pytest.mark.parametrize("entries", [
    [["1", "1"], ["1", "1"]],
    [["1 + x^2", "0"], ["0", "0"]],
])
def test_oracle_rejects_a_singular_metric(entries):
    with pytest.raises(fdcheck.OracleError, match="singular"):
        fdcheck.geometry_from_chart(_chart(entries)).pack([0.2, 0.3])


def test_oracle_rejects_a_metric_that_is_not_finite():
    geo = fdcheck.FDGeometry(lambda q: [[mp.nan, 0], [0, 1]], 2)
    with pytest.raises(fdcheck.OracleError, match="not finite"):
        geo.pack([0.2, 0.3])


# ----------------------------------------------------------------------
# the oracle's work: one metric evaluation per distinct lattice node
# ----------------------------------------------------------------------
@pytest.fixture
def oracle_counts(monkeypatch):
    """Count gfun calls (as the benchmark tracer does), eval_mp calls and
    calls of the mp functions (sin, cos, ...)."""
    counts = {"gfun": 0, "eval_mp": 0, "funcs": 0}
    init, eval_mp = fdcheck.FDGeometry.__init__, exprs.eval_mp

    def counted_init(geo, gfun, *args, **kwargs):
        def counted(q):
            counts["gfun"] += 1
            return gfun(q)
        init(geo, counted, *args, **kwargs)

    def counted_eval(*args):
        counts["eval_mp"] += 1
        return eval_mp(*args)

    def counted_func(fn):
        def counted(x):
            counts["funcs"] += 1
            return fn(x)
        return counted

    monkeypatch.setattr(fdcheck.FDGeometry, "__init__", counted_init)
    monkeypatch.setattr(exprs, "eval_mp", counted_eval)
    for name, fn in list(exprs.MP_FUNCS.items()):
        monkeypatch.setitem(exprs.MP_FUNCS, name, counted_func(fn))
    return counts


# a dim-4 metric with 10 distinct sin/cos calls
_COORDS4 = ("x", "y", "z", "w")
_BUMPY4 = [[f"{2 + i} + 0.1*sin({_COORDS4[i]})" if i == j else
            f"0.05*cos({_COORDS4[min(i, j)]} + 2*{_COORDS4[max(i, j)]})"
            for j in range(4)] for i in range(4)]

# catalog examples at their second sample point, and bumpy_4 at a point
# where two stencil paths to one node met a few binary ulps apart when
# the lattice was not exact (1,949 metric evaluations for 1,921 nodes)
_CASES = {"bumpy_4": (_chart(_BUMPY4, _COORDS4),
                      [-0.06011916013067742, -0.3999648202725865,
                       -0.22872648373487525, -0.1625445535250732])}


# the Berger entries spell 11 sin/cos calls of 4 distinct ones
@pytest.mark.parametrize("name, nodes, funcs", [
    ("hyperbolic_2", 129, 0), ("berger_sphere", 593, 4),
    ("r2_x_s2", 1921, 1), ("bumpy_4", 1921, 10)])
def test_deep_pack_evaluates_each_node_and_distinct_entry_once(
        oracle_counts, name, nodes, funcs):
    if name in _CASES:
        chart, point = _CASES[name]
    else:
        chart = charts.get_example(name)
        point = charts.sample_points(chart, 2)[1]
    fdcheck.geometry_from_chart(chart).pack(point, deep=True)
    assert oracle_counts == {"gfun": nodes, "eval_mp": nodes,
                             "funcs": nodes * funcs}


def test_symmetric_entries_share_one_evaluation(oracle_counts):
    geo = fdcheck.geometry_from_chart(_chart(_BUMPY4, _COORDS4))
    with fdcheck._oracle_point([0.1, 0.2, 0.3, 0.4]) as p:
        geo.metric(p)
    assert oracle_counts == {"gfun": 1, "eval_mp": 1, "funcs": 10}


# ----------------------------------------------------------------------
# the oracle's values: round-off far below its gates, the frozen goldens
# ----------------------------------------------------------------------
def test_round_off_is_irrelevant_and_the_caller_context_untouched(
        monkeypatch):
    chart = charts.get_example("r2_x_s2")
    point = charts.sample_points(chart, 2)[1]
    with decimal.localcontext() as caller:
        caller.prec = 5  # the oracle opens its own context
        before = caller.copy()
        pack = fdcheck.geometry_from_chart(chart).pack(point, deep=True)
        after = decimal.getcontext()
        assert after is caller
        assert (after.prec, after.traps) == (before.prec, before.traps)
    monkeypatch.setattr(fdcheck, "DEFAULT_DPS", fdcheck.DEFAULT_DPS + 20)
    finer = fdcheck.geometry_from_chart(chart).pack(point, deep=True)
    assert set(pack) == set(finer) and "bach" in pack
    for key, val in pack.items():
        scale = max(1.0, np.abs(finer[key]).max())
        assert np.abs(val - finer[key]).max() <= 1e-25 * scale, key


@pytest.mark.parametrize("name", ["hyperbolic_2", "round_sphere_2",
                                  "berger_sphere", "r2_x_s2", "s2_x_t2"])
def test_oracle_reproduces_the_frozen_goldens_bitwise(name):
    path = resources.files("bachlab").joinpath("data/curvature_goldens.json")
    doc = json.loads(path.read_text(encoding="ascii"))
    assert doc["oracle"]["dps"] == fdcheck.DEFAULT_DPS
    entry, = (e for e in doc["entries"] if e["manifold"] == name)
    chart = charts.get_example(name)
    pack = fdcheck.geometry_from_chart(chart, h=doc["oracle"]["h"]).pack(
        entry["point"], deep=True)
    assert set(pack) == set(entry["oracle"])
    for key, val in pack.items():
        gold = np.asarray(entry["oracle"][key], dtype=np.float64)
        assert np.asarray(val).tobytes() == gold.tobytes(), key
