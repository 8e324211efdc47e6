"""The benchmark harness still finds every bachlab name it wraps or calls.

``perfbench/`` is kept frozen between benchmark changes: its tracer wraps
bachlab functions by name, and its workloads call them through their
modules.  Installing and removing a tracer, resolving every
``module.name`` the harness reads, and matching every keyword it passes
with the callee's signature catch a change that would break the
benchmark without running it (``python3 -m pytest perfbench`` does that).
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from bachlab import charts, exprs, identities, jets, profiles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def _bindings() -> dict:
    """Identity of every attribute of bachlab's modules and classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "bachlab" and not name.startswith("bachlab."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    for table, funcs in (("JET_FUNCS", exprs.JET_FUNCS),
                         ("ELEMENTARY", jets.ELEMENTARY)):
        for key, value in funcs.items():
            out[(table, key)] = id(value)
    return out


def test_tracer_installs_and_restores_every_binding(harness):
    tracing, _ = harness
    before = _bindings()
    hooks = (identities.run_identity_case, profiles._rhs_raw, jets.mul_into)
    with tracing.Tracer() as tracer:
        assert identities.run_identity_case is not hooks[0]
        assert profiles._rhs_raw is not hooks[1]
        assert jets.mul_into is not hooks[2]
        metrics = tracing.layer_metrics(tracer)
    assert {f"identities.case_s.{iid}" for iid in identities.IDENTITY_IDS} \
        <= set(metrics)
    assert (identities.run_identity_case, profiles._rhs_raw,
            jets.mul_into) == hooks
    assert _bindings() == before


def test_harness_reads_only_names_bachlab_has(harness):
    for mod in harness:
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)):
                continue
            owner = vars(mod).get(node.value.id)
            home = getattr(owner, "__module__", None) or getattr(
                owner, "__name__", "")
            if (inspect.ismodule(owner) or inspect.isclass(owner)) \
                    and home.split(".")[0] == "bachlab":
                assert hasattr(owner, node.attr), \
                    f"{mod.__name__} reads {node.value.id}.{node.attr}"


def _bachlab_callable(mod, func):
    """What a call's ``name`` or ``name.attr...`` is in a harness module,
    when that is a bachlab function or class; None otherwise."""
    attrs = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    target = vars(mod).get(func.id)
    for attr in reversed(attrs):
        target = getattr(target, attr, None)
    home = getattr(target, "__module__", None) or ""
    return target if callable(target) and home.split(".")[0] == "bachlab" \
        else None


def test_harness_passes_only_keywords_bachlab_takes(harness):
    checked = 0
    for mod in harness:
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if not isinstance(node, ast.Call):
                continue
            target = _bachlab_callable(mod, node.func)
            if target is None:
                continue
            params = inspect.signature(target).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                if kw.arg is not None:
                    assert kw.arg in params, \
                        f"{mod.__name__}:{node.lineno} passes {kw.arg}="
                    checked += 1
    assert checked >= 20  # points=, scan=, residual_tol=, deep=, ...


def test_a_chart_is_its_own_chart():
    # the harness reads `.chart` on what get_example and product return
    chart = charts.get_example("r2_x_s2")
    assert chart.chart is chart
