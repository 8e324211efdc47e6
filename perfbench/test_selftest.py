"""Smoke-size self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench -q

It checks that every workload emits exactly the metrics BENCHMARK.json
declares, that the tracer leaves bachlab as it found it, that work counts
repeat exactly, and that an injected NaN residual is counted as a failure.
"""

import inspect
import json
import math
import sys

import pytest

import run

run.load_bachlab()

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bachlab import exprs, jets, products, solitons  # noqa: E402

BENCH = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def _declared(key: str) -> set[str]:
    return {m["name"] for m in BENCH[key]}


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


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted(workload, trace):
    before = _bindings()
    result, details = run.run(workload, inputs.DEFAULT_SEED, 0.0, trace, size="smoke",
                              setup_runs=1)
    assert set(result["metrics"]) == _declared(
        "per_layer" if trace else "end_to_end")
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert details["fail_frac"] == 0.0 and details["passes"] >= 2
    # the tracing wrappers are gone again
    assert _bindings() == before


def test_tracer_wraps_then_restores_the_kernel():
    mul, mul_into = jets.Jet.__mul__, jets.mul_into
    with tracing.Tracer():
        assert jets.Jet.__mul__ is not mul
        assert jets.mul_into is not mul_into
    assert jets.Jet.__mul__ is mul and jets.Jet.__rmul__ is mul
    assert jets.mul_into is mul_into


@pytest.mark.parametrize("workload", ["ode-scan", "oracle-crosscheck"])
def test_work_counts_repeat_exactly(workload):
    seed = inputs.DEFAULT_SEED
    ctx = workloads.setup(workload, seed)
    seen = []
    for _ in range(2):
        with tracing.Tracer() as t:
            workloads.run_pass(workload, seed, "smoke", ctx)
        seen.append((dict(t.calls), dict(t.counts)))
    assert seen[0] == seen[1]


def test_verdicts_fail_closed():
    assert workloads.sup([0.0, math.nan]) == math.inf
    assert workloads.sup([]) == math.inf
    assert not workloads.within(math.nan, 1.0)
    assert not workloads.within(math.inf, 1.0)
    assert workloads.ratio(1.0, math.nan) == math.inf
    assert workloads.rel_dev([1.0], [math.nan]) == math.inf


def test_swallowed_nan_from_a_scalar_check_fails(monkeypatch):
    monkeypatch.setattr(products, "line_cross_check",
                        lambda *a, **k: math.nan)
    out = workloads._cross(
        lambda: products.line_cross_check(None, count=1))
    assert not out.ok and out.value == math.inf


def test_injected_nan_residual_is_counted(monkeypatch):
    real_setup, real_norm = workloads.setup, solitons.metric_norm
    armed = []

    def setup_then_arm(*args):
        ctx = real_setup(*args)
        armed.append(True)
        return ctx

    monkeypatch.setattr(workloads, "setup", setup_then_arm)
    monkeypatch.setattr(solitons, "metric_norm", lambda g, t: (
        math.nan if armed else real_norm(g, t)))
    result, details = run.run("soliton-group", inputs.DEFAULT_SEED, 0.0,
                              False, size="smoke",
                              setup_runs=1)
    assert not result["correct"] and result["failed"] > 0
    assert details["fail_frac"] == result["failed"] / result["attempted"]
    assert details["fail_frac"] > 0.0
