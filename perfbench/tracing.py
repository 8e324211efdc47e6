"""Per-layer counters and timers, installed around bachlab from outside.

A `Tracer` replaces each layer's public functions (and two private hooks:
the jet kernel ``jets.mul_into`` and the profile right-hand side
``profiles._rhs_raw``) with wrappers, wherever a bachlab module or
dispatch table holds them, and `Tracer.remove` puts every original back.
Hot leaf calls are aggregated, not recorded one span per call: each name
keeps a call count, an inclusive time, and a self time, which is the
inclusive time minus the time of the wrapped calls made inside it.

The probes at the end time single layers directly (L0: one jet product;
L1: the stages of one deep frame), untraced, and take their product
counts from a tracer.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

import inputs
from bachlab import _jettables, charts, curvature, exprs, fdcheck, jets
from bachlab import identities, products, profiles, solitons
from bachlab.curvature import CurvatureFrame, pipeline_pack
from bachlab.jets import Jet

ELEMENTARY = ("sin", "cos", "exp", "sinh", "cosh", "sqrt", "log",
              "reciprocal")


class Tracer:
    """Call counts, inclusive and self times, and work counters by name.

    ``clock`` times the calls; pass `speed.Sampler.work_clock` to leave
    out the time the sampler's bursts take.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------
    def timed(self, name: str, fn: Callable, note: Callable | None = None,
              key: Callable | None = None) -> Callable:
        """Wrap fn; ``note(args, result)`` may add work counters."""
        stack, active, clock = self._stack, self.active, self.clock
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if key is None else key(args)
            active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                active[name] -= 1
                calls[label] += 1
                total_s[label] += dt
                self_s[label] += dt - child
                if stack:
                    stack[-1] += dt
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _replace_everywhere(self, orig, wrapped) -> None:
        """Rebind orig in every bachlab module and jet dispatch table."""
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "bachlab" or n.startswith("bachlab.")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    self._set(owner, attr, wrapped)
        for table in (exprs.JET_FUNCS, jets.ELEMENTARY):
            for attr, value in list(table.items()):
                if value is orig:
                    self._set(table, attr, wrapped)

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        orig = getattr(module, attr)
        self._replace_everywhere(orig, self.timed(name, orig, **kw))

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.timed(name, raw.__func__, **kw))
        else:
            wrapped = self.timed(name, raw, **kw)
        for other, value in list(vars(cls).items()):
            if value is raw:  # aliases such as __rmul__ = __mul__
                self._set(cls, other, wrapped)
        self._replace_everywhere(raw, wrapped)

    # -- the layers ------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every layer; call `remove` (or use ``with``) to undo."""
        counts, active = self.counts, self.active

        def kernel_work(args, _):
            _a, _b, out, pi, _pj, _pk, di, _dk, all_k = args
            counts["kernels.madds"] += len(all_k)
            # operand gathers and the output update in float64, plus the
            # int32 index tables the kernel walks
            counts["kernels.bytes"] += (8 * (4 * len(pi) + 2 * len(di)
                                             + 2 * len(out))
                                        + 4 * (2 * len(pi) + len(di)
                                               + len(all_k)))

        def frame_built(args, _):
            if active["curvature.bach_divergence"] or \
                    active["curvature.grad_lap_scalar"]:
                counts["curvature.fd_frames"] += 1

        self.patch_method(Jet, "__mul__", "jets.mul")
        for fn in ELEMENTARY:
            self.patch_method(Jet, fn, "jets.elementary")
        self.patch_function(jets, "mul_into", "kernels.mul_into",
                            note=kernel_work)

        self.patch_function(exprs, "parse", "exprs.parse")
        self.patch_function(exprs, "eval_jet", "exprs.eval_jet")
        self.patch_function(exprs, "eval_mp", "exprs.eval_mp")

        self.patch_method(charts.Chart, "metric_jets", "charts.metric_jets")
        self.patch_function(charts, "quadrature", "charts.quadrature",
                            note=lambda a, r: counts.update(
                                {"charts.quadrature_nodes": len(r.nodes)}))

        self.patch_method(CurvatureFrame, "__init__", "curvature.frame",
                          note=frame_built)
        self.patch_function(curvature, "bach_divergence",
                            "curvature.bach_divergence")
        self.patch_function(curvature, "grad_lap_scalar",
                            "curvature.grad_lap_scalar")

        self._count_metric_evals()
        self.patch_method(fdcheck.FDGeometry, "pack", "fdcheck.pack")

        self.patch_method(products.FactorCurvature, "at",
                          "products.factor_curvature")
        self.patch_function(products, "line_cross_check",
                            "products.cross_check")
        self.patch_function(products, "surface_cross_check",
                            "products.cross_check")

        self.patch_function(solitons, "extended_q_residual",
                            "solitons.residual",
                            note=lambda a, r: counts.update(
                                {"solitons.residual_points": len(r.norms)}))
        self.patch_function(solitons, "berger_condition_scalar",
                            "solitons.berger_condition")
        self.patch_function(solitons, "solve_berger_soliton",
                            "solitons.berger_solve")

        self.patch_function(identities, "run_identity_case",
                            "identities.case",
                            key=lambda a: f"identities.case.{a[0]}")

        self.patch_function(profiles, "scan", "profiles.scan",
                            note=lambda a, r: counts.update(
                                {"profiles.cells": len(r["rows"])}))
        self.patch_function(profiles, "integrate_profile",
                            "profiles.integrate")
        self._count_rhs_evals()
        return self

    def _count_metric_evals(self) -> None:
        """Count oracle metric evaluations: calls of each geometry's gfun."""
        counts = self.counts
        orig = fdcheck.FDGeometry.__dict__["__init__"]

        @functools.wraps(orig)
        def init(geo, gfun, *args, **kwargs):
            def counted(q):
                counts["fdcheck.metric_evals"] += 1
                return gfun(q)
            orig(geo, counted, *args, **kwargs)

        self._set(fdcheck.FDGeometry, "__init__", init)

    def _count_rhs_evals(self) -> None:
        """Count right-hand-side evaluations made inside a scan."""
        counts, active = self.counts, self.active
        orig = profiles._rhs_raw

        @functools.wraps(orig)
        def rhs(t, y, c):
            if active["profiles.scan"]:
                counts["profiles.rhs_evals"] += 1
            return orig(t, y, c)

        self._set(profiles, "_rhs_raw", rhs)

    def remove(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by name."""
    def per(num, den):
        return num / den if den else 0.0

    mul_s, kernel_s = t.total_s["jets.mul"], t.total_s["kernels.mul_into"]
    out = {
        "jets.mul_calls": t.calls["jets.mul"],
        "jets.mul_self_s": t.self_s["jets.mul"],
        "jets.elementary_calls": t.calls["jets.elementary"],
        "kernels.mul_into_calls": t.calls["kernels.mul_into"],
        "kernels.mul_into_s": kernel_s,
        "kernels.dispatch_share": 1.0 - per(kernel_s, mul_s) if mul_s else 0.0,
        "kernels.madds_computed": t.counts["kernels.madds"],
        "kernels.bytes_computed": t.counts["kernels.bytes"],
        "kernels.madds_per_byte": per(t.counts["kernels.madds"],
                                      t.counts["kernels.bytes"]),
        "charts.metric_jets_calls": t.calls["charts.metric_jets"],
        "charts.metric_jets_s": t.total_s["charts.metric_jets"],
        "charts.quadrature_nodes": t.counts["charts.quadrature_nodes"],
        "curvature.frames": t.calls["curvature.frame"],
        "curvature.fd_frames": t.counts["curvature.fd_frames"],
        "fdcheck.packs": t.calls["fdcheck.pack"],
        "fdcheck.pack_s": t.total_s["fdcheck.pack"],
        "fdcheck.metric_evals": t.counts["fdcheck.metric_evals"],
        "fdcheck.metric_evals_per_point": per(t.counts["fdcheck.metric_evals"],
                                              t.calls["fdcheck.pack"]),
        "products.factor_curvature_calls":
            t.calls["products.factor_curvature"],
        "products.cross_check_s": t.total_s["products.cross_check"],
        "solitons.residual_points": t.counts["solitons.residual_points"],
        "solitons.residual_s": t.total_s["solitons.residual"],
        "solitons.berger_condition_evals":
            t.calls["solitons.berger_condition"],
        "solitons.berger_solve_s": t.total_s["solitons.berger_solve"],
        "profiles.cells": t.counts["profiles.cells"],
        "profiles.integrate_s": t.total_s["profiles.integrate"],
        "profiles.rhs_evals": t.counts["profiles.rhs_evals"],
        "profiles.rhs_evals_per_cell": per(t.counts["profiles.rhs_evals"],
                                           t.counts["profiles.cells"]),
    }
    for fn in ("parse", "eval_jet", "eval_mp"):
        out[f"exprs.{fn}_calls"] = t.calls[f"exprs.{fn}"]
        out[f"exprs.{fn}_s"] = t.total_s[f"exprs.{fn}"]
    for fn in ("bach_divergence", "grad_lap_scalar"):
        out[f"curvature.{fn}_calls"] = t.calls[f"curvature.{fn}"]
        out[f"curvature.{fn}_s"] = t.total_s[f"curvature.{fn}"]
    for iid in identities.IDENTITY_IDS:
        out[f"identities.case_s.{iid}"] = t.total_s[f"identities.case.{iid}"]
    return out


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
STAGES = ("g", "ginv", "gamma", "riemann_up", "riemann_lo", "ricci",
          "schouten", "weyl_lo", "cov_ricci", "cov_schouten", "cotton",
          "hess_scalar", "lap_ricci", "bach")


def probe_mul_us(dim: int, order: int, seed: int, products_per_run: int,
                 runs: int = 5) -> float:
    """Median microseconds per dense jet product (L0)."""
    size = _jettables.tables(dim, order).size
    a, b = (Jet(dim, order, c) for c in inputs.probe_jets(seed, size, 2))
    per_run = []
    for _ in range(runs):
        t0 = perf_counter()
        for _ in range(products_per_run):
            a * b
        per_run.append((perf_counter() - t0) / products_per_run * 1e6)
    return statistics.median(per_run)


def probe_stages(runs: int = 3) -> dict[str, float]:
    """Per-stage ms (untraced median) and jet products of one deep frame.

    The frame is r2 x s2 at its chart center; each stage is the cached
    property of that name, evaluated in pipeline order, so a stage's time
    covers the quantities it needs that no earlier stage built.
    """
    chart = charts.get_example("r2_x_s2").chart
    point = chart.center()
    ms: dict[str, list[float]] = {s: [] for s in STAGES}
    for _ in range(runs):
        frame = CurvatureFrame(chart, point)
        for stage in STAGES:
            t0 = perf_counter()
            getattr(frame, stage)
            ms[stage].append((perf_counter() - t0) * 1e3)
    out = {f"curvature.stage.{s}_ms": statistics.median(v)
           for s, v in ms.items()}
    with Tracer() as t:
        frame = CurvatureFrame(chart, point)
        for stage in STAGES:
            before = t.calls["jets.mul"]
            getattr(frame, stage)
            out[f"curvature.stage_mul_calls.{stage}"] = \
                t.calls["jets.mul"] - before
    return out


def probe_frames(runs: int = 3) -> dict[str, float]:
    """Median ms of a full deep pipeline pack at each dimension."""
    probes = {2: charts.round_sphere(2), 3: charts.berger_sphere(1.5),
              4: charts.get_example("r2_x_s2").chart}
    out = {}
    for dim, chart in probes.items():
        times = []
        for _ in range(runs):
            t0 = perf_counter()
            pipeline_pack(CurvatureFrame(chart, chart.center()), deep=True)
            times.append((perf_counter() - t0) * 1e3)
        out[f"curvature.frame_ms.dim{dim}"] = statistics.median(times)
    return out


def probes(seed: int, quick: bool = False) -> dict[str, float]:
    """Every L0/L1 probe metric."""
    n = 200 if quick else 2000
    out = {"jets.probe_mul_us.d4o4": probe_mul_us(4, 4, seed, n),
           "jets.probe_mul_us.d2o3": probe_mul_us(2, 3, seed, n)}
    out.update(probe_stages(1 if quick else 3))
    out.update(probe_frames(1 if quick else 3))
    return out
