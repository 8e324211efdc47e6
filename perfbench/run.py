"""bachlab benchmark: seeded verification workloads, end to end and by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload soliton-group --seed 0 \\
        --seconds 20 --trace 0

Workloads: soliton-group, curvature-checks, ode-scan, oracle-crosscheck
(see ``workloads.py``; their inputs come from ``inputs.py``).  The load is
a closed loop: one client, one thread, BLAS pinned to one thread.  A run
repeats passes of its workload until the next pass would end after
``--seconds`` (at least two passes), checks every result against its
gate, and requires the canonical report digest of every pass to match
the first.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: items verified per second (median over passes),
the median wall time of one check call, the peak resident memory of this
process, and the set-up time (median of three cold processes that import
bachlab, build the catalog and jet tables, load the goldens and run one
warm-up item).  Times and rates are rescaled to the reference speed of
``speed.burst``, sampled every fraction of a second while the passes run,
so that the drift of a shared machine cancels; the raw figures are in the
details.  With ``--trace 1``
the passes are followed by one traced pass and the L0/L1 probes, and the
last line carries the per-layer metrics instead (raw times).  The line
before the last holds the details: quartiles and sample counts, raw
figures, the speed scale, the failure fraction, the digest, and the
environment (kernel backend, Python, NumPy, SciPy and mpmath versions,
CPU count, seed and BLAS thread setting).

The program is built from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("soliton-group", "curvature-checks", "ode-scan",
                  "oracle-crosscheck")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a broken child)."""


def load_bachlab() -> None:
    """Pin BLAS threads, then import bachlab from ``src/`` of this checkout."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "bachlab" / "__init__.py").is_file():
        raise BenchError(f"no bachlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bachlab
    if Path(bachlab.__file__).resolve().parent != SRC / "bachlab":
        raise BenchError(f"bachlab imported from {bachlab.__file__}, "
                         f"not from {SRC}")


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    from bachlab import _kernels
    return {"backend": _kernels.BACKEND_NAME,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "seed": seed,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


def cold_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Wall time from spawning a fresh interpreter to its set-up being done,
    and the child's reference-burst time right after."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("set-up child timed out") from None
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"set-up child failed (exit {code})")
    return elapsed, float(rest)


def spread(samples) -> dict:
    """Median, quartiles and count of a sample."""
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (samples[0],) * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def measure(workload: str, seed: int, size: str, ctx: dict,
            seconds: float) -> list:
    """Passes until the next one would end after `seconds`; at least two."""
    import workloads
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(workloads.run_pass(workload, seed, size, ctx))
        elapsed = perf_counter() - t0
        if len(passes) >= 2 and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def work_s(p) -> float:
    """A pass's check time, rescaled to the reference speed."""
    return sum(t * k for t, k in zip(p.check_s, p.check_scale))


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "bench", setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    import speed
    import tracing
    import workloads

    children = ([cold_setup_s(workload, seed) for _ in range(setup_runs)]
                if not trace else [])
    raw_setup = [t for t, _ in children]
    setup = [t * speed.REFERENCE_S / b for t, b in children]
    ctx = workloads.setup(workload, seed)
    passes = measure(workload, seed, size, ctx, seconds)
    if trace:
        sampler = speed.Sampler()
        with tracing.Tracer(clock=sampler.work_clock) as tracer:
            traced = workloads.run_pass(workload, seed, size, ctx, sampler)
        passes.append(traced)

    digest = passes[0].digest
    # every check of every pass, plus one digest comparison per extra pass
    attempted = sum(len(p.records) for p in passes) + len(passes) - 1
    failed = (sum(p.failed for p in passes)
              + sum(p.digest != digest for p in passes[1:]))
    # times rescaled to the reference speed, check by check (see speed.py)
    timed = passes[:-1] if trace else passes
    raw_rates = [p.items / sum(p.check_s) for p in timed]
    rates = [p.items / work_s(p) for p in timed]
    raw_check_s = [t for p in timed for t in p.check_s]
    check_s = [t * k for p in timed for t, k in zip(p.check_s, p.check_scale)]
    scales = [k for p in timed for k in p.check_scale]

    if trace:
        untraced_s = statistics.median(work_s(p) for p in timed)
        values = tracing.layer_metrics(tracer)
        values.update(tracing.probes(seed, quick=(size == "smoke")))
        values.update({
            "report.canonical_json_s": traced.canonical_json_s,
            "report.bytes": traced.report_bytes,
            "trace.overhead_frac": work_s(traced) / untraced_s - 1.0,
        })
    else:
        values = {
            "items_per_s": statistics.median(rates),
            "check_p50_s": statistics.median(check_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
    declared = declared_metrics(trace)
    if set(values) != set(declared):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(declared))}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in declared.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {
        "workload": workload, "size": size, "passes": len(passes),
        "digest": digest, "fail_frac": failed / attempted,
        "items_per_pass": passes[0].items,
        "items_per_s": spread(rates), "check_s": spread(check_s),
        "setup_s": spread(setup) if setup else None,
        "speed_scale": spread(scales),
        "raw": {"items_per_s": spread(raw_rates),
                "check_s": spread(raw_check_s),
                "setup_s": spread(raw_setup) if raw_setup else None},
        "env": environment(seed),
    }
    return result, details


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default inputs.DEFAULT_SEED; re-check "
                         "a claimed gain on inputs.HELD_OUT_SEED)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print 'ready' and exit (used to time "
                         "cold set-up in a fresh process)")
    args = ap.parse_args(argv)
    try:
        load_bachlab()
        import inputs
        import workloads
        seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
        if args.setup_only:
            import speed
            workloads.setup(args.workload, seed)
            print("ready", flush=True)
            print(statistics.median(speed.burst() for _ in range(3)))
            return 0
        result, details = run(args.workload, seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
