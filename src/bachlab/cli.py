"""Command-line orchestration: build manifolds, run checks, emit reports.

Exit codes: 0 all checks passed; 1 a check ran and failed its gate;
2 usage or input-document error; 3 numerical failure (no root bracketed,
a failed root search, integrator step failure, an overflow, a curvature
quantity that is not finite).  Reports are canonical JSON and
byte-identical for identical configuration: every sample set and
quadrature grid is fixed by the command's arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, charts, identities, profiles, report, solitons
from . import suite as suite_mod
from . import tolerances
from .curvature import CurvatureFrame, pipeline_pack

__all__ = ["main"]

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    """Bad flag value or malformed input document."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"{path} is not valid JSON: {err}") from err


def _load_manifold(spec: str):
    """A manifold from a catalog name or a JSON document path."""
    if Path(spec).is_file():
        spec = _load_json(spec)
    return charts.resolve_manifold(spec)


def _finite_float(text: str, what: str) -> float:
    """A finite number from a flag's text; `what` names it in errors."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"bad number for {what}: {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{what} must be finite: {text!r}")
    return value


def _parse_point(text: str, man) -> list[float]:
    coords = man.coords
    given: dict[str, float] = {}
    for item in text.split(","):
        name, sep, value = item.partition("=")
        if not sep:
            raise UsageError(
                f"point entries look like coord=value, got {item!r}")
        name = name.strip()
        if name not in coords:
            raise UsageError(f"unknown coordinate {name!r}; chart has "
                             f"{', '.join(coords)}")
        if name in given:
            raise UsageError(f"coordinate {name!r} is given twice")
        given[name] = _finite_float(value, f"coordinate {name!r}")
    missing = [c for c in coords if c not in given]
    if missing:
        raise UsageError(f"point is missing {', '.join(missing)}")
    return [given[c] for c in coords]


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("--interval looks like lo,hi")
    return (_finite_float(parts[0], "--interval lo"),
            _finite_float(parts[1], "--interval hi"))


def _parse_tol_overrides(pairs) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise UsageError("tolerance overrides look like key=value")
        if key in out:
            raise UsageError(f"tolerance {key!r} is given twice")
        try:
            out[key] = float(value)
        except ValueError:
            raise UsageError(f"bad tolerance value {value!r}") from None
    return out


def _tol(key: str, value: float | None) -> float:
    """A --tol value checked as `tolerances.resolve` checks every gate,
    or the default gate of `key` when the flag is absent."""
    return tolerances.resolve(None if value is None else {key: value})[key]


def _emit(doc, out_path: str | None, pretty: bool = True) -> None:
    if out_path:
        report.write_report(doc, out_path)
    if pretty:
        print(report.dumps(doc, sort_keys=True, indent=2))


def _print_check(rec: dict) -> None:
    status = "PASS" if rec["pass"] else "FAIL"
    print(f"{status} {rec['check_id']} value={rec['value']!r} "
          f"tolerance={rec['tolerance']!r}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in charts.catalog_names():
            print(name)
        return EXIT_PASS
    man = charts.get_example(args.name)
    _emit(charts.describe(man), args.out)
    return EXIT_PASS


def _cmd_curvature(args) -> int:
    man = _load_manifold(args.manifold)
    point = _parse_point(args.point, man)
    # a non-finite quantity fails below, by name, and not as a warning
    with np.errstate(all="ignore"):
        pack = pipeline_pack(CurvatureFrame(man, point))
    for name, value in pack.items():
        if not np.all(np.isfinite(value)):
            raise FloatingPointError(f"curvature quantity {name!r} is not "
                                     f"finite at the point")
    doc = {"manifold": man.name, "point": point,
           "quantities": report.jsonable(pack)}
    _emit(doc, args.out)
    return EXIT_PASS


def _finish_check(config: dict, rec: dict, out_path: str | None) -> int:
    """Write a one-check report and give the command's exit code: a value
    that holds a NaN or an infinity is a numerical failure, named."""
    _emit(report.build_report(config, [rec]), out_path, pretty=False)
    if not report.is_finite(rec["value"]):
        raise FloatingPointError(f"check {rec['check_id']} gave a value "
                                 f"that is not finite: {rec['value']!r}")
    _print_check(rec)
    return EXIT_PASS if rec["pass"] else EXIT_CHECK_FAILED


def _cmd_check_identity(args) -> int:
    tol = _tol("identity", args.tol)
    doc = _load_json(args.case) if args.case else None
    # a non-finite value fails below, by name, and not as a warning
    with np.errstate(all="ignore"):
        rep = identities.run_identity_case(args.id, doc, tol=tol)
    rec = report.check_record(f"identity/{args.id}",
                              identities.case_value(rep), tol,
                              bool(rep["passed"]),
                              inputs={"id": args.id, "case": doc},
                              detail=rep)
    config = {"subcommand": "check identity", "id": args.id, "case": doc,
              "tol": tol}
    return _finish_check(config, rec, args.out)


def _cmd_check_soliton(args) -> int:
    config = {"subcommand": "check soliton", "count": args.count}
    with np.errstate(all="ignore"):
        if args.example:
            # without --tol, each example keeps its own gate
            tol = None if args.tol is None else _tol("soliton", args.tol)
            rep = solitons.named_example(args.example, count=args.count,
                                         tol=tol)
            config["example"] = args.example
            check_id = f"soliton/{args.example}"
        else:
            doc = _load_json(args.case)
            spec = solitons.SolitonSpec.from_doc(doc)
            tol = _tol("soliton", args.tol)
            rep = solitons.extended_q_residual(
                spec.manifold, spec, count=args.count, tol=tol,
                label=Path(args.case).stem)
            config["case"] = doc
            check_id = f"soliton/{rep.label}"
    rec = report.check_record(check_id, rep.sup, rep.tol, rep.passed,
                              detail={"points": rep.points})
    return _finish_check(config, rec, args.out)


def _cmd_solve_berger(args) -> int:
    kwargs = {}
    if args.interval:
        kwargs["interval"] = _parse_interval(args.interval)
    out = solitons.solve_berger_soliton(**kwargs)
    _emit(out, args.out)
    if out["outcome"] != "root":
        print("no sign change bracketed on the interval", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_PASS if out["passed"] else EXIT_CHECK_FAILED


def _cmd_ode_scan(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    res = profiles.scan_from_config(doc)
    if args.out:
        if args.out.endswith(".csv"):
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(profiles.table_to_csv(res["rows"]))
        else:
            report.write_report(res, args.out)
    print(f"cells={len(res['rows'])} classes={res['classes']} "
          f"closed={res['closed_count']} corroborates={res['corroborates']}")
    if profiles.STEP_FAILURE in res["classes"]:
        return EXIT_NUMERICAL
    return EXIT_PASS if res["corroborates"] else EXIT_CHECK_FAILED


def _cmd_suite(args) -> int:
    rep = suite_mod.run_suite(
        soliton_count=args.count, scan_cells=args.cells,
        tol_overrides=_parse_tol_overrides(args.tol))
    if args.out:
        report.write_report(rep, args.out)
    for rec in rep["checks"]:
        _print_check(rec)
    summary = rep["summary"]
    print(f"{summary['passed']}/{summary['checks']} checks passed")
    return EXIT_PASS if summary["failed"] == 0 else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bachlab",
        description="Numerical checks for Bach-tensor geometry.")
    parser.add_argument("--version", action="version",
                        version=f"bachlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="named example manifolds")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="list catalog names")
    p_show = cat_sub.add_parser("show", help="describe one manifold")
    p_show.add_argument("name")
    p_show.add_argument("--out")

    p_curv = sub.add_parser("curvature",
                            help="curvature quantities at a point")
    p_curv.add_argument("--manifold", required=True,
                        help="catalog name or JSON document path")
    p_curv.add_argument("--point", required=True,
                        help="comma-separated coord=value pairs")
    p_curv.add_argument("--out")

    p_check = sub.add_parser("check", help="run one check")
    check_sub = p_check.add_subparsers(dest="kind", required=True)
    p_ci = check_sub.add_parser("identity", help="identity checks")
    p_ci.add_argument("--id", required=True, choices=identities.IDENTITY_IDS)
    p_ci.add_argument("--case", help="JSON case document path")
    p_ci.add_argument("--tol", type=float)
    p_ci.add_argument("--out")
    p_cs = check_sub.add_parser("soliton", help="soliton residual checks")
    group = p_cs.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", choices=sorted(solitons.EXAMPLES))
    group.add_argument("--case", help="JSON soliton document path")
    p_cs.add_argument("--count", type=int, default=200)
    p_cs.add_argument("--tol", type=float)
    p_cs.add_argument("--out")

    p_solve = sub.add_parser("solve", help="parameter solves")
    solve_sub = p_solve.add_subparsers(dest="target", required=True)
    p_sb = solve_sub.add_parser("berger",
                                help="squashed-sphere soliton root")
    p_sb.add_argument("--interval", help="lo,hi scan interval")
    p_sb.add_argument("--out")

    p_ode = sub.add_parser("ode", help="profile ODE exploration")
    ode_sub = p_ode.add_subparsers(dest="action", required=True)
    p_scan = ode_sub.add_parser("scan", help="classify a (S0, c) grid")
    p_scan.add_argument("--config", help="JSON scan configuration path")
    p_scan.add_argument("--out", help=".csv for CSV, else JSON")

    p_suite = sub.add_parser("suite", help="aggregated check battery")
    p_suite.add_argument("what", choices=["all"])
    p_suite.add_argument("--out")
    p_suite.add_argument("--count", type=int, default=80,
                         help="sample points per soliton example")
    p_suite.add_argument("--cells", type=int, default=9,
                         help="profile scan grid cells per axis")
    p_suite.add_argument("--tol", action="append", metavar="KEY=VALUE",
                         help="tolerance override (repeatable)")
    return parser


_HANDLERS = {
    "catalog": _cmd_catalog,
    "curvature": _cmd_curvature,
    "solve": _cmd_solve_berger,
    "ode": _cmd_ode_scan,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            handler = (_cmd_check_identity if args.kind == "identity"
                       else _cmd_check_soliton)
            return handler(args)
        return _HANDLERS[args.command](args)
    except ArithmeticError as err:  # a root search, an overflow, a NaN
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
