#!/usr/bin/env python3
"""Regenerate the frozen curvature goldens under src/bachlab/data/.

Evaluates the independent finite-difference oracle (the metric in mpmath
at 50 digits, the algebra in the standard library's `decimal` at 52,
nested 4th-order stencils) on a fixed catalog corpus and freezes every
deep curvature quantity into ``curvature_goldens.json``.  The regression
suite then compares the fast jet pipeline against these values without
paying the oracle cost on every run.  Rerun only when
the corpus or the storage format changes; the frozen values themselves
are oracle output, never pipeline output.
"""

from __future__ import annotations

import json
from pathlib import Path

from bachlab import charts, fdcheck, report

# one open surface, one curved surface, one homogeneous 3-manifold, and
# two 4-dimensional products (where the fourth-order tensor is defined)
CORPUS = ("hyperbolic_2", "round_sphere_2", "berger_sphere",
          "r2_x_s2", "s2_x_t2")

# a tighter step than the test-time default: frozen values should sit
# well below the 1e-9 comparison gate, and the high-precision
# arithmetic keeps roundoff irrelevant at this h
GOLDEN_H = "3e-4"


def main() -> int:
    entries = []
    for name in CORPUS:
        chart = charts.get_example(name)
        point = charts.sample_points(chart, 2)[1]
        pack = fdcheck.geometry_from_chart(chart, h=GOLDEN_H).pack(
            point, deep=True)
        point = [float(c) for c in point]
        entries.append({
            "manifold": name,
            "point": point,
            "oracle": report.jsonable(pack),
        })
        print(f"  {name}: {len(pack)} quantities at {point}")
    doc = {
        "format": 2,
        "generator": "scripts/regen_goldens.py",
        "oracle": {"h": GOLDEN_H, "dps": fdcheck.DEFAULT_DPS},
        "entries": entries,
    }
    path = (Path(__file__).resolve().parents[1]
            / "src" / "bachlab" / "data" / "curvature_goldens.json")
    path.write_text(json.dumps(report.jsonable(doc), indent=1,
                               sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {path} ({path.stat().st_size} bytes, "
          f"{len(entries)} entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
