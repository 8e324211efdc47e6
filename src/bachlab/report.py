"""Deterministic machine-readable check reports.

Reports are plain JSON objects serialized canonically: keys sorted,
floats in shortest round-trip form, no timestamps or environment state.
The same configuration therefore produces byte-identical output.

Gates fail closed: `sup` turns any NaN or infinity into ``inf``, which no
gate admits, and `check_record` never passes a value that holds a
non-finite number.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Mapping

import numpy as np

from . import __version__

__all__ = ["sup", "is_finite", "jsonable", "dumps", "canonical_json",
           "digest", "check_record", "build_report", "write_report"]


def sup(*values) -> float:
    """Largest entry of some numbers or arrays (0.0 when there are none).

    Any NaN or infinity gives ``inf``.  ``max(0.0, nan)`` is 0.0, so a
    running ``worst = max(worst, x)`` would drop a NaN; ``worst = sup(worst,
    x)`` keeps it as a failure.
    """
    flat = [np.ravel(np.asarray(v, dtype=float)) for v in values]
    flat = np.concatenate(flat) if flat else np.empty(0)
    if not np.all(np.isfinite(flat)):
        return math.inf
    return float(flat.max()) if flat.size else 0.0


def is_finite(obj) -> bool:
    """Whether every number in a JSON-ready value is finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(is_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(is_finite(v) for v in obj)
    return True


def jsonable(obj):
    """Recursively convert to plain JSON-serializable Python values."""
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in seq]
    summary = getattr(obj, "summary", None)
    if callable(summary):
        return jsonable(summary())
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(obj, **options) -> str:
    """Strict JSON text of a value: each NaN or infinity is written as the
    string "NaN", "Infinity" or "-Infinity", which every parser reads."""
    def text(x):
        if isinstance(x, dict):
            return {k: text(v) for k, v in x.items()}
        if isinstance(x, list):
            return list(map(text, x))
        return x if is_finite(x) else _JSON_NAMES[repr(float(x))]
    return json.dumps(text(jsonable(obj)), allow_nan=False, **options)


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, compact separators."""
    return dumps(obj, sort_keys=True, separators=(",", ":"),
                 ensure_ascii=True)


def digest(obj) -> str:
    """Short stable digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


def check_record(check_id: str, value, tolerance, passed: bool,
                 expected=None, inputs=None, detail=None) -> dict:
    """One check result row; optional fields are dropped when absent.

    A value that holds a NaN or an infinity never passes.
    """
    value = jsonable(value)
    rec = {"check_id": check_id, "value": value,
           "tolerance": jsonable(tolerance),
           "pass": bool(passed) and is_finite(value)}
    if expected is not None:
        rec["expected"] = jsonable(expected)
    if inputs is not None:
        rec["inputs_digest"] = digest(inputs)
    if detail is not None:
        rec["detail"] = jsonable(detail)
    return rec


def build_report(config: Mapping, checks: list[dict]) -> dict:
    """Assemble the full report with summary counts."""
    passed = sum(1 for c in checks if c["pass"])
    return {
        "tool": "bachlab",
        "version": __version__,
        "config": jsonable(config),
        "checks": [jsonable(c) for c in checks],
        "summary": {"checks": len(checks), "passed": passed,
                    "failed": len(checks) - passed},
    }


def write_report(rep: Mapping, path) -> str:
    """Write canonical JSON (with trailing newline); returns the text."""
    text = canonical_json(rep) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return text
