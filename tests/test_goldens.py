"""Pipeline regression against the frozen finite-difference goldens.

The values in ``bachlab/data/curvature_goldens.json`` were produced by
the independent mpmath oracle (see ``scripts/regen_goldens.py``); these
tests replay the fast jet pipeline on the same corpus and demand
agreement far below the oracle's own truncation error.
"""

import json
from importlib import resources

import numpy as np

from bachlab import charts
from bachlab.curvature import CurvatureFrame, pipeline_pack


def _goldens():
    path = resources.files("bachlab").joinpath("data/curvature_goldens.json")
    return json.loads(path.read_text(encoding="ascii"))


def test_goldens_cover_all_dimensions():
    doc = _goldens()
    assert doc["format"] == 2
    names = [entry["manifold"] for entry in doc["entries"]]
    assert len(names) == len(set(names)) >= 5
    dims = {len(entry["point"]) for entry in doc["entries"]}
    assert {2, 3, 4} <= dims


def test_pipeline_matches_frozen_goldens():
    for entry in _goldens()["entries"]:
        man = charts.get_example(entry["manifold"])
        pack = pipeline_pack(CurvatureFrame(man, entry["point"]),
                             deep=True)
        gold = entry["oracle"]
        assert set(pack) == set(gold), entry["manifold"]
        for key, val in pack.items():
            ref = np.asarray(gold[key], dtype=float)
            scale = max(1.0, np.abs(ref).max())
            dev = float(np.abs(np.asarray(val, dtype=float) - ref).max()
                        / scale)
            assert dev <= 1e-9, (entry["manifold"], key, dev)
