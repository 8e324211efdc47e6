"""Seeded input generators for the benchmark workloads.

Every input of a workload is drawn from ``numpy.random.default_rng`` keyed
by the run's seed and a stream name, so one seed names one set of inputs
and adding a stream never shifts another.  The functions here return plain
numbers, strings and case documents; bachlab receives only those, never
the seed.

Variations are chosen so that every check stays valid (conformal fields
stay conformal, brackets keep their root, quadratures keep their node
count), so no operation is expected to fail on any seed, and so that the
work per pass stays nearly the same from seed to seed.

``DEFAULT_SEED`` is the seed the benchmark is tuned on.  ``HELD_OUT_SEED``
is kept out of tuning: a speed-up claimed on the default seed should be
re-checked on it, on inputs the change was not written against.
"""

from __future__ import annotations

import zlib

import numpy as np
from scipy.stats import qmc

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

COORDS = ("x", "y", "z", "w")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def halton_unit(dim: int, count: int, seed: int, stream: str) -> np.ndarray:
    """Scrambled Halton points in the unit cube, shape (count, dim)."""
    scramble_seed = int(rng_for(seed, stream).integers(2 ** 31))
    return qmc.Halton(d=dim, scramble=True, seed=scramble_seed).random(count)


def random_metric(dim: int, rng: np.random.Generator) -> list[list[str]]:
    """Metric entries of a random analytic metric on the box [-1, 1]^dim.

    Positive definite on the box by Gershgorin: diagonal entries stay
    above 0.9 while each off-diagonal entry is below 0.1 in magnitude.
    """
    coords = COORDS[:dim]
    entries = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                c0 = 1.2 + 0.6 * rng.random()
                a, b = 0.25 * (2.0 * rng.random(2) - 1.0)
                c1, c2 = rng.choice(dim, size=2, replace=(dim == 1))
                term = (f"{c0:.6f} + {a:.6f}*sin({coords[c1]}) "
                        f"+ {b:.6f}*cos({coords[c2]})")
            else:
                s, t = 0.05 * (2.0 * rng.random(2) - 1.0)
                c1, c2 = rng.choice(dim, size=2, replace=(dim == 1))
                term = (f"{s:.6f}*sin({coords[c1]} + 2*{coords[c2]}) "
                        f"+ {t:.6f}*cos({coords[i]})*cos({coords[j]})")
            entries[i][j] = term
            entries[j][i] = term
    return entries


def oracle_metrics(seed: int, dims) -> list[dict]:
    """One random metric and one interior point per requested dimension."""
    rng = rng_for(seed, "oracle")
    out = []
    for dim in dims:
        entries = random_metric(dim, rng)
        point = 0.4 * (2.0 * rng.random(dim) - 1.0)
        out.append({"dim": dim, "coords": COORDS[:dim], "entries": entries,
                    "point": [float(v) for v in point]})
    return out


def soliton_inputs(seed: int) -> dict:
    """Berger bracket, round-Berger profile and conformal-field data."""
    rng = rng_for(seed, "soliton")
    return {
        # the squashed-sphere root sits at a = 1/2; the bracket keeps it
        # inside and keeps the round root a = 1 outside
        "berger_interval": (float(rng.uniform(0.25, 0.4)),
                            float(rng.uniform(0.6, 0.8))),
        # on line x round S^3 any affine potential a t + b is a soliton
        # with lambda = 0 (the product is conformally flat, X is Killing)
        "profile_ab": (float(rng.uniform(-0.5, 0.5)),
                       float(rng.uniform(-1.0, 1.0))),
    }


def curvature_inputs(seed: int) -> dict:
    """Bumpy-product amplitudes and product-factor parameters."""
    rng = rng_for(seed, "curvature")
    return {
        "bump": float(rng.uniform(0.05, 0.15)),
        "rescale": float(rng.uniform(0.1, 0.2)),
        "s3_radius": float(rng.uniform(0.8, 1.25)),
        "berger_a": float(rng.uniform(1.1, 1.6)),
        "s2_radius": float(rng.uniform(0.8, 1.25)),
        "h2_radius": float(rng.uniform(0.8, 1.25)),
        "torus_lengths": [float(v) for v in rng.uniform(5.0, 7.5, 2)],
    }


# quadrature resolutions with the same node count, so the cost of an
# integral identity does not depend on which one a seed picks
_RESOLUTIONS = ((10, 12), (12, 10), (15, 8))


def identity_cases(seed: int, count: int) -> dict[str, dict]:
    """Valid variations of the seven identity cases' fields.

    ``count`` is the base number of Halton points of the pointwise
    identities; the seed adds zero or one.
    """
    rng = rng_for(seed, "identities")

    def coef(lo, hi):
        return float(rng.uniform(lo, hi))

    def res():
        return list(_RESOLUTIONS[int(rng.integers(len(_RESOLUTIONS)))])

    def pts():
        return count + int(rng.integers(2))

    # a constant multiple of a conformal field is conformal
    k = coef(0.5, 1.5)
    conformal_x = [f"-{k:.6f}*sin(th)", "0"]
    t_diag = (coef(0.1, 0.4), coef(0.1, 0.3), coef(0.2, 0.5))
    t_generic = [[f"1 + {t_diag[0]:.6f}*cos(th)",
                  f"{t_diag[1]:.6f}*sin(th)*sin(ph)"],
                 [f"{t_diag[1]:.6f}*sin(th)*sin(ph)",
                  f"2 - {t_diag[2]:.6f}*cos(ph)*sin(th)"]]
    return {
        "lemma35": {"X": [f"{coef(0.2, 0.6):.6f}*sin(ph)*sin(th)",
                          f"{coef(0.4, 1.0):.6f}"],
                    "T": t_generic, "count": pts()},
        "thm32": {"X": conformal_x, "phi": f"{coef(0.1, 0.5):.6f}*cos(th)",
                  "resolution": res()},
        "yano": {"X": conformal_x, "count": pts()},
        "be": {"X": conformal_x, "q": "ricci", "resolution": res()},
        "thm38": {"X": conformal_x, "phi": f"{coef(0.05, 0.2):.6f}*cos(th)",
                  "resolution": res()},
        "bochner": {"h": f"{coef(0.3, 0.7):.6f}*cos(th) + "
                         f"{coef(0.1, 0.3):.6f}*sin(th)*cos(ph)",
                    "count": pts()},
        "lemma48": {"resolution": res()},
    }


def scan_grid(seed: int, cells: int) -> tuple[list[float], list[float]]:
    """A cells x cells (S0, c) grid, shifted by a seeded sub-cell offset."""
    rng = rng_for(seed, "scan")
    s0 = np.linspace(-4.0, 4.0, cells)
    c = np.linspace(-2.0, 2.0, cells)
    ds = (s0[1] - s0[0]) if cells > 1 else 1.0
    dc = (c[1] - c[0]) if cells > 1 else 1.0
    s0 = s0 + rng.uniform(-0.5, 0.5) * ds
    c = c + rng.uniform(-0.5, 0.5) * dc
    return [float(v) for v in s0], [float(v) for v in c]


def closure_radii(seed: int) -> tuple[float, float]:
    """Radii of two round caps; the profile with S0 = 2/r^2 closes at pi r."""
    rng = rng_for(seed, "closure")
    return float(rng.uniform(0.8, 1.3)), float(rng.uniform(1.6, 2.4))


def probe_jets(seed: int, size: int, count: int) -> np.ndarray:
    """Dense random coefficient vectors for the jet-product probe."""
    return rng_for(seed, f"probe-{size}").uniform(-1.0, 1.0, (count, size))
