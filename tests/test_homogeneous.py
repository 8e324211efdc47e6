"""Curvature from structure constants against Milnor's closed forms and
against the jet pipeline on the catalog charts that are Lie groups."""

import numpy as np
import pytest
import scipy.linalg

from bachlab import charts, homogeneous
from bachlab.homogeneous import (HomogeneousError, factor_curvature,
                                 levi_civita, riemann, structure_constants)
from bachlab.products import FactorCurvature

# Milnor's unimodular 3-dimensional families, by the signs of their brackets
MILNOR = {"su2": (2.0, 1.3, 0.7), "sl2": (1.5, 0.9, -0.6),
          "e2": (1.2, 0.8, 0.0), "sol": (1.1, -0.7, 0.0),
          "heisenberg": (1.4, 0.0, 0.0), "abelian": (0.0, 0.0, 0.0)}


def milnor_ricci(brackets):
    """Ric(e_i) = 2 mu_j mu_k with mu_i = (l_1 + l_2 + l_3)/2 - l_i
    (Milnor 1976, section 4), the frame diagonalizing Ric."""
    mu = 0.5 * sum(brackets) - np.asarray(brackets, dtype=float)
    return 2.0 * np.array([mu[1] * mu[2], mu[2] * mu[0], mu[0] * mu[1]])


@pytest.mark.parametrize("name", sorted(MILNOR))
def test_ricci_matches_milnor(name):
    brackets = MILNOR[name]
    fc = factor_curvature(structure_constants(brackets))
    expected = milnor_ricci(brackets)
    assert np.abs(fc.ricci - np.diag(expected)).max() <= 1e-14
    assert abs(fc.scalar - expected.sum()) <= 1e-14


@pytest.mark.parametrize("name", sorted(MILNOR))
def test_connection_and_riemann_symmetries(name):
    c = structure_constants(MILNOR[name])
    gam, r = levi_civita(c), riemann(c)
    # metric compatibility and torsion freedom of the frame's connection
    assert np.abs(gam + gam.transpose(0, 2, 1)).max() <= 1e-15
    assert np.abs(gam - gam.transpose(1, 0, 2) - c).max() <= 1e-15
    # R[i, j, k, m]: antisymmetric pairs, pair symmetry, first Bianchi
    assert np.abs(r + r.transpose(1, 0, 2, 3)).max() <= 1e-14
    assert np.abs(r + r.transpose(0, 1, 3, 2)).max() <= 1e-14
    assert np.abs(r - r.transpose(2, 3, 0, 1)).max() <= 1e-14
    bianchi = r + np.einsum("jkim->ijkm", r) + np.einsum("kijm->ijkm", r)
    assert np.abs(bianchi).max() <= 1e-14


def test_round_sphere_is_einstein_with_parallel_ricci():
    fc = factor_curvature(structure_constants((2.0, 2.0, 2.0)))
    assert np.array_equal(fc.ricci, 2.0 * np.eye(3))
    assert fc.scalar == 6.0 and fc.ricci_norm2 == 12.0
    assert np.array_equal(fc.lap_ricci, np.zeros((3, 3)))


@pytest.mark.parametrize("name", sorted(MILNOR))
def test_rough_laplacian_of_ricci_is_trace_free(name):
    # tr Lap Ric = Lap S, and S is constant on a Lie group
    fc = factor_curvature(structure_constants(MILNOR[name]))
    assert np.array_equal(fc.g, np.eye(3)) and fc.lap_scalar == 0.0
    assert abs(np.trace(fc.lap_ricci)) <= 1e-13


@pytest.mark.parametrize("bad, message", [
    (np.zeros((3, 3)), "(n, n, n)"),
    (np.zeros((2, 3, 3)), "(n, n, n)"),
    (np.ones((3, 3, 3)), "antisymmetric"),
    (np.full((2, 2, 2), np.nan), "finite"),
])
def test_structure_constants_are_checked(bad, message):
    with pytest.raises(HomogeneousError, match=message):
        factor_curvature(bad)


@pytest.mark.parametrize("brackets", [(1.0, 2.0), (1.0, np.inf, 0.0)])
def test_milnor_brackets_are_checked(brackets):
    with pytest.raises(HomogeneousError, match="three finite numbers"):
        structure_constants(brackets)


# ----------------------------------------------------------------------
# the jet pipeline on the Lie-group catalog charts
# ----------------------------------------------------------------------
def generalized_eigenvalues(t, g):
    """Sorted eigenvalues of t against g at each point of a point set."""
    return np.array([scipy.linalg.eigh(t[..., k], g[..., k],
                                       eigvals_only=True)
                     for k in range(t.shape[-1])])


def lie_group_cases():
    # the Berger chart's frame: [e_2, e_3] = 2a e_1, [e_3, e_1] = (2/a) e_2,
    # [e_1, e_2] = (2/a) e_3; round S^3 of radius r has all three 2/r
    for a in (0.5, 0.7, 1.0, 1.5, 2.2):
        yield (f"berger_sphere[{a}]", charts.berger_sphere(a),
               structure_constants((2.0 * a, 2.0 / a, 2.0 / a)))
    for r in (1.0, 1.3):
        yield (f"round_sphere_3[{r}]", charts.round_sphere(3, r),
               structure_constants((2.0 / r,) * 3))
    for name, n in (("flat_torus_2", 2), ("flat_torus_3", 3)):
        yield name, charts.get_example(name).chart, np.zeros((n, n, n))


@pytest.mark.parametrize("chart, c", [case[1:] for case in lie_group_cases()],
                         ids=[case[0] for case in lie_group_cases()])
def test_homogeneous_route_matches_the_jets(chart, c):
    # frame-invariant quantities (eigenvalues against g, and scalars) at the
    # chart's center and one more point away from its coordinate
    # singularities, relative to the curvature scale k = max(1, |Ric|) to
    # the quantity's degree: k for Ric and S, k^2 for the rest
    pts = np.array([chart.center(), chart.center() + 0.3])
    jets = FactorCurvature.at(chart, pts)
    alg = factor_curvature(c)
    k = max(1.0, np.abs(np.linalg.eigvalsh(alg.ricci)).max())
    for name, degree in (("ricci", 1), ("ricci_sq", 2), ("lap_ricci", 2)):
        expected = np.sort(np.linalg.eigvalsh(getattr(alg, name)))
        got = generalized_eigenvalues(getattr(jets, name), jets.g)
        assert np.abs(got - expected).max() <= 1e-12 * k**degree, name
    for name, degree in (("scalar", 1), ("ricci_norm2", 2),
                         ("lap_scalar", 2)):
        dev = np.abs(getattr(jets, name) - getattr(alg, name)).max()
        assert dev <= 1e-12 * k**degree, name
