"""Helpers shared by the tests that pin how curvature frames cover a point
set."""

import dataclasses

import numpy as np

from bachlab import curvature
from bachlab._jettables import tables
from bachlab.curvature import BASE_ORDER, CurvatureFrame
from bachlab.products import FactorCurvature


def count_frames(monkeypatch) -> list[tuple[int, int]]:
    """Record (order, number of points) of every `CurvatureFrame` built
    from now on."""
    orders: list[tuple[int, int]] = []
    init = CurvatureFrame.__init__

    def counted(self, chart, point, order=BASE_ORDER):
        orders.append((order, len(np.atleast_2d(point))))
        init(self, chart, point, order)

    monkeypatch.setattr(CurvatureFrame, "__init__", counted)
    return orders


def frame_bound(dim: int, order: int) -> int:
    """The most points one frame covers: its largest stage, dim**4 jets
    of the order's coefficients each, within ``_FRAME_COEFFS``."""
    return max(1, curvature._FRAME_COEFFS
               // (dim ** 4 * tables(dim, order).size))


def chunk_orders(n_points, order=BASE_ORDER, dim=4):
    """(order, points) of the frames over a set of n points."""
    size = frame_bound(dim, order)
    return [(order, min(size, n_points - start))
            for start in range(0, n_points, size)]


def distinct_orders(points, axes, order=BASE_ORDER, dim=4):
    """(order, points) of the frames over a point set whose metric reads
    the coordinates on `axes` alone, when each chunk's metric stages are
    read: the chunk's frame, and where the chunk repeats the bits of those
    coordinates, a distinct-point frame with one point per distinct row
    (distinct rows here give distinct metric jets)."""
    size = frame_bound(dim, order)
    out = []
    for start in range(0, len(points), size):
        chunk = np.asarray(points[start:start + size])[:, axes]
        out.append((order, len(chunk)))
        distinct = len({row.tobytes() for row in chunk})
        if distinct < len(chunk):
            out.append((order, distinct))
    return out


def factor_at(chart, point) -> FactorCurvature:
    """`FactorCurvature.at` on the one-point set of `point`, with its point
    axis dropped."""
    fc = FactorCurvature.at(chart, [point])
    return dataclasses.replace(fc, **{
        f.name: getattr(fc, f.name)[..., 0]
        for f in dataclasses.fields(fc)[1:]})


def per_point(monkeypatch, run):
    """run() with one frame per point, then with the default frames."""
    with monkeypatch.context() as m:
        m.setattr(curvature, "_FRAME_COEFFS", 1)
        one = run()
    return one, run()
