"""Deterministic interior point grids.

Lattice points are integer multiples of the spacing, so two domains that
overlap share the exact same candidate points.  No randomness anywhere.
Clearance is measured by ``Domain.dist_to_boundary``, the one distance
code of the package, so a kept point passes every later clearance guard
that asks for at most delta.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError


def grid_sample(domain, delta, spacing):
    """Interior lattice points with clearance.

    Returns the points of the grid spacing*(Z x Z) that lie inside the
    domain with distance at least delta from the boundary, as measured by
    Domain.dist_to_boundary.  Row-major order, y increasing then x.
    """
    if spacing <= 0:
        raise GeometryError("spacing must be positive, got %s" % spacing)
    if delta < 0:
        raise GeometryError("delta must be nonnegative, got %s" % delta)
    xmin, xmax, ymin, ymax = domain.bounding_box()
    i0 = int(np.ceil(xmin / spacing)) - 1
    i1 = int(np.floor(xmax / spacing)) + 1
    j0 = int(np.ceil(ymin / spacing)) - 1
    j1 = int(np.floor(ymax / spacing)) + 1
    xs = spacing * np.arange(i0, i1 + 1)
    ys = spacing * np.arange(j0, j1 + 1)
    X, Y = np.meshgrid(xs, ys)
    pts = (X + 1j * Y).ravel()

    keep = domain.contains_many(pts, boundary="exclude")
    pts = pts[keep]
    if delta > 0 and pts.size:
        dists = np.array([domain.dist_to_boundary(z) for z in pts])
        pts = pts[dists >= delta]
    return pts
