"""Gaussian curvature kappa = -c^{-2} Delta log c of the metric c.

Every evaluator gives kappa itself through curvatures(zs): the closed
forms are normalized to -4, the Szego solver differentiates the kernel
in its base point, and certificates (LPEvaluator), being lower bounds
from a finite orthonormal basis, refuse.
This module reads the pair (kappa, c) at one point, and scans both over
an interior grid as arrays, each from one batch of the evaluator.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError
from .geometry.sampling import grid_sample


class CurvatureScan:
    """The grid of a scan with kappas and values, the curvature and the
    metric at each of its points."""

    def __init__(self, domain, grid, kappas, values):
        self.domain = domain
        self.grid, self.kappas, self.values = grid, kappas, values
        self.kappa_min = float(np.min(kappas))
        self.kappa_max = float(np.max(kappas))

    @property
    def c_hat(self):
        """Constant for the two-sided curvature bound, -C <= kappa."""
        return -self.kappa_min

    def __repr__(self):
        return "CurvatureScan(%s, %d points, kappa in [%.4f, %.4f])" % (
            self.domain.label, len(self.grid), self.kappa_min, self.kappa_max)


def curvature_at(evaluator, z):
    """(kappa, c): the curvature of the evaluator's metric at z and the
    metric there."""
    zs = np.array([z], dtype=complex)
    kappa = float(evaluator.curvatures(zs)[0])
    return kappa, float(evaluator.values(zs)[0])


def scan_curvature(domain, evaluator, delta, spacing):
    """Curvature, with its min and max, over a lattice of clearance delta.

    The evaluator is asked for the grid's curvatures and then its values,
    each once for the whole grid.
    """
    grid = grid_sample(domain, delta, spacing)
    if len(grid) == 0:
        raise GeometryError("no grid points at clearance %g" % delta)
    kappas = evaluator.curvatures(grid)
    return CurvatureScan(domain, grid, kappas, evaluator.values(grid))
